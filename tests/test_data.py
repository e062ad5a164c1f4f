import re

import numpy as np
import pytest

from boundarylab import data


# -- idx files -----------------------------------------------------------


def test_idx_round_trip(tmp_path, rng):
    pixels = rng.integers(0, 256, size=(12, 1, 9, 7)).astype(np.float64)
    ds = data.Dataset(images=pixels / 255.0,
                      labels=rng.integers(0, 4, size=12),
                      dataset_id="synthetic")
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    back = data.load_idx(ip, lp)
    np.testing.assert_array_equal(back.images, ds.images)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.images.shape == (12, 1, 9, 7)


def test_idx_bytes_scale_to_unit_interval(tmp_path):
    ds = data.Dataset(images=np.array([[[[0.0, 1.0], [1.0, 0.0]]]]),
                      labels=np.array([0]), dataset_id="x")
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    raw = ip.read_bytes()
    assert raw[16:20] == bytes([0, 255, 255, 0])
    back = data.load_idx(ip, lp)
    assert back.images.min() == 0.0 and back.images.max() == 1.0


def test_idx_write_quantizes_to_byte_grid(tmp_path):
    ds = data.Dataset(images=np.array([[[[0.5]]]]), labels=np.array([1]),
                      dataset_id="x")
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    back = data.load_idx(ip, lp)
    assert back.images[0, 0, 0, 0] == round(0.5 * 255) / 255


def _write_pair(tmp_path, rng):
    ds = data.Dataset(images=rng.uniform(0, 1, size=(5, 1, 4, 4)),
                      labels=rng.integers(0, 3, size=5), dataset_id="x")
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    data.write_idx(ds, ip, lp)
    return ip, lp


def test_idx_rejects_bad_image_magic(tmp_path, rng):
    ip, lp = _write_pair(tmp_path, rng)
    blob = bytearray(ip.read_bytes())
    blob[3] = 0x99
    ip.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="magic.*offset 0"):
        data.load_idx(ip, lp)


def test_idx_rejects_truncated_images(tmp_path, rng):
    ip, lp = _write_pair(tmp_path, rng)
    ip.write_bytes(ip.read_bytes()[:-3])
    with pytest.raises(ValueError, match="expected.*bytes"):
        data.load_idx(ip, lp)


def test_idx_rejects_count_mismatch(tmp_path, rng):
    ip, lp = _write_pair(tmp_path, rng)
    blob = bytearray(lp.read_bytes())
    blob[7] -= 1  # drop the label count without shortening the payload
    lp.write_bytes(bytes(blob[:-1]))
    with pytest.raises(ValueError, match="mismatch"):
        data.load_idx(ip, lp)


def test_idx_rejects_short_header(tmp_path):
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    ip.write_bytes(b"\x00\x00\x08")
    lp.write_bytes(b"")
    with pytest.raises(ValueError, match="16 bytes"):
        data.load_idx(ip, lp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_images(rng, bad):
    images = rng.uniform(0, 1, size=(6, 1, 4, 4))
    images[3, 0, 2, 1] = bad
    images[5, 0, 0, 0] = bad
    with pytest.raises(ValueError, match="image 3 has a non-finite pixel"):
        data.Dataset(images=images, labels=np.zeros(6, dtype=np.int64))


# -- class filtering -----------------------------------------------------


def make_tiny():
    images = np.arange(8, dtype=np.float64).reshape(8, 1) / 10.0
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    return data.Dataset(images=images, labels=labels, dataset_id="tiny")


def test_k_is_the_largest_class_index_plus_one():
    # a class with no examples still counts: labels {0, 1, 3} are 4 classes
    ds = data.Dataset(images=np.zeros((3, 1, 2, 2)),
                      labels=np.array([0, 1, 3]))
    assert ds.class_map == {0: 0, 1: 1, 3: 3} and ds.k == 4
    assert make_tiny().k == 4
    assert data.filter_classes(make_tiny(), [1, 3]).k == 2
    empty = data.Dataset(images=np.zeros((0, 1, 2, 2)),
                         labels=np.zeros(0, dtype=np.int64))
    assert empty.class_map == {} and empty.k == 0


def test_filter_keeps_order_and_reindexes():
    out = data.filter_classes(make_tiny(), [1, 3])
    np.testing.assert_array_equal(out.labels, [0, 1, 0, 1])
    np.testing.assert_array_equal(out.images[:, 0], [0.1, 0.3, 0.5, 0.7])
    assert out.class_map == {1: 0, 3: 1}


def test_filter_twice_equals_intersection():
    once = data.filter_classes(make_tiny(), [1, 2])
    twice = data.filter_classes(data.filter_classes(make_tiny(), [1, 2, 3]),
                                [1, 2])
    np.testing.assert_array_equal(once.images, twice.images)
    np.testing.assert_array_equal(once.labels, twice.labels)
    assert once.class_map == twice.class_map


def test_filter_rejects_absent_class():
    with pytest.raises(ValueError, match="9"):
        data.filter_classes(make_tiny(), [0, 9])


def test_filter_to_single_class_warns():
    with pytest.warns(UserWarning, match="1 class"):
        out = data.filter_classes(make_tiny(), [2])
    np.testing.assert_array_equal(out.labels, [0, 0])


# -- subsampling ---------------------------------------------------------


def test_sample_is_deterministic_without_replacement():
    ds = make_tiny()
    a = data.sample(ds, 5, seed=3)
    b = data.sample(ds, 5, seed=3)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert len(a.labels) == 5
    assert len(np.unique(a.images[:, 0])) == 5  # no repeats


def test_sample_rejects_oversize():
    with pytest.raises(ValueError):
        data.sample(make_tiny(), 9, seed=0)


# -- synthetic corpora ---------------------------------------------------


def test_blobs_are_deterministic():
    a = data.make_blobs(20, k=3, d=5, separation=4.0, seed=9)
    b = data.make_blobs(20, k=3, d=5, separation=4.0, seed=9)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.dataset_id == b.dataset_id
    c = data.make_blobs(20, k=3, d=5, separation=4.0, seed=10)
    assert not np.array_equal(a.images, c.images)


def test_blobs_live_in_the_box():
    ds = data.make_blobs(30, k=4, d=6, separation=5.0, seed=0)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.images.shape == (120, 6)
    np.testing.assert_array_equal(np.bincount(ds.labels), [30] * 4)


def test_blobs_with_high_separation_are_linearly_separable():
    from boundarylab import model
    ds = data.make_blobs(40, k=2, d=4, separation=10.0, seed=2)
    clf = model.train(model.linear_model(4, 2, seed=0), ds, epochs=30,
                      seed=0)
    assert (clf.predict(ds.images) == ds.labels).mean() == 1.0


def test_digits_shapes_and_range():
    ds = data.make_digits(3, classes=(0, 1, 7), size=16, seed=4)
    assert ds.images.shape == (9, 1, 16, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    np.testing.assert_array_equal(np.sort(np.unique(ds.labels)), [0, 1, 2])
    assert ds.class_map == {0: 0, 1: 1, 7: 2}


@pytest.mark.parametrize("make, key", [
    (lambda: data.make_digits(-1, classes=(0, 1), size=8), "n_per_class"),
    (lambda: data.make_digits(2, classes=(0, 1), size=0), "size"),
    (lambda: data.make_digits(2, classes=(0, 11), size=8), r"classes\[1\]"),
    (lambda: data.make_blobs(-1, 3, 4, 5.0, 0), "n_per_class"),
    (lambda: data.make_blobs(5, 1, 4, 5.0, 0), "k"),
    (lambda: data.make_blobs(5, 3, 0, 5.0, 0), "d"),
    (lambda: data.make_blobs(5, 3, 4, 0.0, 0), "separation"),
    (lambda: data.make_blobs(5, 3, 4, np.nan, 0), "separation"),
    (lambda: data.make_digits(2, classes=(0, 1), size=8, seed=-2), "seed"),
    (lambda: data.make_blobs(5, 3, 4, 5.0, -2), "seed"),
    (lambda: data.sample(data.make_blobs(5, 3, 4, 5.0, 0), 4, -2), "seed"),
    (lambda: data.sample(data.make_blobs(5, 3, 4, 5.0, 0), -1, 0), "n"),
], ids=["digits-n_per_class", "digits-size", "digits-classes",
        "blobs-n_per_class", "blobs-k", "blobs-d", "blobs-separation",
        "blobs-separation-nan", "digits-seed", "blobs-seed", "sample-seed",
        "sample-n"])
def test_generators_refuse_bad_arguments_by_name(make, key):
    with pytest.raises(ValueError, match=f"^{key}: "):
        make()


@pytest.mark.parametrize("classes, message", [
    ((0, 11), "classes[1]: must be <= 9, got 11"),
    ((-1, 2), "classes[0]: must be >= 0, got -1"),
    ((), "classes: empty list"),
], ids=["above-9", "negative", "empty"])
def test_a_digit_class_is_a_digit_with_a_stroke_template(classes, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        data.make_digits(2, classes=classes, size=8)


def test_a_digit_listed_twice_is_refused_not_relabelled():
    # two copies of digit 1 would be classes 0 and 1 under one class_map key
    with pytest.raises(ValueError,
                       match=r"^classes: digit 1 is listed twice$"):
        data.make_digits(2, classes=(0, 1, 1), size=8)


def test_check_value_words_each_rule_one_way():
    check = data._check_value
    assert check("n", np.int64(3), int, ">=", 0) == 3
    assert type(check("x", 2, float)) is float
    for value, kind, error, message in [
            (2.0, int, TypeError, "n: expected int, got float"),
            (True, int, TypeError, "n: expected int, got bool"),
            (True, float, TypeError, "n: expected float, got bool"),
            ("2", float, TypeError, "n: expected float, got str"),
            (np.nan, float, ValueError, "n: must be finite, got nan"),
            (10**400, float, ValueError,
             "n: must be finite, got an int too big for a float"),
            (-1, int, ValueError, "n: must be >= 0, got -1")]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check("n", value, kind, ">=", 0)
    with pytest.raises(ValueError, match=r"^x: must be > 0, got 0.0$"):
        check("x", 0.0, float, ">", 0)


def test_check_value_takes_an_upper_bound_and_a_list_kind():
    check = data._check_value
    assert type(check("m", 0, float, ">=", 0, "<", 1)) is float
    assert check("n", 40, int, ">=", 0, "<=", 40) == 40
    for value, message in [(1, "m: must be < 1, got 1"),
                           (-0.5, "m: must be >= 0, got -0.5")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check("m", value, float, ">=", 0, "<", 1)
    got = check("s", (np.int64(2), 3), [int], ">=", 0)
    assert got == [2, 3] and all(type(v) is int for v in got)
    assert check("s", (), [int]) == [] and check("s", [4], [int, 1]) == [4]
    for value, error, message in [
            ("12", TypeError, "s: expected list, got str"),
            ([1, 1.7], TypeError, "s[1]: expected int, got float"),
            ([0, -1], ValueError, "s[1]: must be >= 0, got -1")]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check("s", value, [int], ">=", 0)
    # a list kind with a least length of 1: the list's type comes first
    for value, error, message in [
            ((), ValueError, "s: empty list"),
            ("", TypeError, "s: expected list, got str"),
            ([-1], ValueError, "s[0]: must be >= 0, got -1")]:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check("s", value, [int, 1], ">=", 0)


@pytest.mark.parametrize("make, error, message", [
    (lambda: data.make_digits(2, classes=(1.7, 2), size=8), TypeError,
     "classes[0]: expected int, got float"),
    (lambda: data.make_digits(2, classes="12", size=8), TypeError,
     "classes: expected list, got str"),
    (lambda: data.filter_classes(make_tiny(), [1.5, 2]), TypeError,
     "keep[0]: expected int, got float"),
    (lambda: data.sample(data.make_blobs(10, 4, 3, 5.0, 0), 50, 0),
     ValueError, "n: must be <= 40, got 50"),
], ids=["classes-float", "classes-str", "keep-float", "sample-n-above-size"])
def test_data_functions_refuse_what_they_used_to_truncate(make, error,
                                                          message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("keep, message", [
    ([], "keep: empty list"),
    ([1, 7], "keep: classes [7] not present (have [0, 1, 2, 3])"),
], ids=["empty", "absent"])
def test_filter_classes_refusals_name_keep(keep, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        data.filter_classes(make_tiny(), keep)


def test_blobs_use_the_checked_separation():
    a = data.make_blobs(3, 2, 2, 4, 0)
    b = data.make_blobs(3, 2, 2, 4.0, 0)
    assert a.dataset_id == b.dataset_id
    np.testing.assert_array_equal(a.images, b.images)


def test_digits_are_deterministic():
    a = data.make_digits(2, classes=(3, 5), size=14, seed=8)
    b = data.make_digits(2, classes=(3, 5), size=14, seed=8)
    np.testing.assert_array_equal(a.images, b.images)
    c = data.make_digits(2, classes=(3, 5), size=14, seed=9)
    assert not np.array_equal(a.images, c.images)


def test_digits_are_distinguishable_by_a_small_model():
    from boundarylab import model
    train = data.make_digits(30, classes=(0, 1), size=12, seed=0)
    test = data.make_digits(10, classes=(0, 1), size=12, seed=1)
    flat_train = data.Dataset(images=train.images.reshape(60, -1),
                              labels=train.labels, dataset_id="f")
    flat_test = data.Dataset(images=test.images.reshape(20, -1),
                             labels=test.labels, dataset_id="f")
    clf = model.train(model.mlp((144,), k=2, n=2, hidden=(24,), seed=0),
                      flat_train, epochs=15, seed=0)
    acc = (clf.predict(flat_test.images) == flat_test.labels).mean()
    assert acc >= 0.9


# -- the batched renderer against the per-example one ---------------------


def _render_one(polys, size, width):
    """The per-example distance field ``data._render`` replaced."""
    a, b = data._segments(polys)
    coords = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(coords, coords, indexing="xy")
    p = np.stack([px.ravel(), py.ravel()], axis=1)  # (P, 2), (x, y)
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0.0] = 1e-12
    ap = p[:, None, :] - a[None, :, :]  # (P, S, 2)
    tpar = np.clip((ap * ab[None]).sum(axis=2) / denom, 0.0, 1.0)
    closest = a[None] + tpar[:, :, None] * ab[None]
    dist = np.sqrt(((p[:, None, :] - closest) ** 2).sum(axis=2)).min(axis=1)
    img = np.exp(-((dist / width) ** 2))
    return img.reshape(size, size)


def _digits_one_at_a_time(n_per_class, classes, size, seed):
    """The per-example corpus loop ``data.make_digits`` replaced."""
    from scipy.ndimage import gaussian_filter
    rng = np.random.default_rng(seed)
    hi = 2 * size
    images = np.empty((n_per_class * len(classes), 1, size, size))
    labels = np.empty(n_per_class * len(classes), dtype=np.int64)
    row = 0
    for ci, cl in enumerate(classes):
        base = data._STROKES[cl]
        for _ in range(n_per_class):
            theta = rng.uniform(-0.21, 0.21)
            scale = rng.uniform(0.85, 1.1)
            shift = rng.uniform(-0.05, 0.05, 2)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            polys = []
            for ply in base:
                jit = ply + rng.normal(0.0, 0.015, ply.shape)
                polys.append((jit - 0.5) @ (scale * rot).T + 0.5 + shift)
            width = rng.uniform(0.022, 0.03)
            img = _render_one(polys, hi, width)
            img = img.reshape(size, 2, size, 2).mean(axis=(1, 3))
            img = gaussian_filter(img, sigma=rng.uniform(0.4, 0.9))
            img = img + rng.normal(0.0, 0.02, img.shape)
            images[row, 0] = np.clip(img, 0.0, 1.0)
            labels[row] = ci
            row += 1
    order = rng.permutation(len(labels))
    return images[order], labels[order]


def _uneven_count(size):
    """An n_per_class whose last render chunk is short for some class."""
    pixels = (2 * size) ** 2
    chunks = [data._RENDER_CHUNK // (sum(len(p) - 1 for p in polys) * pixels)
              for polys in data._STROKES.values()]
    return 1 + min(c for c in chunks if c > 1)


@pytest.mark.parametrize("seed", [0, 3, 17])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 14, 16, 28])
def test_digits_match_the_per_example_renderer(size, seed):
    classes = tuple(range(10))
    for n in (0, 1, _uneven_count(size)):
        ds = data.make_digits(n, classes=classes, size=size, seed=seed)
        images, labels = _digits_one_at_a_time(n, classes, size, seed)
        assert ds.images.tobytes() == images.tobytes(), (n, size, seed)
        assert ds.labels.tobytes() == labels.tobytes(), (n, size, seed)


def test_render_of_one_example_matches_the_per_example_renderer(rng):
    # a zero-length segment exercises the guarded denominator
    polys = [rng.uniform(0, 1, (6, 2)), np.array([[0.3, 0.4], [0.3, 0.4]])]
    a, b = data._segments(polys)
    for size, width in ((7, 0.05), (32, 0.025)):
        one = data._render(a[None], b[None], size, np.array([width]))
        assert one.shape == (1, size, size)
        assert one[0].tobytes() == _render_one(polys, size, width).tobytes()


def test_blur_matches_scipy_where_the_radius_steps(rng):
    # int(4 sigma + 0.5) steps from 2 to 3 at 0.625 and from 3 to 4 at 0.875
    from scipy.ndimage import gaussian_filter
    sigmas = np.array([v for s in (0.625, 0.875) for v in
                       (np.nextafter(s, 0.0), s, np.nextafter(s, 1.0))])
    assert list((4.0 * sigmas + 0.5).astype(int)) == [2, 3, 3, 3, 4, 4]
    for size in (1, 2, 3, 7, 16):
        for images in (np.zeros((len(sigmas), size, size)),
                       np.full((len(sigmas), size, size), 0.3),
                       rng.uniform(0.0, 1.0, (len(sigmas), size, size))):
            out = np.empty_like(images)
            data._blur(images, sigmas, out)
            for e, sigma in enumerate(sigmas):
                want = gaussian_filter(images[e], sigma=sigma)
                assert out[e].tobytes() == want.tobytes(), (size, sigma)
