import warnings

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


def test_raw_blobs_are_centered_at_the_origin():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # raw mode sits outside the box
        ds = data.make_blobs(400, k=2, d=3, separation=6.0, seed=1,
                             center=None)
    mean = ds.images.mean(axis=0)
    assert np.all(np.abs(mean) < 0.4)  # two symmetric clusters cancel


def test_digits_shapes_and_range():
    ds = data.make_digits(3, classes=(0, 1, 7), size=16, seed=4)
    assert ds.images.shape == (9, 1, 16, 16)
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    np.testing.assert_array_equal(np.sort(np.unique(ds.labels)), [0, 1, 2])
    assert ds.class_map == {0: 0, 1: 1, 7: 2}


@pytest.mark.parametrize("make, key", [
    (lambda: data.make_digits(-1, classes=(0, 1), size=8), "n_per_class"),
    (lambda: data.make_digits(2, classes=(0, 1), size=0), "size"),
    (lambda: data.make_digits(2, classes=(0, 11), size=8), "classes"),
    (lambda: data.make_blobs(-1, 3, 4, 5.0, 0), "n_per_class"),
    (lambda: data.make_blobs(5, 1, 4, 5.0, 0), "k"),
    (lambda: data.make_blobs(5, 3, 0, 5.0, 0), "d"),
    (lambda: data.make_blobs(5, 3, 4, 0.0, 0), "separation"),
    (lambda: data.make_digits(2, classes=(0, 1), size=8, seed=-2), "seed"),
    (lambda: data.make_blobs(5, 3, 4, 5.0, -2), "seed"),
    (lambda: data.sample(data.make_blobs(5, 3, 4, 5.0, 0), 4, -2), "seed"),
], ids=["digits-n_per_class", "digits-size", "digits-classes",
        "blobs-n_per_class", "blobs-k", "blobs-d", "blobs-separation",
        "digits-seed", "blobs-seed", "sample-seed"])
def test_generators_refuse_bad_arguments_by_name(make, key):
    with pytest.raises(ValueError, match=f"^{key}: "):
        make()


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
