import dataclasses
import inspect
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from boundarylab import attacks, data, geometry, model, verify


def one(x):
    """x as a batch of one row."""
    return np.asarray(x, dtype=np.float64)[None]


def linear_two_class():
    w = np.array([[3.0, 1.0], [0.0, 0.0]])
    b = np.array([0.0, 0.2])
    clf = model.linear_model(2, 2, weight=w, bias=b)
    return clf, geometry.boundary_set_for(clf)


# -- config --------------------------------------------------------------


def test_config_rejects_bad_values():
    ok = dict(epsilon=0.1, alpha=0.01, restarts=1, n_init=2, n_attack=8,
              seed=0)
    attacks.AttackConfig(**ok)
    for bad in (dict(epsilon=-0.1), dict(alpha=0.0),
                dict(restarts=0), dict(n_init=-1), dict(n_attack=-1),
                dict(eta_init=-0.01), dict(seed=-1)):
        with pytest.raises(ValueError):
            attacks.AttackConfig(**{**ok, **bad})
    with pytest.raises(ValueError, match="^seed: must be >= 0, got -1$"):
        attacks.AttackConfig(**{**ok, "seed": -1})
    for bad in (dict(restarts=2.5), dict(n_init="2"), dict(n_attack=True),
                dict(seed=1.0)):
        name = next(iter(bad))
        with pytest.raises(TypeError, match=f"^{name}: expected int, got"):
            attacks.AttackConfig(**{**ok, **bad})
    for name in ("epsilon", "alpha", "eta_init"):
        for value in (np.nan, np.inf, -np.inf, 10**400):
            with pytest.raises(ValueError, match=f"^{name}: must be finite"):
                attacks.AttackConfig(**{**ok, name: value})
        for value in (True, "0.1"):
            with pytest.raises(TypeError,
                               match=f"^{name}: expected float, got"):
                attacks.AttackConfig(**{**ok, name: value})
    attacks.AttackConfig(**{**ok, "restarts": np.int64(2)})


def test_config_defaults_resolve_from_epsilon():
    cfg = attacks.AttackConfig(epsilon=0.25, alpha=0.01, restarts=1,
                               n_init=1, n_attack=1, seed=0)
    assert cfg.eta_init == 0.25
    zero = attacks.AttackConfig(epsilon=0.0, alpha=0.03, restarts=1,
                                n_init=1, n_attack=1, seed=0)
    assert zero.eta_init == 0.03  # any positive step; the clip pins it


def test_config_keeps_the_checked_values():
    cfg = attacks.AttackConfig(epsilon=1, alpha=np.float64(0.5), eta_init=2,
                               restarts=np.int64(2), n_init=np.int32(1),
                               n_attack=3, seed=np.uint64(4))
    got = dataclasses.asdict(cfg)
    assert got == {"epsilon": 1.0, "alpha": 0.5, "eta_init": 2.0,
                   "restarts": 2, "n_init": 1, "n_attack": 3, "seed": 4}
    assert {f: type(v) for f, v in got.items()} == {
        f.name: float if f.name in ("epsilon", "alpha", "eta_init") else int
        for f in dataclasses.fields(cfg)}
    assert type(attacks.AttackConfig(epsilon=0, alpha=1).eta_init) is float
    # numpy's narrower floats are checked for finiteness without the
    # overflow warning that a float32 comparison with the largest double
    # gives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        narrow = attacks.AttackConfig(epsilon=np.float32(0.25),
                                      alpha=np.float16(0.5),
                                      eta_init=np.float32(2))
    assert (narrow.epsilon, narrow.alpha, narrow.eta_init) == (0.25, 0.5, 2.0)
    assert type(narrow.epsilon) is float


def test_budget_split_preserves_total():
    cfg = attacks.AttackConfig(epsilon=0.1, alpha=0.01, restarts=1,
                               n_init=3, n_attack=7, seed=0)
    for k in range(11):
        split = cfg.with_budget_split(k)
        assert split.n_init == k
        assert split.n_init + split.n_attack == 10
    # one split of the config's splits_rule: 0..10
    assert cfg.splits_rule() == ([int, 1], ">=", 0, "<=", 10)
    with pytest.raises(ValueError, match=r"^n_init: must be <= 10, got 11$"):
        cfg.with_budget_split(11)
    with pytest.raises(ValueError, match=r"^n_init: must be >= 0, got -1$"):
        cfg.with_budget_split(-1)
    # the kind is checked before the range is compared
    with pytest.raises(TypeError, match="^n_init: expected int, got str$"):
        cfg.with_budget_split("3")
    assert type(cfg.with_budget_split(np.int64(4)).n_init) is int


# -- random start --------------------------------------------------------


def test_random_start_stays_in_ball_and_box(rng):
    x = rng.uniform(0, 1, size=17)
    for seed in range(20):
        s = attacks.random_start_batch(one(x), 0.3, [seed])[0]
        assert np.all(np.abs(s - x) <= 0.3 + 1e-15)
        assert np.all((s >= 0.0) & (s <= 1.0))


def test_random_start_is_deterministic(rng):
    x = rng.uniform(0, 1, size=9)
    def start(seed):
        return attacks.random_start_batch(one(x), 0.2, [seed])

    np.testing.assert_array_equal(start(5), start(5))
    assert not np.array_equal(start(5), start(6))


def test_random_start_zero_radius_is_identity(rng):
    x = rng.uniform(0, 1, size=9)
    np.testing.assert_array_equal(
        attacks.random_start_batch(one(x), 0.0, [3])[0], x)


def test_random_start_batch_matches_scalar(rng):
    x = rng.uniform(0, 1, size=(6, 5))
    seeds = np.array([3, 9, 27, 81, 243, 729])
    batch = attacks.random_start_batch(x, 0.15, seeds)
    for r in range(6):
        # a B=1 call equals its row of the batch
        np.testing.assert_array_equal(
            batch[r:r + 1],
            attacks.random_start_batch(x[r:r + 1], 0.15, seeds[r:r + 1]))


# Seeds at the 32- and 64-bit word edges of SeedSequence's entropy, plus
# 500 random non-negative int64 values.
SEEDS = np.concatenate((
    np.array([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1], dtype=np.int64),
    np.random.default_rng(42).integers(0, 2**63 - 1, 500, dtype=np.int64,
                                       endpoint=True),
))


def test_seed_states_match_seed_sequence():
    states = attacks._seed_states(SEEDS)
    assert states.dtype == np.uint64 and states.shape == (SEEDS.size, 4)
    for seed, row in zip(SEEDS, states):
        expected = np.random.SeedSequence(int(seed)).generate_state(
            4, np.uint64)
        assert row.tobytes() == expected.tobytes(), seed


def _random_start_rows(x, radius, seeds):
    # the per-row reference: one default_rng per example
    out = np.empty_like(x)
    for i, seed in enumerate(seeds):
        delta = np.random.default_rng(int(seed)).uniform(-radius, radius,
                                                         x.shape[1:])
        out[i] = np.clip(x[i] + delta, 0.0, 1.0)
    return out


@pytest.mark.parametrize("radius", [0.0, 0.03, 8 / 255, 0.0173])
@pytest.mark.parametrize("shape", [(7,), (1, 14, 14)])
def test_random_start_batch_equals_per_row_default_rng(radius, shape):
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (SEEDS.size,) + shape)
    x[:, 0] = 0.0  # rows that touch the box walls
    x[1::2, -1] = 1.0
    got = attacks.random_start_batch(x, radius, SEEDS)
    assert got.tobytes() == _random_start_rows(x, radius, SEEDS).tobytes()
    empty = attacks.random_start_batch(x[:0], radius, SEEDS[:0])
    assert empty.shape == (0,) + shape


def test_random_start_batch_clips_once_per_batch(monkeypatch, rng):
    calls = []
    clip = np.clip

    def counted(*args, **kwargs):
        calls.append(1)
        return clip(*args, **kwargs)

    monkeypatch.setattr(np, "clip", counted)
    attacks.random_start_batch(rng.uniform(0, 1, (9, 4)), 0.1, np.arange(9))
    assert len(calls) == 1


def test_random_start_batch_names_a_negative_seed(rng):
    x = rng.uniform(0, 1, (4, 3))
    with pytest.raises(ValueError, match="row 2 has seed -5"):
        attacks.random_start_batch(x, 0.1, np.array([0, 1, -5, -6]))
    with pytest.raises(ValueError, match="expected 4 seeds"):
        attacks.random_start_batch(x, 0.1, np.array([0, 1, 2]))


def test_restart_seed_overflow_is_named(blobs_mlp, blobs_boundaries,
                                        blobs_test):
    # seed + index * restarts passes 2**63 - 1 at example 1
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=2,
                               n_init=0, n_attack=1, seed=2**63 - 2)
    with pytest.raises(ValueError, match="overflows at dataset position 1:"):
        attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                   blobs_test.images[:3],
                                   blobs_test.labels[:3], cfg,
                                   init="random")


@pytest.mark.parametrize("seed, first_bad", [(2**63 - 50, 25), (2**64, 0)])
def test_default_restart_seeds_are_checked_before_they_wrap(
        seed, first_bad, blobs_mlp, blobs_boundaries):
    # position 25 would draw 2**63 - 50 + 25·2 = 2**63, which int64 wraps
    # to -2**63; a seed past int64 cannot be formed at all
    ds = data.make_blobs(15, k=4, d=8, separation=6.0, seed=2)
    assert len(ds) == 60
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=2,
                               n_init=0, n_attack=1, seed=seed)
    for init in ("none", "random"):
        with pytest.raises(ValueError, match=f"overflows at dataset "
                                             f"position {first_bad}:"):
            attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                       ds.images, ds.labels, cfg, init=init)
    # every position below the first overflowing one runs
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     ds.images[:first_bad],
                                     ds.labels[:first_bad], cfg,
                                     init="random")
    assert out.iterations.shape == (first_bad,)


def test_positions_are_refused_by_name(blobs_mlp, blobs_boundaries,
                                      blobs_test):
    x, y = blobs_test.images[:3], blobs_test.labels[:3]
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=3,
                               n_init=0, n_attack=1, seed=2)
    last = (2**63 - 3) // 3  # restart 2 draws 2 + 3·last + 2 = 2**63 - 1
    attacks.run_restarts_batch(blobs_mlp, blobs_boundaries, x, y, cfg,
                               init="random", positions=[0, last, 5])
    for positions in ([0, last + 1, 5], [0, 5, last + 1]):
        with pytest.raises(ValueError, match=f"overflows at dataset "
                                             f"position {last + 1}:"):
            attacks.run_restarts_batch(blobs_mlp, blobs_boundaries, x, y,
                                       cfg, init="random",
                                       positions=positions)
    with pytest.raises(ValueError, match="row 2 has position -1"):
        attacks.run_restarts_batch(blobs_mlp, blobs_boundaries, x, y, cfg,
                                   init="random", positions=[0, 1, -1])
    for positions in ([0, 1], [[0, 1, 2]], [0.0, 1.0, 2.0]):
        with pytest.raises(ValueError, match="expected 3 integer positions"):
            attacks.run_restarts_batch(blobs_mlp, blobs_boundaries, x, y,
                                       cfg, init="random",
                                       positions=positions)


# -- hyperplane-box projection -------------------------------------------


def project_one(x, w, b):
    """One projection as a B=1 call."""
    return attacks.project_hyperplane_box(one(x), one(w), np.array([b]))[0]


def test_projection_one_dimensional():
    out = project_one([0.8], [1.0], -0.3)
    np.testing.assert_allclose(out, [0.3])


def test_projection_waterfilling_splits_evenly():
    # both coordinates have equal rate and room: each moves t* = 0.5
    out = project_one([1.0, 1.0], [1.0, 1.0], -1.0)
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_projection_respects_coordinate_caps():
    # coordinate 0 hits its wall after 0.1; the remaining reduction must
    # all come from coordinate 1, giving t* = 0.5 and the point (0, 0.5)
    out = project_one([0.1, 1.0], [1.0, 1.0], -0.5)
    np.testing.assert_allclose(out, [0.0, 0.5])


def test_projection_of_on_plane_point_is_identity():
    x = np.array([0.25, 0.5])
    out = project_one(x, [2.0, -1.0], 0.0)
    np.testing.assert_array_equal(out, x)


def test_projection_rejects_zero_normal():
    with pytest.raises(ValueError, match="zero"):
        project_one([0.5], [0.0], 1.0)
    with pytest.raises(ValueError):
        project_one([0.5, 0.5], [1.0], 0.0)
    # a zero normal anywhere in the batch is named by its row
    with pytest.raises(ValueError, match="row 1 .*zero"):
        attacks.project_hyperplane_box(np.full((3, 2), 0.5),
                                       np.array([[1.0, 0.0], [0.0, 0.0],
                                                 [0.0, 1.0]]),
                                       np.zeros(3))
    with pytest.raises(ValueError):  # one offset per row
        attacks.project_hyperplane_box(np.full((3, 2), 0.5),
                                       np.ones((3, 2)), np.zeros(2))
    with pytest.raises(ValueError):  # rows, not a single point
        attacks.project_hyperplane_box(np.full(2, 0.5), np.ones(2), 0.0)


def test_projection_infeasible_goes_to_walls():
    # plane p_0 + p_1 = 5 never meets the unit box; the best box point is
    # the corner (1, 1)
    out = project_one([0.2, 0.7], [1.0, 1.0], -5.0)
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_projection_matches_lp_oracle(rng):
    for _ in range(30):
        d = int(rng.integers(2, 8))
        x = rng.uniform(0, 1, size=d)
        w = rng.normal(size=d)
        # pass the plane through a random box point so it is feasible
        b = -float(w @ rng.uniform(0, 1, size=d))
        p = project_one(x, w, b)
        assert abs(w @ p + b) < 1e-9
        t_lp = verify.lp_projection(x, w, b)
        t_ours = np.max(np.abs(p - x))
        assert t_lp is not None and t_ours <= t_lp + 1e-9


def test_projection_batch_matches_lp_oracle(rng):
    # one call on 40 feasible rows; each row is its own LP
    d = 6
    x = rng.uniform(0, 1, size=(40, d))
    w = rng.normal(size=(40, d))
    w[rng.random((40, d)) < 0.25] = 0.0  # some coordinates cannot move
    w[~w.any(axis=1), 0] = 1.0
    b = -np.array([wi @ q for wi, q in zip(w, rng.uniform(0, 1, (40, d)))])
    p = attacks.project_hyperplane_box(x, w, b)
    assert np.all((p >= 0.0) & (p <= 1.0))
    for i in range(40):
        assert abs(w[i] @ p[i] + b[i]) < 1e-9
        t_lp = verify.lp_projection(x[i], w[i], b[i])
        assert t_lp is not None
        assert np.max(np.abs(p[i] - x[i])) <= t_lp + 1e-9


def test_projection_rows_do_not_mix(rng):
    # one call on many rows equals its B=1 calls bit for bit, across every
    # branch: waterfilling, on-plane, infeasible, zero-rate coordinates and
    # tied caps
    d = 12
    x = rng.uniform(0, 1, size=(64, d))
    x[:, :4] = 0.5  # tied caps
    w = rng.normal(size=(64, d))
    w[rng.random((64, d)) < 0.3] = 0.0  # zero-rate coordinates
    w[~w.any(axis=1), 0] = 1.0
    b = -np.array([wi @ q for wi, q in zip(w, rng.uniform(0, 1, (64, d)))])
    on_plane, infeasible = np.arange(0, 64, 4), np.arange(1, 64, 4)
    b[on_plane] = -np.array([w[i] @ x[i] for i in on_plane])
    b[infeasible] = -3.0 * np.abs(w[infeasible]).sum(axis=1)
    batch = attacks.project_hyperplane_box(x, w, b)
    for i in range(64):
        assert batch[i].tobytes() == project_one(x[i], w[i], b[i]).tobytes()
    np.testing.assert_array_equal(batch[on_plane], x[on_plane])
    assert attacks.project_hyperplane_box(x[:0], w[:0], b[:0]).shape == (0, d)
    # no rows and no coordinates
    assert attacks.project_hyperplane_box(x[:0, :0], w[:0, :0],
                                          b[:0]).shape == (0, 0)


def _argsort_projection(points, w, b):
    """project_hyperplane_box's arithmetic with a stable argsort of every
    row's caps, its sort before the packed keys: the byte-for-byte
    reference (inputs unchecked)."""
    s0 = attacks._row_dot(w, points) + b
    sgn = np.where(s0 > 0, 1.0, -1.0)
    we = sgn[:, None] * w
    s = sgn * s0
    rate = np.abs(we)
    cap = np.where(we > 0, points, 1.0 - points)
    cap = np.where(rate > 0, cap, 0.0)
    direction = -np.sign(we)
    out = points + direction * cap
    fill = (attacks._row_dot(rate, cap) > s) & (s0 != 0.0)
    cap_f, rate_f, s_f = cap[fill], rate[fill], s[fill]
    order = np.argsort(cap_f, axis=1, kind="stable")
    cs = np.take_along_axis(cap_f, order, axis=1)
    rs = np.take_along_axis(rate_f, order, axis=1)
    zeros = np.zeros((cs.shape[0], 1))
    a = np.concatenate((zeros, np.cumsum(rs * cs, axis=1)), axis=1)
    srem = rate_f.sum(axis=1)[:, None] - np.concatenate(
        (zeros, np.cumsum(rs, axis=1)), axis=1)
    dec_at = a[:, 1:] + cs * srem[:, 1:]
    reach = dec_at >= s_f[:, None]
    j = np.where(reach.any(axis=1), reach.argmax(axis=1), cs.shape[1])
    rows = np.arange(cs.shape[0])
    t_star = (s_f - a[rows, j]) / srem[rows, j]
    out[fill] = points[fill] + direction[fill] * np.minimum(
        cap_f, t_star[:, None])
    on = s0 == 0.0
    out[on] = points[on]
    return np.clip(out, 0.0, 1.0)


def _projection_instances(rng, m, d, pool=None):
    """m rows of (points, normals, offsets) over every branch: planes
    through a box point, through the point itself and missing the box;
    ``pool`` values are scattered into points and normals."""
    x = rng.uniform(0.0, 1.0, (m, d))
    w = rng.normal(size=(m, d))
    w[rng.random((m, d)) < 0.2] = 0.0
    if pool is not None:
        for a in (x, w):
            spots = rng.random((m, d)) < 0.3
            a[spots] = rng.choice(pool, spots.sum())
    w[~w.any(axis=1), 0] = 1.0
    b = -(w * rng.uniform(0.0, 1.0, (m, d))).sum(axis=1)
    on_plane, infeasible = np.arange(0, m, 5), np.arange(1, m, 5)
    b[on_plane] = -(w[on_plane] * x[on_plane]).sum(axis=1)
    b[infeasible] = -3.0 * np.abs(w[infeasible]).sum(axis=1) - 1.0
    if pool is not None:
        b[rng.random(m) < 0.05] = np.nan
    return x, w, b


def _same_projection(x, w, b):
    with np.errstate(all="ignore"):
        got = attacks.project_hyperplane_box(x, w, b)
        want = _argsort_projection(x, w, b)
    assert got.tobytes() == want.tobytes()
    return got


_SPECIAL = np.array([0.0, -0.0, 1.0, 0.5, 0.5 + 2**-50, 0.5 - 2**-50,
                     0.25, np.nan, -0.25, 1.5, 5e-324, -5e-324])


@pytest.mark.parametrize("case", ["ties", "signed-zeros", "nan",
                                  "outside-box", "near-ties", "d1", "m0",
                                  "d-not-power-of-two", "mixed"])
def test_projection_matches_the_argsort_reference_bit_for_bit(case, rng):
    m, d = (0, 6) if case == "m0" else (300, 1) if case == "d1" else (
        200, 7 if case == "d-not-power-of-two" else 13)
    x, w, b = _projection_instances(rng, m, d)
    if case == "ties":  # quantized points and normals: many equal caps
        x = np.round(x * 4) / 4
        w = np.round(w)
        w[~w.any(axis=1), 0] = 1.0
    elif case == "signed-zeros":
        x[rng.random((m, d)) < 0.4] = -0.0
        x[rng.random((m, d)) < 0.2] = 0.0
        w[rng.random((m, d)) < 0.3] = -0.0
        w[~w.any(axis=1), 0] = -1.0
    elif case == "nan":
        x[rng.random((m, d)) < 0.05] = np.nan
        w[rng.random((m, d)) < 0.05] = np.nan
    elif case == "outside-box":
        x = rng.uniform(-0.5, 1.5, (m, d))
    elif case == "near-ties":  # caps apart in their last few bits
        x = 0.5 + rng.integers(-40, 40, (m, d)) * 2.0**-52
    elif case in ("d1", "mixed"):
        x, w, b = _projection_instances(rng, m, d, _SPECIAL)
    _same_projection(x, w, b)


@pytest.mark.parametrize("m", [1, 102, 256])
def test_projection_matches_the_reference_at_fab_shapes(m, rng,
                                                        monkeypatch):
    # FAB projects rows of D = 256 digit pixels, many exactly 0 or 1;
    # such caps never need the argsort fallback
    d = 256
    x = rng.uniform(0.0, 1.0, (m, d))
    x[rng.random((m, d)) < 0.5] = 0.0
    x[rng.random((m, d)) < 0.1] = 1.0
    w = rng.normal(size=(m, d))
    b = -(w * rng.uniform(0.0, 1.0, (m, d))).sum(axis=1)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **k: sorts.append(k) or argsort(*a, **k))
    got = attacks.project_hyperplane_box(x, w, b)
    assert sorts == []
    monkeypatch.undo()
    assert got.tobytes() == _argsort_projection(x, w, b).tobytes()
    # and random instances of every branch at the same shape
    _same_projection(*_projection_instances(rng, m, d, _SPECIAL))


def test_packed_key_sort_orders_signed_zeros_by_index(monkeypatch):
    # -0.0 and +0.0 are equal caps, so the stable order keeps them by
    # index, with no argsort fallback
    cap = np.array([[-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.25, -0.0]])
    rate = np.arange(8.0).reshape(2, 4)
    monkeypatch.setattr(np, "argsort", None)
    cs, rs = attacks._stable_sorted(cap, rate)
    monkeypatch.undo()
    order = np.argsort(cap, axis=1, kind="stable")
    assert cs.tobytes() == np.take_along_axis(cap, order, axis=1).tobytes()
    assert rs.tobytes() == np.take_along_axis(rate, order, axis=1).tobytes()


def test_projection_falls_back_where_the_packed_key_misorders(monkeypatch):
    # With D = 16 a key keeps a cap's bits above its low 4; caps 0.5 +
    # 2**-50 (index 0) and 0.5 (index 1) differ only below them, so the
    # keys order the larger cap first and the row is sorted again.
    x = np.full((2, 16), 0.75)
    x[:, 0], x[:, 1] = 0.5 + 2**-50, 0.5
    assert len({v >> np.uint64(4) for v in x[0, :2].view(np.uint64)}) == 1
    x[1, 0] = 0.5 + 2**-48  # apart above the low 4 bits: in order
    w, b = np.ones((2, 16)), np.full(2, -4.0)  # cap = x on both rows
    sorts = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        sorts.append((a.shape, kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    got = attacks.project_hyperplane_box(x, w, b)
    assert sorts == [((1, 16), "stable")]  # only the misordered row
    monkeypatch.undo()
    assert got.tobytes() == _argsort_projection(x, w, b).tobytes()


# -- boundary descent ----------------------------------------------------


def test_boundary_descent_linear_step_is_exact():
    clf, bs = linear_two_class()
    row = np.array([3.0, 1.0])
    eta = 0.005
    x = one([0.9, 0.8])
    d0 = geometry.signed_distances(bs, clf.head_forward(x), 0)[0, 1]
    cfg = attacks.AttackConfig(epsilon=1.0, alpha=0.01, eta_init=eta,
                               restarts=1, n_init=3, n_attack=0, seed=0)
    out, _ = attacks.boundary_init_batch(clf, bs, x, [0], cfg, x.copy())
    d3 = geometry.signed_distances(bs, clf.head_forward(out), 0)[0, 1]
    drop = 3 * eta * np.abs(row).sum() / np.linalg.norm(row)
    assert abs((d0 - d3) - drop) < 1e-12


def test_boundary_descent_stops_once_across():
    clf, bs = linear_two_class()
    x = np.array([0.9, 0.8])
    cfg = attacks.AttackConfig(epsilon=1.0, alpha=0.01, eta_init=2.0,
                               restarts=1, n_init=50, n_attack=0, seed=0)
    _, evals = attacks.boundary_init_batch(clf, bs, x[None], [0], cfg,
                                           x[None].copy())
    assert evals[0] < 50  # early stop, not the full budget


def test_boundary_descent_respects_ball():
    clf, bs = linear_two_class()
    x = np.array([0.9, 0.8])
    eps = 0.02
    cfg = attacks.AttackConfig(epsilon=eps, alpha=0.01, eta_init=0.5,
                               restarts=1, n_init=10, n_attack=0, seed=0)
    (out,), _ = attacks.boundary_init_batch(clf, bs, one(x), [0], cfg,
                                            one(x))
    assert np.max(np.abs(out - x)) <= eps + 1e-15
    assert np.all((out >= 0.0) & (out <= 1.0))


def test_a_logit_tie_stops_descent_but_flips_only_a_later_label():
    # z = [0.5, 0.5, -1]: x is on the (0, 1) boundary, and argmax keeps
    # the first of tied logits, so the tie is a flip for y=1 only
    clf = model.linear_model(2, 3, weight=[[1, 0], [0, 1], [-1, -1]],
                             bias=[0, 0, 0])
    bs = geometry.boundary_set_for(clf)
    x = np.array([[0.5, 0.5], [0.5, 0.5]])
    y = np.array([0, 1])
    cfg = attacks.AttackConfig(epsilon=0.1, alpha=0.05, eta_init=0.05,
                               restarts=1, n_init=3, n_attack=3, seed=0)
    out, evals = attacks.boundary_init_batch(clf, bs, x, y, cfg, x.copy())
    assert out.tobytes() == x.tobytes() and evals.tolist() == [0, 0]
    seg = attacks.pgd_batch(clf, x, y, cfg, x.copy())
    assert seg.iterations.tolist() == [1, 0]
    assert seg.grad_evals.tolist() == [1, 0]


# -- attack loops --------------------------------------------------------


def test_pgd_counts_an_adversarial_start_as_iteration_zero(blobs_mlp,
                                                           blobs_boundaries,
                                                           blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.2, alpha=0.05, restarts=1,
                               n_init=0, n_attack=5, seed=0)
    x = one(blobs_test.images[0])
    y = blobs_test.labels[:1]
    # hand the loop a start that is already misclassified
    start = x.copy()
    if blobs_mlp.predict(start)[0] == y[0]:
        # walk the start into the wrong region first
        for _ in range(200):
            v, ctxs = blobs_mlp.head_forward_with_ctx(start)
            g = attacks.cross_entropy_grad(
                blobs_mlp, ctxs, blobs_mlp.tail_forward(v), y)
            start = np.clip(start + 0.05 * np.sign(g),
                            np.clip(x - 0.2, 0, 1), np.clip(x + 0.2, 0, 1))
            if blobs_mlp.predict(start)[0] != y[0]:
                break
        assert blobs_mlp.predict(start)[0] != y[0]
    seg = attacks.pgd_batch(blobs_mlp, x, y, cfg, start.copy())
    assert seg.success[0]
    assert seg.iterations[0] == 0
    np.testing.assert_array_equal(seg.x_adv, start)


def test_pgd_iterates_stay_in_ball_and_box(blobs_mlp, blobs_test,
                                           quick_attack_config):
    cfg = quick_attack_config
    for i in range(10):
        x = blobs_test.images[i]
        y = blobs_test.labels[i:i + 1]
        start = attacks.random_start_batch(one(x), cfg.epsilon, [100 + i])
        seg = attacks.pgd_batch(blobs_mlp, one(x), y, cfg, start)
        assert np.max(np.abs(seg.x_adv[0] - x)) <= cfg.epsilon + 1e-15
        assert np.all((seg.x_adv >= 0.0) & (seg.x_adv <= 1.0))


def test_pgd_single_equals_batch_row(blobs_mlp, blobs_test,
                                     quick_attack_config):
    cfg = quick_attack_config
    x = blobs_test.images[:8]
    y = blobs_test.labels[:8]
    starts = attacks.random_start_batch(x, cfg.epsilon, np.arange(8) * 11)
    seg = attacks.pgd_batch(blobs_mlp, x, y, cfg, starts.copy())
    for r in range(8):
        # a B=1 call must equal its row of the batch: rows do not mix
        one_seg = attacks.pgd_batch(blobs_mlp, x[r:r + 1], y[r:r + 1], cfg,
                                    starts[r:r + 1].copy())
        assert seg.success[r] == one_seg.success[0]
        np.testing.assert_allclose(seg.x_adv[r], one_seg.x_adv[0],
                                   atol=1e-12)
        if one_seg.success[0]:
            assert seg.iterations[r] == one_seg.iterations[0]


def test_fab_single_equals_batch_row(blobs_mlp, blobs_test,
                                     quick_attack_config):
    cfg = quick_attack_config
    x = blobs_test.images[:8]
    y = blobs_test.labels[:8]
    starts = attacks.random_start_batch(x, cfg.epsilon, np.arange(8) * 7)
    seg = attacks.fab_batch(blobs_mlp, x, y, cfg, starts.copy())
    for r in range(8):
        # a B=1 call must equal its row of the batch: rows do not mix
        one_seg = attacks.fab_batch(blobs_mlp, x[r:r + 1], y[r:r + 1], cfg,
                                    starts[r:r + 1].copy())
        assert seg.success[r] == one_seg.success[0]
        np.testing.assert_allclose(seg.x_adv[r], one_seg.x_adv[0],
                                   atol=1e-12)


def test_fab_holds_rows_with_a_flat_linearization():
    # head v = relu(x - 0.5): below 0.5 in both coordinates every logit
    # difference has zero input gradient, so that row holds its position
    # while the other row of the same batch moves
    from boundarylab.layers import Dense, ReLU

    head = Dense(2, 2)
    head.weight[:] = np.eye(2)
    head.bias[:] = -0.5
    tail = Dense(2, 3)
    tail.weight[:] = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
    tail.bias[:] = [0.0, 0.0, 0.01]
    clf = model.Classifier([head, ReLU(), tail], (2,))
    x = np.array([[0.2, 0.3], [0.9, 0.6]])
    y = clf.predict(x)
    assert list(y) == [2, 0]
    cfg = attacks.AttackConfig(epsilon=0.3, alpha=0.01, restarts=1,
                               n_init=0, n_attack=3, seed=0)
    seg = attacks.fab_batch(clf, x, y, cfg, x.copy())
    np.testing.assert_array_equal(seg.x_adv[0], x[0])
    assert not seg.success[0] and seg.grad_evals[0] == 3
    assert np.any(seg.x_adv[1] != x[1])
    alone = attacks.fab_batch(clf, x[1:], y[1:], cfg, x[1:].copy())
    assert seg.x_adv[1].tobytes() == alone.x_adv[0].tobytes()


def test_fab_iterates_stay_in_ball_and_box(blobs_mlp, blobs_test,
                                           quick_attack_config):
    cfg = quick_attack_config
    for i in range(10):
        x = blobs_test.images[i]
        y = blobs_test.labels[i:i + 1]
        start = attacks.random_start_batch(one(x), cfg.epsilon, [50 + i])
        seg = attacks.fab_batch(blobs_mlp, one(x), y, cfg, start)
        assert np.max(np.abs(seg.x_adv[0] - x)) <= cfg.epsilon + 1e-15
        assert np.all((seg.x_adv >= 0.0) & (seg.x_adv <= 1.0))


# -- live-set loops against the gather/scatter formulation ---------------


def _oracle_boundary_init(c, bs, x_orig, y, config, start):
    # gathers x[active] and its bounds every iteration and scatters the
    # clipped step back; the same head calls on the same rows
    lo, hi = attacks._ball_bounds(x_orig, config.epsilon)
    x = np.clip(start, lo, hi)
    evals = np.zeros(x.shape[0], dtype=np.int64)
    active = np.arange(x.shape[0])
    for _ in range(config.n_init):
        if active.size == 0:
            break
        v, ctxs = c.head_forward_with_ctx(x[active])
        m, dist = geometry.nearest_boundary_batch(bs, v, y[active])
        live = dist > 0.0
        if not live.any():
            break
        gx = attacks.boundary_distance_grad(c, bs, ctxs, y[active], m)
        active = active[live]
        step = -config.eta_init * np.sign(gx[live])
        x[active] = np.clip(x[active] + step, lo[active], hi[active])
        evals[active] += 1
    return x, evals


def _oracle_pgd(c, x_orig, y, config, start):
    lo, hi = attacks._ball_bounds(x_orig, config.epsilon)
    x = np.clip(start, lo, hi)
    b = x.shape[0]
    success = np.zeros(b, dtype=bool)
    iters = np.full(b, -1, dtype=np.int64)
    evals = np.zeros(b, dtype=np.int64)
    active = np.arange(b)
    for t in range(config.n_attack + 1):
        if active.size == 0:
            break
        v, ctxs = c.head_forward_with_ctx(x[active])
        z = v @ c.tail.weight.T + c.tail.bias
        flip = np.argmax(z, axis=1) != y[active]
        success[active[flip]] = True
        iters[active[flip]] = t
        if t == config.n_attack or flip.all():
            break
        gx = attacks.cross_entropy_grad(c, ctxs, z, y[active])
        live = ~flip
        active = active[live]
        x[active] = np.clip(x[active] + config.alpha * np.sign(gx[live]),
                            lo[active], hi[active])
        evals[active] += 1
    return x, success, iters, evals


def _oracle_fab(c, x_orig, y, config, start):
    # gathers x[active] and its bounds every iteration and scatters the
    # clipped blend back; the same head calls on the same rows
    x_orig = np.asarray(x_orig, dtype=np.float64)
    lo, hi = attacks._ball_bounds(x_orig, config.epsilon)
    x = np.clip(start, lo, hi)
    b = x.shape[0]
    flat = int(np.prod(x.shape[1:]))
    success = np.zeros(b, dtype=bool)
    iters = np.full(b, -1, dtype=np.int64)
    evals = np.zeros(b, dtype=np.int64)
    active = np.arange(b)
    wt, wb = c.tail.weight, c.tail.bias
    n = wt.shape[1]
    for t in range(config.n_attack + 1):
        if active.size == 0:
            break
        xa = x[active]
        na = active.size
        v, ctxs = c.head_forward_with_ctx(xa)
        z = v @ wt.T + wb
        flip = np.argmax(z, axis=1) != y[active]
        success[active[flip]] = True
        iters[active[flip]] = t
        if t == config.n_attack or flip.all():
            break
        live = ~flip
        jac = np.empty((na, n, flat))
        for q in range(n):
            e = np.zeros((na, n))
            e[:, q] = 1.0
            jac[:, q, :] = c.head_backward(ctxs, e).reshape(na, flat)
        ya = y[active]
        diff_rows = wt[None, :, :] - wt[ya][:, None, :]
        dgs = np.einsum("bkn,bnd->bkd", diff_rows, jac)
        dfs = z - z[np.arange(na), ya][:, None]
        norms1 = np.abs(dgs).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            pdist = np.abs(dfs) / norms1
        pdist[norms1 == 0.0] = np.inf
        pdist[np.arange(na), ya] = np.inf
        s = np.argmin(pdist, axis=1)
        rows = np.flatnonzero(live)
        w = dgs[rows, s[rows]]
        xa_flat = xa.reshape(na, flat)[rows]
        active = active[live]
        xo_flat = x_orig[active].reshape(-1, flat)
        xn = xa_flat.copy()
        move = w.any(axis=1)
        w, xm, xo = w[move], xa_flat[move], xo_flat[move]
        bias = dfs[rows[move], s[rows[move]]] - attacks._row_dot(w, xm)
        d_adv = attacks.project_hyperplane_box(xm, w, bias) - xm
        d_org = attacks.project_hyperplane_box(xo, w, bias) - xo
        num = np.abs(d_adv).max(axis=1)
        den = num + np.abs(d_org).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(den > 0, np.minimum(num / den,
                                                attacks._FAB_BETA_MAX),
                            0.0)[:, None]
        xn[move] = ((1.0 - beta) * (xm + attacks._FAB_ETA * d_adv)
                    + beta * (xo + attacks._FAB_ETA * d_org))
        x[active] = np.clip(xn.reshape((-1,) + x.shape[1:]), lo[active],
                            hi[active])
        evals[active] += 1
    return x, success, iters, evals


@pytest.fixture(scope="module")
def untrained_cnn_digits():
    c = model.small_cnn(k=4, n=2, input_shape=(1, 16, 16), seed=3)
    return c, data.make_digits(6, classes=(0, 1, 2, 3), size=16, seed=4)


def _mixed_batch(c, ds):
    # the model's own prediction as label, except every 7th row, which is
    # misclassified (flips at t=0, starts past a boundary)
    y = c.predict(ds.images).copy()
    y[::7] = (y[::7] + 1) % c.k
    return ds.images, y


@pytest.mark.parametrize("budget", [(4, 6), (0, 6), (4, 0), (0, 0)],
                         ids=lambda b: f"init{b[0]}-attack{b[1]}")
@pytest.mark.parametrize("which", ["mlp", "cnn"])
def test_live_set_loops_match_gather_scatter(which, budget, monkeypatch,
                                              blobs_mlp, blobs_test,
                                              untrained_cnn_digits):
    c, ds, eps = ((blobs_mlp, blobs_test, 0.08) if which == "mlp"
                  else (*untrained_cnn_digits, 0.03))
    bs = geometry.boundary_set_for(c)
    x, y = _mixed_batch(c, ds)
    cfg = attacks.AttackConfig(epsilon=eps, alpha=eps / 4,
                               eta_init=eps / 3, restarts=1,
                               n_init=budget[0], n_attack=budget[1], seed=0)
    # every head forward's row count and every nearest-boundary query, in
    # order: an extra check or a wasted forward leaves the bytes alone
    calls = []
    forward, nearest = c.head_forward_with_ctx, geometry.nearest_boundary_batch

    def counted_forward(xb):
        calls.append(("head_forward", xb.shape[0]))
        return forward(xb)

    def counted_nearest(bs, v, y):
        calls.append(("nearest_boundary", v.shape[0]))
        return nearest(bs, v, y)

    monkeypatch.setattr(c, "head_forward_with_ctx", counted_forward)
    monkeypatch.setattr(attacks, "nearest_boundary_batch", counted_nearest)
    monkeypatch.setattr(geometry, "nearest_boundary_batch", counted_nearest)

    def same_calls(run, oracle, *args):
        calls.clear()
        got = run(*args)
        ran = list(calls)
        calls.clear()
        want = oracle(*args)
        assert ran == calls
        return got, want

    for n in (len(y), 0):
        xb, yb = x[:n], y[:n]
        start = attacks.random_start_batch(xb, eps, np.arange(n))
        (x0, e0), (x1, e1) = same_calls(attacks.boundary_init_batch,
                                        _oracle_boundary_init,
                                        c, bs, xb, yb, cfg, start)
        assert x0.tobytes() == x1.tobytes()
        assert e0.tobytes() == e1.tobytes()
        segs = {"pgd": same_calls(attacks.pgd_batch, _oracle_pgd,
                                  c, xb, yb, cfg, x0),
                "fab": same_calls(attacks.fab_batch, _oracle_fab,
                                  c, xb, yb, cfg, x0)}
        for seg, want in segs.values():
            for got, ref in zip((seg.x_adv, seg.success, seg.iterations,
                                 seg.grad_evals), want):
                assert (got.dtype == ref.dtype
                        and got.tobytes() == ref.tobytes())
        if n:
            # rows that flip at t=0, mid-run and never; descents that stop
            # at once, part-way and run the whole budget
            iters = set(segs["pgd"][0].iterations.tolist())
            assert budget[1] == 0 or {-1, 0} < iters
            if budget == (0, 6):  # from a random start fab flips mid-run too
                assert {-1, 0} < set(segs["fab"][0].iterations.tolist())
            assert budget[0] == 0 or {0, budget[0]} < set(e0.tolist())


def test_live_set_loops_leave_their_inputs_alone(blobs_mlp, blobs_test):
    bs = geometry.boundary_set_for(blobs_mlp)
    x, y = _mixed_batch(blobs_mlp, blobs_test)
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=3, n_attack=5, seed=0)
    start = attacks.random_start_batch(x, 0.08, np.arange(len(y)))
    keep_x, keep_start = x.copy(), start.copy()
    attacks.boundary_init_batch(blobs_mlp, bs, x, y, cfg, start)
    attacks.pgd_batch(blobs_mlp, x, y, cfg, start)
    attacks.fab_batch(blobs_mlp, x, y, cfg, start)
    assert x.tobytes() == keep_x.tobytes()
    assert start.tobytes() == keep_start.tobytes()


class _InPlaceSignLiveSet:
    # a live set that compacts into fresh arrays and takes the sign of the
    # gradient in place
    def __init__(self, x_orig, epsilon, start):
        self.lo, self.hi = attacks._ball_bounds(x_orig, epsilon)
        self.full = self.x = np.clip(start, self.lo, self.hi)
        self.rows = np.arange(self.x.shape[0])

    def step(self, gx, size, live):
        if not live.all():
            gx = gx[live]
            if self.x is not self.full:
                self.full[self.rows[~live]] = self.x[~live]
            self.rows = self.rows[live]
            self.x, self.lo, self.hi = (
                self.x[live], self.lo[live], self.hi[live])
        np.sign(gx, out=gx)
        gx *= size
        self.x += gx
        np.maximum(self.x, self.lo, out=self.x)
        np.minimum(self.x, self.hi, out=self.x)

    def finish(self):
        if self.x is not self.full:
            self.full[self.rows] = self.x
        return self.full


def test_live_set_step_matches_the_in_place_sign_step_bit_for_bit(rng):
    b, shape, eps = 12, (1, 2, 3), 0.1
    x_orig = rng.uniform(0.0, 1.0, (b, *shape))
    x_orig[0] = 0.0
    x_orig[1] = 1.0
    y = np.arange(b) % 3
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0,
                        5e-324])
    # (size, rows that freeze); the live sets shrink 12 → 10 → 10 → 7 → 1
    steps = [(0.03, []), (-0.05, [1, 4]), (0.02, []), (0.04, [0, 5, 9]),
             (-0.03, [0, 1, 2, 3, 5, 6])]
    work = attacks._Workspace(x_orig, eps)
    for run, workspace in enumerate((None, work, work)):
        start = attacks.random_start_batch(x_orig, eps, np.arange(b) + run)
        live_set = attacks._LiveSet(x_orig, y, eps, start, workspace)
        oracle = _InPlaceSignLiveSet(x_orig, eps, start)
        for size, frozen in steps:
            na = live_set.rows.size
            gx = rng.choice(special, (na, *shape))
            gx[::2] = rng.normal(0.0, 1.0, gx[::2].shape)
            live = np.ones(na, dtype=bool)
            live[frozen] = False
            live_set.step(gx.copy(), size, live)
            oracle.step(gx.copy(), size, live)
            assert live_set.rows.tolist() == oracle.rows.tolist()
            assert live_set.x.tobytes() == oracle.x.tobytes()
        assert np.isnan(oracle.full).any()
        assert live_set.finish().tobytes() == oracle.finish().tobytes()
    assert work.lo.tobytes() == np.maximum(x_orig - eps, 0.0).tobytes()
    assert work.hi.tobytes() == np.minimum(x_orig + eps, 1.0).tobytes()


# rows of an na-row live set that freeze: patterns an in-place compaction
# can get wrong (a run that stays put, runs that each move, one survivor)
_FREEZE = {
    "first": lambda na: list(range(na))[:1],
    "last": lambda na: list(range(na))[-1:],
    "alternate-even": lambda na: list(range(0, na, 2)),
    "alternate-odd": lambda na: list(range(1, na, 2)),
    "all-but-one": lambda na: [i for i in range(na) if i != na // 2],
}


def test_live_set_compaction_freeze_patterns_match_bit_for_bit(rng):
    b, shape, eps = 16, (2, 2, 3), 0.1
    x_orig = rng.uniform(0.0, 1.0, (b, *shape))
    y = np.arange(b) % 3
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.5, -2.0,
                        5e-324])
    # each pattern leads one run, as the compaction out of the batch
    # iterate, and follows in others, as a move within the buffer set;
    # the last runs end with an empty live set
    orders = [("first", "last", "alternate-even", "all-but-one"),
              ("last", "alternate-odd", "first", "all-but-one"),
              ("alternate-even", "first", "alternate-odd", "last"),
              ("alternate-odd", "last", "first", "alternate-even"),
              ("all-but-one", "last", "first")]
    work = attacks._Workspace(x_orig, eps)
    for run, order in enumerate(orders):
        start = attacks.random_start_batch(x_orig, eps, np.arange(b) + run)
        live_set = attacks._LiveSet(x_orig, y, eps, start, work)
        oracle = _InPlaceSignLiveSet(x_orig, eps, start)
        for k, pattern in enumerate(order):
            for frozen in ([], _FREEZE[pattern](live_set.rows.size)):
                na = live_set.rows.size
                gx = rng.choice(special, (na, *shape))
                gx[::2] = rng.normal(0.0, 1.0, gx[::2].shape)
                live = np.ones(na, dtype=bool)
                live[frozen] = False
                size = (-1) ** k * 0.03
                live_set.step(gx.copy(), size, live)
                oracle.step(gx.copy(), size, live)
                assert live_set.rows.tolist() == oracle.rows.tolist()
                for got, want in ((live_set.x, oracle.x),
                                  (live_set.lo, oracle.lo),
                                  (live_set.hi, oracle.hi)):
                    assert got.tobytes() == want.tobytes()
                # once compacted, the rows sit in the workspace's buffers,
                # apart from its read-only ball and the caller's arrays
                compacted = live_set.x is not live_set.full
                assert compacted == (k > 0 or bool(frozen))
                for got, buf in zip((live_set.x, live_set.lo, live_set.hi),
                                    (work.live_x, work.live_lo, work.live_hi)):
                    assert not compacted or got.base is buf
                    assert not compacted or not any(
                        np.shares_memory(got, a)
                        for a in (work.lo, work.hi, x_orig, start))
                assert live_set.y.tolist() == y[oracle.rows].tolist()
        assert live_set.finish().tobytes() == oracle.finish().tobytes()
    assert work.lo.tobytes() == np.maximum(x_orig - eps, 0.0).tobytes()


def test_workspace_allocates_a_single_buffer_set():
    x = np.zeros((64, 1, 16, 16))
    tracemalloc.start()
    try:
        work = attacks._Workspace(x, 0.1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the ball's lo and hi, one (x, lo, hi) set and the sign scratch
    assert [a.shape for a in (work.live_x, work.live_lo, work.live_hi,
                              work.sign)] == [x.shape] * 4
    assert 6 * x.nbytes <= held < 7 * x.nbytes


@pytest.mark.parametrize("init", ["none", "random", "boundary"])
@pytest.mark.parametrize("method", ["pgd", "fab"])
def test_every_restart_stays_within_the_equal_budget(method, init, blobs_mlp,
                                                     blobs_boundaries,
                                                     blobs_test):
    # the invariant behind every boundary-vs-random comparison
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, eta_init=0.02,
                               restarts=3, n_init=4, n_attack=6, seed=1)
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     blobs_test.images, blobs_test.labels,
                                     cfg, method=method, init=init)
    evals = out.grad_evals_per_restart
    assert evals.shape == (len(blobs_test.labels), 3)
    assert np.all(evals >= 0)
    assert np.all(evals <= cfg.n_init + cfg.n_attack)
    if init != "boundary":
        assert np.all(evals <= cfg.n_attack)


# -- restart engine ------------------------------------------------------


@pytest.mark.parametrize("method", ["pgd", "fab"])
@pytest.mark.parametrize("which", ["mlp", "cnn"])
def test_restarts_equal_single_restart_runs(which, method, monkeypatch,
                                             blobs_mlp, blobs_test,
                                             untrained_cnn_digits):
    # restart r of a 3-restart call is the 1-restart call at seeds + r: the
    # shared ball and the reused live-set buffers carry nothing between
    # restarts
    c, ds, eps = ((blobs_mlp, blobs_test, 0.08) if which == "mlp"
                  else (*untrained_cnn_digits, 0.03))
    bs = geometry.boundary_set_for(c)
    x, y = _mixed_batch(c, ds)
    cfg = attacks.AttackConfig(epsilon=eps, alpha=eps / 4, eta_init=eps / 3,
                               restarts=3, n_init=3, n_attack=6, seed=100)
    positions = np.arange(len(y))
    name = f"{method}_batch"
    attack = getattr(attacks, name)
    segments = []

    def recorded(*args, **kwargs):
        seg = attack(*args, **kwargs)
        segments.append(seg.x_adv.copy())
        return seg

    monkeypatch.setattr(attacks, name, recorded)
    out = attacks.run_restarts_batch(c, bs, x, y, cfg, method=method,
                                     init="boundary", positions=positions)
    for r in range(3):
        one = dataclasses.replace(cfg, seed=cfg.seed + r, restarts=1)
        alone = attacks.run_restarts_batch(c, bs, x, y, one, method=method,
                                           init="boundary",
                                           positions=positions * 3)
        assert segments[3 + r].tobytes() == segments[r].tobytes()
        for field in ("iterations_per_restart", "grad_evals_per_restart"):
            got = np.ascontiguousarray(getattr(out, field)[:, r])
            assert got.tobytes() == getattr(alone, field)[:, 0].tobytes()
    # rows flip at t=0, mid-run and never, so the loops compact
    assert {-1, 0} < set(out.iterations_per_restart.ravel().tolist())


@pytest.mark.parametrize("method", ["pgd", "fab"])
def test_restarts_compute_the_ball_once(method, monkeypatch, blobs_mlp,
                                        blobs_boundaries, blobs_test):
    calls = []
    ball_bounds = attacks._ball_bounds

    def counted(x, epsilon):
        calls.append(x.shape)
        return ball_bounds(x, epsilon)

    monkeypatch.setattr(attacks, "_ball_bounds", counted)
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=4,
                               n_init=2, n_attack=5, seed=0)
    attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                               blobs_test.images, blobs_test.labels, cfg,
                               method=method, init="boundary")
    assert calls == [blobs_test.images.shape]


def test_restart_selection_rule(blobs_mlp, blobs_boundaries, blobs_test,
                                quick_attack_config):
    cfg = quick_attack_config
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     blobs_test.images, blobs_test.labels,
                                     cfg)
    iters = out.iterations_per_restart
    for i in range(len(blobs_test.labels)):
        succeeded = np.flatnonzero(iters[i] >= 0)
        if succeeded.size == 0:
            assert not out.success[i]
            assert out.restart[i] == -1
            assert out.iterations[i] == -1
        else:
            best = succeeded[np.argmin(iters[i][succeeded])]
            assert out.success[i]
            assert out.restart[i] == best
            assert out.iterations[i] == iters[i][best]


def test_grad_eval_budget_is_respected(blobs_mlp, blobs_boundaries,
                                       blobs_test, quick_attack_config):
    cfg = quick_attack_config
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     blobs_test.images, blobs_test.labels,
                                     cfg)
    assert np.all(out.grad_evals_per_restart <= cfg.n_init + cfg.n_attack)
    assert np.all(out.grad_evals_per_restart >= 0)


def test_zero_init_budget_reduces_to_random_init(blobs_mlp,
                                                 blobs_boundaries,
                                                 blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=2,
                               n_init=0, n_attack=10, seed=3)
    a = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                   blobs_test.images, blobs_test.labels,
                                   cfg, method="pgd", init="boundary")
    b = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                   blobs_test.images, blobs_test.labels,
                                   cfg, method="pgd", init="random")
    np.testing.assert_array_equal(a.x_adv, b.x_adv)
    np.testing.assert_array_equal(a.success, b.success)
    np.testing.assert_array_equal(a.iterations, b.iterations)


def test_none_init_starts_at_the_example(blobs_mlp, blobs_boundaries,
                                         blobs_test):
    # restarts > 1 with init="none" would repeat the identical attack
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=0, n_attack=6, seed=3)
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     blobs_test.images[:6],
                                     blobs_test.labels[:6],
                                     cfg, method="pgd", init="none")
    for r in range(6):
        seg = attacks.pgd_batch(blobs_mlp, blobs_test.images[r:r + 1],
                                blobs_test.labels[r:r + 1], cfg,
                                blobs_test.images[r:r + 1].copy())
        np.testing.assert_allclose(out.x_adv[r], seg.x_adv[0], atol=1e-12)


def test_restart_engine_is_deterministic(blobs_mlp, blobs_boundaries,
                                         blobs_test, quick_attack_config):
    runs = []
    for _ in range(2):
        out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                         blobs_test.images,
                                         blobs_test.labels,
                                         quick_attack_config)
        runs.append(out)
    np.testing.assert_array_equal(runs[0].x_adv, runs[1].x_adv)
    np.testing.assert_array_equal(runs[0].iterations, runs[1].iterations)


def test_restart_seeds_differ_per_restart(blobs_mlp, blobs_boundaries,
                                          blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=3,
                               n_init=0, n_attack=0, seed=0)
    # with a zero attack budget x_adv is exactly the selected start;
    # failed examples keep restart 0's start
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     blobs_test.images[:4],
                                     blobs_test.labels[:4], cfg,
                                     method="pgd", init="random",
                                     positions=np.array([0, 10, 20, 30]))
    for r in range(4):
        expected = attacks.random_start_batch(
            blobs_test.images[r:r + 1], 0.08, [30 * r])[0]
        if out.restart[r] in (-1, 0):
            np.testing.assert_array_equal(out.x_adv[r], expected)


def test_fab_and_pgd_draw_the_same_random_start(blobs_mlp, blobs_boundaries,
                                                blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.3, alpha=0.05, restarts=1,
                               n_init=0, n_attack=0, seed=1)
    x = blobs_test.images[:6]
    # a zero-budget attack returns its start: the ε-ball draw for both
    out = {method: attacks.run_restarts_batch(
        blobs_mlp, blobs_boundaries, x, blobs_test.labels[:6], cfg,
        method=method, init="random").x_adv for method in ("fab", "pgd")}
    ball = attacks.random_start_batch(x, cfg.epsilon, 1 + np.arange(6))
    assert out["fab"].tobytes() == out["pgd"].tobytes() == ball.tobytes()


def test_single_example_wrapper_matches_batch(blobs_mlp, blobs_boundaries,
                                              blobs_test,
                                              quick_attack_config):
    cfg = quick_attack_config
    batch = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                       blobs_test.images, blobs_test.labels,
                                       cfg)
    # a B=1 call at example 3's position equals row 3
    single = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                        blobs_test.images[3:4],
                                        blobs_test.labels[3:4],
                                        dataclasses.replace(cfg),
                                        positions=np.array([3]))
    assert single.success[0] == batch.success[3]
    np.testing.assert_allclose(single.x_adv[0], batch.x_adv[3], atol=1e-12)
    np.testing.assert_array_equal(single.grad_evals_per_restart[0],
                                  batch.grad_evals_per_restart[3])


def test_fab_and_pgd_share_one_signature():
    assert (inspect.signature(attacks.fab_batch)
            == inspect.signature(attacks.pgd_batch))


@pytest.mark.parametrize("init", ["none", "random", "boundary"])
@pytest.mark.parametrize("method", ["pgd", "fab"])
@pytest.mark.parametrize("which", ["mlp", "cnn"])
def test_budget_splits_in_one_call_equal_one_call_per_split(
        which, method, init, blobs_mlp, blobs_test, untrained_cnn_digits):
    # unsorted, one split twice, one with no attack steps: each split's
    # outcome is the one-split call's at that split, bit for bit
    c, ds, eps = ((blobs_mlp, blobs_test, 0.08) if which == "mlp"
                  else (*untrained_cnn_digits, 0.03))
    bs = geometry.boundary_set_for(c)
    x, y = _mixed_batch(c, ds)
    cfg = attacks.AttackConfig(epsilon=eps, alpha=eps / 4, eta_init=eps / 3,
                               restarts=2, n_init=3, n_attack=6, seed=0)
    values = [5, 0, 2, 2, 9]
    positions = 50 + np.arange(len(y))  # seeds 100 + 2·i + r
    out = attacks.run_restarts_batch(c, bs, x, y, cfg, method=method,
                                     init=init, positions=positions,
                                     n_init_values=values)
    for s, nv in enumerate(values):
        alone = attacks.run_restarts_batch(c, bs, x, y,
                                           cfg.with_budget_split(nv),
                                           method=method, init=init,
                                           positions=positions)
        for f in dataclasses.fields(attacks.BatchOutcome):
            got, want = getattr(out, f.name)[s], getattr(alone, f.name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (nv, f.name)
    # rows flip at t=0, mid-run and never, so the loops compact
    assert {-1, 0} < set(out.iterations_per_restart.ravel().tolist())
    skipped = attacks.run_restarts_batch(c, bs, x, y, cfg, method=method,
                                         init=init, positions=positions,
                                         n_init_values=values, keep_x=False)
    assert skipped.x_adv is None
    assert skipped.iterations.tobytes() == out.iterations.tobytes()


def test_one_descent_serves_every_budget_split(monkeypatch, blobs_mlp,
                                               blobs_boundaries, blobs_test):
    # one random start and one descent, to the largest n_init, per restart
    calls = {"random_start_batch": 0, "boundary_init_batch": 0}
    for name in calls:
        fn = getattr(attacks, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(attacks, name, counted)
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=3,
                               n_init=0, n_attack=6, seed=0)
    attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                               blobs_test.images, blobs_test.labels, cfg,
                               n_init_values=[4, 0, 2])
    assert calls == {"random_start_batch": 3, "boundary_init_batch": 3}


def test_an_empty_split_list_is_refused(blobs_mlp, blobs_boundaries,
                                        blobs_test, quick_attack_config):
    with pytest.raises(ValueError, match="^n_init_values: empty list$"):
        attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                   blobs_test.images, blobs_test.labels,
                                   quick_attack_config, n_init_values=[])


@pytest.mark.parametrize("values, message", [
    ([0, 14], "n_init_values[1]: must be <= 13, got 14"),
    ([-1, 2], "n_init_values[0]: must be >= 0, got -1"),
], ids=["above-budget", "negative"])
def test_a_split_outside_the_budget_is_refused_by_its_index(
        blobs_mlp, blobs_boundaries, blobs_test, quick_attack_config, values,
        message):
    # quick_attack_config's budget is 3 + 10
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                   blobs_test.images, blobs_test.labels,
                                   quick_attack_config, n_init_values=values)


def test_phase_counts_each_rows_moves_from_its_stop_check(rng):
    # a scripted phase: row i stops at check stop_at[i] (-1: never), and
    # each move is a sign step that freezes the stopped rows
    stop_at = np.array([0, 2, -1, 1, 4, -1, 2, 0, 3, -1])
    x = rng.uniform(0.0, 1.0, (stop_at.size, 3))
    cfg = attacks.AttackConfig(epsilon=0.1, alpha=0.01, restarts=1,
                               n_init=5, n_attack=0, seed=0)
    checks = []

    def stop(c, live_set, v):
        checks.append(live_set.rows.size)
        return stop_at[live_set.rows] == len(checks) - 1, None

    def move(live_set, ctxs, aux, live):
        live_set.step(np.ones((live.size, 3)), 0.01, live)

    c = types.SimpleNamespace(head_forward_with_ctx=lambda x: (x, None))
    captured = dict.fromkeys(range(5))
    seg = attacks._phase(c, x, np.zeros(stop_at.size, dtype=np.int64), cfg,
                         x, None, 5, 5, stop, move, captured)
    assert checks == [10, 8, 7, 5, 4]
    for k, short in {**captured, 5: seg}.items():
        stopped = (stop_at >= 0) & (stop_at < k)
        assert short.iterations.tolist() == np.where(stopped, stop_at,
                                                     -1).tolist()
        assert short.grad_evals.dtype == np.int64
        assert short.grad_evals.tolist() == np.where(stopped, stop_at,
                                                     k).tolist()


@pytest.mark.parametrize("which", ["mlp", "cnn"])
def test_descent_captures_equal_shorter_descents(which, blobs_mlp,
                                                 blobs_test,
                                                 untrained_cnn_digits):
    c, ds, eps = ((blobs_mlp, blobs_test, 0.08) if which == "mlp"
                  else (*untrained_cnn_digits, 0.03))
    bs = geometry.boundary_set_for(c)
    x, y = _mixed_batch(c, ds)
    cfg = attacks.AttackConfig(epsilon=eps, alpha=eps / 4, eta_init=eps / 3,
                               restarts=1, n_init=6, n_attack=0, seed=0)
    start = attacks.random_start_batch(x, eps, np.arange(len(y)))
    captured = dict.fromkeys([4, 0, 1, 3])
    longest = attacks.boundary_init_batch(c, bs, x, y, cfg, start,
                                          capture=captured)
    assert start.tobytes() == attacks.random_start_batch(
        x, eps, np.arange(len(y))).tobytes()
    for k, (x_k, evals_k) in {**captured, 6: longest}.items():
        want_x, want_evals = attacks.boundary_init_batch(
            c, bs, x, y, dataclasses.replace(cfg, n_init=k), start)
        assert x_k.tobytes() == want_x.tobytes(), k
        assert evals_k.tobytes() == want_evals.tobytes(), k
    # some rows stop before the last capture, so the live set compacts
    assert 0 < (longest[1] < 4).sum() < len(y)
    for bad in (6, -1):  # no shorter descent of this one
        with pytest.raises(ValueError, match=r"not all in 0\.\.5"):
            attacks.boundary_init_batch(c, bs, x, y, cfg, start,
                                        capture=dict.fromkeys([2, bad]))
