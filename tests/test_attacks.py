import dataclasses

import numpy as np
import pytest
from scipy import optimize

from boundarylab import attacks, data, geometry, model


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
    for bad in (dict(norm="l2"), dict(epsilon=-0.1), dict(alpha=0.0),
                dict(restarts=0), dict(n_init=-1), dict(n_attack=-1),
                dict(fab_eta=0.5), dict(fab_beta_max=1.5),
                dict(eta_init=-0.01), dict(seed=-1)):
        with pytest.raises(ValueError):
            attacks.AttackConfig(**{**ok, **bad})
    with pytest.raises(ValueError, match="seed must be >= 0"):
        attacks.AttackConfig(**{**ok, "seed": -1})
    for bad in (dict(restarts=2.5), dict(n_init="2"), dict(n_attack=True),
                dict(seed=1.0)):
        with pytest.raises(TypeError, match="must be an int"):
            attacks.AttackConfig(**{**ok, **bad})
    attacks.AttackConfig(**{**ok, "restarts": np.int64(2)})


def test_config_defaults_resolve_from_epsilon():
    cfg = attacks.AttackConfig(epsilon=0.25, alpha=0.01, restarts=1,
                               n_init=1, n_attack=1, seed=0)
    assert cfg.eta_init == 0.25
    assert cfg.fab_mu == 0.25
    zero = attacks.AttackConfig(epsilon=0.0, alpha=0.03, restarts=1,
                                n_init=1, n_attack=1, seed=0)
    assert zero.eta_init == 0.03  # any positive step; the clip pins it


def test_budget_split_preserves_total():
    cfg = attacks.AttackConfig(epsilon=0.1, alpha=0.01, restarts=1,
                               n_init=3, n_attack=7, seed=0)
    for k in range(11):
        split = cfg.with_budget_split(k)
        assert split.n_init == k
        assert split.n_init + split.n_attack == 10
    with pytest.raises(ValueError):
        cfg.with_budget_split(11)
    with pytest.raises(ValueError):
        cfg.with_budget_split(-1)


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


FAB_RADIUS = 0.0173  # a fab_mu below epsilon, fab's random-start radius


@pytest.mark.parametrize("radius", [0.0, 0.03, 8 / 255, FAB_RADIUS])
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
    # seed + index * restarts wraps past 2**63 - 1 at example 1
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=2,
                               n_init=0, n_attack=1, seed=2**63 - 2)
    with pytest.raises(ValueError, match="seed must be >= 0: row 1"):
        attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                   blobs_test.images[:3],
                                   blobs_test.labels[:3], cfg,
                                   init="random")


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


def _lp_projection(x, w, b):
    """min t s.t. |p - x|_inf <= t, w.p + b = 0, p in box."""
    d = x.size
    # variables (p, t)
    c = np.zeros(d + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * d, d + 1))
    b_ub = np.zeros(2 * d)
    a_ub[:d, :d] = np.eye(d)
    a_ub[:d, -1] = -1.0
    b_ub[:d] = x
    a_ub[d:, :d] = -np.eye(d)
    a_ub[d:, -1] = -1.0
    b_ub[d:] = -x
    a_eq = np.zeros((1, d + 1))
    a_eq[0, :d] = w
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[-b],
                           bounds=[(0, 1)] * d + [(0, None)],
                           method="highs")
    assert res.status == 0
    return res.fun


def test_projection_matches_lp_oracle(rng):
    for _ in range(30):
        d = int(rng.integers(2, 8))
        x = rng.uniform(0, 1, size=d)
        w = rng.normal(size=d)
        # pass the plane through a random box point so it is feasible
        b = -float(w @ rng.uniform(0, 1, size=d))
        p = project_one(x, w, b)
        assert abs(w @ p + b) < 1e-9
        t_lp = _lp_projection(x, w, b)
        t_ours = np.max(np.abs(p - x))
        assert t_ours <= t_lp + 1e-9


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
        assert np.max(np.abs(p[i] - x[i])) <= _lp_projection(x[i], w[i],
                                                             b[i]) + 1e-9


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


def test_fab_single_equals_batch_row(blobs_mlp, blobs_boundaries,
                                     blobs_test, quick_attack_config):
    cfg = quick_attack_config
    x = blobs_test.images[:8]
    y = blobs_test.labels[:8]
    starts = attacks.random_start_batch(x, min(cfg.fab_mu, cfg.epsilon),
                                        np.arange(8) * 7)
    seg = attacks.fab_batch(blobs_mlp, blobs_boundaries, x, y, cfg,
                            starts.copy())
    for r in range(8):
        # a B=1 call must equal its row of the batch: rows do not mix
        one_seg = attacks.fab_batch(blobs_mlp, blobs_boundaries, x[r:r + 1],
                                    y[r:r + 1], cfg, starts[r:r + 1].copy())
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
    bs = geometry.boundary_set_for(clf)
    x = np.array([[0.2, 0.3], [0.9, 0.6]])
    y = clf.predict(x)
    assert list(y) == [2, 0]
    cfg = attacks.AttackConfig(epsilon=0.3, alpha=0.01, restarts=1,
                               n_init=0, n_attack=3, seed=0)
    seg = attacks.fab_batch(clf, bs, x, y, cfg, x.copy())
    np.testing.assert_array_equal(seg.x_adv[0], x[0])
    assert not seg.success[0] and seg.grad_evals[0] == 3
    assert np.any(seg.x_adv[1] != x[1])
    alone = attacks.fab_batch(clf, bs, x[1:], y[1:], cfg, x[1:].copy())
    assert seg.x_adv[1].tobytes() == alone.x_adv[0].tobytes()


def test_fab_iterates_stay_in_ball_and_box(blobs_mlp, blobs_boundaries,
                                           blobs_test, quick_attack_config):
    cfg = quick_attack_config
    for i in range(10):
        x = blobs_test.images[i]
        y = blobs_test.labels[i:i + 1]
        start = attacks.random_start_batch(
            one(x), min(cfg.fab_mu, cfg.epsilon), [50 + i])
        seg = attacks.fab_batch(blobs_mlp, blobs_boundaries, one(x), y, cfg,
                                start)
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
        v, ctxs = c.head_forward_with_ctx(x[active], train=False)
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
        v, ctxs = c.head_forward_with_ctx(x[active], train=False)
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


def _oracle_fab(c, bs, x_orig, y, config, start):
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
        v, ctxs = c.head_forward_with_ctx(xa, train=False)
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
                                                config.fab_beta_max),
                            0.0)[:, None]
        xn[move] = ((1.0 - beta) * (xm + config.fab_eta * d_adv)
                    + beta * (xo + config.fab_eta * d_org))
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
def test_live_set_loops_match_gather_scatter(which, budget, blobs_mlp,
                                              blobs_test,
                                              untrained_cnn_digits):
    c, ds, eps = ((blobs_mlp, blobs_test, 0.08) if which == "mlp"
                  else (*untrained_cnn_digits, 0.03))
    bs = geometry.boundary_set_for(c)
    x, y = _mixed_batch(c, ds)
    cfg = attacks.AttackConfig(epsilon=eps, alpha=eps / 4,
                               eta_init=eps / 3, restarts=1,
                               n_init=budget[0], n_attack=budget[1], seed=0)
    for n in (len(y), 0):
        xb, yb = x[:n], y[:n]
        start = attacks.random_start_batch(xb, eps, np.arange(n))
        x0, e0 = attacks.boundary_init_batch(c, bs, xb, yb, cfg, start)
        x1, e1 = _oracle_boundary_init(c, bs, xb, yb, cfg, start)
        assert x0.tobytes() == x1.tobytes()
        assert e0.tobytes() == e1.tobytes()
        segs = {"pgd": (attacks.pgd_batch(c, xb, yb, cfg, x0),
                        _oracle_pgd(c, xb, yb, cfg, x0)),
                "fab": (attacks.fab_batch(c, bs, xb, yb, cfg, x0),
                        _oracle_fab(c, bs, xb, yb, cfg, x0))}
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
    attacks.fab_batch(blobs_mlp, bs, x, y, cfg, start)
    assert x.tobytes() == keep_x.tobytes()
    assert start.tobytes() == keep_start.tobytes()


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
                                     base_seeds=np.array([0, 10, 20, 30]))
    for r in range(4):
        expected = attacks.random_start_batch(
            blobs_test.images[r:r + 1], 0.08, [10 * r])[0]
        if out.restart[r] in (-1, 0):
            np.testing.assert_array_equal(out.x_adv[r], expected)


def test_fab_random_start_radius_is_capped(blobs_mlp, blobs_boundaries,
                                           blobs_test):
    cfg = attacks.AttackConfig(epsilon=0.3, alpha=0.05, restarts=1,
                               n_init=0, n_attack=0, fab_mu=0.05, seed=1)
    out = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                     blobs_test.images[:6],
                                     blobs_test.labels[:6], cfg,
                                     method="fab", init="random")
    # zero-budget fab returns the start itself, which must lie in the
    # smaller fab ball
    gap = np.max(np.abs(out.x_adv - blobs_test.images[:6]))
    assert gap <= 0.05 + 1e-15


def test_single_example_wrapper_matches_batch(blobs_mlp, blobs_boundaries,
                                              blobs_test,
                                              quick_attack_config):
    cfg = quick_attack_config
    batch = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                       blobs_test.images, blobs_test.labels,
                                       cfg)
    # a B=1 call with example 3's default base seed equals row 3
    seed = cfg.seed + 3 * cfg.restarts
    single = attacks.run_restarts_batch(blobs_mlp, blobs_boundaries,
                                        blobs_test.images[3:4],
                                        blobs_test.labels[3:4],
                                        dataclasses.replace(cfg),
                                        base_seeds=np.array([seed]))
    assert single.success[0] == batch.success[3]
    np.testing.assert_allclose(single.x_adv[0], batch.x_adv[3], atol=1e-12)
    np.testing.assert_array_equal(single.grad_evals_per_restart[0],
                                  batch.grad_evals_per_restart[3])
