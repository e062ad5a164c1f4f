import dataclasses

import numpy as np
import pytest
from scipy import optimize

from boundarylab import attacks, geometry, model


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
                dict(eta_init=-0.01)):
        with pytest.raises(ValueError):
            attacks.AttackConfig(**{**ok, **bad})


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
        s = attacks.random_start(x, 0.3, seed)
        assert np.all(np.abs(s - x) <= 0.3 + 1e-15)
        assert np.all((s >= 0.0) & (s <= 1.0))


def test_random_start_is_deterministic(rng):
    x = rng.uniform(0, 1, size=9)
    np.testing.assert_array_equal(attacks.random_start(x, 0.2, 5),
                                  attacks.random_start(x, 0.2, 5))
    assert not np.array_equal(attacks.random_start(x, 0.2, 5),
                              attacks.random_start(x, 0.2, 6))


def test_random_start_zero_radius_is_identity(rng):
    x = rng.uniform(0, 1, size=9)
    np.testing.assert_array_equal(attacks.random_start(x, 0.0, 3), x)


def test_random_start_batch_matches_scalar(rng):
    x = rng.uniform(0, 1, size=(6, 5))
    seeds = np.array([3, 9, 27, 81, 243, 729])
    batch = attacks.random_start_batch(x, 0.15, seeds)
    for r in range(6):
        np.testing.assert_array_equal(batch[r],
                                      attacks.random_start(x[r], 0.15,
                                                           int(seeds[r])))


# -- hyperplane-box projection -------------------------------------------


def test_projection_one_dimensional():
    out = attacks.project_hyperplane_box(np.array([0.8]), np.array([1.0]),
                                         -0.3)
    np.testing.assert_allclose(out, [0.3])


def test_projection_waterfilling_splits_evenly():
    # both coordinates have equal rate and room: each moves t* = 0.5
    out = attacks.project_hyperplane_box(np.array([1.0, 1.0]),
                                         np.array([1.0, 1.0]), -1.0)
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_projection_respects_coordinate_caps():
    # coordinate 0 hits its wall after 0.1; the remaining reduction must
    # all come from coordinate 1, giving t* = 0.5 and the point (0, 0.5)
    out = attacks.project_hyperplane_box(np.array([0.1, 1.0]),
                                         np.array([1.0, 1.0]), -0.5)
    np.testing.assert_allclose(out, [0.0, 0.5])


def test_projection_of_on_plane_point_is_identity():
    x = np.array([0.25, 0.5])
    out = attacks.project_hyperplane_box(x, np.array([2.0, -1.0]), 0.0)
    np.testing.assert_array_equal(out, x)


def test_projection_rejects_zero_normal():
    with pytest.raises(ValueError, match="zero"):
        attacks.project_hyperplane_box(np.array([0.5]), np.array([0.0]), 1.0)
    with pytest.raises(ValueError):
        attacks.project_hyperplane_box(np.array([0.5, 0.5]),
                                       np.array([1.0]), 0.0)


def test_projection_infeasible_goes_to_walls():
    # plane p_0 + p_1 = 5 never meets the unit box; the best box point is
    # the corner (1, 1)
    out = attacks.project_hyperplane_box(np.array([0.2, 0.7]),
                                         np.array([1.0, 1.0]), -5.0)
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
        p = attacks.project_hyperplane_box(x, w, b)
        assert abs(w @ p + b) < 1e-9
        t_lp = _lp_projection(x, w, b)
        t_ours = np.max(np.abs(p - x))
        assert t_ours <= t_lp + 1e-9


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
        start = attacks.random_start(x, cfg.epsilon, 100 + i)
        seg = attacks.pgd_batch(blobs_mlp, one(x), y, cfg, one(start))
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


def test_fab_iterates_stay_in_ball_and_box(blobs_mlp, blobs_boundaries,
                                           blobs_test, quick_attack_config):
    cfg = quick_attack_config
    for i in range(10):
        x = blobs_test.images[i]
        y = blobs_test.labels[i:i + 1]
        start = attacks.random_start(x, min(cfg.fab_mu, cfg.epsilon),
                                     50 + i)
        seg = attacks.fab_batch(blobs_mlp, blobs_boundaries, one(x), y, cfg,
                                one(start))
        assert np.max(np.abs(seg.x_adv[0] - x)) <= cfg.epsilon + 1e-15
        assert np.all((seg.x_adv >= 0.0) & (seg.x_adv <= 1.0))


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
        expected = attacks.random_start(blobs_test.images[r], 0.08,
                                        int([0, 10, 20, 30][r]))
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
