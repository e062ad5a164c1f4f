"""End-to-end acceptance suite.

Each test exercises one headline guarantee at full scale and prints a
single pass/fail line directly to the terminal (bypassing capture), so a
plain ``pytest tests/test_acceptance.py`` shows the whole scorecard.
The heavy tests train their own models and time themselves against the
stated wall-clock budgets.
"""

import itertools
import json
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize

from boundarylab import attacks, cli, data, geometry, harness, layers, model


def _finish(capfd, num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    with capfd.disabled():
        sys.stdout.write(f"acceptance {num}/9 {name}: {status}{suffix}\n")
        sys.stdout.flush()
    assert ok, f"{name}: {detail}"


def _flat(ds):
    return data.Dataset(images=ds.images.reshape(len(ds.labels), -1),
                        labels=ds.labels, class_map=ds.class_map,
                        dataset_id=ds.dataset_id + "/flat")


# -- 1: gradient fidelity --------------------------------------------------


def _fd_input_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f(x)
        flat_x[i] = orig - h
        down = f(x)
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2 * h)
    return g


def _rel(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def test_1_gradient_fidelity(capfd):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    cases = [
        ("dense", lambda: (layers.Dense(6, 4, rng=rng), (3, 6))),
        ("conv", lambda: (layers.Conv2d(2, 3, 3, rng=rng), (1, 2, 6, 6))),
        ("conv-padded",
         lambda: (layers.Conv2d(1, 2, 3, padding=1, rng=rng), (1, 1, 5, 5))),
        ("batchnorm", lambda: (layers.BatchNorm(3), (2, 3, 4, 4))),
        ("relu", lambda: (layers.ReLU(), (2, 10))),
        ("maxpool", lambda: (layers.MaxPool2x2(), (1, 2, 6, 6))),
        ("flatten", lambda: (layers.Flatten(), (2, 3, 4))),
    ]
    worst = 0.0
    for name, make in cases:
        for _ in range(100):
            layer, shape = make()
            x = rng.normal(size=shape) + 0.05  # keep relu inputs off 0
            y, ctx = layer.forward(x, train=True)
            gy = rng.normal(size=y.shape)

            def scalar(xq):
                out, _ = layer.forward(xq, train=True)
                return float((out * gy).sum())

            gx = layer.backward(ctx, gy)
            err = _rel(gx, _fd_input_grad(scalar, x.copy()))
            worst = max(worst, err)
            assert err < 1e-4, f"{name}: rel err {err:.2e}"

    blobs = data.make_blobs(40, k=4, d=8, separation=6.0, seed=1)
    clf = model.train(model.mlp((8,), k=4, n=3, hidden=(16,), seed=0),
                      blobs, epochs=10, seed=0)
    bs = geometry.boundary_set_for(clf)
    for _ in range(100):
        x = rng.uniform(0.1, 0.9, size=(1, 8))
        y = int(rng.integers(4))
        k = int((y + 1 + rng.integers(3)) % 4)

        def ce(xq):
            z = clf.forward(xq)
            return float(-layers.log_softmax(z)[0, y])

        def dist(xq):
            return geometry.signed_distances(bs, clf.head_forward(xq), y)[0, k]

        # the gradients the attacks step on, called with B=1
        v, ctxs = clf.head_forward_with_ctx(x)
        g_ce = attacks.cross_entropy_grad(clf, ctxs, clf.tail_forward(v), [y])
        g_dist = attacks.boundary_distance_grad(clf, bs, ctxs, [y], [k])
        e1 = _rel(g_ce, _fd_input_grad(ce, x.copy()))
        e2 = _rel(g_dist, _fd_input_grad(dist, x.copy()))
        worst = max(worst, e1, e2)
        assert e1 < 1e-4 and e2 < 1e-4

    dt = time.perf_counter() - t0
    _finish(capfd, 1, "gradient fidelity", worst < 1e-4 and dt < 60.0,
            f"worst rel err {worst:.1e}, {dt:.1f}s")


# -- 2: region partition ---------------------------------------------------


def test_2_region_partition_and_antisymmetry(capfd):
    rng = np.random.default_rng(1)
    disagreements = 0
    ties = 0
    for k in (2, 4, 10):
        w = rng.normal(size=(k, 4))
        b = rng.normal(size=k)
        bs = geometry.build_boundary_set(w, b)
        v = rng.normal(scale=2.0, size=(10_000, 4))
        regions = geometry.region_of_batch(bs, v)
        argmax = np.argmax(v @ w.T + b, axis=1)
        on_b = regions == -1
        ties += int(on_b.sum())
        disagreements += int((regions[~on_b] != argmax[~on_b]).sum())
        for i, j in bs.pairs:
            rows, biases, _ = bs.signed_rows([i, j], [j, i])
            for r in range(100):
                fij, fji = rows @ v[r] + biases
                assert fji == -fij
    _finish(capfd, 2, "region partition", disagreements == 0 and ties == 0,
            f"0 disagreements on 30000 points, K in (2, 4, 10)")


# -- 3: signed distance ----------------------------------------------------


def test_3_signed_distance_semantics(capfd):
    rng = np.random.default_rng(2)
    worst_on = 0.0
    worst_rel = 0.0
    for _ in range(200):
        k, n = 5, 6
        w = rng.normal(size=(k, n))
        b = rng.normal(size=k)
        bs = geometry.build_boundary_set(w, b)
        i, j = sorted(rng.choice(k, size=2, replace=False))
        rows, biases, norms = bs.signed_rows([i], [j])
        row, bias, norm = rows[0], biases[0], norms[0]
        v0 = rng.normal(scale=2.0, size=n)
        # exact orthogonal projection onto the hyperplane
        v_on = v0 - (row @ v0 + bias) / (norm * norm) * row
        d_on = geometry.signed_distances(bs, v_on, i)[0, j]
        worst_on = max(worst_on, abs(d_on))
        # independent oracle: Euclidean length of the projection residual
        d_raw = geometry.signed_distances(bs, v0, i)[0, j]
        oracle = np.linalg.norm(v0 - v_on)
        if oracle > 1e-9:
            worst_rel = max(worst_rel, abs(abs(d_raw) - oracle) / oracle)
        # sign convention: positive exactly when class i outranks class j
        assert (d_raw > 0) == (row @ v0 + bias > 0)
    ok = worst_on < 1e-9 and worst_rel < 1e-9
    _finish(capfd, 3, "signed distance", ok,
            f"on-boundary max {worst_on:.1e}, oracle rel {worst_rel:.1e}")


# -- 4: hyperplane-box projection -------------------------------------------


def _lp_projection(x, w, b):
    d = x.size
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


def test_4_projection_matches_lp(capfd):
    rng = np.random.default_rng(3)
    worst = 0.0
    for case in range(500):
        d = 1 + case % 3
        x = rng.uniform(0, 1, size=d)
        w = rng.normal(size=d)
        while not np.any(w):
            w = rng.normal(size=d)
        # anchor the plane inside the box so the LP is feasible
        b = -float(w @ rng.uniform(0, 1, size=d))
        p = attacks.project_hyperplane_box(x[None], w[None],
                                           np.array([b]))[0]
        assert abs(w @ p + b) < 1e-9
        gap = float(np.max(np.abs(p - x))) - _lp_projection(x, w, b)
        worst = max(worst, gap)
        assert gap <= 1e-6
    _finish(capfd, 4, "hyperplane projection", worst <= 1e-6,
            f"500 instances, max objective gap {worst:.1e}")


# -- 5: linear-case descent rate --------------------------------------------


def test_5_linear_descent_rate(capfd):
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        w = rng.normal(size=(3, n))
        b = rng.normal(scale=0.1, size=3)
        clf = model.linear_model(n, 3, weight=w, bias=b)
        bs = geometry.boundary_set_for(clf)
        x = rng.uniform(0.3, 0.7, size=(1, n))
        y = np.argmax(clf.forward(x), axis=1)
        eta = 0.001
        cfg_base = attacks.AttackConfig(epsilon=10.0, alpha=0.01,
                                        eta_init=eta, restarts=1,
                                        n_init=0, n_attack=0, seed=0)
        (m,), (prev,) = geometry.nearest_boundary_batch(bs, x, y)
        for steps in range(1, 9):
            cfg = replace(cfg_base, n_init=steps)
            out, _ = attacks.boundary_init_batch(clf, bs, x, y, cfg, x.copy())
            if np.any(out <= 0.0) or np.any(out >= 1.0):
                break  # box clipping ends the exact-rate regime
            (mq,), (cur,) = geometry.nearest_boundary_batch(bs, out, y)
            if cur <= 0.0:
                break  # crossed
            (row,), _, (norm,) = bs.signed_rows(y, [mq])
            rate = eta * np.abs(row).sum() / norm
            if mq == m:
                worst = max(worst, abs((prev - cur) - rate))
            m, prev = mq, cur
    _finish(capfd, 5, "linear descent rate", worst < 1e-12,
            f"max per-step deviation {worst:.1e}")


# -- 6: boundary export on digits -------------------------------------------


def test_6_digit_pipeline_under_ten_minutes(capfd):
    t0 = time.perf_counter()
    train = data.make_digits(150, classes=(0, 1, 2, 3), size=28, seed=0)
    test = data.make_digits(60, classes=(0, 1, 2, 3), size=28, seed=1)
    clf = model.train(model.small_cnn(k=4, n=2, input_shape=(1, 28, 28),
                                      seed=0), train, epochs=8, seed=0)
    bs = geometry.boundary_set_for(clf)
    # ten plain gradient steps from the example itself, one trial
    cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.01, restarts=1,
                               n_init=0, n_attack=10, seed=0)
    out = attacks.run_restarts_batch(clf, bs, test.images, test.labels,
                                     cfg, method="pgd", init="none")
    exp = harness.export_representation_space(clf, bs, test, out)

    n_boundaries = len(exp.boundaries)
    successes = [r for r in exp.records
                 if r.kind == "adversarial" and r.success]
    v_adv = np.array([r.v for r in successes])
    labels = np.array([r.label for r in successes])
    regions = geometry.region_of_batch(bs, v_adv)
    escaped = (regions != labels) & (regions != -1)

    dt = time.perf_counter() - t0
    ok = (n_boundaries == 6 and len(successes) > 0 and bool(escaped.all())
          and dt < 600.0)
    _finish(capfd, 6, "digit boundary export", ok,
            f"6 boundaries, {len(successes)} successes all past their "
            f"class region, {dt:.0f}s")


# -- 7: iteration trend across budget splits --------------------------------


def test_7_init_budget_shortens_attacks(capfd):
    train = _flat(data.make_digits(150, classes=(0, 1, 2, 3), size=14,
                                   seed=0))
    test = _flat(data.make_digits(250, classes=(0, 1, 2, 3), size=14,
                                  seed=1))
    clf = model.train(model.mlp((196,), k=4, n=2, hidden=(32,), seed=0),
                      train, epochs=12, seed=0)
    bs = geometry.boundary_set_for(clf)
    base = attacks.AttackConfig(epsilon=0.03, alpha=0.004, eta_init=0.008,
                                restarts=4, n_init=0, n_attack=25, seed=0)
    sweep = harness.sweep_n_init(clf, bs, test, base,
                                 n_init_values=list(range(6)),
                                 seeds=[0, 1, 2, 3, 4])
    series = sweep.mean_iterations_series()
    assert all(s is not None for s in series)
    band = 0.05 * series[0]
    ok = all(series[i + 1] <= series[i] + band for i in range(5))
    pretty = ", ".join(f"{s:.2f}" for s in series)
    _finish(capfd, 7, "init budget shortens attacks", ok,
            f"mean iterations by split: {pretty} (1000 examples, 5 seeds)")


# -- 8: equal-budget robustness comparison ----------------------------------


def test_8_boundary_init_never_loses_at_equal_budget(capfd):
    train = data.make_digits(100, classes=(0, 1, 2, 3), size=16, seed=0)
    test = data.make_digits(55, classes=(0, 1, 2, 3), size=16, seed=1)
    base = model.small_cnn(k=4, n=2, input_shape=(1, 16, 16), seed=0)
    plain = model.train(base, train, epochs=6, seed=0)
    adv_cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.0125, restarts=1,
                                   n_init=0, n_attack=5, seed=0)
    hardened = model.adv_train(base, train, adv_cfg, epochs=6, seed=0)

    eval_cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.01, restarts=2,
                                    n_init=5, n_attack=10, seed=0)
    deltas = []
    for clf, method in itertools.product((plain, hardened), ("pgd", "fab")):
        bs = geometry.boundary_set_for(clf)
        means = {}
        for init, cfg in (("boundary", eval_cfg),
                          ("random", eval_cfg.with_budget_split(0))):
            vals = [harness.evaluate(clf, bs, test, replace(cfg, seed=s),
                                     method=method, init=init
                                     ).robust_accuracy for s in range(5)]
            means[init] = float(np.mean(vals))
        deltas.append(means["boundary"] - means["random"])
    ok = all(d <= 0.005 for d in deltas)
    pretty = ", ".join(f"{d * 100:+.2f}pp" for d in deltas)
    _finish(capfd, 8, "equal-budget robustness", ok,
            f"boundary minus random: {pretty} "
            f"(plain/adv x pgd/fab, 5 seeds)")


# -- 9: byte-identical reports ----------------------------------------------


def test_9_reports_are_byte_identical(capfd, tmp_path):
    ckpt = tmp_path / "m.ckpt"
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "seed": 0,
        "dataset": {"kind": "blobs", "n_per_class": 20, "k": 3, "d": 6,
                    "separation": 6.0, "seed": 1},
        "model": {"preset": "mlp", "k": 3, "n": 2, "hidden": [16],
                  "seed": 0},
        "train": {"epochs": 15},
        "out": str(ckpt),
    }))
    assert cli.main(["train", "--config", str(train_cfg)]) == 0

    stable = True
    for cmd, out_name, extra in (
        ("attack", "report.json", {}),
        ("sweep", "sweep.csv",
         {"sweep": {"n_init_values": [0, 2], "seeds": [5, 6]}}),
        ("export-repr", "repr.csv", {}),
    ):
        out = tmp_path / out_name
        cfg = tmp_path / f"{cmd}.json"
        cfg.write_text(json.dumps({
            "dataset": {"kind": "blobs", "n_per_class": 12, "k": 3,
                        "d": 6, "separation": 6.0, "seed": 2},
            "model_path": str(ckpt),
            "attack": {"epsilon": 0.08, "alpha": 0.02, "restarts": 2,
                       "n_init": 2, "n_attack": 8, "seed": 5},
            "out": str(out), **extra,
        }))
        assert cli.main([cmd, "--config", str(cfg)]) == 0
        first = out.read_bytes()
        assert cli.main([cmd, "--config", str(cfg)]) == 0
        rerun_same = out.read_bytes() == first
        assert cli.main([cmd, "--config", str(cfg), "--workers", "4"]) == 0
        workers_same = out.read_bytes() == first
        stable = stable and rerun_same and workers_same
    _finish(capfd, 9, "deterministic reports", stable,
            "attack, sweep, export-repr: rerun and workers-varied "
            "outputs identical")
