"""Fast self-check suite behind the ``verify`` CLI command.

Each check is a cheap, seeded variant of an invariant the test suite
covers in depth: gradient fidelity against finite differences, the
pairwise-boundary partition, distance and projection oracles, the
linear-case descent identity, threat-model containment, and report
reconciliation.  Each check returns ``(ok, detail)`` and is named once,
in ``CHECKS``; ``run_all`` returns results, and never raises for a
failing check.
"""

from dataclasses import dataclass

import numpy as np

from . import attacks, data, geometry, harness, layers, model


def _within(tol, detail, *errors):
    """A check's (ok, detail): ok when every one of ``errors`` is below
    the check's constant tolerance ``tol``, which the detail names."""
    return all(e < tol for e in errors), f"{detail}, tol {tol:g}"


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def rel_err(analytic, fd):
    """Norm-relative gradient error; safe when the true gradient is 0."""
    num = np.linalg.norm(analytic - fd)
    return num / max(np.linalg.norm(fd), 1e-12)


_FD_EPS = 1e-6


def fd_grad(f, x):
    """Central finite differences of scalar f at a float64 copy of x,
    elementwise, with step ``_FD_EPS``."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + _FD_EPS
        hi = f(x)
        flat[i] = keep - _FD_EPS
        lo = f(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * _FD_EPS)
    return g


def _layer_cases(rng):
    yield "dense", layers.Dense(5, 3, rng=rng), (4, 5)
    yield "conv2d", layers.Conv2d(2, 3, 3, padding=1, rng=rng), (2, 2, 5, 5)
    yield "relu", layers.ReLU(), (3, 7)
    yield "maxpool", layers.MaxPool2x2(), (2, 2, 6, 6)
    yield "batchnorm", layers.BatchNorm(3), (4, 3, 5, 5)
    yield "flatten", layers.Flatten(), (3, 2, 4, 4)


def check_layer_gradients(seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_name = ""
    for name, layer, shape in _layer_cases(rng):
        x = rng.standard_normal(shape)
        y, ctx = layer.forward(x, train=True)
        proj = rng.standard_normal(y.shape)

        def scalar(xq):
            yq, _ = layer.forward(xq, train=True)
            return float((yq * proj).sum())

        gx = layer.backward(ctx, proj)
        err = rel_err(gx, fd_grad(scalar, x))
        if err > worst:
            worst, worst_name = err, name
    return _within(1e-5, f"worst rel err {worst:.2e} ({worst_name})", worst)


def check_scalar_gradients(seed=0):
    rng = np.random.default_rng(seed)
    clf = model.mlp((6,), k=4, n=3, hidden=(8,), seed=seed)
    bs = geometry.boundary_set_for(clf)
    x = rng.uniform(0.05, 0.95, size=(1, 6))
    v, ctxs = clf.head_forward_with_ctx(x)
    y, m = np.array([2]), np.array([0])
    cases = [
        (attacks.cross_entropy_grad(clf, ctxs, clf.tail_forward(v), y),
         lambda xq: float(-layers.log_softmax(clf.forward(xq))[0, 2])),
        (attacks.boundary_distance_grad(clf, bs, ctxs, y, m),
         lambda xq: geometry.signed_distances(
             bs, clf.head_forward(xq), 2)[0, 0]),
    ]
    worst = max(rel_err(g, fd_grad(f, x)) for g, f in cases)
    return _within(1e-5, f"worst rel err {worst:.2e}", worst)


def check_antisymmetry(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    bset = geometry.build_boundary_set(w, b)
    i, j = np.nonzero(~np.eye(6, dtype=bool))  # the 30 ordered pairs
    rows_ij, b_ij, _ = bset.signed_rows(i, j)
    rows_ji, b_ji, _ = bset.signed_rows(j, i)
    bad = 0
    for _ in range(50):
        v = rng.standard_normal(4)
        bad += int(np.sum(rows_ij @ v + b_ij != -(rows_ji @ v + b_ji)))
    return bad == 0, f"{bad} sign violations over 50 points x 30 ordered pairs"


def check_partition(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((7, 5))
    b = rng.standard_normal(7)
    bset = geometry.build_boundary_set(w, b)
    v = rng.standard_normal((2000, 5))
    regions = geometry.region_of_batch(bset, v)
    winners = np.argmax(v @ w.T + b, axis=1)
    decided = regions >= 0
    bad = int((regions[decided] != winners[decided]).sum())
    return (
        bad == 0 and int(decided.sum()) == 2000,
        f"{bad} disagreements, {2000 - int(decided.sum())} tie flags "
        "on 2000 points",
    )


def check_distance_oracle(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((5, 4))
    b = rng.standard_normal(5)
    bset = geometry.build_boundary_set(w, b)
    worst_on = 0.0
    worst_shift = 0.0
    for _ in range(100):
        v = rng.standard_normal(4)
        y, k = rng.choice(5, size=2, replace=False)

        def dist(vq):
            return geometry.signed_distances(bset, vq, y)[0, k]

        d = dist(v)
        row = bset.signed_rows([y], [k])[0][0]
        unit = row / np.linalg.norm(row)
        worst_on = max(worst_on, abs(dist(v - d * unit)))
        t = float(rng.uniform(0.1, 2.0))
        worst_shift = max(worst_shift, abs(dist(v + t * unit) - (d + t)))
    return _within(1e-9, f"on-boundary residual {worst_on:.2e}, "
                   f"shift error {worst_shift:.2e}", worst_on, worst_shift)


def lp_projection(x, w, b):
    """The L∞ distance from ``x`` to the nearest point of the [0,1] box on
    the plane w·p + b = 0, as a linear program over (p, t): min t with
    |p - x| <= t.  None where the solver fails."""
    from scipy.optimize import linprog

    d = x.size
    c = np.zeros(d + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * d, d + 1))
    b_ub = np.zeros(2 * d)
    for i in range(d):
        a_ub[2 * i, i] = 1.0
        a_ub[2 * i, -1] = -1.0
        b_ub[2 * i] = x[i]
        a_ub[2 * i + 1, i] = -1.0
        a_ub[2 * i + 1, -1] = -1.0
        b_ub[2 * i + 1] = -x[i]
    a_eq = np.concatenate([w, [0.0]])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[-b],
                  bounds=[(0, 1)] * d + [(0, None)], method="highs")
    return res.fun if res.success else None


def check_projection_oracle(seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    instances = 60
    for _ in range(instances):
        d = int(rng.integers(1, 4))
        x = rng.uniform(0, 1, size=d)
        w = rng.standard_normal(d)
        w[np.abs(w) < 1e-3] += 0.1
        q = rng.uniform(0, 1, size=d)  # plane through q: feasible
        b = -float(w @ q)
        p = attacks.project_hyperplane_box(x[None], w[None],
                                           np.array([b]))[0]
        mine = float(np.max(np.abs(p - x)))
        lp = lp_projection(x, w, b)
        if lp is None:
            return False, "LP reference failed to solve"
        worst = max(worst, abs(mine - lp))
    return _within(1e-6, f"worst objective gap {worst:.2e} over "
                   f"{instances} instances", worst)


def check_linear_descent(seed=0):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((3, 6))
    b = rng.standard_normal(3)
    clf = model.linear_model(6, 3, weight=w, bias=b)
    bset = geometry.boundary_set_for(clf)
    x = np.full((1, 6), 0.5)
    y = clf.predict(x)
    m, d0 = geometry.nearest_boundary_batch(bset, x, y)
    row = bset.signed_rows(y, m)[0][0]
    expected = 0.01 * np.linalg.norm(row, 1) / np.linalg.norm(row, 2)
    cfg = attacks.AttackConfig(epsilon=0.45, alpha=0.01, eta_init=0.01,
                               restarts=1, n_init=1, n_attack=0, seed=0)
    x1, _ = attacks.boundary_init_batch(clf, bset, x, y, cfg, x.copy())
    d1 = geometry.signed_distances(bset, x1, y)[0, m[0]]
    err = abs((d0[0] - d1) - expected)
    return _within(1e-12, f"step decrease error {err:.2e}", err)


def _threat_case(seed):
    cfg = attacks.AttackConfig(epsilon=0.1, alpha=0.02, restarts=2,
                               n_init=2, n_attack=5, seed=seed)
    return cfg, data.make_blobs(20, k=3, d=6, separation=4.0, seed=seed)


def check_threat_model(seed=0):
    cfg, ds = _threat_case(seed)
    clf = model.mlp((6,), k=3, n=2, hidden=(8,), seed=seed)
    clf = model.train(clf, ds, epochs=10, seed=seed)
    bset = geometry.boundary_set_for(clf)
    worst = 0.0
    for method, init in [("pgd", "boundary"), ("pgd", "random"),
                         ("fab", "random")]:
        out = attacks.run_restarts_batch(
            clf, bset, ds.images, ds.labels, cfg, method=method, init=init)
        delta = np.max(np.abs(out.x_adv - ds.images))
        box = max(float(out.x_adv.max() - 1.0), float(-out.x_adv.min()))
        worst = max(worst, delta - cfg.epsilon, box)
    return worst <= 1e-12, f"worst ball/box excess {worst:.2e}"


def _report_case(seed):
    cfg = attacks.AttackConfig(epsilon=0.08, alpha=0.02, restarts=1,
                               n_init=2, n_attack=5, seed=seed)
    return cfg, data.make_blobs(15, k=3, d=5, separation=4.0, seed=seed)


def check_report_reconciliation(seed=0):
    cfg, ds = _report_case(seed)
    clf = model.mlp((5,), k=3, n=2, hidden=(8,), seed=seed)
    clf = model.train(clf, ds, epochs=10, seed=seed)
    bset = geometry.boundary_set_for(clf)
    rep = harness.evaluate(clf, bset, ds, cfg)
    rep.validate()
    ok = (rep.successes + rep.failures == rep.evaluated
          and rep.robust_accuracy <= rep.clean_accuracy + 1e-12)
    return (
        ok,
        f"{rep.successes}+{rep.failures} of {rep.evaluated}, robust "
        f"{rep.robust_accuracy:.3f} <= clean {rep.clean_accuracy:.3f}",
    )


CHECKS = (
    ("layer-gradients", check_layer_gradients),
    ("scalar-gradients", check_scalar_gradients),
    ("boundary-antisymmetry", check_antisymmetry),
    ("region-partition", check_partition),
    ("distance-oracle", check_distance_oracle),
    ("projection-oracle", check_projection_oracle),
    ("linear-descent-step", check_linear_descent),
    ("threat-model-containment", check_threat_model),
    ("report-reconciliation", check_report_reconciliation),
)


def validate_seed(seed):
    """Raise ValueError unless every check can run at ``seed``: it must be
    >= 0, and the restart seeds of the checks that attack must fit
    (:func:`attacks.check_seeds`)."""
    for case in (_threat_case, _report_case):
        cfg, ds = case(seed)
        attacks.check_seeds(cfg, len(ds))


def run_all(seed=0):
    """Run every check; exceptions become failing results."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn(seed=seed)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name, ok, detail))
    return results
