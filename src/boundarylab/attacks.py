"""L∞ evasion attacks with interchangeable start strategies.

Three start rules feed two iterative attacks:

* ``none``      start at the clean input (basic iterative method),
* ``random``    uniform perturbation inside the ε-ball,
* ``boundary``  random start, then signed-gradient descent on the nearest
                pairwise boundary distance before the attack proper.

Attacks are gradient loops: ``pgd`` ascends the cross-entropy, ``fab``
repeatedly projects onto the nearest linearized pairwise boundary.  All
iterates stay inside the ε-ball around the original input intersected
with the [0,1] box.  Gradient budget is counted per restart so start
strategies can be compared at equal cost; a fab iteration counts as one
evaluation (one linearization point) even though it back-propagates each
representation coordinate.

Everything is deterministic: per-example seeds are the caller's base seed
plus the example index, and restart r adds r on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .geometry import nearest_boundary_batch
from .layers import softmax_rows

_EPS_DEFAULT = 8.0 / 255.0
_FAIL = 1 << 30  # iteration sentinel for "restart did not succeed"


@dataclass(frozen=True)
class AttackConfig:
    """Shared knobs for every attack and start strategy.

    ``eta_init`` (the boundary-descent step) defaults to ``epsilon``;
    ``fab_mu`` (cap on the fab random-start radius) also defaults to
    ``epsilon``, which makes the standard start rule apply unchanged.
    ``n_init + n_attack`` is the per-restart gradient budget.
    """

    epsilon: float = _EPS_DEFAULT
    alpha: float = 2.0 / 255.0
    eta_init: float | None = None
    restarts: int = 4
    n_init: int = 5
    n_attack: int = 20
    norm: str = "linf"
    fab_eta: float = 1.05
    fab_beta_max: float = 0.1
    fab_mu: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.norm != "linf":
            raise ValueError(f"norm {self.norm!r}: only 'linf' is implemented")
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.eta_init is None:
            # For a zero-radius ball any positive step is equivalent (the
            # clip pins every iterate), so fall back to alpha there.
            resolved = self.epsilon if self.epsilon > 0 else self.alpha
            object.__setattr__(self, "eta_init", float(resolved))
        if self.eta_init <= 0:
            raise ValueError(f"eta_init must be > 0, got {self.eta_init}")
        if self.fab_mu is None:
            object.__setattr__(self, "fab_mu", float(self.epsilon))
        for name in ("restarts",):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("n_init", "n_attack"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fab_eta < 1.0:
            raise ValueError(f"fab_eta must be >= 1, got {self.fab_eta}")
        if not 0.0 <= self.fab_beta_max <= 1.0:
            raise ValueError(
                f"fab_beta_max must be in [0,1], got {self.fab_beta_max}"
            )

    def with_budget_split(self, n_init):
        """Same config with the fixed total budget re-split at ``n_init``."""
        total = self.n_init + self.n_attack
        if not 0 <= n_init <= total:
            raise ValueError(f"n_init {n_init} outside budget 0..{total}")
        return replace(self, n_init=n_init, n_attack=total - n_init)


@dataclass
class BatchSegment:
    """One restart's attack loop over a batch (internal building block)."""

    x_adv: np.ndarray
    success: np.ndarray
    iterations: np.ndarray  # -1 where the segment failed
    grad_evals: np.ndarray


@dataclass
class BatchOutcome:
    """Best-restart outcome for a batch of examples.

    Selection per example: success beats failure; among successes, fewer
    attack iterations win, earlier restart breaking ties.  For examples
    where every restart failed, ``x_adv`` is restart 0's final iterate
    and ``restart`` is -1.
    """

    x_adv: np.ndarray
    success: np.ndarray
    iterations: np.ndarray  # -1 where no restart succeeded
    restart: np.ndarray  # -1 where no restart succeeded
    iterations_per_restart: np.ndarray  # (B, R), -1 on failure
    grad_evals_per_restart: np.ndarray  # (B, R)


def _ball_bounds(x, epsilon):
    return (np.maximum(x - epsilon, 0.0), np.minimum(x + epsilon, 1.0))


def random_start(x, epsilon, seed):
    """Uniform point in the ε-ball around x, clipped to the [0,1] box.

    Shape-agnostic: draws one perturbation of ``x.shape`` from a single
    generator, so a batch passed here shares one stream.  The restart
    engine instead seeds each example separately via
    :func:`random_start_batch`.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = np.random.default_rng(seed).uniform(-epsilon, epsilon, x.shape)
    return np.clip(x + delta, 0.0, 1.0)


def random_start_batch(x_batch, epsilon, seeds):
    """Per-example :func:`random_start`: row i uses seeds[i]."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    out = np.empty_like(x_batch)
    for i, seed in enumerate(seeds):
        delta = np.random.default_rng(int(seed)).uniform(
            -epsilon, epsilon, x_batch.shape[1:]
        )
        out[i] = np.clip(x_batch[i] + delta, 0.0, 1.0)
    return out


# -- objective gradients --------------------------------------------------
#
# The one place each attack objective is differentiated.  Both take the
# head contexts of a forward pass the caller already ran, so an attack
# iteration costs one head forward and at most one head backward.


def cross_entropy_grad(c, ctxs, z, y):
    """∇ₓ of each example's cross-entropy of logits ``z`` at label ``y``.

    ``ctxs`` and ``z`` come from one head forward and the tail.  The logit
    gradient softmax(z) − onehot(y) is taken back through the tail
    weights and then the head.
    """
    gz = softmax_rows(z)
    gz[np.arange(gz.shape[0]), y] -= 1.0
    return c.head_backward(ctxs, gz @ c.tail.weight)


def boundary_distance_grad(c, bs, ctxs, y, m):
    """∇ₓ of each example's signed distance D(v, y, m), v = head(x).

    The representation-space gradient of D is the constant unit normal
    w_(y,m)/‖w_(y,m)‖₂; it is back-propagated through the head with m
    held fixed.
    """
    rows, _, norms = bs.signed_rows(y, m)
    return c.head_backward(ctxs, rows / norms[:, None])


# -- start strategy: boundary descent -------------------------------------


def boundary_init_batch(c, bs, x_orig, y, config, start):
    """Descend the nearest-boundary distance for up to n_init steps.

    Each step recomputes the nearest boundary class m, takes a signed
    gradient step of ``eta_init`` downhill on the distance, and clips to
    ball and box.  Examples on or past a boundary stop early and keep
    their current iterate.  Returns (x_init, grad_evals per example).
    """
    x_orig = np.asarray(x_orig, dtype=np.float64)
    y = np.asarray(y)
    lo, hi = _ball_bounds(x_orig, config.epsilon)
    x = np.clip(start, lo, hi)
    b = x.shape[0]
    evals = np.zeros(b, dtype=np.int64)
    active = np.arange(b)
    for _ in range(config.n_init):
        if active.size == 0:
            break
        xa = x[active]
        v, ctxs = c.head_forward_with_ctx(xa, train=False)
        m, dist = nearest_boundary_batch(bs, v, y[active])
        live = dist > 0.0
        if not live.any():
            break
        gx = boundary_distance_grad(c, bs, ctxs, y[active], m)
        active = active[live]
        step = -config.eta_init * np.sign(gx[live])
        x[active] = np.clip(x[active] + step, lo[active], hi[active])
        evals[active] += 1
    return x, evals


# -- attacks ---------------------------------------------------------------


def pgd_batch(c, x_orig, y, config, start):
    """Sign-gradient cross-entropy ascent for one restart over a batch.

    Iteration t checks the prediction at the current iterate (t=0 is the
    start point) and records the first flip; n_attack gradient steps are
    taken, each clipped to the ε-ball of the original input and the box.
    Flipped examples freeze immediately, keeping their adversarial point.
    """
    x_orig = np.asarray(x_orig, dtype=np.float64)
    y = np.asarray(y)
    lo, hi = _ball_bounds(x_orig, config.epsilon)
    x = np.clip(start, lo, hi)
    b = x.shape[0]
    success = np.zeros(b, dtype=bool)
    iters = np.full(b, -1, dtype=np.int64)
    evals = np.zeros(b, dtype=np.int64)
    active = np.arange(b)
    wt, wb = c.tail.weight, c.tail.bias
    for t in range(config.n_attack + 1):
        if active.size == 0:
            break
        xa = x[active]
        v, ctxs = c.head_forward_with_ctx(xa, train=False)
        z = v @ wt.T + wb
        flip = np.argmax(z, axis=1) != y[active]
        if flip.any():
            hit = active[flip]
            success[hit] = True
            iters[hit] = t
        if t == config.n_attack:
            break
        live = ~flip
        if not live.any():
            break
        gx = cross_entropy_grad(c, ctxs, z, y[active])
        active = active[live]
        x[active] = np.clip(
            x[active] + config.alpha * np.sign(gx[live]),
            lo[active], hi[active],
        )
        evals[active] += 1
    return BatchSegment(x_adv=x, success=success, iterations=iters,
                        grad_evals=evals)


def fab_batch(c, bs, x_orig, y, config, start):
    """Boundary-projection attack for one restart over a batch.

    Each iteration linearizes the pairwise logit differences at the
    current iterate (via the head's representation jacobian and the exact
    tail rows), picks the nearest linearized hyperplane under L∞, projects
    both the iterate and the original input onto it within the box, blends
    the two with β ≤ beta_max, extrapolates by fab_eta, and clips to ball
    and box.
    """
    x_orig = np.asarray(x_orig, dtype=np.float64)
    y = np.asarray(y)
    lo, hi = _ball_bounds(x_orig, config.epsilon)
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
        if flip.any():
            hit = active[flip]
            success[hit] = True
            iters[hit] = t
        if t == config.n_attack:
            break
        live = ~flip
        if not live.any():
            break
        # Representation jacobian dv/dx: one backprop per representation
        # coordinate; the pairwise gradients are tail-row combinations.
        jac = np.empty((na, n, flat))
        for q in range(n):
            e = np.zeros((na, n))
            e[:, q] = 1.0
            jac[:, q, :] = c.head_backward(ctxs, e).reshape(na, flat)
        ya = y[active]
        diff_rows = wt[None, :, :] - wt[ya][:, None, :]  # (na, K, N)
        dgs = np.einsum("bkn,bnd->bkd", diff_rows, jac)
        dfs = z - z[np.arange(na), ya][:, None]  # (na, K)
        norms1 = np.abs(dgs).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            pdist = np.abs(dfs) / norms1
        pdist[norms1 == 0.0] = np.inf
        pdist[np.arange(na), ya] = np.inf
        s = np.argmin(pdist, axis=1)
        xa_flat = xa.reshape(na, flat)
        xo_flat = x_orig[active].reshape(na, flat)
        xn = np.empty_like(xa_flat)
        for i in range(na):
            w = dgs[i, s[i]]
            if not np.any(w):
                xn[i] = xa_flat[i]  # flat linearization: hold position
                continue
            bias = dfs[i, s[i]] - w @ xa_flat[i]
            d_adv = project_hyperplane_box(xa_flat[i], w, bias) - xa_flat[i]
            d_org = project_hyperplane_box(xo_flat[i], w, bias) - xo_flat[i]
            num = np.abs(d_adv).max()
            den = num + np.abs(d_org).max()
            beta = min(num / den, config.fab_beta_max) if den > 0 else 0.0
            xn[i] = ((1.0 - beta) * (xa_flat[i] + config.fab_eta * d_adv)
                     + beta * (xo_flat[i] + config.fab_eta * d_org))
        active = active[live]
        x[active] = np.clip(
            xn[live].reshape((-1,) + x.shape[1:]), lo[active], hi[active]
        )
        evals[active] += 1
    return BatchSegment(x_adv=x, success=success, iterations=iters,
                        grad_evals=evals)


# -- exact L∞ projection onto hyperplane ∩ box ----------------------------


def project_hyperplane_box(point, w, b):
    """Closest point to ``point`` on {p: w·p + b = 0} ∩ [0,1]^D under L∞.

    Exact waterfilling: the minimal radius t* is found from the sorted
    per-coordinate movement caps, and every coordinate moves toward the
    plane by min(cap, t*).  When the hyperplane misses the box entirely,
    returns the box point minimizing |w·p + b| (every coordinate at its
    favorable wall), which keeps attack iterations total.
    """
    point = np.asarray(point, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != point.shape:
        raise ValueError(f"hyperplane normal shape {w.shape} != point {point.shape}")
    if not np.any(w):
        raise ValueError("hyperplane normal is the zero vector")
    s0 = float(w @ point + b)
    if s0 == 0.0:
        return np.clip(point, 0.0, 1.0)
    # Orient so the value at `point` is positive and must be driven to 0.
    sgn = 1.0 if s0 > 0 else -1.0
    we = sgn * w
    s = sgn * s0
    # Moving coordinate i by its cap (to the favorable wall) reduces the
    # value by rate*cap; direction is -sign(we).
    rate = np.abs(we)
    cap = np.where(we > 0, point, 1.0 - point)
    cap = np.where(rate > 0, cap, 0.0)
    direction = -np.sign(we)
    reducible = float(rate @ cap)
    if reducible <= s:
        # Infeasible (or exactly achievable at the corner): go to walls.
        return np.clip(point + direction * cap, 0.0, 1.0)
    order = np.argsort(cap, kind="stable")
    cs = cap[order]
    rs = rate[order]
    # dec(cap_j) = sum_i rate_i * min(cap_j, cap_i), nondecreasing in j.
    a = np.concatenate(([0.0], np.cumsum(rs * cs)))
    srem = rate.sum() - np.concatenate(([0.0], np.cumsum(rs)))
    dec_at = a[1:] + cs * srem[1:]
    j = int(np.searchsorted(dec_at, s))
    t_star = (s - a[j]) / srem[j]
    p = point + direction * np.minimum(cap, t_star)
    return np.clip(p, 0.0, 1.0)


# -- restart orchestration -------------------------------------------------

_INITS = ("none", "random", "boundary")
_METHODS = ("pgd", "fab")


def run_restarts_batch(c, bs, x_batch, y_batch, config, method="pgd",
                       init="boundary", base_seeds=None):
    """Run every restart for a batch and keep each example's best outcome.

    Restart r of example i draws its start from seed base_seeds[i] + r,
    so callers must space base seeds at least config.restarts apart; the
    default config.seed + position * restarts does.  For the fab method
    the random-start radius is capped at fab_mu.
    """
    if method not in _METHODS:
        raise ValueError(f"method {method!r}: expected one of {_METHODS}")
    if init not in _INITS:
        raise ValueError(f"init {init!r}: expected one of {_INITS}")
    x_batch = np.asarray(x_batch, dtype=np.float64)
    y_batch = np.asarray(y_batch)
    b = x_batch.shape[0]
    if base_seeds is None:
        base_seeds = config.seed + np.arange(b) * max(config.restarts, 1)
    base_seeds = np.asarray(base_seeds, dtype=np.int64)
    radius = config.epsilon if method == "pgd" else min(config.fab_mu,
                                                        config.epsilon)
    r_count = config.restarts
    iters_all = np.full((b, r_count), -1, dtype=np.int64)
    evals_all = np.zeros((b, r_count), dtype=np.int64)
    best_x = None
    best_success = np.zeros(b, dtype=bool)
    best_iters = np.full(b, _FAIL, dtype=np.int64)
    best_restart = np.full(b, -1, dtype=np.int64)
    for r in range(r_count):
        if init == "none":
            start = x_batch.copy()
        else:
            start = random_start_batch(x_batch, radius, base_seeds + r)
        init_evals = 0
        if init == "boundary":
            start, init_evals = boundary_init_batch(
                c, bs, x_batch, y_batch, config, start
            )
        if method == "pgd":
            seg = pgd_batch(c, x_batch, y_batch, config, start)
        else:
            seg = fab_batch(c, bs, x_batch, y_batch, config, start)
        iters_all[:, r] = seg.iterations
        evals_all[:, r] = init_evals + seg.grad_evals
        seg_iters = np.where(seg.success, seg.iterations, _FAIL)
        if best_x is None:
            best_x = seg.x_adv.copy()
            improve = np.ones(b, dtype=bool)
        else:
            improve = seg_iters < best_iters
            best_x[improve] = seg.x_adv[improve]
        best_iters = np.where(improve, seg_iters, best_iters)
        best_success |= seg.success
        best_restart = np.where(improve & seg.success, r, best_restart)
    iterations = np.where(best_success, best_iters, -1)
    return BatchOutcome(
        x_adv=best_x,
        success=best_success,
        iterations=iterations,
        restart=best_restart,
        iterations_per_restart=iters_all,
        grad_evals_per_restart=evals_all,
    )
