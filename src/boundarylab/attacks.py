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
from numpy.random.bit_generator import ISeedSequence

from .geometry import nearest_boundary_batch
from .layers import _row_dot, softmax_rows

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
        for name in ("restarts", "n_init", "n_attack", "seed"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, np.integer)):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}")
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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


def random_start_batch(x_batch, epsilon, seeds):
    """Uniform points in the ε-balls around a batch, clipped to the box.

    Row i is ``default_rng(seeds[i]).uniform(-epsilon, epsilon)`` added
    to ``x_batch[i]`` and clipped to [0,1], bit for bit, but the seed
    hashing is vectorized over the batch (:func:`_seed_states`) and the
    scaling and clipping run once over the whole batch.  A caller that
    wants one stream for many examples passes them as one row.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    seeds = np.asarray(seeds)
    b = x_batch.shape[0]
    if seeds.shape != (b,):
        raise ValueError(f"expected {b} seeds, got shape {seeds.shape}")
    negative = seeds < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise ValueError(f"seed must be >= 0: row {i} has seed {seeds[i]}")
    states = _seed_states(seeds)
    delta = np.empty_like(x_batch)
    rows = delta.reshape(b, int(np.prod(x_batch.shape[1:])))
    for i in range(b):
        np.random.Generator(np.random.PCG64(_SeedState(states[i]))).random(
            out=rows[i])
    # Generator.uniform(low, high) is low + (high - low) * random()
    delta *= 2.0 * epsilon
    delta += -epsilon
    delta += x_batch
    return np.clip(delta, 0.0, 1.0, out=delta)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a 4-word
# uint32 pool, hashmix/mix with a running multiplier.  The multipliers
# do not depend on the data, so every seed of a batch is hashed at once.
_U32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _seed_states(seeds):
    """Row i: ``SeedSequence(seeds[i]).generate_state(4, np.uint64)``.

    ``seeds`` are non-negative and below 2**64, so each seed's entropy is
    its low and high 32-bit words; the pool's other two words hash as
    zeros either way.
    """
    seeds = np.asarray(seeds).astype(np.uint64)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _U32
        value = value * np.uint32(const)
        return value ^ (value >> _SHIFT)

    low = (seeds & np.uint64(_U32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(word) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    out = np.empty((seeds.shape[0], 8), dtype=np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _U32
        value = value * np.uint32(const)
        out[:, i] = value ^ (value >> _SHIFT)
    return out.view(np.uint64)


class _SeedState(ISeedSequence):
    """Hands a precomputed ``generate_state(4, np.uint64)`` row to PCG64."""

    __slots__ = ("state",)

    def __init__(self, state):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


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


# -- the live rows of an attack loop ------------------------------------


class _LiveSet:
    """The rows of a batch an attack loop still moves, kept compact.

    ``x`` starts as the start clipped to the ε-ball of ``x_orig`` and the
    box, and is updated in place; the rows, their ball bounds and labels
    are compacted only on the steps where some row freezes, and a frozen
    row is written back to the batch iterate as it freezes.  ``finish``
    writes back the rows still live and returns the batch iterate.
    """

    def __init__(self, x_orig, y, epsilon, start):
        x_orig = np.asarray(x_orig, dtype=np.float64)
        self.lo, self.hi = _ball_bounds(x_orig, epsilon)
        self.full = self.x = np.clip(start, self.lo, self.hi)
        self.rows = np.arange(self.x.shape[0])
        self.y = np.asarray(y)

    def keep(self, live):
        """Keep only the ``live`` rows, writing the others back."""
        if live.all():
            return
        if self.x is not self.full:
            self.full[self.rows[~live]] = self.x[~live]
        self.rows = self.rows[live]
        self.x, self.lo, self.hi, self.y = (
            self.x[live], self.lo[live], self.hi[live], self.y[live])

    def clip(self):
        # maximum-then-minimum is np.clip bit for bit, without allocating
        np.maximum(self.x, self.lo, out=self.x)
        np.minimum(self.x, self.hi, out=self.x)

    def step(self, gx, size, live):
        """Keep the ``live`` rows and move each by ``size·sign(gx)``,
        clipped to its ball and the box; ``gx`` is overwritten."""
        if not live.all():
            gx = gx[live]
        self.keep(live)
        np.sign(gx, out=gx)
        gx *= size
        self.x += gx
        self.clip()

    def finish(self):
        if self.x is not self.full:
            self.full[self.rows] = self.x
        return self.full


# -- start strategy: boundary descent -------------------------------------


def boundary_init_batch(c, bs, x_orig, y, config, start):
    """Descend the nearest-boundary distance for up to n_init steps.

    Each step recomputes the nearest boundary class m, takes a signed
    gradient step of ``eta_init`` downhill on the distance, and clips to
    ball and box.  Examples on or past a boundary stop early and keep
    their current iterate.  Returns (x_init, grad_evals per example).
    """
    live_set = _LiveSet(x_orig, y, config.epsilon, start)
    evals = np.zeros(live_set.rows.size, dtype=np.int64)
    for _ in range(config.n_init):
        if live_set.rows.size == 0:
            break
        v, ctxs = c.head_forward_with_ctx(live_set.x, train=False)
        m, dist = nearest_boundary_batch(bs, v, live_set.y)
        live = dist > 0.0
        if not live.any():
            break
        gx = boundary_distance_grad(c, bs, ctxs, live_set.y, m)
        del ctxs  # free this pass's contexts before the next head forward
        live_set.step(gx, -config.eta_init, live)
        evals[live_set.rows] += 1
    return live_set.finish(), evals


# -- attacks ---------------------------------------------------------------


def _attack_loop(c, x_orig, y, config, start, move):
    """One restart of an attack over a batch; ``move`` is the attack.

    Iteration t checks the prediction at the current iterate (t=0 is the
    start point) and records the first flip; flipped examples freeze
    immediately, keeping their adversarial point.  Up to n_attack times,
    ``move(live_set, ctxs, z, live)`` moves the rows still live: ``ctxs``
    and logits ``z`` are those of the rows the head just saw, ``live``
    marks the ones that did not flip, and ``move`` must drop the others
    (``live_set.keep(live)``) and leave the rest in ball and box.  Every
    row that moved spends one gradient evaluation.
    """
    live_set = _LiveSet(x_orig, y, config.epsilon, start)
    b = live_set.rows.size
    success = np.zeros(b, dtype=bool)
    iters = np.full(b, -1, dtype=np.int64)
    evals = np.zeros(b, dtype=np.int64)
    for t in range(config.n_attack + 1):
        if live_set.rows.size == 0:
            break
        v, ctxs = c.head_forward_with_ctx(live_set.x, train=False)
        z = c.tail_forward(v)
        flip = np.argmax(z, axis=1) != live_set.y
        if flip.any():
            hit = live_set.rows[flip]
            success[hit] = True
            iters[hit] = t
        if t == config.n_attack:
            break
        live = ~flip
        if not live.any():
            break
        move(live_set, ctxs, z, live)
        del ctxs  # free this pass's contexts before the next head forward
        evals[live_set.rows] += 1
    return BatchSegment(x_adv=live_set.finish(), success=success,
                        iterations=iters, grad_evals=evals)


def pgd_batch(c, x_orig, y, config, start):
    """Sign-gradient cross-entropy ascent for one restart over a batch.

    n_attack steps of size alpha, each clipped to the ε-ball of the
    original input and the box, under :func:`_attack_loop`'s first-flip
    and freeze rule.
    """
    def move(live_set, ctxs, z, live):
        gx = cross_entropy_grad(c, ctxs, z, live_set.y)
        live_set.step(gx, config.alpha, live)

    return _attack_loop(c, x_orig, y, config, start, move)


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
    flat = int(np.prod(x_orig.shape[1:]))
    xo_rows = x_orig.reshape(-1, flat)
    wt = c.tail.weight
    n = wt.shape[1]

    def move(live_set, ctxs, z, live):
        na = z.shape[0]
        # Representation jacobian dv/dx: one backprop per representation
        # coordinate; the pairwise gradients are tail-row combinations.
        jac = np.empty((na, n, flat))
        for q in range(n):
            e = np.zeros((na, n))
            e[:, q] = 1.0
            jac[:, q, :] = c.head_backward(ctxs, e).reshape(na, flat)
        ya = live_set.y
        diff_rows = wt[None, :, :] - wt[ya][:, None, :]  # (na, K, N)
        dgs = np.einsum("bkn,bnd->bkd", diff_rows, jac)
        dfs = z - z[np.arange(na), ya][:, None]  # (na, K)
        norms1 = np.abs(dgs).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            pdist = np.abs(dfs) / norms1
        pdist[norms1 == 0.0] = np.inf
        pdist[np.arange(na), ya] = np.inf
        s = np.argmin(pdist, axis=1)
        rows = np.flatnonzero(live)
        w = dgs[rows, s[rows]]
        xa_flat = live_set.x.reshape(na, flat)[rows]
        live_set.keep(live)
        xo_flat = xo_rows[live_set.rows]
        xn = xa_flat.copy()  # a flat linearization holds its position
        moves = w.any(axis=1)
        w, xm, xo = w[moves], xa_flat[moves], xo_flat[moves]
        bias = dfs[rows[moves], s[rows[moves]]] - _row_dot(w, xm)
        d_adv = project_hyperplane_box(xm, w, bias) - xm
        d_org = project_hyperplane_box(xo, w, bias) - xo
        num = np.abs(d_adv).max(axis=1)
        den = num + np.abs(d_org).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(den > 0, np.minimum(num / den, config.fab_beta_max),
                            0.0)[:, None]
        xn[moves] = ((1.0 - beta) * (xm + config.fab_eta * d_adv)
                     + beta * (xo + config.fab_eta * d_org))
        live_set.x[...] = xn.reshape(live_set.x.shape)
        live_set.clip()

    return _attack_loop(c, x_orig, y, config, start, move)


# -- exact L∞ projection onto hyperplane ∩ box ----------------------------


def project_hyperplane_box(points, w, b):
    """Row i: the L∞-closest point to ``points[i]`` on
    {p: w[i]·p + b[i] = 0} ∩ [0,1]^D.

    Exact waterfilling per row: the minimal radius t* is found from the
    sorted per-coordinate movement caps, and every coordinate moves toward
    the plane by min(cap, t*).  A row whose hyperplane misses the box gets
    the box point minimizing |w·p + b| (every coordinate at its favorable
    wall), which keeps attack iterations total.  Rows never mix: each
    row's result is the one a single-row call gives, bit for bit.
    """
    points = np.asarray(points, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if points.ndim != 2 or w.shape != points.shape or b.shape != points.shape[:1]:
        raise ValueError(
            f"expected points (B, D), normals (B, D) and offsets (B,); got "
            f"{points.shape}, {w.shape} and {b.shape}"
        )
    zero = ~w.any(axis=1)
    if zero.any():
        raise ValueError(
            f"hyperplane normal of row {int(np.argmax(zero))} is the zero vector"
        )
    s0 = _row_dot(w, points) + b
    # Orient each row so its value at the point is positive and must be
    # driven to 0.
    sgn = np.where(s0 > 0, 1.0, -1.0)
    we = sgn[:, None] * w
    s = sgn * s0
    # Moving coordinate i by its cap (to the favorable wall) reduces the
    # value by rate*cap; direction is -sign(we).
    rate = np.abs(we)
    cap = np.where(we > 0, points, 1.0 - points)
    cap = np.where(rate > 0, cap, 0.0)
    direction = -np.sign(we)
    # Infeasible (or exactly achievable at the corner): go to walls.
    out = points + direction * cap
    # Feasible rows: waterfilling.
    fill = (_row_dot(rate, cap) > s) & (s0 != 0.0)
    cap_f, rate_f, s_f = cap[fill], rate[fill], s[fill]
    order = np.argsort(cap_f, axis=1, kind="stable")
    cs = np.take_along_axis(cap_f, order, axis=1)
    rs = np.take_along_axis(rate_f, order, axis=1)
    zeros = np.zeros((cs.shape[0], 1))
    # dec(cap_j) = sum_i rate_i * min(cap_j, cap_i), nondecreasing in j.
    a = np.concatenate((zeros, np.cumsum(rs * cs, axis=1)), axis=1)
    srem = rate_f.sum(axis=1)[:, None] - np.concatenate(
        (zeros, np.cumsum(rs, axis=1)), axis=1)
    dec_at = a[:, 1:] + cs * srem[:, 1:]
    # j: the first index where dec_at reaches s (D if none does)
    reach = dec_at >= s_f[:, None]
    j = np.where(reach.any(axis=1), reach.argmax(axis=1), cs.shape[1])
    rows = np.arange(cs.shape[0])
    t_star = (s_f - a[rows, j]) / srem[rows, j]
    out[fill] = points[fill] + direction[fill] * np.minimum(cap_f, t_star[:, None])
    # A point already on its plane only needs clipping.
    on = s0 == 0.0
    out[on] = points[on]
    return np.clip(out, 0.0, 1.0)


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
        base_seeds = config.seed + np.arange(b) * config.restarts
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
            start = x_batch  # every attack clips its start into a new array
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
