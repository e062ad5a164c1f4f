"""L∞ evasion attacks with interchangeable start strategies.

Three start rules feed two iterative attacks:

* ``none``      start at the clean input (basic iterative method),
* ``random``    uniform perturbation inside the ε-ball,
* ``boundary``  random start, then signed-gradient descent on the nearest
                pairwise boundary distance before the attack proper.

Attacks are gradient loops: ``pgd`` ascends the cross-entropy, ``fab``
repeatedly projects onto the nearest linearized pairwise boundary.  All
iterates stay inside the ε-ball around the original input intersected
with the [0,1] box.  Descent and an attack are phases of one loop
(:func:`_phase`): a row stops, keeping its iterate, at the first check
that finds it on or past a boundary or flipped (``success`` is
``iterations >= 0``).  Gradient budget is counted per restart so start
strategies can be compared at equal cost; a fab iteration counts as one
evaluation (one linearization point) even though it back-propagates each
representation coordinate.

Everything is deterministic: restart r of the example at dataset
position p draws its start from seed ``seed + p·restarts + r``
(:func:`run_restarts_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .data import _check_choice, _check_value
from .geometry import nearest_boundary_batch
from .layers import _row_dot, softmax_rows

_EPS_DEFAULT = 8.0 / 255.0
# FAB's constants (Croce & Hein, ICML 2020, arXiv:1907.02044): the
# extrapolation past the projections and the cap on the blend weight
# toward the original input's projection
_FAB_ETA = 1.05
_FAB_BETA_MAX = 0.1

# Each AttackConfig field's type, then its range: (kind, relation, bound)
_FIELD_RULES = {
    "epsilon": (float, ">=", 0),
    "alpha": (float, ">", 0),
    "eta_init": (float, ">", 0),
    "restarts": (int, ">=", 1),
    "n_init": (int, ">=", 0),
    "n_attack": (int, ">=", 0),
    "seed": (int, ">=", 0),
}


@dataclass(frozen=True)
class AttackConfig:
    """Shared knobs for every attack and start strategy.

    ``eta_init`` (the boundary-descent step) defaults to ``epsilon``.
    ``n_init + n_attack`` is the per-restart gradient budget.
    """

    epsilon: float = _EPS_DEFAULT
    alpha: float = 2.0 / 255.0
    eta_init: float | None = None
    restarts: int = 4
    n_init: int = 5
    n_attack: int = 20
    seed: int = 0

    def __post_init__(self):
        # in field order, so epsilon and alpha are checked before eta_init
        # resolves from them
        for field in fields(self):
            if field.name == "eta_init" and self.eta_init is None:
                # For a zero-radius ball any positive step is equivalent
                # (the clip pins every iterate), so fall back to alpha.
                resolved = self.epsilon if self.epsilon > 0 else self.alpha
                object.__setattr__(self, "eta_init", resolved)
            object.__setattr__(self, field.name, _check_value(
                field.name, getattr(self, field.name),
                *_FIELD_RULES[field.name]))

    def splits_rule(self):
        """The rule of a list of budget splits (:func:`data._check_value`):
        at least one, each an n_init within the total budget."""
        return ([int, 1], ">=", 0, "<=", self.n_init + self.n_attack)

    def with_budget_split(self, n_init):
        """Same config with the fixed total budget re-split at ``n_init``."""
        n_init = _check_value("n_init", n_init, int, *self.splits_rule()[1:])
        total = self.n_init + self.n_attack
        return replace(self, n_init=n_init, n_attack=total - n_init)


@dataclass
class BatchSegment:
    """One phase of a restart over a batch (internal building block)."""

    x_adv: np.ndarray
    iterations: np.ndarray  # the check a row stopped at, -1 where none
    grad_evals: np.ndarray

    @property
    def success(self):
        return self.iterations >= 0


@dataclass
class BatchOutcome:
    """Best-restart outcome for a batch of examples.

    Selection per example: success beats failure; among successes, fewer
    attack iterations win, earlier restart breaking ties.  For examples
    where every restart failed, ``x_adv`` is restart 0's final iterate
    and ``restart`` is -1.  An outcome of several budget splits
    (:func:`run_restarts_batch` with ``n_init_values``) has a leading
    split axis on every field.
    """

    x_adv: np.ndarray | None  # None when the caller keeps no points
    iterations: np.ndarray  # -1 where no restart succeeded
    restart: np.ndarray  # -1 where no restart succeeded
    iterations_per_restart: np.ndarray  # (B, R), -1 on failure
    grad_evals_per_restart: np.ndarray  # (B, R)

    @property
    def success(self):
        return self.iterations >= 0

    @classmethod
    def unflipped(cls, shape, x_adv=None):
        """The outcome of ``shape`` = (splits, B, restarts) rows no restart
        flipped: -1 iterations and restarts, no evaluations."""
        return cls(x_adv=x_adv,
                   iterations=np.full(shape[:2], -1, dtype=np.int64),
                   restart=np.full(shape[:2], -1, dtype=np.int64),
                   iterations_per_restart=np.full(shape, -1, dtype=np.int64),
                   grad_evals_per_restart=np.zeros(shape, dtype=np.int64))

    def split(self, s):
        """Split ``s`` of an outcome with a split axis, without the axis."""
        return BatchOutcome(**{name: None if a is None else a[s]
                               for name, a in vars(self).items()})


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


# -- the live rows and the phase loop -----------------------------------


class _Workspace:
    """What the restarts of one :func:`run_restarts_batch` call share.

    ``lo`` and ``hi`` are the ε-ball bounds of the batch, computed once
    and read-only.  ``live_x``, ``live_lo`` and ``live_hi`` hold a
    compacted live set's rows, and ``sign`` is the scratch of a sign
    step; each has the batch's shape.  A compaction gathers the kept
    iterate rows into ``sign`` and then swaps it with ``live_x``.  One
    loop uses the buffers at a time, and a workspace lives for one call,
    so chunks attacked on different threads never share one.
    """

    def __init__(self, x_orig, epsilon):
        self.lo, self.hi = _ball_bounds(x_orig, epsilon)
        self.lo.flags.writeable = self.hi.flags.writeable = False
        self.live_x, self.live_lo, self.live_hi, self.sign = (
            np.empty(x_orig.shape) for _ in range(4))


class _LiveSet:
    """The rows of a batch a phase still moves, kept compact.

    ``x`` starts as the start clipped to the ε-ball of ``x_orig`` and the
    box, and is updated in place.  The rows, their ball bounds and labels
    are compacted only on the steps where some row freezes, and a frozen
    row is written back to the batch iterate as it freezes.  A
    compaction gathers the kept rows of ``x`` into the workspace's sign
    scratch, which then takes the role of ``live_x`` (the old buffer
    becomes the scratch), and gathers their ball bounds from the
    workspace's read-only ball into ``live_lo`` and ``live_hi``.
    ``finish`` writes back the rows still live and returns the batch
    iterate.
    """

    def __init__(self, x_orig, y, epsilon, start, workspace=None):
        if workspace is None:
            workspace = _Workspace(np.asarray(x_orig, dtype=np.float64),
                                   epsilon)
        self.work = workspace
        self.lo, self.hi = workspace.lo, workspace.hi
        self.full = self.x = np.clip(start, self.lo, self.hi)
        self.rows = np.arange(self.x.shape[0])
        self.y = np.asarray(y)

    def keep(self, live):
        """Keep only the ``live`` rows, writing the others back; returns
        their positions among the rows kept so far."""
        idx = np.flatnonzero(live)
        if idx.size == live.size:
            return idx
        n, work = idx.size, self.work
        if self.x is not self.full:
            self.full[self.rows[~live]] = self.x[~live]
        # mode="clip" keeps np.take from staging the rows in a temporary
        self.x = np.take(self.x, idx, axis=0, out=work.sign[:n], mode="clip")
        work.live_x, work.sign = work.sign, work.live_x
        self.rows = self.rows[idx]
        self.lo, self.hi = (
            np.take(ball, self.rows, axis=0, out=buf[:n], mode="clip")
            for ball, buf in ((work.lo, work.live_lo),
                              (work.hi, work.live_hi)))
        self.y = self.y[idx]
        return idx

    def clip(self):
        # maximum-then-minimum is np.clip bit for bit, without allocating
        np.maximum(self.x, self.lo, out=self.x)
        np.minimum(self.x, self.hi, out=self.x)

    def step(self, gx, size, live):
        """Keep the ``live`` rows and move each by ``size·sign(gx)``,
        clipped to its ball and the box; ``gx`` is overwritten."""
        idx = self.keep(live)
        n = idx.size
        step = self.work.sign[:n]
        if n < gx.shape[0]:
            # the live rows go to the scratch, their sign over gx's first
            np.take(gx, idx, axis=0, out=step, mode="clip")
            gx, step = step, gx[:n]
        # never in place: numpy 2.4's np.sign(g, out=g) is ~7x slower
        np.sign(gx, out=step)
        step *= size
        self.x += step
        self.clip()

    def finish(self):
        if self.x is not self.full:
            self.full[self.rows] = self.x
        return self.full


def _phase(c, x_orig, y, config, start, workspace, checks, moves, stop,
           move, capture=None):
    """One phase of a restart over a batch; returns a BatchSegment.

    Check t < ``checks`` is one head forward over the live rows, and a
    move follows each of the first ``moves``.  ``stop(c, live_set, v)``
    returns the mask of the rows that stop and what ``move(live_set,
    ctxs, aux, live)`` needs; ``move`` must drop the stopped rows
    (``live_set.keep(live)``) and leave the rest in ball and box.

    ``capture``, for a phase with no check after its last move
    (``checks == moves``), is a dict keyed by move counts k below
    ``moves``.  Each key is set to the BatchSegment this phase run with
    k checks and k moves returns: up to its end that phase keeps the
    same rows and makes the same head calls, so the capture is its
    result bit for bit.
    """
    live_set = _LiveSet(x_orig, y, config.epsilon, start, workspace)
    iters = np.full(live_set.rows.size, -1, dtype=np.int64)

    def evals(made):
        # a row that stopped at check t made t moves, a live row all of them
        return np.where(iters >= 0, iters, made)

    pending = sorted(capture or (), reverse=True)  # the next one last
    made = 0
    for t in range(checks):
        if pending and pending[-1] == t:  # t moves made
            capture[pending.pop()] = BatchSegment(
                x_adv=live_set.finish().copy(), iterations=iters.copy(),
                grad_evals=evals(t))
        if live_set.rows.size == 0:
            break
        v, ctxs = c.head_forward_with_ctx(live_set.x)
        stopped, aux = stop(c, live_set, v)
        iters[live_set.rows[stopped]] = t
        if t == moves or stopped.all():
            break
        move(live_set, ctxs, aux, ~stopped)
        del ctxs  # free this pass's contexts before the next head forward
        made = t + 1
    seg = BatchSegment(x_adv=live_set.finish(), iterations=iters,
                       grad_evals=evals(made))
    for k in pending:  # every row stopped before k moves
        capture[k] = seg
    return seg


# -- start strategy: boundary descent -------------------------------------


def boundary_init_batch(c, bs, x_orig, y, config, start, *, workspace=None,
                        capture=None):
    """Descend the nearest-boundary distance for up to n_init steps.

    Each step recomputes the nearest boundary class m, takes a signed
    gradient step of ``eta_init`` downhill on the distance, and clips to
    ball and box.  Examples on or past a boundary stop early and keep
    their current iterate.  Returns (x_init, grad_evals per example).
    ``workspace`` is passed by :func:`run_restarts_batch`; a direct call
    makes its own.

    ``capture`` lets one descent serve every budget split of a sweep
    (:func:`run_restarts_batch`): a dict keyed by step counts below
    n_init, each set to the (x_init, grad_evals) a descent of that many
    steps from the same start returns, bit for bit.  The caller draws
    the random start once for all of them, and the descent runs once, to
    n_init.  Each capture's grad_evals count only its own steps, so each
    split is still charged its own budget.
    """
    def stop(c, live_set, v):
        m, dist = nearest_boundary_batch(bs, v, live_set.y)
        return ~(dist > 0.0), m  # a NaN distance stops too

    def move(live_set, ctxs, m, live):
        gx = boundary_distance_grad(c, bs, ctxs, live_set.y, m)
        live_set.step(gx, -config.eta_init, live)

    if not all(0 <= k < config.n_init for k in capture or ()):
        raise ValueError(f"capture: step counts {sorted(capture)} are not "
                         f"all in 0..{config.n_init - 1}")
    segs = dict.fromkeys(capture or ())
    # no check after the last step: the attack's first check sees it
    seg = _phase(c, x_orig, y, config, start, workspace, config.n_init,
                 config.n_init, stop, move, segs)
    for k, short in segs.items():
        capture[k] = short.x_adv, short.grad_evals
    return seg.x_adv, seg.grad_evals


# -- attacks ---------------------------------------------------------------


def _flipped(c, live_set, v):
    """An attack's stop rule, first checked at the start: the prediction
    is not the label (argmax keeps the first of tied logits)."""
    z = c.tail_forward(v)
    return np.argmax(z, axis=1) != live_set.y, z


def pgd_batch(c, x_orig, y, config, start, *, workspace=None):
    """Sign-gradient cross-entropy ascent for one restart over a batch.

    n_attack steps of size alpha, each clipped to the ε-ball of the
    original input and the box; a row stops at its first flip.
    ``workspace`` is as in :func:`boundary_init_batch`.
    """
    def move(live_set, ctxs, z, live):
        gx = cross_entropy_grad(c, ctxs, z, live_set.y)
        live_set.step(gx, config.alpha, live)

    return _phase(c, x_orig, y, config, start, workspace,
                  config.n_attack + 1, config.n_attack, _flipped, move)


def fab_batch(c, x_orig, y, config, start, *, workspace=None):
    """Boundary-projection attack for one restart over a batch.

    Each iteration linearizes the pairwise logit differences at the
    current iterate (via the head's representation jacobian and the exact
    tail rows), picks the nearest linearized hyperplane under L∞, projects
    both the iterate and the original input onto it within the box, blends
    the two with β ≤ ``_FAB_BETA_MAX``, extrapolates by ``_FAB_ETA``, and
    clips to ball and box.  ``workspace`` is as in :func:`boundary_init_batch`.
    """
    x_orig = np.asarray(x_orig, dtype=np.float64)
    flat = int(np.prod(x_orig.shape[1:]))
    xo_rows = x_orig.reshape(-1, flat)
    wt = c.tail.weight
    n = wt.shape[1]

    def move(live_set, ctxs, z, live):
        na = z.shape[0]
        # Representation jacobian dv/dx: one backprop per representation
        # coordinate, through one one-hot (head_backward never writes
        # it); the pairwise gradients are tail-row combinations.
        jac = np.empty((na, n, flat))
        e = np.zeros((na, n))
        for q in range(n):
            e[:, q] = 1.0
            jac[:, q, :] = c.head_backward(ctxs, e).reshape(na, flat)
            e[:, q] = 0.0
        ya = live_set.y
        diff_rows = wt[None, :, :] - wt[ya][:, None, :]  # (na, K, N)
        dgs = np.einsum("bkn,bnd->bkd", diff_rows, jac)
        del jac  # (na, n, D), not kept through the projections
        dfs = z - z[np.arange(na), ya][:, None]  # (na, K)
        norms1 = np.abs(dgs).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            pdist = np.abs(dfs) / norms1
        pdist[norms1 == 0.0] = np.inf
        pdist[np.arange(na), ya] = np.inf
        s = np.argmin(pdist, axis=1)
        rows = np.flatnonzero(live)
        w = dgs[rows, s[rows]]
        del dgs  # (na, K, D)
        live_set.keep(live)
        # a flat linearization holds its position
        moves = w.any(axis=1)
        w = w[moves]
        xm = live_set.x[moves].reshape(-1, flat)
        xo = xo_rows[live_set.rows[moves]]
        bias = dfs[rows[moves], s[rows[moves]]] - _row_dot(w, xm)
        d_adv = project_hyperplane_box(xm, w, bias)
        d_adv -= xm
        d_org = project_hyperplane_box(xo, w, bias)
        d_org -= xo
        num = np.abs(d_adv).max(axis=1)
        den = num + np.abs(d_org).max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(den > 0, np.minimum(num / den, _FAB_BETA_MAX),
                            0.0)[:, None]
        # (1 - β)·(xm + η·d_adv) + β·(xo + η·d_org), each operation with
        # the operands in this order, so a NaN keeps the same payload
        for d, x0, weight in ((d_adv, xm, 1.0 - beta), (d_org, xo, beta)):
            np.multiply(_FAB_ETA, d, out=d)
            np.add(x0, d, out=d)
            np.multiply(weight, d, out=d)
        d_adv += d_org
        live_set.x[moves] = d_adv.reshape((-1, *live_set.x.shape[1:]))
        live_set.clip()

    return _phase(c, x_orig, y, config, start, workspace,
                  config.n_attack + 1, config.n_attack, _flipped, move)


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
    if not points.size:  # no rows: no row has a first cap to reach
        return np.empty(points.shape)
    s0 = _row_dot(w, points) + b
    # Orient each row so its value at the point is positive and must be
    # driven to 0.
    sgn = np.where(s0 > 0, 1.0, -1.0)
    we = sgn[:, None] * w
    s = sgn * s0
    # Moving coordinate i by its cap (to the favorable wall) reduces the
    # value by rate*cap; direction is -sign(we).
    rate = np.abs(we)
    # cap = where(we > 0, points, 1 - points), zeroed (+0.0) where rate is
    # not positive, without a per-element branch (a select on a random
    # mask mispredicts): on the uint64 bits, q ^ ((p ^ q) · [we > 0])
    # selects, and the zeroing multiplies by the 0/1 mask, as ReLU's
    # backward does
    cap = 1.0 - points
    bits = cap.view(np.uint64)
    pick = points.view(np.uint64) ^ bits
    np.multiply(pick, we > 0, out=pick)
    bits ^= pick
    np.multiply(bits, rate > 0, out=bits)
    direction = -np.sign(we)
    fill = (_row_dot(rate, cap) > s) & (s0 != 0.0)
    # Waterfilling on every row: rows never mix, and a row that does not
    # fill (it may meet inf - inf or 0/0 here) goes to its walls below.
    # dec(cap_j) = sum_i rate_i * min(cap_j, cap_i) is nondecreasing in
    # the sorted j; a[:, j] sums rate·cap over the j smallest caps and
    # srem[:, j] the other rates.
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        cs, rs = _stable_sorted(cap, rate)
        m, d = cs.shape
        a = np.zeros((m, d + 1))
        np.cumsum(rs * cs, axis=1, out=a[:, 1:])
        srem = np.zeros((m, d + 1))
        np.cumsum(rs, axis=1, out=srem[:, 1:])
        np.subtract(rate.sum(axis=1)[:, None], srem, out=srem)
        dec_at = a[:, 1:] + cs * srem[:, 1:]
        # j: the first index where dec_at reaches s (D if none does)
        reach = dec_at >= s[:, None]
        j = np.where(reach.any(axis=1), reach.argmax(axis=1), d)
        rows = np.arange(m)
        t_star = (s - a[rows, j]) / srem[rows, j]
    # Infeasible (or exactly achievable at the corner): go to walls, as
    # min(cap, inf) is cap, NaN included.
    t_star[~fill] = np.inf
    out = points + direction * np.minimum(cap, t_star[:, None])
    # A point already on its plane only needs clipping.
    on = s0 == 0.0
    out[on] = points[on]
    return np.clip(out, 0.0, 1.0, out=out)


def _stable_sorted(cap, rate):
    """``cap`` and ``rate`` with each row in the order of
    ``np.argsort(cap, axis=1, kind="stable")``.

    One uint64 key per coordinate is sorted instead: the cap's bits with
    the low ⌈log₂ D⌉ bits replaced by the coordinate's index.
    Non-negative doubles order as their bits and equal caps key alike
    (−0.0 keys as +0.0), so where a row's caps come out non-decreasing,
    equal caps are in index order and the row is in the stable order.
    A row that does not (a negative or NaN cap, or caps that differ only
    in the replaced bits and come out misordered) is sorted again by
    the stable argsort.
    """
    m, d = cap.shape
    low = np.uint64((1 << (d - 1).bit_length()) - 1)
    key = np.add(cap, 0.0).view(np.uint64)
    key &= ~low
    key |= np.arange(d, dtype=np.uint64)
    key.sort(axis=1)
    key &= low
    flat = key.view(np.int64)  # each row's order, as flat positions
    flat += (np.arange(m) * d)[:, None]
    cs, rs = np.take(cap, flat), np.take(rate, flat)
    redo = ~(cs[:, 1:] >= cs[:, :-1]).all(axis=1)
    if redo.any():
        order = np.argsort(cap[redo], axis=1, kind="stable")
        cs[redo] = np.take_along_axis(cap[redo], order, axis=1)
        rs[redo] = np.take_along_axis(rate[redo], order, axis=1)
    return cs, rs


# -- restart orchestration -------------------------------------------------

_INITS = ("none", "random", "boundary")
_METHODS = ("pgd", "fab")
_SEED_MAX = 2**63 - 1  # restart seeds are formed in int64


def check_strategy(method, init):
    """Refuse a ``method`` or ``init`` outside its choices by name."""
    _check_choice("method", method, _METHODS)
    _check_choice("init", init, _INITS)


def check_seeds(config, n):
    """Raise ValueError unless every restart seed of ``n`` examples fits.

    The example at dataset position i draws restart seeds
    ``seed + i·restarts + r`` for r < restarts, which must stay at or
    below 2**63 - 1; the error names the first position past it (0 for a
    seed past it).
    """
    first_bad = max(0, (_SEED_MAX + 1 - config.seed) // config.restarts)
    if first_bad < n:
        raise ValueError(
            f"seed {config.seed} with {config.restarts} restarts per example "
            f"overflows at dataset position {first_bad}: restart seeds "
            f"seed + position·restarts + r must stay at or below 2**63 - 1"
        )


def run_restarts_batch(c, bs, x_batch, y_batch, config, method="pgd",
                       init="boundary", positions=None, n_init_values=None,
                       keep_x=True):
    """Run every restart for a batch and keep each example's best outcome.

    Row i is the example at dataset position ``positions[i]`` (default
    i), and restart r draws its start from seed ``config.seed +
    positions[i]·restarts + r``.  A negative position or a restart seed
    past 2**63 - 1 (:func:`check_seeds`) raises ValueError before any
    seed is formed.  Every restart shares one :class:`_Workspace`: the
    batch's ε-ball and the live-set buffers.

    ``n_init_values`` attacks several budget splits at once: each value
    re-splits the config's total ``n_init + n_attack``
    (:meth:`AttackConfig.with_budget_split`), and the outcome gets a
    leading split axis in the order of the values.  A restart's random
    start is drawn once for all splits, and boundary descent runs once,
    to the largest n_init; each split's attack starts from the iterate
    that descent had after the split's own n_init steps, which is what a
    descent of that length ends in, and runs its own n_attack.  Each
    split is still charged its own budget: ``grad_evals_per_restart``
    counts the descent steps of its n_init, not of the longest descent.
    A single split takes no capture.  ``keep_x=False`` keeps no
    adversarial points: ``x_adv`` is None.
    """
    check_strategy(method, init)
    x_batch = np.asarray(x_batch, dtype=np.float64)
    y_batch = np.asarray(y_batch)
    b = x_batch.shape[0]
    positions = np.arange(b) if positions is None else np.asarray(positions)
    if positions.shape != (b,) or positions.dtype.kind not in "iu":
        raise ValueError(f"expected {b} integer positions, got "
                         f"{positions.dtype} of shape {positions.shape}")
    negative = positions < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise ValueError(f"position must be >= 0: row {i} has position "
                         f"{positions[i]}")
    seeds = positions  # an empty batch forms none: its seed may pass int64
    if b:
        check_seeds(config, int(positions.max()) + 1)  # before int64 wraps
        seeds = config.seed + positions.astype(np.int64) * config.restarts
    splits = ([config] if n_init_values is None else
              [config.with_budget_split(v) for v in _check_value(
                  "n_init_values", n_init_values, *config.splits_rule())])
    deepest = max(splits, key=lambda cfg: cfg.n_init)
    # the descent lengths below the deepest that some split starts from
    shallower = {cfg.n_init for cfg in splits} - {deepest.n_init}
    out = BatchOutcome.unflipped(
        (len(splits), b, config.restarts),
        np.empty((len(splits), *x_batch.shape)) if keep_x else None)
    # looked up per call, so a module attribute patched over either
    # function is the one that runs
    attack = pgd_batch if method == "pgd" else fab_batch
    work = _Workspace(x_batch, config.epsilon)
    for r in range(config.restarts):
        if init == "none":
            start = x_batch  # every attack clips its start into a new array
        else:
            start = random_start_batch(x_batch, config.epsilon, seeds + r)
        if init == "boundary":
            captured = dict.fromkeys(shallower)  # empty for one split
            starts = {deepest.n_init: boundary_init_batch(
                c, bs, x_batch, y_batch, deepest, start, workspace=work,
                capture=captured)}
            starts.update(captured)
        else:
            starts = {cfg.n_init: (start, 0) for cfg in splits}
        del start  # a descent's start is not kept while the attacks run
        for s, cfg in enumerate(splits):
            x_init, init_evals = starts[cfg.n_init]
            seg = attack(c, x_batch, y_batch, cfg, x_init, workspace=work)
            out.iterations_per_restart[s, :, r] = seg.iterations
            out.grad_evals_per_restart[s, :, r] = init_evals + seg.grad_evals
            best_iters, best_restart = out.iterations[s], out.restart[s]
            improve = seg.success & ((best_restart < 0)
                                     | (seg.iterations < best_iters))
            if keep_x:
                # restart 0 sets every row: a row no restart flips keeps it
                rows = slice(None) if r == 0 else improve
                out.x_adv[s][rows] = seg.x_adv[rows]
            best_iters[improve] = seg.iterations[improve]
            best_restart[improve] = r
        del starts, x_init, seg  # not kept while the next restart starts
    # the config's own split, without the axis
    return out if n_init_values is not None else out.split(0)
