"""Exact pairwise decision boundaries of the linear tail.

Every pair of classes (i, j) with i < j contributes one hyperplane
w_(i,j)·v + b_(i,j) = 0 in representation space, where w_(i,j) and
b_(i,j) are differences of tail weight rows and biases.  Because the tail
is exactly linear, these are the classifier's true boundaries, not fits:
the K regions they carve out coincide with the argmax of the logits.

Sign convention: the pairwise value F and the signed distance D are
positive on the side where class ``y`` beats class ``k``.  Descending D
therefore moves toward the boundary from the correctly-classified side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DegenerateBoundaryError(ValueError):
    """Two classes share an identical tail row, so their boundary is
    undefined (zero normal vector)."""


@dataclass(frozen=True, eq=False)
class BoundarySet:
    """All C(K,2) pairwise boundaries of one linear tail.

    ``rows[p]`` and ``biases[p]`` describe the hyperplane of ``pairs[p]``
    = (i, j) with i < j; the value for the reversed pair is the exact
    negation.  Immutable; safe for concurrent reads.
    """

    k: int
    pairs: tuple
    rows: np.ndarray
    biases: np.ndarray
    norms: np.ndarray
    # (K, K) lookup tables: row index and orientation sign for (i, j).
    _pair_of: np.ndarray = field(repr=False)
    _sign_of: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.rows.shape[1]

    def signed_rows(self, i, j):
        """Per-example oriented hyperplanes: (rows, biases, norms) arrays.

        Row r is oriented so that rows[r]·v + biases[r] = z_i[r] − z_j[r];
        the reversed pair is the exact negation of the stored row.
        """
        i = np.asarray(i)
        j = np.asarray(j)
        p = self._pair_of[i, j]
        s = self._sign_of[i, j]
        return s[:, None] * self.rows[p], s * self.biases[p], self.norms[p]


def build_boundary_set(w, b):
    """Build every pairwise boundary from tail weights (K, N) and biases.

    Rejects K < 2, shape mismatches, and degenerate pairs (identical
    weight rows), naming the offending pair.
    """
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"tail weights must be 2-D (K, N), got shape {w.shape}")
    k = w.shape[0]
    if k < 2:
        raise ValueError(f"need at least 2 classes to form boundaries, got K={k}")
    if b.shape != (k,):
        raise ValueError(f"bias must have shape ({k},), got {b.shape}")
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    ii, jj = np.array(pairs).T
    rows = w[ii] - w[jj]
    biases = b[ii] - b[jj]
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        p = int(np.argmin(norms))
        raise DegenerateBoundaryError(
            f"classes {pairs[p][0]} and {pairs[p][1]} have identical tail "
            f"weight rows; their boundary has no normal direction"
        )
    pair_of = np.zeros((k, k), dtype=np.int64)
    sign_of = np.zeros((k, k))
    for p, (i, j) in enumerate(pairs):
        pair_of[i, j] = pair_of[j, i] = p
        sign_of[i, j] = 1.0
        sign_of[j, i] = -1.0
    return BoundarySet(k=k, pairs=tuple(pairs), rows=rows, biases=biases,
                       norms=norms, _pair_of=pair_of, _sign_of=sign_of)


def boundary_set_for(clf):
    """Boundary set of a classifier's tail."""
    return build_boundary_set(clf.tail.weight, clf.tail.bias)


def pair_values(bs, v_batch):
    """All pairwise values for a batch: shape (B, C(K,2)), pair order."""
    v = np.atleast_2d(np.asarray(v_batch, dtype=np.float64))
    return v @ bs.rows.T + bs.biases


def region_of_batch(bs, v_batch, tie_tol=1e-9):
    """Vectorized region query: int labels, −1 where any pair ties."""
    vals = pair_values(bs, v_batch)
    b, p = vals.shape
    onehot_i = np.zeros((p, bs.k))
    onehot_j = np.zeros((p, bs.k))
    for q, (i, j) in enumerate(bs.pairs):
        onehot_i[q, i] = 1.0
        onehot_j[q, j] = 1.0
    wins = (vals > tie_tol) @ onehot_i + (vals < -tie_tol) @ onehot_j
    labels = np.argmax(wins, axis=1)
    complete = wins[np.arange(b), labels] == bs.k - 1
    tied = np.any(np.abs(vals) <= tie_tol, axis=1)
    return np.where(complete & ~tied, labels, -1)


def signed_distances(bs, v_batch, y):
    """Signed distances D(v, y, n) to every class n: shape (B, K).

    D(v, y, n) is the exact Euclidean distance from v to the (y, n)
    hyperplane, positive on the side where y beats n.  Column y is +inf
    as a mask.  ``y`` is one label or one per row.
    """
    vals = pair_values(bs, v_batch)
    b = vals.shape[0]
    y = np.broadcast_to(np.asarray(y), (b,))
    classes = np.arange(bs.k)
    p = bs._pair_of[y[:, None], classes]  # (B, K): the pair of (y, n)
    sign = bs._sign_of[y[:, None], classes]
    # negating before the division is bit-identical to negating after it
    dist = np.take_along_axis(vals, p, axis=1) * sign / bs.norms[p]
    dist[np.arange(b), y] = np.inf
    return dist


def nearest_boundary_batch(bs, v_batch, y):
    """Nearest rival class m ≠ y per row, by signed distance.

    Minimizes D(v, y, n) over n; ties break to the smallest class index.
    Returns arrays (m, distance).
    """
    dist = signed_distances(bs, v_batch, y)
    m = np.argmin(dist, axis=1)
    return m, dist[np.arange(dist.shape[0]), m]
