import itertools

import numpy as np
import pytest

from boundarylab import attacks, geometry
from boundarylab.verify import fd_grad, rel_err


def two_class_set():
    # z_0 = 2v_0, z_1 = -v_1 + 1; boundary row (2, 1), bias -1
    w = np.array([[2.0, 0.0], [0.0, -1.0]])
    b = np.array([0.0, 1.0])
    return geometry.build_boundary_set(w, b)


def test_hand_evaluated_decision_value():
    bs = two_class_set()
    v = np.array([2.0, 0.0])
    rows, biases, _ = bs.signed_rows([0], [1])
    assert rows[0] @ v + biases[0] == pytest.approx(3.0)
    # D = F / ||w||, ||(2, 1)|| = sqrt(5)
    assert geometry.signed_distances(bs, v, 0)[0, 1] == pytest.approx(
        3.0 / np.sqrt(5.0))


def test_pair_count_and_ordering(blobs_boundaries):
    bs = blobs_boundaries
    assert len(bs.pairs) == bs.k * (bs.k - 1) // 2
    assert bs.pairs == tuple(itertools.combinations(range(bs.k), 2))
    for p, (i, j) in enumerate(bs.pairs):
        assert i < j
        # both orientations of a pair resolve to stored row p
        rows, biases, _ = bs.signed_rows([i, j], [j, i])
        np.testing.assert_array_equal(rows[0], bs.rows[p])
        np.testing.assert_array_equal(rows[1], -bs.rows[p])


def test_rows_are_weight_differences(blobs_mlp, blobs_boundaries):
    w, b = blobs_mlp.tail.weight, blobs_mlp.tail.bias
    for p, (i, j) in enumerate(blobs_boundaries.pairs):
        np.testing.assert_array_equal(blobs_boundaries.rows[p], w[i] - w[j])
        assert blobs_boundaries.biases[p] == b[i] - b[j]


def test_antisymmetry_is_exact(blobs_boundaries, rng):
    bs = blobs_boundaries
    v = rng.normal(size=bs.n)
    for i, j in bs.pairs:
        (wij, wji), (bij, bji), _ = bs.signed_rows([i, j], [j, i])
        fij = wij @ v + bij
        fji = wji @ v + bji
        assert fij == -fji  # exact negation, not approximate
        np.testing.assert_array_equal(wij, -wji)
        assert bij == -bji


def test_pair_values_matches_scalar(blobs_boundaries, rng):
    bs = blobs_boundaries
    v = rng.normal(size=(7, bs.n))
    vals = geometry.pair_values(bs, v)
    assert vals.shape == (7, len(bs.pairs))
    for p, (i, j) in enumerate(bs.pairs):
        rows, biases, _ = bs.signed_rows([i], [j])
        for r in range(7):
            assert vals[r, p] == rows[0] @ v[r] + biases[0]


def test_region_partition_matches_argmax(blobs_mlp, blobs_boundaries, rng):
    v = rng.normal(scale=3.0, size=(500, blobs_boundaries.n))
    z = v @ blobs_mlp.tail.weight.T + blobs_mlp.tail.bias
    regions = geometry.region_of_batch(blobs_boundaries, v)
    np.testing.assert_array_equal(regions, np.argmax(z, axis=1))


def test_on_boundary_marker():
    bs = two_class_set()
    # 2v_0 + v_1 - 1 is 1e-12 at v = (0.5, 1e-12), inside the tie band
    # (geometry._TIE_TOL = 1e-9), and 1e-8 at (0.5, 1e-8), outside it
    out = geometry.region_of_batch(
        bs, np.array([[0.5, 1e-12], [0.5, 1e-8], [2.0, 0.0]]))
    assert out[0] == -1  # the tie is marked -1, not silently assigned
    assert out[1] == 0 and out[2] == 0


def test_degenerate_pair_is_named_at_build():
    w = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([0.0, 1.0, 0.0])
    with pytest.raises(geometry.DegenerateBoundaryError, match="0 and 1"):
        geometry.build_boundary_set(w, b)


def test_build_rejects_bad_shapes():
    with pytest.raises(ValueError, match="K=1"):
        geometry.build_boundary_set(np.ones((1, 3)), np.zeros(1))
    with pytest.raises(ValueError):
        geometry.build_boundary_set(np.ones((3, 2)), np.zeros(2))


def test_nearest_boundary_hand_example():
    # classes 2 and 3 are pushed far away by bias; from v = (1, 0) under
    # label 0 the nearest rival is 1 at (z_0 - z_1)/||(1,-1)|| = 1/sqrt(2)
    w = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([0.0, 0.0, -50.0, -60.0])
    bs = geometry.build_boundary_set(w, b)
    (m,), (d,) = geometry.nearest_boundary_batch(bs, np.array([[1.0, 0.0]]),
                                                 [0])
    assert m == 1
    assert d == pytest.approx(1.0 / np.sqrt(2.0))


def test_nearest_boundary_matches_brute_force(blobs_boundaries, rng):
    bs = blobs_boundaries
    for _ in range(50):
        v = rng.normal(scale=2.0, size=(1, bs.n))
        y = int(rng.integers(bs.k))
        (m,), (d,) = geometry.nearest_boundary_batch(bs, v, [y])
        # brute force: one oriented hyperplane at a time
        dists = {}
        for k in range(bs.k):
            if k != y:
                rows, biases, norms = bs.signed_rows([y], [k])
                dists[k] = (rows[0] @ v[0] + biases[0]) / norms[0]
        best = min(dists, key=lambda k: dists[k])
        assert d == pytest.approx(dists[best])
        assert dists[m] == pytest.approx(dists[best])


def test_nearest_boundary_batch_matches_scalar(blobs_boundaries, rng):
    bs = blobs_boundaries
    v = rng.normal(scale=2.0, size=(20, bs.n))
    y = rng.integers(bs.k, size=20)
    ms, ds = geometry.nearest_boundary_batch(bs, v, y)
    for r in range(20):
        # a B=1 call must equal its row of the batch: rows do not mix
        (m,), (d,) = geometry.nearest_boundary_batch(bs, v[r:r + 1],
                                                     y[r:r + 1])
        # batched and one-row matmuls may differ in the last ulp
        np.testing.assert_allclose(ds[r], d, rtol=1e-12)
        assert (geometry.signed_distances(bs, v[r], y[r])[0, ms[r]]
                == pytest.approx(d))


def test_signed_distance_sign_tracks_region(blobs_boundaries, rng):
    bs = blobs_boundaries
    for _ in range(30):
        v = rng.normal(scale=2.0, size=(1, bs.n))
        region = geometry.region_of_batch(bs, v)[0]
        assert region >= 0  # no random draw lands in the tie band
        dist = geometry.signed_distances(bs, v, region)[0]
        for k in range(bs.k):
            if k == region:
                continue
            # positive while still classified as y
            assert dist[k] > 0


def _oracle_signed_distances(bs, v_batch, y):
    # one pair at a time, the reversed orientation negated after dividing
    vals = geometry.pair_values(bs, v_batch)
    b = vals.shape[0]
    y = np.broadcast_to(np.asarray(y), (b,))
    dist = np.full((b, bs.k), np.inf)
    for p, (i, j) in enumerate(bs.pairs):
        d = vals[:, p] / bs.norms[p]
        sel = y == i
        dist[sel, j] = d[sel]
        sel = y == j
        dist[sel, i] = -d[sel]
    return dist


@pytest.mark.parametrize("k", [2, 4, 10])
def test_signed_distances_match_the_per_pair_oracle(k):
    rng = np.random.default_rng(k)
    bias = rng.normal(size=k)
    bias[1] = bias[0]
    bs = geometry.build_boundary_set(rng.normal(size=(k, 3)), bias)
    v = rng.normal(scale=2.0, size=(60, 3))
    v[:3] = 0.0  # exactly on the (0, 1) boundary: the sign of zero counts
    y = rng.integers(k, size=60)
    cases = [(v, y), (v[:0], y[:0])] + [(v, c) for c in range(k)]
    for vb, yb in cases:
        got = geometry.signed_distances(bs, vb, yb)
        want = _oracle_signed_distances(bs, vb, yb)
        assert got.shape == want.shape == (vb.shape[0], k)
        assert got.tobytes() == want.tobytes()


def _dist_gradient(clf, bs, x, y, m):
    v, ctxs = clf.head_forward_with_ctx(x)
    return attacks.boundary_distance_grad(clf, bs, ctxs, y, m)


def test_distance_gradient_matches_finite_differences(blobs_mlp,
                                                      blobs_boundaries, rng):
    bs = blobs_boundaries
    x = rng.uniform(0.2, 0.8, size=(1, 8))

    def f(xq):
        return geometry.signed_distances(bs, blobs_mlp.head_forward(xq),
                                         0)[0, 2]

    g = _dist_gradient(blobs_mlp, bs, x, [0], [2])
    assert rel_err(g, fd_grad(f, x)) < 1e-6


def test_distance_gradient_batch_matches_scalar(blobs_mlp, blobs_boundaries,
                                                rng):
    x = rng.uniform(0.2, 0.8, size=(5, 8))
    gb = _dist_gradient(blobs_mlp, blobs_boundaries, x, np.full(5, 1),
                        np.full(5, 3))
    for r in range(5):
        g = _dist_gradient(blobs_mlp, blobs_boundaries, x[r:r + 1], [1], [3])
        np.testing.assert_allclose(gb[r], g[0], rtol=1e-12)


def test_boundary_set_for_uses_tail(blobs_mlp):
    bs = geometry.boundary_set_for(blobs_mlp)
    bs2 = geometry.build_boundary_set(blobs_mlp.tail.weight,
                                      blobs_mlp.tail.bias)
    np.testing.assert_array_equal(bs.rows, bs2.rows)
    np.testing.assert_array_equal(bs.biases, bs2.biases)
