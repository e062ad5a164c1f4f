import copy
import warnings

import numpy as np
import pytest

from boundarylab import attacks, data, geometry, layers, model
from helpers import fd_grad, rel_err


def test_head_tail_composition_is_bit_exact(blobs_mlp, rng):
    x = rng.uniform(0, 1, size=(20, 8))
    v = blobs_mlp.head_forward(x)
    np.testing.assert_array_equal(blobs_mlp.tail_forward(v),
                                  blobs_mlp.forward(x))


def test_identity_head_passes_input_through():
    clf = model.linear_model(2, 2, weight=np.eye(2), bias=np.zeros(2))
    np.testing.assert_array_equal(clf.head_forward(np.array([0.2, 0.8])),
                                  [0.2, 0.8])


def test_tail_forward_hand_values():
    clf = model.linear_model(2, 2, weight=np.array([[2.0, 0.0], [0.0, 0.0]]),
                             bias=np.array([0.0, 1.0]))
    np.testing.assert_array_equal(clf.tail_forward(np.array([1.0, 5.0])),
                                  [2.0, 1.0])


def test_cnn_preset_maps_image_to_plane():
    clf = model.small_cnn(k=4, n=2, input_shape=(1, 28, 28), seed=0)
    v = clf.head_forward(np.random.default_rng(0).uniform(0, 1, (1, 28, 28)))
    assert v.shape == (2,)
    assert clf.k == 4 and clf.n == 2 and clf.d == 784


def test_predict_is_argmax(blobs_mlp, rng):
    x = rng.uniform(0, 1, size=(10, 8))
    np.testing.assert_array_equal(blobs_mlp.predict(x),
                                  np.argmax(blobs_mlp.forward(x), axis=1))


def test_softmax_never_changes_argmax(blobs_mlp, rng):
    z = blobs_mlp.forward(rng.uniform(0, 1, size=(50, 8)))
    soft = np.exp(layers.log_softmax(z))
    np.testing.assert_array_equal(np.argmax(z, axis=1),
                                  np.argmax(soft, axis=1))


def test_tail_must_be_single_dense_layer():
    rng = np.random.default_rng(0)
    stack = [layers.Flatten(), layers.Dense(4, 3, rng=rng),
             layers.ReLU(), layers.Dense(3, 2, rng=rng)]
    with pytest.raises(ValueError):
        model.Classifier(stack, split=2, input_shape=(4,))  # ReLU in tail
    with pytest.raises(ValueError):
        model.Classifier(stack, split=4, input_shape=(4,))  # empty tail
    model.Classifier(stack, split=3, input_shape=(4,))  # valid


def test_out_of_box_input_warns(blobs_mlp):
    with pytest.warns(UserWarning, match="outside"):
        blobs_mlp.head_forward(np.full(8, 1.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        blobs_mlp.head_forward(np.full(8, 0.5))


def _ce_gradient(clf, x, y):
    v, ctxs = clf.head_forward_with_ctx(x)
    return attacks.cross_entropy_grad(clf, ctxs, clf.tail_forward(v), y)


def _dist_gradient(clf, bs, x, y, m):
    _, ctxs = clf.head_forward_with_ctx(x)
    return attacks.boundary_distance_grad(clf, bs, ctxs, y, m)


def test_identity_head_distance_gradient_is_unit_row():
    w = np.array([[1.0, 2.0], [0.0, -1.0]])
    clf = model.linear_model(2, 2, weight=w, bias=np.zeros(2))
    g = _dist_gradient(clf, geometry.boundary_set_for(clf),
                       np.array([[0.3, 0.4]]), [0], [1])
    row = w[0] - w[1]
    np.testing.assert_allclose(g[0], row / np.linalg.norm(row), rtol=1e-15)


def test_logit_gradient_of_identity_head_linear_tail():
    clf = model.linear_model(1, 2, weight=np.array([[1.0], [0.0]]),
                             bias=np.zeros(2))
    # cross-entropy at label 0 has gradient (softmax - onehot) @ w
    x = np.array([[0.4]])
    g = _ce_gradient(clf, x, [0])
    z = clf.forward(x)
    soft = np.exp(layers.log_softmax(z))[0]
    expected = (soft - np.array([1.0, 0.0])) @ clf.tail.weight
    np.testing.assert_allclose(g[0], expected, rtol=1e-12)


@pytest.mark.parametrize("scalar", ["ce", "dist"])
def test_input_gradient_matches_finite_differences_on_cnn(scalar):
    clf = model.small_cnn(k=4, n=2, input_shape=(1, 12, 12), seed=3)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.9, size=(1, 1, 12, 12))
    if scalar == "ce":
        g = _ce_gradient(clf, x, [1])

        def f(xq):
            z = clf.forward(xq)
            return float(-layers.log_softmax(z)[0, 1])
    else:
        bs = geometry.boundary_set_for(clf)
        g = _dist_gradient(clf, bs, x, [1], [3])

        def f(xq):
            return geometry.signed_distances(bs, clf.head_forward(xq),
                                             1)[0, 3]

    assert rel_err(g, fd_grad(f, x)) < 1e-6


def test_input_gradient_batch_is_per_example(blobs_mlp, rng):
    x = rng.uniform(0, 1, size=(4, 8))
    y = np.array([0, 1, 2, 3])
    batch = _ce_gradient(blobs_mlp, x, y)
    for i in range(4):
        # a B=1 call must equal its row of the batch: rows do not mix
        single = _ce_gradient(blobs_mlp, x[i:i + 1], y[i:i + 1])
        np.testing.assert_allclose(batch[i], single[0], rtol=1e-12)


# -- persistence ---------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path, blobs_mlp, rng):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    loaded = model.Classifier.load(path)
    probe = rng.uniform(0, 1, size=(10, 8))
    np.testing.assert_array_equal(loaded.forward(probe),
                                  blobs_mlp.forward(probe))
    assert loaded.meta == blobs_mlp.meta
    assert loaded.split == blobs_mlp.split


def test_checkpoint_round_trip_cnn(tmp_path):
    clf = model.small_cnn(k=3, n=2, input_shape=(1, 12, 12), seed=9)
    path = tmp_path / "c.ckpt"
    clf.save(path)
    loaded = model.Classifier.load(path)
    probe = np.random.default_rng(1).uniform(0, 1, size=(4, 1, 12, 12))
    np.testing.assert_array_equal(loaded.forward(probe), clf.forward(probe))


def test_checkpoint_rejects_non_finite_weights(tmp_path, blobs_mlp):
    bad = copy.deepcopy(blobs_mlp)
    bad.layers[1].weight[0, 0] = np.nan
    path = bad.save(tmp_path / "nan.ckpt")
    with pytest.raises(model.CheckpointError,
                       match=r"layer 1 \(dense\) param 'weight'"):
        model.Classifier.load(path)


def _corrupt(path, mutate):
    blob = bytearray(path.read_bytes())
    mutate(blob)
    path.write_bytes(bytes(blob))


def test_checkpoint_rejects_bad_magic(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    _corrupt(path, lambda b: b.__setitem__(0, ord("x")))
    with pytest.raises(model.CheckpointError):
        model.Classifier.load(path)


def test_checkpoint_rejects_truncated_payload(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(model.CheckpointError, match="truncat"):
        model.Classifier.load(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(model.CheckpointError):
        model.Classifier.load(path)


def test_checkpoint_rejects_unknown_layer_kind(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    raw = path.read_bytes().replace(b'"kind": "relu"', b'"kind": "gelu"', 1)
    path.write_bytes(raw)
    with pytest.raises(model.CheckpointError, match="gelu"):
        model.Classifier.load(path)


def test_checkpoint_rejects_future_version(tmp_path, blobs_mlp):
    path = tmp_path / "m.ckpt"
    blobs_mlp.save(path)
    raw = path.read_bytes().replace(b"boundarylab-checkpoint 1",
                                    b"boundarylab-checkpoint 9", 1)
    path.write_bytes(raw)
    with pytest.raises(model.CheckpointError, match="9"):
        model.Classifier.load(path)


# -- training ------------------------------------------------------------


def test_training_is_deterministic(tmp_path, blobs_train):
    outs = []
    for run in range(2):
        clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
        fitted = model.train(clf, blobs_train, epochs=5, seed=11)
        path = tmp_path / f"r{run}.ckpt"
        fitted.save(path)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_training_leaves_input_model_untouched(blobs_train):
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    before = {n: p.copy() for n, p in clf.layers[1].params().items()}
    model.train(clf, blobs_train, epochs=2, seed=0)
    for n, p in clf.layers[1].params().items():
        np.testing.assert_array_equal(p, before[n])


def test_separable_blobs_reach_perfect_accuracy():
    train = data.make_blobs(60, k=2, d=2, separation=12.0, seed=3)
    test = data.make_blobs(40, k=2, d=2, separation=12.0, seed=4)
    clf = model.linear_model(2, 2, seed=0)
    fitted = model.train(clf, train, epochs=40, seed=0)
    assert (fitted.predict(test.images) == test.labels).mean() == 1.0


def test_divergence_aborts_with_diagnostic(blobs_train):
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    with pytest.raises(model.TrainingDivergedError, match="epoch"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model.train(clf, blobs_train, epochs=5, lr=1e30, seed=0)


def test_adv_train_with_zero_epsilon_equals_train(tmp_path, blobs_train):
    cfg = attacks.AttackConfig(epsilon=0.0, alpha=0.01, restarts=1,
                               n_init=0, n_attack=3, seed=0)
    clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
    plain = model.train(clf, blobs_train, epochs=3, seed=5)
    hard = model.adv_train(clf, blobs_train, cfg, epochs=3, seed=5)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    plain.save(p1)
    hard.save(p2)
    # identical up to the adversarial flag recorded in metadata
    a = p1.read_bytes().replace(b'"adversarial": false', b"")
    b = p2.read_bytes().replace(b'"adversarial": true', b"")
    assert a == b


def test_adv_train_is_deterministic(tmp_path, blobs_train):
    cfg = attacks.AttackConfig(epsilon=0.05, alpha=0.02, restarts=1,
                               n_init=0, n_attack=3, seed=0)
    blobs = []
    for run in range(2):
        clf = model.mlp((8,), k=4, n=2, hidden=(16,), seed=0)
        fitted = model.adv_train(clf, blobs_train, cfg, epochs=3, seed=5)
        path = tmp_path / f"adv{run}.ckpt"
        fitted.save(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_adv_training_improves_robustness():
    train = data.make_blobs(100, k=3, d=6, separation=5.0, seed=7)
    test = data.make_blobs(60, k=3, d=6, separation=5.0, seed=8)
    eps = 0.1
    atk = attacks.AttackConfig(epsilon=eps, alpha=0.025, restarts=2,
                               n_init=0, n_attack=10, seed=0)
    train_cfg = attacks.AttackConfig(epsilon=eps, alpha=0.04, restarts=1,
                                     n_init=0, n_attack=5, seed=0)

    def robust_acc(clf, seed):
        bs = geometry.boundary_set_for(clf)
        from boundarylab import harness
        from dataclasses import replace
        rep = harness.evaluate(clf, bs, test, replace(atk, seed=seed),
                               method="pgd", init="random")
        return rep.robust_accuracy

    base = model.mlp((6,), k=3, n=3, hidden=(16,), seed=1)
    plain = model.train(base, train, epochs=20, seed=1)
    hard = model.adv_train(base, train, train_cfg, epochs=20, seed=1)
    plain_mean = np.mean([robust_acc(plain, s) for s in range(5)])
    hard_mean = np.mean([robust_acc(hard, s) for s in range(5)])
    assert hard_mean >= plain_mean
