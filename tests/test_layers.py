import numpy as np
import pytest

from boundarylab import layers
from helpers import fd_grad, rel_err


def _cases(rng):
    return [
        ("dense", layers.Dense(5, 3, rng=rng), (4, 5)),
        ("conv-padded", layers.Conv2d(2, 3, 3, padding=1, rng=rng),
         (2, 2, 5, 5)),
        ("conv-valid", layers.Conv2d(1, 2, 3, padding=0, rng=rng),
         (2, 1, 6, 6)),
        ("relu", layers.ReLU(), (3, 7)),
        ("maxpool", layers.MaxPool2x2(), (2, 2, 6, 6)),
        ("maxpool-odd", layers.MaxPool2x2(), (2, 1, 5, 7)),
        ("batchnorm-2d", layers.BatchNorm(6), (5, 6)),
        ("batchnorm-4d", layers.BatchNorm(3), (4, 3, 5, 5)),
        ("flatten", layers.Flatten(), (3, 2, 4, 4)),
    ]


def _mode(name, train):
    # train mode keeps the bare case name as its id
    return pytest.param(name, train, id=name if train else f"{name}-eval")


def _set_running_stats(bn, rng):
    # away from the identity map, so a wrong scale or shift shows
    c = bn.channels
    bn.running_mean[:] = rng.normal(size=c)
    bn.running_var[:] = rng.uniform(0.5, 3.0, size=c)
    bn.gamma[:] = rng.uniform(0.5, 2.0, size=c)
    bn.beta[:] = rng.normal(size=c)


@pytest.mark.parametrize("name,train", [
    _mode(n, train) for n, _, _ in _cases(np.random.default_rng(0))
    for train in (True, False)])
def test_input_gradient_matches_finite_differences(name, train, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    if isinstance(layer, layers.BatchNorm):
        _set_running_stats(layer, rng)
    x = rng.standard_normal(shape)
    y, ctx = layer.forward(x, train=train)
    proj = rng.standard_normal(y.shape)

    def scalar(xq):
        yq, _ = layer.forward(xq, train=train)
        return float((yq * proj).sum())

    gx, _ = layer.backward(ctx, proj, need_param_grads=False)
    assert rel_err(gx, fd_grad(scalar, x)) < 1e-6


@pytest.mark.parametrize("name,train", [
    *[_mode(n, True) for n in ("dense", "conv-padded", "batchnorm-4d")],
    *[_mode(n, False) for n in ("batchnorm-2d", "batchnorm-4d")],
])
def test_param_gradients_match_finite_differences(name, train, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    if isinstance(layer, layers.BatchNorm):
        _set_running_stats(layer, rng)
    x = rng.standard_normal(shape)
    y, ctx = layer.forward(x, train=train)
    proj = rng.standard_normal(y.shape)
    _, grads = layer.backward(ctx, proj, need_param_grads=True)
    for pname, param in layer.params().items():
        def scalar(pq):
            param[...] = pq
            yq, _ = layer.forward(x, train=train)
            return float((yq * proj).sum())

        keep = param.copy()
        fd = fd_grad(scalar, keep)
        param[...] = keep
        assert rel_err(grads[pname], fd) < 1e-6, pname


def test_dense_forward_matches_manual(rng):
    layer = layers.Dense(4, 3, rng=rng)
    x = rng.standard_normal((6, 4))
    y, _ = layer.forward(x)
    np.testing.assert_allclose(y, x @ layer.weight.T + layer.bias)


def test_dense_rejects_wrong_width(rng):
    layer = layers.Dense(4, 3)
    with pytest.raises(layers.ShapeMismatchError):
        layer.forward(rng.standard_normal((2, 5)))


def test_conv_padding_grows_output(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    same, _ = layers.Conv2d(1, 2, 3, padding=1, rng=rng).forward(x)
    valid, _ = layers.Conv2d(1, 2, 3, padding=0, rng=rng).forward(x)
    assert same.shape == (1, 2, 6, 6)
    assert valid.shape == (1, 2, 4, 4)


def test_batchnorm_train_normalizes_batch(rng):
    bn = layers.BatchNorm(3)
    x = rng.standard_normal((64, 3, 4, 4)) * 5 + 2
    y, _ = bn.forward(x, train=True)
    np.testing.assert_allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    np.testing.assert_allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_batchnorm_eval_is_fixed_affine(rng):
    bn = layers.BatchNorm(3)
    bn.running_mean[:] = [1.0, -2.0, 0.5]
    bn.running_var[:] = [4.0, 1.0, 9.0]
    bn.gamma[:] = [2.0, 1.0, 0.5]
    bn.beta[:] = [0.0, 1.0, -1.0]
    x = rng.standard_normal((2, 3, 2, 2))
    y, _ = bn.forward(x, train=False)
    scale = (bn.gamma / np.sqrt(bn.running_var + bn.eps)).reshape(1, 3, 1, 1)
    shift = (bn.beta - bn.running_mean * scale.reshape(3)).reshape(1, 3, 1, 1)
    np.testing.assert_allclose(y, x * scale + shift)


@pytest.mark.parametrize("shape", [(5, 3), (4, 3, 2, 2)])
def test_batchnorm_eval_backward_is_the_scale(rng, shape):
    bn = layers.BatchNorm(3)
    _set_running_stats(bn, rng)
    bshape = (1, 3) + (1,) * (len(shape) - 2)
    scale = (bn.gamma / np.sqrt(bn.running_var + bn.eps)).reshape(bshape)
    _, ctx = bn.forward(rng.standard_normal(shape), train=False)
    gy = rng.standard_normal(shape)
    gx, _ = bn.backward(ctx, gy)
    np.testing.assert_array_equal(gx, gy * scale)


def test_batchnorm_buffers_update_only_in_train(rng):
    bn = layers.BatchNorm(2)
    x = rng.standard_normal((32, 2)) + 3.0
    before = bn.running_mean.copy()
    bn.forward(x, train=False)
    np.testing.assert_array_equal(bn.running_mean, before)
    bn.forward(x, train=True)
    expected = 0.9 * before + 0.1 * x.mean(axis=0)
    np.testing.assert_allclose(bn.running_mean, expected)


def test_maxpool_drops_odd_edges(rng):
    x = rng.standard_normal((1, 1, 5, 7))
    y, _ = layers.MaxPool2x2().forward(x)
    assert y.shape == (1, 1, 2, 3)
    expected = x[:, :, :4, :6].reshape(1, 1, 2, 2, 3, 2).max(axis=(3, 5))
    np.testing.assert_array_equal(y, expected)


def test_maxpool_tie_routes_gradient_to_first_in_scan_order():
    x = np.zeros((1, 1, 2, 2))  # all four tie
    pool = layers.MaxPool2x2()
    y, ctx = pool.forward(x)
    gx, _ = pool.backward(ctx, np.ones_like(y))
    expected = np.zeros_like(x)
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(gx, expected)


def test_relu_masks_gradient():
    relu = layers.ReLU()
    x = np.array([[-1.0, 0.5, -0.2, 2.0]])
    y, ctx = relu.forward(x)
    np.testing.assert_array_equal(y, [[0.0, 0.5, 0.0, 2.0]])
    gx, _ = relu.backward(ctx, np.ones_like(y))
    np.testing.assert_array_equal(gx, [[0.0, 1.0, 0.0, 1.0]])


def _with_specials(rng, shape):
    # NaN of both signs and a payload, +-inf, +-0.0 and subnormals
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0,
                        5e-324, -5e-324, 2.2e-310, -2.2e-310])
    special = np.append(special, np.uint64(0x7FF8000000000123).view(np.float64))
    x = rng.standard_normal(shape)
    pick = rng.random(shape) < 0.5
    x[pick] = rng.choice(special, pick.sum())
    return x


@pytest.mark.parametrize("shape", [(37,), (5, 13), (3, 4, 7, 6)])
def test_relu_matches_where_bit_for_bit(rng, shape):
    x, gy = _with_specials(rng, shape), _with_specials(rng, shape)
    relu = layers.ReLU()
    y, ctx = relu.forward(x)
    assert y.tobytes() == np.where(x > 0, x, 0.0).tobytes()
    gx, _ = relu.backward(ctx, gy)
    assert gx.tobytes() == np.where(x > 0, gy, 0.0).tobytes()
    gy_t = _with_specials(rng, shape[::-1]).T  # a strided upstream
    gx, _ = relu.backward(ctx, gy_t)
    assert gx.tobytes() == np.where(x > 0, gy_t, 0.0).tobytes()
    # fmax's vector and scalar loops differ on -0.0 vs 0.0: fill every lane
    y, _ = relu.forward(np.full(shape, -0.0))
    assert not np.signbit(y).any()


def test_relu_leaves_its_inputs_alone(rng):
    x, gy = _with_specials(rng, (4, 9)), _with_specials(rng, (4, 9))
    x0, gy0 = x.tobytes(), gy.tobytes()
    relu = layers.ReLU()
    _, ctx = relu.forward(x)
    relu.backward(ctx, gy)
    assert x.tobytes() == x0 and gy.tobytes() == gy0


def _batchnorm_train_oracle(bn, x, gy):
    # the straightforward expressions the train path must reproduce
    axes = (0,) if x.ndim == 2 else (0, 2, 3)
    bshape = (1, bn.channels) + (1,) * (x.ndim - 2)
    mean, var, m = x.mean(axis=axes), x.var(axis=axes), bn.momentum
    running = ((1 - m) * bn.running_mean + m * mean,
               (1 - m) * bn.running_var + m * var)
    inv = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean.reshape(bshape)) * inv.reshape(bshape)
    y = bn.gamma.reshape(bshape) * xhat + bn.beta.reshape(bshape)
    gxhat = gy * bn.gamma.reshape(bshape)
    mean_g = gxhat.mean(axis=axes).reshape(bshape)
    mean_gx = (gxhat * xhat).mean(axis=axes).reshape(bshape)
    gx = (gxhat - mean_g - xhat * mean_gx) * inv.reshape(bshape)
    grads = {"gamma": (gy * xhat).sum(axis=axes), "beta": gy.sum(axis=axes)}
    return y, xhat, running, gx, grads


@pytest.mark.parametrize("shape", [(33, 5), (16, 4, 14, 14), (3, 2, 5, 7)])
def test_batchnorm_train_matches_oracle_bit_for_bit(rng, shape):
    bn = layers.BatchNorm(shape[1])
    _set_running_stats(bn, rng)
    x = rng.standard_normal(shape) * 3.0 + 1.5
    gy = rng.standard_normal(shape)
    x0, gy0 = x.tobytes(), gy.tobytes()
    y_ref, xhat_ref, running_ref, gx_ref, grads_ref = \
        _batchnorm_train_oracle(bn, x, gy)
    y, ctx = bn.forward(x, train=True)
    gx, grads = bn.backward(ctx, gy, need_param_grads=True)
    assert y.tobytes() == y_ref.tobytes()
    assert ctx[0].tobytes() == xhat_ref.tobytes()
    assert bn.running_mean.tobytes() == running_ref[0].tobytes()
    assert bn.running_var.tobytes() == running_ref[1].tobytes()
    assert gx.tobytes() == gx_ref.tobytes()
    for name in ("gamma", "beta"):
        assert grads[name].tobytes() == grads_ref[name].tobytes()
    assert x.tobytes() == x0 and gy.tobytes() == gy0


def test_flatten_round_trips_shape(rng):
    x = rng.standard_normal((3, 2, 4, 5))
    flat = layers.Flatten()
    y, ctx = flat.forward(x)
    assert y.shape == (3, 40)
    gx, _ = flat.backward(ctx, y)
    np.testing.assert_array_equal(gx, x)


def test_layer_config_round_trip(rng):
    for _, layer, _ in _cases(rng):
        rebuilt = layers.layer_from_config(layer.config())
        assert rebuilt.kind == layer.kind
        assert rebuilt.config() == layer.config()
        for name, param in layer.params().items():
            assert rebuilt.params()[name].shape == param.shape


def test_layer_from_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="nope"):
        layers.layer_from_config({"kind": "nope"})


def test_cross_entropy_matches_manual(rng):
    z = rng.standard_normal((5, 4))
    y = np.array([0, 3, 1, 2, 2])
    loss, gz = layers.cross_entropy_with_logits(z, y)
    manual = -layers.log_softmax(z)[np.arange(5), y].mean()
    assert abs(loss - manual) < 1e-12
    # gradient carries the 1/B of the mean
    soft = np.exp(layers.log_softmax(z))
    soft[np.arange(5), y] -= 1.0
    np.testing.assert_allclose(gz, soft / 5)


def test_cross_entropy_gradient_matches_finite_differences(rng):
    z = rng.standard_normal((3, 4))
    y = np.array([1, 0, 2])

    def scalar(zq):
        loss, _ = layers.cross_entropy_with_logits(zq, y)
        return float(loss)

    _, gz = layers.cross_entropy_with_logits(z, y)
    assert rel_err(gz, fd_grad(scalar, z)) < 1e-8


def test_log_softmax_stable_for_large_logits():
    z = np.array([[1000.0, 1000.0, 0.0]])
    out = layers.log_softmax(z)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-12)
