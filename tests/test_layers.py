import copy
import re

import numpy as np
import pytest

from boundarylab import layers
from boundarylab.verify import fd_grad, rel_err


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

    gx = layer.backward(ctx, proj)
    assert rel_err(gx, fd_grad(scalar, x)) < 1e-6


@pytest.mark.parametrize("name,train", [
    _mode(n, True) for n in ("dense", "conv-padded", "batchnorm-4d")])
def test_param_gradients_match_finite_differences(name, train, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    if isinstance(layer, layers.BatchNorm):
        _set_running_stats(layer, rng)
    x = rng.standard_normal(shape)
    y, ctx = layer.forward(x, train=train)
    proj = rng.standard_normal(y.shape)
    grads = layer.param_grads(ctx, proj)
    for pname, param in layer.params().items():
        def scalar(pq):
            param[...] = pq
            yq, _ = layer.forward(x, train=train)
            return float((yq * proj).sum())

        keep = param.copy()
        fd = fd_grad(scalar, keep)
        param[...] = keep
        assert rel_err(grads[pname], fd) < 1e-6, pname


@pytest.mark.parametrize("name", [n for n, _, _ in _cases(
    np.random.default_rng(0))])
def test_out_shape_is_the_shape_forward_gives(name, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    for train in (False, True):
        y, _ = layer.forward(rng.standard_normal(shape), train=train)
        assert layer.out_shape(shape[1:]) == y.shape[1:]


@pytest.mark.parametrize("make, shape, message", [
    (lambda: layers.Dense(5, 3), (4, 6), "dense: expected 5 features, got 6"),
    (lambda: layers.Dense(5, 3), (4, 5, 1),
     "dense: expected rank-1 examples, got shape (5, 1)"),
    (lambda: layers.Conv2d(2, 3, 3, padding=1), (2, 3, 5, 5),
     "conv2d: expected 2 channels, got 3"),
    (lambda: layers.Conv2d(2, 3, 5), (2, 2, 4, 6),
     "conv2d: input 4x6 smaller than kernel"),
    (lambda: layers.Conv2d(2, 3, 3), (2, 2, 5),
     "conv2d: expected rank-3 examples, got shape (2, 5)"),
    (lambda: layers.MaxPool2x2(), (2, 2, 1, 6),
     "maxpool2x2: input 1x6 smaller than window"),
    (lambda: layers.MaxPool2x2(), (2, 6, 6),
     "maxpool2x2: expected rank-3 examples, got shape (6, 6)"),
    (lambda: layers.BatchNorm(3), (4, 2, 5, 5),
     "batchnorm: expected 3 channels, got 2"),
    (lambda: layers.BatchNorm(3), (4, 2),
     "batchnorm: expected 3 features, got 2"),
    (lambda: layers.BatchNorm(3), (4, 3, 5),
     "batchnorm: expected rank-1 or rank-3 examples, got shape (3, 5)"),
], ids=["dense-features", "dense-rank", "conv-channels", "conv-kernel",
        "conv-rank", "pool-window", "pool-rank", "batchnorm-channels",
        "batchnorm-features", "batchnorm-rank"])
def test_a_layer_on_its_own_refuses_what_its_shape_rule_refuses(
        make, shape, message):
    # forward asks the rule about the batch's examples, in either mode
    layer = make()
    anchored = f"^{re.escape(message)}$"
    with pytest.raises(layers.ShapeMismatchError, match=anchored):
        layer.out_shape(shape[1:])
    for train in (False, True):
        with pytest.raises(layers.ShapeMismatchError, match=anchored):
            layer.forward(np.zeros(shape), train=train)


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
    gx = bn.backward(ctx, gy)
    np.testing.assert_array_equal(gx, gy * scale)


@pytest.mark.parametrize("name", [n for n, _, _ in _cases(
    np.random.default_rng(0))])
def test_param_grads_have_the_keys_and_shapes_of_params(name, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    y, ctx = layer.forward(rng.standard_normal(shape), train=True)
    grads = layer.param_grads(ctx, rng.standard_normal(y.shape))
    assert {k: g.shape for k, g in grads.items()} == {
        k: p.shape for k, p in layer.params().items()}
    if not layer.params():
        assert grads == {}


@pytest.mark.parametrize("shape", [(5, 3), (4, 3, 2, 2)])
def test_batchnorm_param_grads_refuse_an_eval_context(rng, shape):
    bn = layers.BatchNorm(3)
    _set_running_stats(bn, rng)
    y, ctx = bn.forward(rng.standard_normal(shape), train=False)
    assert not any(isinstance(a, np.ndarray) and a.shape == shape
                   for a in ctx)  # the eval context holds no input
    with pytest.raises(ValueError, match="train-mode context.*eval-mode"):
        bn.param_grads(ctx, np.ones_like(y))


@pytest.mark.parametrize("name", ["dense", "conv-valid", "conv-padded"])
def test_conv_and_dense_param_grads_refuse_an_eval_context(name, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    y, ctx = layer.forward(rng.standard_normal(shape), train=False)
    assert not any(isinstance(a, np.ndarray) and a.shape == shape
                   for a in ctx)  # the eval context holds no input
    with pytest.raises(ValueError, match="train-mode context.*eval-mode"):
        layer.param_grads(ctx, np.ones_like(y))


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
    gx = pool.backward(ctx, np.ones_like(y))
    expected = np.zeros_like(x)
    expected[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(gx, expected)


def test_relu_masks_gradient():
    relu = layers.ReLU()
    x = np.array([[-1.0, 0.5, -0.2, 2.0]])
    y, ctx = relu.forward(x)
    np.testing.assert_array_equal(y, [[0.0, 0.5, 0.0, 2.0]])
    gx = relu.backward(ctx, np.ones_like(y))
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
    gx = relu.backward(ctx, gy)
    assert gx.tobytes() == np.where(x > 0, gy, 0.0).tobytes()
    gy_t = _with_specials(rng, shape[::-1]).T  # a strided upstream
    gx = relu.backward(ctx, gy_t)
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


def _channel(a, c):
    # channel c's values in (H, W, B) order at rank 4, B order at rank 2
    return a[:, c].transpose(1, 2, 0).ravel() if a.ndim == 4 else a[:, c]


def _batchnorm_train_oracle(bn, x, gy):
    # the 1-D expressions, one channel at a time, that the train path must
    # reproduce for every channel whatever its block
    m, out = bn.momentum, []
    for c in range(bn.channels):
        r, g = _channel(x, c).copy(), _channel(gy, c).copy()
        n = r.size
        mean = r.sum() / n
        h = r - mean
        var = h @ h / n
        inv = 1.0 / np.sqrt(var + bn.eps)
        xhat = h * inv
        y = xhat * bn.gamma[c]
        y += bn.beta[c]
        s, sum_g, sum_gx = bn.gamma[c] * inv, g.sum(), g @ xhat
        gx = xhat * (-s * sum_gx / n)
        gx += g * s
        gx += -s * sum_g / n
        out.append({"y": y, "xhat": xhat, "gx": gx, "gamma": sum_gx,
                    "beta": sum_g,
                    "running_mean": (1 - m) * bn.running_mean[c] + m * mean,
                    "running_var": (1 - m) * bn.running_var[c] + m * var})
    return out


@pytest.mark.parametrize("shape", [(33, 5), (16, 4, 14, 14), (3, 2, 5, 7)])
def test_batchnorm_train_matches_oracle_bit_for_bit(rng, shape):
    bn = layers.BatchNorm(shape[1])
    _set_running_stats(bn, rng)
    x = rng.standard_normal(shape) * 3.0 + 1.5
    gy = rng.standard_normal(shape)
    x0, gy0 = x.tobytes(), gy.tobytes()
    ref = _batchnorm_train_oracle(bn, x, gy)
    y, ctx = bn.forward(x, train=True)
    grads = bn.param_grads(ctx, gy)
    gx = bn.backward(ctx, gy)
    for c, want in enumerate(ref):
        assert _channel(y, c).tobytes() == want["y"].tobytes()
        assert ctx[0][c].tobytes() == want["xhat"].tobytes()
        assert _channel(gx, c).tobytes() == want["gx"].tobytes()
        for name in ("gamma", "beta"):
            assert grads[name][c].tobytes() == want[name].tobytes()
        for name in ("running_mean", "running_var"):
            assert getattr(bn, name)[c].tobytes() == want[name].tobytes()
    assert x.tobytes() == x0 and gy.tobytes() == gy0


def _batchnorm_pass(bn, x, gy, train):
    # every result of one pass, as bytes: output, input gradient, parameter
    # gradients (train) and running statistics
    y, ctx = bn.forward(x, train=train)
    out = {"y": y, "running_mean": bn.running_mean,
           "running_var": bn.running_var}
    if train:
        out.update(bn.param_grads(ctx, gy))
    out["gx"] = bn.backward(ctx, gy)
    return {k: v.tobytes() for k, v in out.items()}


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("chw", [(16, 14, 14), (32, 5, 5)])
@pytest.mark.parametrize("b", [1, 37, 256])
def test_batchnorm_channel_equals_the_channel_alone(rng, b, chw, train):
    # small_cnn's BatchNorm shapes on 16x16 digits: the blocks of a
    # BatchNorm(C) group channels differently from a BatchNorm(1)
    from boundarylab.kernels import batch_inner

    c = chw[0]
    bn = layers.BatchNorm(c)
    _set_running_stats(bn, rng)
    x = batch_inner(rng.standard_normal((b, *chw)) * 2.0 + 0.5)
    gy = batch_inner(rng.standard_normal((b, *chw)))
    alone = []
    for ch in range(c):
        one = layers.BatchNorm(1)
        for name, arr in {**bn.params(), **bn.buffers()}.items():
            getattr(one, name)[...] = arr[ch]
        alone.append(_batchnorm_pass(one, x[:, ch:ch + 1],
                                     gy[:, ch:ch + 1], train))
    y, ctx = bn.forward(x, train=train)
    grads = bn.param_grads(ctx, gy) if train else {}
    gx = bn.backward(ctx, gy)
    for ch, want in enumerate(alone):
        got = {"y": y[:, ch:ch + 1], "gx": gx[:, ch:ch + 1],
               "running_mean": bn.running_mean[ch:ch + 1],
               "running_var": bn.running_var[ch:ch + 1],
               **{k: g[ch:ch + 1] for k, g in grads.items()}}
        assert {k: v.tobytes() for k, v in got.items()} == want, ch


@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape", [(37, 4, 6, 5), (37, 4)])
def test_batchnorm_gives_the_same_bits_for_either_input_layout(rng, shape,
                                                               train):
    # rank 4: C-order vs the kernels' batch-innermost buffer; rank 2:
    # C-order vs F-order.  Outputs are batch-innermost at rank 4 and
    # C-order at rank 2 either way.
    from boundarylab.kernels import batch_inner

    other_layout = batch_inner if len(shape) == 4 else np.asfortranarray
    bn = layers.BatchNorm(4)
    _set_running_stats(bn, rng)
    x = rng.standard_normal(shape)
    gy = rng.standard_normal(shape)
    other = copy.deepcopy(bn)  # before a train pass moves the buffers
    c_order = _batchnorm_pass(bn, x, gy, train)
    assert _batchnorm_pass(other, other_layout(x), other_layout(gy),
                           train) == c_order
    for xin in (x, other_layout(x)):
        y, ctx = bn.forward(xin, train=train)
        for out in (y, bn.backward(ctx, gy)):
            assert (out.transpose(1, 2, 3, 0) if out.ndim == 4
                    else out).flags.c_contiguous


@pytest.mark.parametrize("shape", [(33, 5), (16, 5, 14, 14), (0, 5, 3, 3),
                                   (0, 5)])
def test_batchnorm_eval_matches_the_affine_expressions_bit_for_bit(rng,
                                                                   shape):
    bn = layers.BatchNorm(shape[1])
    _set_running_stats(bn, rng)
    x, gy = _with_specials(rng, shape), _with_specials(rng, shape)
    bshape = (1, shape[1]) + (1,) * (len(shape) - 2)
    scale = bn.gamma / np.sqrt(bn.running_var + bn.eps)
    shift = bn.beta - bn.running_mean * scale
    y_ref = x * scale.reshape(bshape)
    y_ref += shift.reshape(bshape)
    y, ctx = bn.forward(x, train=False)
    assert y.shape == shape and y.tobytes() == y_ref.tobytes()
    gx = bn.backward(ctx, gy)
    assert gx.shape == shape
    assert gx.tobytes() == (gy * scale.reshape(bshape)).tobytes()


# (shape, layout) of the arrays an in-place pass is checked on: rank 2 in
# C and F order, rank 4 in C order and as the kernels' batch-innermost
# buffer; (5000, 16) and (50, 16, 10, 10) take several train-mode blocks
_IN_PLACE_CASES = [((33, 5), "c"), ((33, 5), "f"), ((5000, 16), "c"),
                   ((4, 3, 5, 6), "batch-inner"), ((4, 3, 5, 6), "c"),
                   ((50, 16, 10, 10), "batch-inner")]


def _laid_out(a, layout):
    from boundarylab.kernels import batch_inner

    return {"c": np.ascontiguousarray, "f": np.asfortranarray,
            "batch-inner": batch_inner}[layout](a)


def _fresh_values(rng, shape, values):
    if values == "specials":
        return _with_specials(rng, shape)
    return rng.standard_normal(shape) * 2.0 + 0.5


def _same_array(a, b):
    # equal bits in the same memory order
    assert a.shape == b.shape and a.strides == b.strides
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape,layout", _IN_PLACE_CASES)
def test_relu_in_place_equals_out_of_place(rng, shape, layout):
    x = _laid_out(_with_specials(rng, shape), layout)
    gy = _laid_out(_with_specials(rng, shape), layout)
    relu = layers.ReLU()
    y, ctx = relu.forward(x)
    gx = relu.backward(ctx, gy)
    # ReLU writes any float64 array it may overwrite, whatever its layout
    x_in, gy_in = x.copy(order="K"), gy.copy(order="K")
    y_in, ctx_in = relu.forward(x_in, overwrite=True)
    assert np.shares_memory(y_in, x_in)
    _same_array(y_in, y)
    _same_array(ctx_in[0], ctx[0])
    gx_in = relu.backward(ctx_in, gy_in, overwrite=True)
    assert np.shares_memory(gx_in, gy_in)
    _same_array(gx_in, gx)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("values", ["specials", "finite"])
@pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("shape,layout", _IN_PLACE_CASES)
def test_batchnorm_in_place_equals_out_of_place(rng, shape, layout, train,
                                                values):
    bn = layers.BatchNorm(shape[1])
    _set_running_stats(bn, rng)
    bn_in = copy.deepcopy(bn)
    x = _laid_out(_fresh_values(rng, shape, values), layout)
    gy = _laid_out(_fresh_values(rng, shape, values), layout)
    y, ctx = bn.forward(x, train=train)
    grads = bn.param_grads(ctx, gy) if train else {}
    gx = bn.backward(ctx, gy)

    x_in, gy_in = x.copy(order="K"), gy.copy(order="K")
    y_in, ctx_in = bn_in.forward(x_in, train=train, overwrite=True)
    # the model's order: the parameter gradients read gy before backward
    # writes it
    grads_in = bn_in.param_grads(ctx_in, gy_in) if train else {}
    gx_in = bn_in.backward(ctx_in, gy_in, overwrite=True)
    _same_array(y_in, y)
    _same_array(gx_in, gx)
    assert grads_in.keys() == grads.keys()
    for name, g in grads.items():
        assert grads_in[name].tobytes() == g.tobytes(), name
    for name, buf in bn.buffers().items():
        assert bn_in.buffers()[name].tobytes() == buf.tobytes(), name
    if train:
        _same_array(ctx_in[0], ctx[0])
    # the result is written over the channel rows: the input's own buffer
    # when it is batch-innermost, a copy of it otherwise (a rank-2 result
    # is C-order, its rows are (C, B))
    assert np.shares_memory(y_in, x_in) == (layout == "batch-inner")
    assert np.shares_memory(gx_in, gy_in) == (layout == "batch-inner")


# call orders of a train context's two gradient passes, each call with
# upstream 0 or 1
_CALL_ORDERS = {
    "backward-first": [("backward", 0), ("param_grads", 0)],
    "param-grads-first": [("param_grads", 0), ("backward", 0)],
    "second-upstream": [("param_grads", 0), ("backward", 0),
                        ("param_grads", 1), ("backward", 1),
                        ("param_grads", 0)],
    "interleaved": [("param_grads", 0), ("backward", 1), ("backward", 0),
                    ("param_grads", 1), ("param_grads", 0)],
}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("order", list(_CALL_ORDERS))
@pytest.mark.parametrize("name", ["conv-padded", "conv-valid",
                                  "batchnorm-2d", "batchnorm-4d"])
def test_train_context_gives_fresh_bits_in_any_call_order(name, order, rng):
    # BatchNorm shares its two sums and Conv2d its patch matrix between
    # param_grads and backward; each call still gets the bits it gets on
    # a context no other call has used
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    x = _with_specials(rng, shape) if name.startswith("conv") else \
        rng.standard_normal(shape)
    y, ctx = copy.deepcopy(layer).forward(x, train=True)
    gys = [_with_specials(rng, y.shape), rng.standard_normal(y.shape)]

    def as_bytes(out):
        if isinstance(out, dict):
            return {k: v.tobytes() for k, v in out.items()}
        return out.tobytes()

    for method, u in _CALL_ORDERS[order]:
        _, fresh = copy.deepcopy(layer).forward(x, train=True)
        got = getattr(layer, method)(ctx, gys[u])
        want = getattr(layer, method)(fresh, gys[u])
        assert as_bytes(got) == as_bytes(want), (method, u)


@pytest.mark.parametrize("shape", [(5000, 16), (50, 16, 10, 10)])
def test_batchnorm_takes_its_sums_once_per_upstream(monkeypatch, rng, shape):
    calls = []
    row_dot = layers._row_dot
    monkeypatch.setattr(layers, "_row_dot",
                        lambda a, b: calls.append(1) or row_dot(a, b))
    bn = layers.BatchNorm(shape[1])
    layout = "batch-inner" if len(shape) == 4 else "c"
    x, gy, other = (_laid_out(rng.standard_normal(shape), layout)
                    for _ in range(3))
    _, ctx = bn.forward(x, train=True)
    blocks = len(calls)  # one variance dot per block
    assert blocks > 1
    bn.param_grads(ctx, gy)
    bn.backward(ctx, gy)
    assert len(calls) == 2 * blocks  # Σgy·x̂ once for both
    bn.backward(ctx, other)
    assert len(calls) == 3 * blocks  # a new upstream is summed again
    # an overwriting backward writes gy's rows, so the parameter
    # gradients after it sum what it left there, as a fresh context would
    _, fresh = copy.deepcopy(bn).forward(x, train=True)
    bn.param_grads(ctx, gy)
    gx = bn.backward(ctx, gy, overwrite=True)
    assert np.shares_memory(gx, gy) == (len(shape) == 4)
    assert {k: v.tobytes() for k, v in bn.param_grads(ctx, gy).items()} == {
        k: v.tobytes() for k, v in bn.param_grads(fresh, gy.copy()).items()}


@pytest.mark.parametrize("keep_patches", [True, False])
def test_conv_builds_its_patch_matrix_once(monkeypatch, rng, keep_patches):
    from boundarylab import kernels

    built = []
    patches = kernels.patches

    def recorded(*a, **k):
        built.append(1)
        return patches(*a, **k)

    # the forward's kernel builds it, and param_grads by the layers' name
    monkeypatch.setattr(kernels, "patches", recorded)
    monkeypatch.setattr(layers, "patches", recorded)
    conv = layers.Conv2d(2, 3, 3, padding=1, rng=rng)
    y, ctx = conv.forward(rng.standard_normal((4, 2, 5, 5)), train=True,
                          keep_patches=keep_patches)
    gy = rng.standard_normal(y.shape)
    conv.param_grads(ctx, gy)
    assert len(built) == (1 if keep_patches else 2)
    conv.backward(ctx, gy)  # writes its columns over the kept matrix
    conv.param_grads(ctx, gy)  # so this one builds it again
    assert len(built) == (2 if keep_patches else 3)
    assert ctx[2] == [None, False]


@pytest.mark.parametrize("name", ["dense", "conv-valid", "maxpool",
                                  "flatten"])
def test_only_relu_and_batchnorm_take_overwrite(name, rng):
    layer, shape = next((l, s) for n, l, s in _cases(rng) if n == name)
    x = rng.standard_normal(shape)
    with pytest.raises(TypeError, match="overwrite"):
        layer.forward(x, overwrite=True)
    y, ctx = layer.forward(x)
    with pytest.raises(TypeError, match="overwrite"):
        layer.backward(ctx, y, overwrite=True)


def test_flatten_round_trips_shape(rng):
    x = rng.standard_normal((3, 2, 4, 5))
    flat = layers.Flatten()
    y, ctx = flat.forward(x)
    assert y.shape == (3, 40)
    gx = flat.backward(ctx, y)
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


@pytest.mark.parametrize("make, error, message", [
    (lambda: layers.Dense(4.2, 3), TypeError,
     "in_features: expected int, got float"),
    (lambda: layers.Dense("4", 3), TypeError,
     "in_features: expected int, got str"),
    (lambda: layers.Dense(4, 0), ValueError,
     "out_features: must be >= 1, got 0"),
    (lambda: layers.Conv2d(1, 2, 3.0), TypeError,
     "kernel_size: expected int, got float"),
    (lambda: layers.Conv2d(1, 2, 3, padding=-1), ValueError,
     "padding: must be >= 0, got -1"),
    (lambda: layers.BatchNorm(0), ValueError,
     "channels: must be >= 1, got 0"),
    (lambda: layers.BatchNorm(3, eps=0), ValueError, "eps: must be > 0, got 0"),
    (lambda: layers.BatchNorm(3, momentum=1.5), ValueError,
     "momentum: must be <= 1, got 1.5"),
], ids=["dense-float", "dense-str", "dense-zero", "conv2d-kernel-float",
        "conv2d-padding-negative", "batchnorm-zero", "batchnorm-eps-zero",
        "batchnorm-momentum-above-one"])
def test_layers_refuse_constructor_arguments_by_name(make, error, message):
    # a checkpoint's layer config reaches these, so none is truncated
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
