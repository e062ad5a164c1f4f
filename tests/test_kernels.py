import numpy as np
import pytest

from boundarylab import kernels


def _conv_case(rng, b, ci, h, w, co, k):
    x = rng.standard_normal((b, ci, h, w))
    wt = rng.standard_normal((co, ci, k, k))
    bias = rng.standard_normal(co)
    gy = rng.standard_normal((b, co, h - k + 1, w - k + 1))
    return x, wt, bias, gy


@pytest.mark.parametrize("b,ci,h,w,co,k", [
    (3, 1, 8, 8, 4, 3),
    (2, 5, 9, 7, 7, 3),
    (1, 8, 6, 6, 4, 5),
    (4, 3, 5, 5, 1, 1),
    (1, 1, 16, 16, 16, 3),   # one example: small_cnn's conv1
    (5, 16, 7, 7, 32, 3),    # ci > 1, co > ci: small_cnn's conv2
])
def test_conv_primitives_match_window_oracle(rng, b, ci, h, w, co, k):
    x, wt, bias, gy = _conv_case(rng, b, ci, h, w, co, k)
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    y = kernels.conv2d_forward(x, wt, bias)
    np.testing.assert_allclose(
        y, np.einsum("bcijpq,ocpq->boij", win, wt) + bias[:, None, None],
        rtol=1e-10, atol=1e-12)
    # both gradients are adjoints of the forward map: <y - bias, gy> equals
    # <x, input grad> and <w, weight grad>
    inner = np.vdot(y - bias[:, None, None], gy)
    gx = kernels.conv2d_input_grad(gy, wt, x.shape)
    gw, gb = kernels.conv2d_param_grad(x, gy, wt.shape)
    assert gx.shape == x.shape and gw.shape == wt.shape
    np.testing.assert_allclose(np.vdot(x, gx), inner, rtol=1e-10)
    np.testing.assert_allclose(np.vdot(wt, gw), inner, rtol=1e-10)
    np.testing.assert_allclose(gb, gy.sum(axis=(0, 2, 3)), rtol=1e-12)
    # the input gradient element by element: each tap spreads gy back
    # through its kernel slice
    ref = np.zeros_like(x)
    for p in range(k):
        for q in range(k):
            ref[:, :, p : p + gy.shape[2], q : q + gy.shape[3]] += np.einsum(
                "boij,oc->bcij", gy, wt[:, :, p, q])
    np.testing.assert_allclose(gx, ref, rtol=1e-10, atol=1e-12)


def test_padding_wrapper_matches_manual_pad(rng):
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    bias = rng.standard_normal(4)
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = kernels.conv2d_forward(x, w, bias, padding=1)
    np.testing.assert_array_equal(y, kernels.conv2d_forward(padded, w, bias))
    gy = rng.standard_normal(y.shape)
    np.testing.assert_array_equal(
        kernels.conv2d_input_grad(gy, w, x.shape, padding=1),
        kernels.conv2d_input_grad(gy, w, padded.shape)[:, :, 1:-1, 1:-1])
    np.testing.assert_array_equal(
        kernels.conv2d_param_grad(x, gy, w.shape, padding=1)[0],
        kernels.conv2d_param_grad(padded, gy, w.shape)[0])


def test_public_wrappers_handle_padding_and_strides(rng):
    # non-contiguous float32 input, padded: outputs come back float64,
    # batch-innermost and shaped like the operands
    x = rng.standard_normal((2, 2, 14, 7)).astype(np.float32)[:, :, ::2, :]
    w = rng.standard_normal((3, 2, 3, 3))
    bias = rng.standard_normal(3)
    y = kernels.conv2d_forward(x, w, bias, padding=1)
    assert y.dtype == np.float64 and y.transpose(1, 2, 3, 0).flags.c_contiguous
    gy = rng.standard_normal(y.shape)
    gx = kernels.conv2d_input_grad(gy, w, x.shape, padding=1)
    assert gx.shape == x.shape and gx.transpose(1, 2, 3, 0).flags.c_contiguous
    gw, gb = kernels.conv2d_param_grad(x, gy, w.shape, padding=1)
    assert gw.shape == w.shape and gb.shape == bias.shape


def _batch_inner(a):
    return a.transpose(1, 2, 3, 0).flags.c_contiguous


@pytest.mark.parametrize("b", [1, 37, 256])
def test_kernels_give_the_same_bits_for_either_input_layout(rng, b):
    # small_cnn's shapes on 16x16 digits: conv1 and conv2, pool1 and pool2.
    # Each input comes C-order and as a batch-innermost buffer of the same
    # values; both give the same bits, and every output is batch-innermost.
    def layouts(shape):
        a = rng.standard_normal(shape)
        assert a.flags.c_contiguous
        return a, kernels.batch_inner(a)

    for ci, h, co in ((1, 16, 16), (16, 7, 32)):
        w = rng.standard_normal((co, ci, 3, 3))
        bias = rng.standard_normal(co)
        xs = layouts((b, ci, h, h))
        gys = layouts((b, co, h - 2, h - 2))
        outs = [(kernels.conv2d_forward(x, w, bias),
                 kernels.conv2d_input_grad(gy, w, x.shape),
                 *kernels.conv2d_param_grad(x, gy, w.shape))
                for x, gy in zip(xs, gys)]
        for got, want in zip(*outs):
            assert got.tobytes() == want.tobytes()
        for out in outs[0][:2]:
            assert _batch_inner(out)
    for c, h in ((16, 14), (32, 5)):
        xs = layouts((b, c, h, h))
        gys = layouts((b, c, h // 2, h // 2))
        fwd = [kernels.maxpool2_forward(x) for x in xs]
        idxs = (np.ascontiguousarray(fwd[0][1]), fwd[1][1])
        bwd = [kernels.maxpool2_backward(gy, idx, xs[0].shape)
               for gy, idx in zip(gys, idxs)]
        for got, want in zip((*fwd[0], bwd[0]), (*fwd[1], bwd[1])):
            assert got.tobytes() == want.tobytes()
            assert _batch_inner(got)


def _pool_oracle(x):
    # the window-argmax formulation: first maximum in row-major scan
    # order, NaN counting as the maximum
    b, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    win = x[:, :, : 2 * oh, : 2 * ow].reshape(b, c, oh, 2, ow, 2)
    win = win.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, oh, ow, 4)
    idx = win.argmax(axis=4)
    y = np.take_along_axis(win, idx[..., None], axis=4)[..., 0]
    gwin = (np.arange(4) == idx[..., None]).reshape(b, c, oh, ow, 2, 2)
    return y, idx, gwin.transpose(0, 1, 2, 4, 3, 5).reshape(b, c, 2 * oh, 2 * ow)


@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 1, 5, 7), (3, 2, 2, 2),
                                   (2, 2, 7, 6)])
@pytest.mark.parametrize("values", ["normal", "ties", "nan", "signed_zero"])
def test_pool_matches_argmax_oracle(rng, shape, values):
    x = rng.standard_normal(shape)
    if values == "ties":
        x = rng.integers(-1, 2, shape).astype(np.float64)
    elif values == "nan":
        x[rng.random(shape) < 0.3] = np.nan
        x[rng.random(shape) < 0.2] = np.inf
    elif values == "signed_zero":
        x = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    y, idx = kernels.maxpool2_forward(x)
    y_ref, idx_ref, routed = _pool_oracle(x)
    assert y.tobytes() == y_ref.tobytes()  # also tells -0.0 from 0.0
    np.testing.assert_array_equal(idx, idx_ref)
    assert idx.dtype == np.uint8
    gy = rng.standard_normal(y.shape)
    up = gy.repeat(2, axis=2).repeat(2, axis=3)
    expected = np.zeros(shape)  # dropped odd rows/columns get no gradient
    expected[:, :, : up.shape[2], : up.shape[3]] = np.where(routed, up, 0.0)
    np.testing.assert_array_equal(kernels.maxpool2_backward(gy, idx, shape),
                                  expected)


def test_pool_ties_pick_first_in_scan_order():
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 1, 1] = x[0, 0, 0, 0] = 1.0  # tie inside the first window
    x[0, 0, 1, 2] = x[0, 0, 0, 3] = 1.0  # top-right beats bottom-left
    _, idx = kernels.maxpool2_forward(x)
    assert idx[0, 0, 0, 0] == 0 and idx[0, 0, 0, 1] == 1


def test_empty_batch_round_trips():
    x = np.zeros((0, 2, 6, 6))
    w = np.zeros((3, 2, 3, 3))
    y = kernels.conv2d_forward(x, w, np.zeros(3))
    assert y.shape == (0, 3, 4, 4)
    assert kernels.conv2d_input_grad(y, w, x.shape).shape == x.shape
    gw, gb = kernels.conv2d_param_grad(x, y, w.shape)
    assert gw.shape == w.shape and gb.shape == (3,)
    assert not gw.any() and not gb.any()
    p, idx = kernels.maxpool2_forward(x)
    assert p.shape == idx.shape == (0, 2, 3, 3)
    assert kernels.maxpool2_backward(p, idx, x.shape).shape == x.shape


def _specials(rng, shape):
    # NaN, +-inf, +-0.0 and ties among normal values
    x = rng.standard_normal(shape)
    x[rng.random(shape) < 0.3] = 0.0
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0])
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(special, pick.sum())
    return x


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("b", [0, 1, 37])
@pytest.mark.parametrize("ci,h,co,padding", [(1, 16, 16, 0), (16, 7, 32, 0),
                                             (2, 5, 3, 1)])
def test_a_kept_patch_matrix_gives_the_same_bits(rng, b, ci, h, co, padding):
    # the forward builds the patch matrix in ``cols``, the weight gradient
    # reads it, and the input gradient then writes its columns over it
    x = _specials(rng, (b, ci, h, h))
    w, bias = rng.standard_normal((co, ci, 3, 3)), rng.standard_normal(co)
    gy = _specials(rng, (b, co, h + 2 * padding - 2, h + 2 * padding - 2))
    cols = np.full(kernels.patch_shape(x.shape, 3, 3, padding), np.nan)
    y = kernels.conv2d_forward(x, w, bias, padding, cols=cols)
    assert y.tobytes() == kernels.conv2d_forward(x, w, bias, padding).tobytes()
    assert cols.tobytes() == kernels._patches(x, 3, 3, padding)[0].tobytes()
    for got, want in zip(
            kernels.conv2d_param_grad(x * np.nan, gy, w.shape, padding,
                                      cols=cols),
            kernels.conv2d_param_grad(x, gy, w.shape, padding)):
        assert got.tobytes() == want.tobytes()
    gx = kernels.conv2d_input_grad(gy, w, x.shape, padding, cols=cols)
    assert gx.tobytes() == kernels.conv2d_input_grad(
        gy, w, x.shape, padding).tobytes()


@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 1, 5, 7), (3, 2, 2, 2),
                                   (2, 2, 7, 6)])
def test_pool_after_relu_folds_the_relu_mask_into_its_codes(rng, shape):
    from boundarylab.layers import ReLU

    relu = ReLU()
    r, ctx = relu.forward(_specials(rng, shape))
    y, idx = kernels.maxpool2_forward(r)
    gy = _specials(rng, y.shape)
    want = relu.backward(ctx, kernels.maxpool2_backward(gy, idx, shape))
    folded, codes = kernels.maxpool2_forward(r, after_relu=True)
    assert folded.tobytes() == y.tobytes()
    # a window whose max is not positive is coded 4 or more: it routes
    # nothing, as the ReLU's mask at its routed element is 0
    np.testing.assert_array_equal(codes, np.where(y > 0, idx, idx + 4))
    assert codes.dtype == np.uint8
    assert kernels.maxpool2_backward(gy, codes, shape).tobytes() == \
        want.tobytes()
