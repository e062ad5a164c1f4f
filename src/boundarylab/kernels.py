"""Conv and pool kernels in numpy.

Convolutions go through im2col + BLAS matmul; 2x2 pooling through pair
comparisons.  The public functions take any float array, handle padding
and return C-contiguous float64.  ``bench/run.py --trace 1`` times each
kernel at the shapes the presets run.
"""

import numpy as np


def _c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def _pad(x, padding):
    x = _c64(x)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return x


def _im2col(x, kh, kw):
    # (B, C, H, W) -> (B*OH*OW, C*kh*kw) patch matrix
    b, c, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    sb, sc, sh, sw = x.strides
    cols = np.lib.stride_tricks.as_strided(
        x,
        shape=(b, oh, ow, c, kh, kw),
        strides=(sb, sh, sw, sc, sh, sw),
        writeable=False,
    )
    return cols.reshape(b * oh * ow, c * kh * kw), oh, ow


def conv2d_forward(x, w, bias, padding=0):
    """Valid cross-correlation of (B,C,H,W) with (O,C,kh,kw) plus bias."""
    x = _pad(x, padding)
    b = x.shape[0]
    co, ci, kh, kw = w.shape
    cols, oh, ow = _im2col(x, kh, kw)
    y = cols @ _c64(w).reshape(co, ci * kh * kw).T
    y += _c64(bias)  # in place: a second output-sized array page-faults fresh
    return np.ascontiguousarray(y.reshape(b, oh, ow, co).transpose(0, 3, 1, 2))


def conv2d_input_grad(gy, w, x_shape, padding=0):
    """Gradient w.r.t. the conv input, shape x_shape = (B,C,H,W)."""
    b, co, oh, ow = gy.shape
    _, ci, kh, kw = w.shape
    h, wdt = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    # channel-major: (C*kh*kw, B*OH*OW) spread of the upstream through the
    # kernel, so each tap below adds one contiguous (C, B, OH, OW) block
    gyc = _c64(gy).transpose(1, 0, 2, 3).reshape(co, -1)
    gcols = (_c64(w).reshape(co, ci * kh * kw).T @ gyc).reshape(ci, kh, kw, b, oh, ow)
    gx = np.zeros((ci, b, h, wdt), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + oh, j : j + ow] += gcols[:, i, j]
    gx = gx.transpose(1, 0, 2, 3)
    if padding:
        gx = gx[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(gx)


def conv2d_param_grad(x, gy, w_shape, padding=0):
    """Gradients w.r.t. conv weight (O,C,kh,kw) and bias (O,)."""
    x = _pad(x, padding)
    co, ci, kh, kw = w_shape
    cols, _, _ = _im2col(x, kh, kw)
    gyf = _c64(gy).transpose(0, 2, 3, 1).reshape(-1, co)
    gw = (gyf.T @ cols).reshape(co, ci, kh, kw)
    gb = gyf.sum(axis=0)
    return gw, gb


def _pick_second(a, b):
    # a pair keeps its first element unless the second is larger, or is
    # NaN while the first is not: argmax's first-maximum rule on pairs
    return ~((a >= b) | (a != a))


def maxpool2_forward(x):
    """2x2/stride-2 max pool; returns (pooled, window argmax codes 0..3).

    Odd trailing rows/columns are dropped. Codes number the window in
    row-major order; ties pick the first maximum and a NaN beats any
    number, as ``argmax`` over the flattened window would.
    """
    b, c, h, w = x.shape
    oh, ow = h // 2, w // 2
    pairs = _c64(x[:, :, : 2 * oh, : 2 * ow]).reshape(-1, 2)
    # Winners are taken with np.maximum(second, first), not a select on the
    # pick mask, which mispredicts a branch per element.  It returns
    # ``first`` on a tie (+-0.0 included) and a NaN over any number, the
    # argmax rule; only the payload kept when both are NaN may differ.
    right = _pick_second(pairs[:, 0], pairs[:, 1])
    # horizontal winners, then the vertical pair of (top, bottom) winners
    hmax = np.maximum(pairs[:, 1], pairs[:, 0]).reshape(b * c * oh, 2, ow)
    right = right.reshape(b * c * oh, 2, ow)
    down = _pick_second(hmax[:, 0], hmax[:, 1])
    y = np.maximum(hmax[:, 1], hmax[:, 0]).reshape(b, c, oh, ow)
    idx = down.view(np.uint8) << 1 | (down & right[:, 1]) | (~down & right[:, 0])
    return y, idx.reshape(b, c, oh, ow)


def maxpool2_backward(gy, idx, x_shape):
    """Scatter upstream values back to the argmax positions of an input of
    shape x_shape; the odd trailing rows/columns get zero."""
    b, c, oh, ow = gy.shape
    h, w = x_shape[2], x_shape[3]
    # flat offset of each window's top-left corner, plus the code's row/col
    corner = (np.arange(b * c)[:, None, None] * (h * w)
              + np.arange(oh)[:, None] * (2 * w)
              + 2 * np.arange(ow)).reshape(gy.shape)
    code = idx.astype(np.intp)
    gx = np.zeros((b, c, h, w), dtype=np.float64)
    gx.ravel()[corner + (code >> 1) * w + (code & 1)] = gy
    return gx
