"""Conv and pool kernels in numpy, on channel-major activations.

Layout contract: every 4-D array these kernels return is a batch-first
``(B, C, H, W)`` view of a C-contiguous ``(C, B, H, W)`` buffer, so
``a.transpose(1, 0, 2, 3)`` is C-contiguous.  Inputs may have any layout
and float dtype; a channel-major float64 input is read without a copy.
At C=1 the two layouts are the same bytes, so the head's input and its
input gradient are C-contiguous batch-first as well.  ``layers.Flatten``
and ``model.Classifier.head_backward`` convert at the edges of the
channel-major region.

A convolution is one BLAS product ``W(O, C·kh·kw) @ P(C·kh·kw, B·OH·OW)``;
the patch matrix ``P`` is kh·kw shifted-slice copies of the channel-major
input, and the product reshaped to ``(O, B, OH, OW)`` is the output
buffer.  The input gradient spreads the upstream through the kernel
with ``Wᵀ @ gy`` and adds each tap's block into a ``(C, B, H, W)``
buffer; the weight gradient is ``gy @ Pᵀ`` on the same ``P``.  2x2
pooling is pair comparisons along the buffer's rows.  ``bench/run.py
--trace 1`` times each kernel at the shapes the presets run.
"""

import numpy as np


def _cm(a):
    # the (C, B, H, W) view of a batch-first array
    return a.transpose(1, 0, 2, 3)


def _cm64(a):
    # a's values as a C-contiguous float64 (C, B, H, W) buffer; no copy
    # when a already is a channel-major float64 array
    return np.ascontiguousarray(_cm(a), dtype=np.float64)


def channel_major(a):
    """``a`` (B, C, H, W) in the kernels' layout: a batch-first view of a
    C-contiguous float64 (C, B, H, W) buffer, copied only if needed."""
    return _cm(_cm64(a))


def _patches(x, kh, kw, padding):
    # (C·kh·kw, B·OH·OW) patch matrix: row (c, i, j) holds tap (i, j) of
    # channel c at every output position, one shifted-slice copy per tap
    xc = _cm(x)
    if padding:
        xc = np.pad(xc, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    c, b, h, w = xc.shape
    oh, ow = h - kh + 1, w - kw + 1
    p = np.empty((c, kh, kw, b, oh, ow))
    for i in range(kh):
        for j in range(kw):
            p[:, i, j] = xc[:, :, i : i + oh, j : j + ow]
    return p.reshape(c * kh * kw, b * oh * ow), oh, ow


def conv2d_forward(x, w, bias, padding=0):
    """Valid cross-correlation of (B,C,H,W) with (O,C,kh,kw) plus bias."""
    co, ci, kh, kw = w.shape
    p, oh, ow = _patches(x, kh, kw, padding)
    y = np.asarray(w, dtype=np.float64).reshape(co, ci * kh * kw) @ p
    y += np.asarray(bias, dtype=np.float64)[:, None]  # in place: no second buffer
    return _cm(y.reshape(co, x.shape[0], oh, ow))


def conv2d_input_grad(gy, w, x_shape, padding=0):
    """Gradient w.r.t. the conv input, shape x_shape = (B,C,H,W)."""
    b, co, oh, ow = gy.shape
    _, ci, kh, kw = w.shape
    h, wdt = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    # (C*kh*kw, B*OH*OW) spread of the upstream through the kernel, so
    # each tap below adds one (C, B, OH, OW) block
    wm = np.asarray(w, dtype=np.float64).reshape(co, ci * kh * kw)
    gcols = (wm.T @ _cm64(gy).reshape(co, -1)).reshape(ci, kh, kw, b, oh, ow)
    gx = np.zeros((ci, b, h, wdt))
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + oh, j : j + ow] += gcols[:, i, j]
    if padding:
        gx = np.ascontiguousarray(gx[:, :, padding:-padding, padding:-padding])
    return _cm(gx)


def conv2d_param_grad(x, gy, w_shape, padding=0):
    """Gradients w.r.t. conv weight (O,C,kh,kw) and bias (O,)."""
    co, ci, kh, kw = w_shape
    p, _, _ = _patches(x, kh, kw, padding)
    gyc = _cm64(gy).reshape(co, -1)
    return (gyc @ p.T).reshape(co, ci, kh, kw), gyc.sum(axis=1)


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
    pairs = _cm64(x[:, :, : 2 * oh, : 2 * ow]).reshape(-1, 2)
    # Winners are taken with np.maximum(second, first), not a select on the
    # pick mask, which mispredicts a branch per element.  It returns
    # ``first`` on a tie (+-0.0 included) and a NaN over any number, the
    # argmax rule; only the payload kept when both are NaN may differ.
    right = _pick_second(pairs[:, 0], pairs[:, 1])
    # horizontal winners, then the vertical pair of (top, bottom) winners
    hmax = np.maximum(pairs[:, 1], pairs[:, 0]).reshape(c * b * oh, 2, ow)
    right = right.reshape(c * b * oh, 2, ow)
    down = _pick_second(hmax[:, 0], hmax[:, 1])
    y = np.maximum(hmax[:, 1], hmax[:, 0]).reshape(c, b, oh, ow)
    idx = down.view(np.uint8) << 1 | (down & right[:, 1]) | (~down & right[:, 0])
    return _cm(y), _cm(idx.reshape(c, b, oh, ow))


def maxpool2_backward(gy, idx, x_shape):
    """Scatter upstream values back to the argmax positions of an input of
    shape x_shape; the odd trailing rows/columns get zero."""
    b, c, oh, ow = gy.shape
    h, w = x_shape[2], x_shape[3]
    # flat offset of each window's argmax: the code's offset in its window,
    # plus the window's top-left corner, added in place
    flat = np.take(np.array([0, 1, w, w + 1], dtype=np.intp), _cm(idx))
    flat = flat.reshape(c * b, oh, ow)
    flat += np.arange(0, c * b * h * w, h * w)[:, None, None]
    flat += np.arange(0, oh * 2 * w, 2 * w)[:, None] + np.arange(0, 2 * ow, 2)
    gx = np.zeros((c, b, h, w))
    gx.ravel()[flat] = _cm(gy).reshape(c * b, oh, ow)
    return _cm(gx)
