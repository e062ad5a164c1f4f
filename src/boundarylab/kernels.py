"""Conv and pool kernels in numpy, on batch-innermost activations.

Layout contract: every 4-D array these kernels return is a batch-first
``(B, C, H, W)`` view of a C-contiguous ``(C, H, W, B)`` buffer, so
``a.transpose(1, 2, 3, 0)`` is C-contiguous.  Inputs may have any layout
and float dtype; a batch-innermost float64 input is read without a copy.
The layout has two edges.  ``layers.Conv2d`` converts its input once
with :func:`batch_inner`, and in train mode keeps the converted array
so the weight gradient reads it; the input gradient needs only its
shape.  ``layers.Flatten`` is a pure reshape both ways, so the
rows it hands on are a strided view of the buffer and the gradient it
hands back is C-order batch-first.  ``model.Classifier.head_backward``
returns a C-contiguous batch-first input gradient.

A convolution is one BLAS product ``W(O, C·kh·kw) @ P(C·kh·kw, OH·OW·B)``;
the patch matrix ``P`` is kh·kw shifted-slice copies of the input, each
with an inner run of OW·B doubles, and the product reshaped to
``(O, OH, OW, B)`` is the output buffer.  The input gradient spreads the
upstream through the kernel with ``Wᵀ @ gy`` and adds each tap's block
into a ``(C, H, W, B)`` buffer over OW·B-long rows; the weight gradient
is ``gy @ Pᵀ`` on the same ``P``.  2x2 pooling compares whole B-long
rows of the buffer.  ``bench/run.py --trace 1`` times each kernel at the
shapes the presets run.
"""

import numpy as np


def _bi(a):
    # the (C, H, W, B) view of a batch-first array
    return a.transpose(1, 2, 3, 0)


def _bf(buf):
    # the batch-first (B, C, H, W) view of a (C, H, W, B) buffer
    return buf.transpose(3, 0, 1, 2)


def _bi64(a):
    # a's values as a C-contiguous float64 (C, H, W, B) buffer; no copy
    # when a already is a batch-innermost float64 array
    return np.ascontiguousarray(_bi(a), dtype=np.float64)


def batch_inner(a):
    """``a`` (B, C, H, W) in the kernels' layout: a batch-first view of a
    C-contiguous float64 (C, H, W, B) buffer, copied only if needed."""
    return _bf(_bi64(a))


def _patches(x, kh, kw, padding):
    # (C·kh·kw, OH·OW·B) patch matrix: row (c, i, j) holds tap (i, j) of
    # channel c at every output position, one shifted-slice copy per tap
    xb = _bi64(x)
    if padding:
        xb = np.pad(xb, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    c, h, w, b = xb.shape
    oh, ow = h - kh + 1, w - kw + 1
    p = np.empty((c, kh, kw, oh, ow, b))
    for i in range(kh):
        for j in range(kw):
            p[:, i, j] = xb[:, i : i + oh, j : j + ow]
    return p.reshape(c * kh * kw, oh * ow * b), oh, ow


def conv2d_forward(x, w, bias, padding=0):
    """Valid cross-correlation of (B,C,H,W) with (O,C,kh,kw) plus bias."""
    co, ci, kh, kw = w.shape
    p, oh, ow = _patches(x, kh, kw, padding)
    y = np.asarray(w, dtype=np.float64).reshape(co, ci * kh * kw) @ p
    y += np.asarray(bias, dtype=np.float64)[:, None]  # in place: no second buffer
    return _bf(y.reshape(co, oh, ow, x.shape[0]))


def conv2d_input_grad(gy, w, x_shape, padding=0):
    """Gradient w.r.t. the conv input, shape x_shape = (B,C,H,W)."""
    b, co, oh, ow = gy.shape
    _, ci, kh, kw = w.shape
    h, wdt = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    # (C*kh*kw, OH*OW*B) spread of the upstream through the kernel, so
    # each tap below adds one (C, OH, OW, B) block
    wm = np.asarray(w, dtype=np.float64).reshape(co, ci * kh * kw)
    gcols = (wm.T @ _bi64(gy).reshape(co, -1)).reshape(ci, kh, kw, oh, ow, b)
    gx = np.zeros((ci, h, wdt, b))
    for i in range(kh):
        for j in range(kw):
            gx[:, i : i + oh, j : j + ow] += gcols[:, i, j]
    if padding:
        gx = np.ascontiguousarray(gx[:, padding:-padding, padding:-padding])
    return _bf(gx)


def conv2d_param_grad(x, gy, w_shape, padding=0):
    """Gradients w.r.t. conv weight (O,C,kh,kw) and bias (O,)."""
    co, ci, kh, kw = w_shape
    p, _, _ = _patches(x, kh, kw, padding)
    gyb = _bi64(gy).reshape(co, -1)
    return (gyb @ p.T).reshape(co, ci, kh, kw), gyb.sum(axis=1)


def _pick_second(a, b):
    # a pair keeps its first element unless the second is larger, or is
    # NaN while the first is not: argmax's first-maximum rule on pairs
    return ~((a >= b) | (a != a))


def _windows(buf, oh, ow):
    # (C, OH, 2, OW, 2, B) view of the pooled part of a (C, H, W, B)
    # buffer: [:, :, r, :, s] is window element (r, s), a B-long row
    c, _, _, b = buf.shape
    return buf[:, : 2 * oh, : 2 * ow].reshape(c, oh, 2, ow, 2, b)


def maxpool2_forward(x):
    """2x2/stride-2 max pool; returns (pooled, window argmax codes 0..3).

    Odd trailing rows/columns are dropped. Codes number the window in
    row-major order; ties pick the first maximum and a NaN beats any
    number, as ``argmax`` over the flattened window would.
    """
    oh, ow = x.shape[2] // 2, x.shape[3] // 2
    win = _windows(_bi64(x), oh, ow)
    # Winners are taken with np.maximum(second, first), not a select on the
    # pick mask, which mispredicts a branch per element.  It returns
    # ``first`` on a tie (+-0.0 included) and a NaN over any number, the
    # argmax rule; only the payload kept when both are NaN may differ.
    # Horizontal winners of the top and bottom rows, then the vertical
    # pair of (top, bottom) winners.
    top, bottom = win[:, :, 0], win[:, :, 1]
    right_top = _pick_second(top[:, :, :, 0], top[:, :, :, 1])
    right_bottom = _pick_second(bottom[:, :, :, 0], bottom[:, :, :, 1])
    htop = np.maximum(top[:, :, :, 1], top[:, :, :, 0])
    hbottom = np.maximum(bottom[:, :, :, 1], bottom[:, :, :, 0])
    down = _pick_second(htop, hbottom)
    y = np.maximum(hbottom, htop)
    idx = down.view(np.uint8) << 1 | (down & right_bottom) | (~down & right_top)
    return _bf(y), _bf(idx)


# window element (r, s)'s code, broadcast against a _windows view
_CODES = np.arange(4, dtype=np.uint8).reshape(1, 1, 2, 1, 2, 1)


def maxpool2_backward(gy, idx, x_shape):
    """Route upstream values back to the argmax positions of an input of
    shape x_shape; the odd trailing rows/columns get zero."""
    b, c, h, w = x_shape
    oh, ow = gy.shape[2], gy.shape[3]
    # One pass writes the buffer in order: each window element gets the
    # upstream where the code names it and +0.0 elsewhere, the upstream's
    # bits, read as uint64 words, times the 0/1 mask.  With even H and W
    # that covers the whole buffer, so only odd ones start from zeros.
    gx = np.empty((c, h, w, b)) if h % 2 == 0 and w % 2 == 0 else \
        np.zeros((c, h, w, b))
    bits = _bi64(gy).view(np.uint64)[:, :, None, :, None]
    codes = _bi(idx)[:, :, None, :, None]
    np.multiply(bits, codes == _CODES, out=_windows(gx.view(np.uint64), oh, ow))
    return _bf(gx)
