"""Layer primitives with explicit forward/backward passes.

Every layer computes in float64 and keeps its parameters as plain numpy
arrays.  Each method has one job.  ``out_shape(shape)``, the layer's one
shape rule, maps an input example's shape to its output's, or raises
:class:`ShapeMismatchError` naming the layer: ``model.Classifier`` walks
it over its layers once, when built, and ``forward(x)`` asks it about
``x.shape[1:]``.  ``forward`` returns the output and an opaque context
tuple, ``backward(ctx, gy)`` the input gradient, and ``param_grads(ctx,
gy)`` the parameter gradients, keyed and shaped as ``params()``.
:class:`Layer` supplies the defaults of a layer that keeps its input's
shape and has no parameters or buffers.  No autograd tape: the model
walks the layer list explicitly.

A layer method never writes the arrays it is given, unless it is passed
``overwrite=True``.  Only :class:`ReLU` and :class:`BatchNorm` take that
keyword, on ``forward`` and ``backward``, and only the model's own layer
loops pass it, for an array the model owns (``model._owning``).  The
result, bit for bit the one a fresh array gets, is then written over
that array (BatchNorm: over its channel rows, which are the array
itself when it is batch-innermost).  The model's forward loops pass two
more keywords: ``pooled`` to a ReLU directly before a
:class:`MaxPool2x2` and ``after_relu`` to that pool (``model._pooling``),
and ``keep_patches=False`` to a Conv2d that is training's first layer
with parameters.  Training passes ``empty`` to the train-mode ``forward``
of :class:`Conv2d`, :class:`BatchNorm`, :class:`MaxPool2x2` and
:class:`Dense`: a function with ``np.empty``'s ``(shape, dtype)`` that
the layer, and the train context's later passes, ask for each large
array they write (outputs, patch matrices, x̂, window codes, input
gradients), so that a fit reuses them from step to step
(``model._Workspace``).  The default, ``np.empty``, gives fresh arrays;
either way the bits are the same.

Only training runs a layer in train mode: the model's head passes, and
so every attack, prediction and export, run in eval mode.  A context
keeps only what its layer's later passes read, never its output.  In
train mode that includes what ``param_grads`` reads: the input of
:class:`Dense`, the input and patch matrix of :class:`Conv2d`, and
BatchNorm's x̂.
Between ``param_grads`` and ``backward`` a train context shares work:
BatchNorm's Σgy and Σgy·x̂, kept with the upstream array they were taken
from (which the caller must not write between the two calls), and
Conv2d's patch matrix, which a backward after ``param_grads`` writes
its columns over.  Either call, in any order and with any upstream,
gives the bits a fresh context gives.  An eval-mode context keeps no
input, only what the backward reads (ReLU's mask, unless ``pooled``,
pooling's window codes, BatchNorm's scale, Conv2d's input shape,
nothing for Dense, and the ``empty`` of a layer that takes one), and
``param_grads`` refuses it.  So an attack's
head pass holds no layer input past the forward that reads it.
"""

from __future__ import annotations

import math

import numpy as np

from .data import _check_args
from .kernels import (
    batch_inner,
    conv2d_forward,
    conv2d_input_grad,
    conv2d_param_grad,
    maxpool2_backward,
    maxpool2_forward,
    patch_shape,
    patches,
)


class ShapeMismatchError(ValueError):
    """Input shape does not match what the layer was built for."""


def as_tensor(x):
    """Coerce to a float64 numpy array."""
    return np.asarray(x, dtype=np.float64)


def _check_examples(name, shape, ranks, width=None):
    # shape, if of one of ``ranks`` and ``width`` features or channels
    if len(shape) not in ranks:
        raise ShapeMismatchError(
            f"{name}: expected rank-{' or rank-'.join(map(str, ranks))} "
            f"examples, got shape {shape}")
    if width is not None and shape[0] != width:
        what = "channels" if len(shape) == 3 else "features"
        raise ShapeMismatchError(
            f"{name}: expected {width} {what}, got {shape[0]}")
    return shape


def _check_train_ctx(name, kept):
    # training is the only caller of param_grads; an eval context keeps
    # None where a train one keeps what the parameter gradients read
    if kept is None:
        raise ValueError(
            f"{name}: param_grads takes a train-mode context, got an "
            "eval-mode one")


class Layer:
    """Protocol defaults: the input's shape kept; no parameters, no
    buffers, no parameter gradients."""

    def out_shape(self, shape):
        return shape

    def config(self):
        return {"kind": self.kind}

    def params(self):
        return {}

    def buffers(self):
        return {}

    def param_grads(self, ctx, gy):
        return {}


# each layer's constructor rules, as attacks._FIELD_RULES: a checkpoint's
# layer config is refused by them, not truncated
_DENSE_RULES = {"in_features": (int, ">=", 1), "out_features": (int, ">=", 1)}


class Dense(Layer):
    """Affine map y = x @ W^T + b.

    ``weight`` has shape (out_features, in_features) so that row k is the
    weight vector of output unit k.
    """

    kind = "dense"

    def __init__(self, in_features, out_features, *, rng=None):
        self.in_features, self.out_features = _check_args(
            _DENSE_RULES, in_features=in_features, out_features=out_features)
        if rng is None:
            self.weight = np.zeros((self.out_features, self.in_features))
        else:
            # He-style scaling; fine for the small nets used here.
            scale = np.sqrt(2.0 / self.in_features)
            self.weight = rng.normal(0.0, scale, (self.out_features, self.in_features))
        self.bias = np.zeros(self.out_features)

    def config(self):
        return {"kind": self.kind, "in_features": self.in_features,
                "out_features": self.out_features}

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def out_shape(self, shape):
        _check_examples("dense", shape, (1,), self.in_features)
        return (self.out_features,)

    def forward(self, x, train=False, *, empty=np.empty):
        (n,) = self.out_shape(x.shape[1:])
        y = np.matmul(x, self.weight.T, out=empty((len(x), n)))
        y += self.bias  # in place: no second buffer
        # the backward reads only the weight; the input is kept for
        # param_grads, which only training calls
        return y, (x if train else None, empty)

    def backward(self, ctx, gy):
        _, empty = ctx
        return np.matmul(gy, self.weight,
                         out=empty((gy.shape[0], self.in_features)))

    def param_grads(self, ctx, gy):
        x, _ = ctx
        _check_train_ctx("dense", x)
        return {"weight": gy.T @ x, "bias": gy.sum(axis=0)}


_CONV2D_RULES = {"in_channels": (int, ">=", 1), "out_channels": (int, ">=", 1),
                 "kernel_size": (int, ">=", 1), "padding": (int, ">=", 0)}


class Conv2d(Layer):
    """2D cross-correlation, stride 1, optional symmetric zero padding."""

    kind = "conv2d"

    def __init__(self, in_channels, out_channels, kernel_size, *, padding=0, rng=None):
        (self.in_channels, self.out_channels, self.kernel_size,
         self.padding) = _check_args(
            _CONV2D_RULES, in_channels=in_channels, out_channels=out_channels,
            kernel_size=kernel_size, padding=padding)
        shape = (self.out_channels, self.in_channels,
                 self.kernel_size, self.kernel_size)
        if rng is None:
            self.weight = np.zeros(shape)
        else:
            fan_in = self.in_channels * self.kernel_size * self.kernel_size
            self.weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)
        self.bias = np.zeros(self.out_channels)

    def config(self):
        return {"kind": self.kind, "in_channels": self.in_channels,
                "out_channels": self.out_channels,
                "kernel_size": self.kernel_size, "padding": self.padding}

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def out_shape(self, shape):
        _, h, w = _check_examples("conv2d", shape, (3,), self.in_channels)
        cut = self.kernel_size - 1 - 2 * self.padding
        if min(h, w) <= cut:
            raise ShapeMismatchError(
                f"conv2d: input {h}x{w} smaller than kernel")
        return (self.out_channels, h - cut, w - cut)

    def forward(self, x, train=False, *, keep_patches=True, empty=np.empty):
        self.out_shape(x.shape[1:])
        # converted once: the forward reads it as is, and in train mode so
        # does param_grads when no patch matrix is kept; the backward
        # reads only its shape
        x = batch_inner(x, empty=empty)
        # The patch matrix is built once.  In train mode, unless told
        # ``keep_patches=False``, the context keeps it as [buffer, read]:
        # param_grads reads it and sets ``read``, and a backward after that
        # writes its columns over it and drops it.  A param_grads after
        # that, or on a context that keeps none, builds it from x again.
        k, p = self.kernel_size, self.padding
        cols = empty(patch_shape(x.shape, k, k, p))
        y = conv2d_forward(x, self.weight, self.bias, padding=p, cols=cols,
                           out=empty((self.out_channels, cols.shape[1])))
        kept = cols if train and keep_patches else None
        return y, (x if train else None, x.shape, [kept, False], empty)

    def backward(self, ctx, gy):
        _, (b, c, h, w), kept, empty = ctx
        spare = None
        if kept[1]:
            spare, kept[:] = kept[0], [None, False]
        p = self.padding
        return conv2d_input_grad(gy, self.weight, (b, c, h, w), padding=p,
                                 cols=spare,
                                 out=empty((c, h + 2 * p, w + 2 * p, b)))

    def param_grads(self, ctx, gy):
        x, _, kept, empty = ctx
        _check_train_ctx("conv2d", x)
        k, p = self.kernel_size, self.padding
        cols = kept[0]
        if cols is None:
            cols = patches(x, k, k, p,
                           out=empty(patch_shape(x.shape, k, k, p)))
        gw, gb = conv2d_param_grad(x, gy, self.weight.shape, padding=p,
                                   cols=cols)
        kept[1] = kept[0] is not None
        return {"weight": gw, "bias": gb}


class ReLU(Layer):
    kind = "relu"

    # Both passes keep a value where x > 0 and write +0.0 elsewhere, bit for
    # bit, with no per-element branch on the data (a select on the mask
    # mispredicts on activations): fmax drops NaN and -inf, ``+= 0.0`` turns
    # the -0.0 fmax may keep into +0.0, and the backward multiplies the
    # upstream's bits, as uint64 words, by the 0/1 mask.  With
    # ``overwrite`` both write their result over the array they are given.
    # With ``pooled`` the next layer is a MaxPool2x2 told ``after_relu``,
    # whose window codes route nothing where this mask is 0: the forward
    # keeps no mask, and the backward hands the upstream on as it is.
    def forward(self, x, train=False, *, overwrite=False, pooled=False):
        mask = None if pooled else x > 0
        y = np.fmax(x, 0.0, out=x if overwrite else None)
        y += 0.0
        return y, (mask,)

    def backward(self, ctx, gy, *, overwrite=False):
        (mask,) = ctx
        if mask is None:
            return gy
        bits = as_tensor(gy).view(np.uint64)
        gx = np.multiply(bits, mask, out=bits if overwrite else None)
        return gx.view(np.float64)


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2.  Odd trailing rows/columns are dropped.

    Ties go to the first maximum in row-major window order, and the
    backward pass routes the gradient to that single element.
    """

    kind = "maxpool2x2"

    # ``after_relu``: x is the output of a ReLU told ``pooled``, whose mask
    # the window codes take over (kernels.maxpool2_forward)
    def out_shape(self, shape):
        c, h, w = _check_examples("maxpool2x2", shape, (3,))
        if h < 2 or w < 2:
            raise ShapeMismatchError(
                f"maxpool2x2: input {h}x{w} smaller than window")
        return (c, h // 2, w // 2)

    def forward(self, x, train=False, *, after_relu=False, empty=np.empty):
        shape = (*self.out_shape(x.shape[1:]), len(x))
        y, idx = maxpool2_forward(x, after_relu=after_relu, out=empty(shape),
                                  codes=empty(shape, np.uint8))
        return y, (idx, x.shape, empty)

    def backward(self, ctx, gy):
        idx, (b, c, h, w), empty = ctx
        return maxpool2_backward(gy, idx, (b, c, h, w),
                                 out=empty((c, h, w, b)))


# Doubles per block of BatchNorm channel rows: 256 KB, a share of the
# 2 MB per-core L2 of the benchmark's host, so each train-mode pass over
# a block reads it from cache, not memory.
_BLOCK = 32768


def _row_dot(a, b):
    # one 1-D dot product per row; a stacked matmul rounds each row as a
    # 1-D ``a[i] @ b[i]`` does, independent of the other rows
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


_BATCHNORM_RULES = {"channels": (int, ">=", 1), "eps": (float, ">", 0),
                    "momentum": (float, ">=", 0, "<=", 1)}


class BatchNorm(Layer):
    """Per-channel batch normalization on channel rows.

    The layer works on its input's channel rows, a C-contiguous (C, N)
    float64 array.  A rank-4 (B, C, H, W) input has rows (C, H·W·B): a
    free view of the kernels' batch-innermost buffer, copied once from
    any other layout.  A rank-2 (B, C) input has rows (C, B), a copy.
    The rows are processed in blocks of whole channels of about
    ``_BLOCK`` doubles, so every train-mode pass over a block runs while
    the block sits in cache.  Each channel's result, in both modes, is
    the one the 1-D expressions give on its row alone, bit for bit,
    whatever its block.  Rank-4 outputs and input gradients are
    batch-innermost; rank-2 ones are C-order batch-first.  With
    ``overwrite=True`` a pass writes its result over the channel rows it
    works on: the input's own buffer when that is batch-innermost, the
    rows' copy otherwise, so a rank-2 result is a fresh C-order array
    either way.

    ``train=True`` normalizes by batch statistics and updates the running
    buffers with momentum 0.1; ``train=False`` uses the frozen running
    statistics, which keeps inference (and every attack gradient) a fixed
    affine map per channel, y = x·scale + shift.
    """

    kind = "batchnorm"

    def __init__(self, channels, *, eps=1e-5, momentum=0.1):
        self.channels, self.eps, self.momentum = _check_args(
            _BATCHNORM_RULES, channels=channels, eps=eps, momentum=momentum)
        self.gamma = np.ones(self.channels)
        self.beta = np.zeros(self.channels)
        self.running_mean = np.zeros(self.channels)
        self.running_var = np.ones(self.channels)

    def config(self):
        return {"kind": self.kind, "channels": self.channels,
                "eps": self.eps, "momentum": self.momentum}

    def params(self):
        return {"gamma": self.gamma, "beta": self.beta}

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def out_shape(self, shape):
        return _check_examples("batchnorm", shape, (1, 3), self.channels)

    def _rows(self, x):
        # x's (C, N) C-contiguous float64 channel rows
        if x.ndim == 4:
            return batch_inner(x).transpose(1, 2, 3, 0).reshape(self.channels, -1)
        return np.ascontiguousarray(x.T, dtype=np.float64)

    def _blocks(self, n):
        # whole channels of n doubles each, about _BLOCK doubles per block
        c = self.channels
        step = max(1, _BLOCK // max(n, 1))
        return [slice(lo, min(lo + step, c)) for lo in range(0, c, step)]

    def forward(self, x, train=False, *, overwrite=False, empty=np.empty):
        self.out_shape(x.shape[1:])
        rows = self._rows(x)
        n = rows.shape[1]
        if not train:
            # one affine map per channel; two passes need no blocks
            scale = self.gamma / np.sqrt(self.running_var + self.eps)
            shift = self.beta - self.running_mean * scale
            y = np.multiply(rows, scale[:, None],
                            out=rows if overwrite else None)
            y += shift[:, None]
            return _from_rows(y, x.shape), (None, scale, x.shape, None,
                                            None)
        # xhat, kept until the backward, is allocated before y, which the
        # next layer frees; y first raised train-cnn's peak RSS by ~2 MB
        xhat = empty(rows.shape)
        y = rows if overwrite else empty(rows.shape)
        mean, var, inv = (np.empty(self.channels) for _ in range(3))
        for s in self._blocks(n):
            # y[s] may be rows[s]: it is written once the block is read
            mean[s] = rows[s].sum(axis=1) / n
            h = np.subtract(rows[s], mean[s, None], out=xhat[s])
            var[s] = _row_dot(h, h) / n
            inv[s] = 1.0 / np.sqrt(var[s] + self.eps)
            h *= inv[s, None]
            yb = np.multiply(h, self.gamma[s, None], out=y[s])
            yb += self.beta[s, None]
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var
        return _from_rows(y, x.shape), (xhat, inv, x.shape, [], empty)

    def _sums(self, ctx, gy, g=None):
        # Σgy and Σgy·x̂ per channel of a train context, taken once per
        # upstream array: the context's list keeps [gy, Σgy, Σgy·x̂] of
        # the last upstream summed, and gy's channel rows ``g`` are taken
        # only when the sums are
        xhat, _, _, kept, _ = ctx
        if kept and kept[0] is gy:
            return kept[1], kept[2]
        g = self._rows(gy) if g is None else g
        sum_g, sum_gx = np.empty(self.channels), np.empty(self.channels)
        for s in self._blocks(g.shape[1]):
            sum_g[s] = g[s].sum(axis=1)
            sum_gx[s] = _row_dot(g[s], xhat[s])
        kept[:] = [gy, sum_g, sum_gx]
        return sum_g, sum_gx

    def backward(self, ctx, gy, *, overwrite=False):
        # train ctx: (xhat rows, 1/std of the batch, shape, the sums of
        # _sums, empty); eval: (None, scale, shape, None, None)
        xhat, per_channel, shape, kept, empty = ctx
        g = self._rows(gy)
        if xhat is None:
            gx = np.multiply(g, per_channel[:, None],
                             out=g if overwrite else None)
            return _from_rows(gx, shape)
        n = g.shape[1]
        sum_g, sum_gx = self._sums(ctx, gy, g)
        if overwrite:  # gy's values are written over below
            kept.clear()
        gx = g if overwrite else empty(g.shape)
        blocks = self._blocks(n)
        # Batch statistics depend on x, so the gradient couples the batch:
        # gx = s·(gy - Σgy/n - x̂·Σgy·x̂/n) with s = γ·inv, as three terms,
        # added as x̂·(-s·Σgy·x̂/n) + gy·s - s·Σgy/n.  gx[s] may be g[s], so
        # gy·s goes to the scratch before x̂'s term is written; swapping
        # the first two terms would change which NaN payload a sum of two
        # NaNs keeps
        scale = self.gamma * per_channel
        # one block of rows: at most _BLOCK doubles, or one row, which no
        # block of a shorter batch exceeds
        scratch = empty((max(n, min(_BLOCK, self.channels * n)),))
        for s in blocks:
            gb, xb, sc = g[s], xhat[s], scale[s]
            term = np.multiply(gb, sc[:, None],
                               out=scratch[: gb.size].reshape(gb.shape))
            out = np.multiply(xb, (-sc * sum_gx[s] / n)[:, None], out=gx[s])
            out += term
            out += (-sc * sum_g[s] / n)[:, None]
        return _from_rows(gx, shape)

    def param_grads(self, ctx, gy):
        _check_train_ctx("batchnorm", ctx[0])
        sum_g, sum_gx = self._sums(ctx, gy)
        return {"gamma": sum_gx.copy(), "beta": sum_g.copy()}


def _from_rows(rows, shape):
    # (C, N) channel rows back as a layer output of ``shape``: the
    # batch-first view of a (C, H, W, B) buffer at rank 4, a C-order
    # (B, C) copy at rank 2
    if len(shape) == 4:
        b, c, h, w = shape
        return rows.reshape(c, h, w, b).transpose(3, 0, 1, 2)
    return np.ascontiguousarray(rows.T)


class Flatten(Layer):
    """(B, ...) to (B, features) rows, and the end of the kernels'
    batch-innermost layout.  A pure reshape both ways: the rows of a
    batch-innermost input are a strided view of its buffer, and the
    gradient goes back C-order, which the kernels read as it is."""

    kind = "flatten"

    def out_shape(self, shape):
        return (math.prod(shape),)

    def forward(self, x, train=False):
        # the width from the shape: reshape cannot infer -1 at zero rows
        return x.reshape(x.shape[0], *self.out_shape(x.shape[1:])), (x.shape,)

    def backward(self, ctx, gy):
        (x_shape,) = ctx
        return gy.reshape(x_shape)


LAYER_KINDS = {
    "dense": Dense,
    "conv2d": Conv2d,
    "relu": ReLU,
    "maxpool2x2": MaxPool2x2,
    "batchnorm": BatchNorm,
    "flatten": Flatten,
}


def layer_from_config(cfg):
    """Rebuild a layer from its ``config()`` dict.

    Raises ValueError for an unknown kind, TypeError naming a missing
    or unknown constructor key, and the constructor's refusal of a value
    outside its rule table (``_DENSE_RULES``, ...), named by its key.
    """
    args = dict(cfg)
    kind = args.pop("kind", None)
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    if "rng" in args:  # a constructor argument that no config holds
        raise TypeError(f"{kind} config has an unexpected key 'rng'")
    return LAYER_KINDS[kind](**args)


def log_softmax(z):
    """Row-wise log softmax, stabilized by the row max."""
    z = np.asarray(z, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    s = z - m
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


def softmax_rows(z):
    """Row-wise softmax, stabilized by the row max."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_with_logits(z, y):
    """Mean cross entropy over the batch and its gradient w.r.t. logits.

    ``z`` is (B, K) logits, ``y`` integer labels.  Returns (loss, gz) where
    ``gz`` already includes the 1/B factor, so it feeds backward() directly.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y))
    if y.shape[0] != z.shape[0]:
        raise ShapeMismatchError(
            f"cross entropy: {z.shape[0]} logit rows vs {y.shape[0]} labels"
        )
    lsm = log_softmax(z)
    b = z.shape[0]
    loss = -lsm[np.arange(b), y].mean()
    gz = np.exp(lsm)
    gz[np.arange(b), y] -= 1.0
    gz /= b
    return loss, gz
