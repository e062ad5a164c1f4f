"""Layer primitives with explicit forward/backward passes.

Every layer computes in float64 and keeps its parameters as plain numpy
arrays.  Each method has one job: ``forward(x, train)`` returns the
output and an opaque context tuple, ``backward(ctx, gy)`` the input
gradient, and ``param_grads(ctx, gy)`` the parameter gradients, keyed and
shaped as ``params()``.  :class:`Layer` supplies the defaults of a layer
without parameters or buffers; each concrete layer defines ``forward``
and ``backward`` itself.  No autograd tape: the model walks the layer
list explicitly.
"""

from __future__ import annotations

import numpy as np

from .kernels import (
    batch_inner,
    conv2d_forward,
    conv2d_input_grad,
    conv2d_param_grad,
    maxpool2_backward,
    maxpool2_forward,
)


class ShapeMismatchError(ValueError):
    """Input shape does not match what the layer was built for."""


def as_tensor(x):
    """Coerce to a float64 numpy array."""
    return np.asarray(x, dtype=np.float64)


def _check_rank(name, x, rank):
    if x.ndim != rank:
        raise ShapeMismatchError(
            f"{name}: expected rank-{rank} input, got shape {x.shape}"
        )


class Layer:
    """Protocol defaults: no parameters, no buffers, no parameter gradients."""

    def config(self):
        return {"kind": self.kind}

    def params(self):
        return {}

    def buffers(self):
        return {}

    def param_grads(self, ctx, gy):
        return {}


class Dense(Layer):
    """Affine map y = x @ W^T + b.

    ``weight`` has shape (out_features, in_features) so that row k is the
    weight vector of output unit k.
    """

    kind = "dense"

    def __init__(self, in_features, out_features, *, rng=None):
        self.in_features = int(in_features)
        self.out_features = int(out_features)
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

    def forward(self, x, train=False):
        _check_rank("dense", x, 2)
        if x.shape[1] != self.in_features:
            raise ShapeMismatchError(
                f"dense: expected {self.in_features} features, got {x.shape[1]}"
            )
        return x @ self.weight.T + self.bias, (x,)

    def backward(self, ctx, gy):
        return gy @ self.weight

    def param_grads(self, ctx, gy):
        (x,) = ctx
        return {"weight": gy.T @ x, "bias": gy.sum(axis=0)}


class Conv2d(Layer):
    """2D cross-correlation, stride 1, optional symmetric zero padding."""

    kind = "conv2d"

    def __init__(self, in_channels, out_channels, kernel_size, *, padding=0, rng=None):
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.padding = int(padding)
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

    def forward(self, x, train=False):
        _check_rank("conv2d", x, 4)
        if x.shape[1] != self.in_channels:
            raise ShapeMismatchError(
                f"conv2d: expected {self.in_channels} channels, got {x.shape[1]}"
            )
        k = self.kernel_size - 2 * self.padding
        if x.shape[2] < k or x.shape[3] < k:
            raise ShapeMismatchError(
                f"conv2d: input {x.shape[2]}x{x.shape[3]} smaller than kernel"
            )
        # converted once: the forward and the weight gradient read it as is
        x = batch_inner(x)
        y = conv2d_forward(x, self.weight, self.bias, padding=self.padding)
        return y, (x,)

    def backward(self, ctx, gy):
        (x,) = ctx
        return conv2d_input_grad(gy, self.weight, x.shape, padding=self.padding)

    def param_grads(self, ctx, gy):
        (x,) = ctx
        gw, gb = conv2d_param_grad(x, gy, self.weight.shape, padding=self.padding)
        return {"weight": gw, "bias": gb}


class ReLU(Layer):
    kind = "relu"

    # Both passes keep a value where x > 0 and write +0.0 elsewhere, bit for
    # bit, with no per-element branch on the data (a select on the mask
    # mispredicts on activations): fmax drops NaN and -inf, ``+= 0.0`` turns
    # the -0.0 fmax may keep into +0.0, and the backward multiplies the
    # upstream's bits, as uint64 words, by the 0/1 mask.
    def forward(self, x, train=False):
        y = np.fmax(x, 0.0)
        y += 0.0
        return y, (x > 0,)

    def backward(self, ctx, gy):
        (mask,) = ctx
        gx = np.multiply(as_tensor(gy).view(np.uint64), mask)
        return gx.view(np.float64)


class MaxPool2x2(Layer):
    """2x2 max pooling, stride 2.  Odd trailing rows/columns are dropped.

    Ties go to the first maximum in row-major window order, and the
    backward pass routes the gradient to that single element.
    """

    kind = "maxpool2x2"

    def forward(self, x, train=False):
        _check_rank("maxpool2x2", x, 4)
        if x.shape[2] < 2 or x.shape[3] < 2:
            raise ShapeMismatchError(
                f"maxpool2x2: input {x.shape[2]}x{x.shape[3]} smaller than window"
            )
        y, idx = maxpool2_forward(x)
        return y, (idx, x.shape)

    def backward(self, ctx, gy):
        idx, x_shape = ctx
        return maxpool2_backward(gy, idx, x_shape)


class BatchNorm(Layer):
    """Per-channel batch normalization.

    ``train=True`` normalizes by batch statistics and updates the running
    buffers with momentum 0.1; ``train=False`` uses the frozen running
    statistics, which keeps inference (and every attack gradient) a fixed
    affine map per channel.
    """

    kind = "batchnorm"

    def __init__(self, channels, *, eps=1e-5, momentum=0.1):
        self.channels = int(channels)
        self.eps = float(eps)
        self.momentum = float(momentum)
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

    def _axes(self, x):
        if x.ndim == 4:
            if x.shape[1] != self.channels:
                raise ShapeMismatchError(
                    f"batchnorm: expected {self.channels} channels, got {x.shape[1]}"
                )
            return (0, 2, 3), (1, self.channels, 1, 1)
        if x.ndim == 2:
            if x.shape[1] != self.channels:
                raise ShapeMismatchError(
                    f"batchnorm: expected {self.channels} features, got {x.shape[1]}"
                )
            return (0,), (1, self.channels)
        raise ShapeMismatchError(
            f"batchnorm: expected rank-2 or rank-4 input, got shape {x.shape}"
        )

    def forward(self, x, train=False):
        axes, bshape = self._axes(x)
        if not train:
            # one affine map per channel: y = x*scale + shift
            scale = self.gamma / np.sqrt(self.running_var + self.eps)
            shift = self.beta - self.running_mean * scale
            y = x * scale.reshape(bshape)
            y += shift.reshape(bshape)
            return y, (None, scale, axes, bshape)
        # x.var(axes) is mean((x - mean)**2) in numpy, so the centred x is
        # computed once and becomes xhat in place; y reuses the square's buffer
        mean = x.mean(axis=axes)
        xhat = x - mean.reshape(bshape)
        y = np.multiply(xhat, xhat)
        var = y.mean(axis=axes)
        m = self.momentum
        self.running_mean = (1 - m) * self.running_mean + m * mean
        self.running_var = (1 - m) * self.running_var + m * var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv.reshape(bshape)
        np.multiply(xhat, self.gamma.reshape(bshape), out=y)
        y += self.beta.reshape(bshape)
        return y, (xhat, inv, axes, bshape)

    def backward(self, ctx, gy):
        # train ctx: (xhat, 1/std of the batch, ...); eval: (None, scale, ...)
        xhat, per_channel, axes, bshape = ctx
        if xhat is None:
            return gy * per_channel.reshape(bshape)
        # Batch statistics depend on x, so the gradient couples the batch.
        # (gxhat - mean_g - xhat*mean_gx) * inv, in place on gx = gxhat
        gx = gy * self.gamma.reshape(bshape)
        tmp = np.multiply(gx, xhat)
        mean_g = gx.mean(axis=axes).reshape(bshape)
        mean_gx = tmp.mean(axis=axes).reshape(bshape)
        gx -= mean_g
        gx -= np.multiply(xhat, mean_gx, out=tmp)
        gx *= per_channel.reshape(bshape)
        return gx

    def param_grads(self, ctx, gy):
        xhat, _, axes, _ = ctx
        if xhat is None:
            # training is the only caller; an eval context keeps no input
            raise ValueError(
                "batchnorm: param_grads takes a train-mode context, got an "
                "eval-mode one")
        return {"gamma": (gy * xhat).sum(axis=axes), "beta": gy.sum(axis=axes)}


class Flatten(Layer):
    """(B, ...) to (B, features) rows, and the end of the kernels'
    batch-innermost layout.  A pure reshape both ways: the rows of a
    batch-innermost input are a strided view of its buffer, and the
    gradient goes back C-order, which the kernels read as it is."""

    kind = "flatten"

    def forward(self, x, train=False):
        return x.reshape(x.shape[0], -1), (x.shape,)

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

    Raises ValueError for an unknown kind and TypeError naming a missing
    or unknown constructor key.
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
