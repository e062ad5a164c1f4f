"""Classifiers split into a nonlinear head and a single linear tail.

``forward`` is literally ``tail_forward(head_forward(x))``, so the split
is not an approximation: the representation vector ``v`` the geometry
module reasons about is the exact intermediate of the full network.
Includes architecture presets, SGD training (plain and adversarial), and
a self-describing binary checkpoint format.
"""

from __future__ import annotations

import copy
import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import attacks
from .data import _check_args
from .layers import (
    BatchNorm,
    Conv2d,
    Dense,
    Flatten,
    MaxPool2x2,
    ReLU,
    ShapeMismatchError,
    as_tensor,
    cross_entropy_with_logits,
    layer_from_config,
)


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss, parameter or buffer."""


class CheckpointError(Exception):
    """Checkpoint file is malformed, truncated, from a different version,
    or holds non-finite tensor values."""


def _entry(node, key, where):
    """``node[key]`` of a checkpoint header, or CheckpointError naming it."""
    if not isinstance(node, dict) or key not in node:
        raise CheckpointError(f"checkpoint {where} has no {key!r} entry")
    return node[key]


def _owning(layers, owned=False):
    """Each of ``layers``, in the order given, with the keyword arguments
    the model's own loops pass to its ``forward`` or ``backward``.

    The ownership rule: an array is owned once a layer other than
    ``Flatten`` has produced it, and ``owned`` says whether the first
    layer's input is.  The caller's input and representation gradient,
    and Flatten's views of them, are not; the loss gradient of training
    is.  ReLU and BatchNorm write their result over an owned array
    (``overwrite=True``).  No context keeps its layer's output, so no
    context sees the write.
    """
    for layer in layers:
        yield layer, ({"overwrite": True}
                      if owned and isinstance(layer, (BatchNorm, ReLU))
                      else {})
        owned = owned or not isinstance(layer, Flatten)


def _pooling(passes):
    """A forward loop's (layer, keyword arguments) ``passes`` with each
    ReLU directly before a MaxPool2x2 told ``pooled`` and that pool
    ``after_relu``: the pool's window codes then carry the ReLU's mask,
    so the ReLU keeps none and its backward hands the upstream on.  The
    pool's value is positive exactly where the mask at the element it
    routes to is 1, so every result keeps its bits."""
    passes = list(passes)
    for i, ((layer, kw), (after, kw_after)) in enumerate(
            zip(passes, passes[1:])):
        if isinstance(layer, ReLU) and isinstance(after, MaxPool2x2):
            passes[i] = (layer, {**kw, "pooled": True})
            passes[i + 1] = (after, {**kw_after, "after_relu": True})
    return tuple(passes)


@dataclass(frozen=True)
class _Passes:
    """The (layer, keyword arguments) pairs of the model's own layer
    loops, in the order each loop runs, from :func:`_owning` and, for
    the forward loops, :func:`_pooling`; only ``train_forward`` passes
    ``train=True``."""

    head_forward: tuple
    head_backward: tuple
    train_forward: tuple
    train_backward: tuple


def _head_corner(head, input_shape):
    """The index of the top-left corner of a (C, H, W) input that the
    head's output reads, or None when it reads every pixel.

    A MaxPool2x2 drops an odd trailing row and column, so nothing reads
    what the layers before it compute there.  Walking back from the
    head's output: a valid Conv2d reads out + k − 1 rows and columns of
    its input, a pool 2·out, BatchNorm and ReLU out, and a padded
    Conv2d, a Flatten or a Dense all of it."""
    if len(input_shape) != 3:
        return None
    sizes = [input_shape[1:]]  # each layer's input (H, W), while rank 4
    for layer in head:
        h, w = sizes[-1]
        if isinstance(layer, Conv2d):
            cut = layer.kernel_size - 1 - 2 * layer.padding
            h, w = h - cut, w - cut
        elif isinstance(layer, MaxPool2x2):
            h, w = h // 2, w // 2
        sizes.append((h, w))
    need = sizes[-1]
    for layer, size in zip(reversed(head), reversed(sizes[:-1])):
        if isinstance(layer, MaxPool2x2):
            need = (2 * need[0], 2 * need[1])
        elif isinstance(layer, Conv2d) and not layer.padding:
            need = (need[0] + layer.kernel_size - 1,
                    need[1] + layer.kernel_size - 1)
        elif not isinstance(layer, (BatchNorm, ReLU)):
            need = size
    # an input too small for the head is read whole, for its layers to
    # refuse as before
    if need == sizes[0] or not all(
            0 < n <= s for n, s in zip(need, sizes[0])):
        return None
    return np.s_[:, :, :need[0], :need[1]]


def _forward(passes, h, ctxs=None):
    """``h`` through a plan's (layer, keyword arguments) ``passes``, each
    context appended to ``ctxs`` if given and else freed as it goes."""
    for layer, kw in passes:
        h, ctx = layer.forward(h, **kw)
        if ctxs is not None:
            ctxs.append(ctx)
    return h


# Rows per block of ``Classifier.predict``, the harness's default chunk.
_PREDICT_ROWS = 256


def _box_warn(x):
    if x.size == 0:  # an empty batch has no values to leave the box
        return
    lo, hi = x.min(), x.max()
    if lo < 0.0 or hi > 1.0:
        warnings.warn(
            f"input outside [0,1] (min {lo:.4g}, max {hi:.4g})",
            stacklevel=4,
        )


def check_labels(c, labels):
    """Raise ValueError unless every label is a class of ``c`` (0..k-1)."""
    bad = np.flatnonzero((labels < 0) | (labels >= c.k))
    if bad.size:
        raise ValueError(
            f"label {labels[bad[0]]} at index {bad[0]} is outside the "
            f"model's classes 0..{c.k - 1}"
        )


# a Classifier's argument rules, as attacks._FIELD_RULES
_CLASSIFIER_RULES = {"input_shape": ([int], ">=", 1), "meta": (dict,)}


class Classifier:
    """Layer stack whose last layer, a dense one, is the linear tail.

    Everything before the tail is the head.  ``input_shape`` is the
    per-example shape; every method takes and returns batches, with the
    batch as the first dimension.  ``meta`` carries training provenance
    into checkpoints; both are refused by name unless ``input_shape`` is
    a list of ints >= 1 and ``meta`` a dict or None.  Every head pass
    runs in eval mode: only training
    moves a BatchNorm running statistic or keeps a patch matrix.  The
    attack passes, :meth:`head_forward` and :meth:`head_forward_with_ctx`,
    run on the corner of the input that the head's output reads
    (:func:`_head_corner`): small_cnn's pools drop an odd trailing row
    and column, so at 16x16 it reads the top-left 14x14.  The input
    gradient is +0.0 on every pixel outside the corner, and no result
    depends on their values.
    """

    def __init__(self, layers, input_shape, meta=None):
        layers = list(layers)
        if not layers or not isinstance(layers[-1], Dense):
            raise ValueError("tail must be exactly one dense layer at the end")
        self.layers = layers
        input_shape, meta = _check_args(
            _CLASSIFIER_RULES, input_shape=input_shape,
            meta={} if meta is None else meta)
        self.input_shape = tuple(input_shape)
        self.meta = dict(meta)

    @cached_property
    def _passes(self):
        # once per classifier: its layer list is fixed at construction
        layers, head = self.layers, self.layers[:-1]
        train = [(layer, {**kw, "train": True})
                 for layer, kw in _pooling(_owning(layers))]
        if isinstance(layers[0], Conv2d):
            # training takes no input gradient of its first layer, which
            # would write over a kept patch matrix, so the matrix is built
            # again for param_grads instead of kept through the step
            train[0][1]["keep_patches"] = False
        return _Passes(head_forward=_pooling(_owning(head)),
                       head_backward=tuple(_owning(reversed(head))),
                       train_forward=tuple(train),
                       train_backward=tuple(_owning(reversed(layers),
                                                    owned=True)))

    @cached_property
    def _corner(self):
        # the index of the input corner the head passes read, or None
        return _head_corner(self.layers[:-1], self.input_shape)

    def _read(self, x):
        # the corner of x the head reads: a view, which the first conv
        # copies into its batch-innermost layout as it would x
        return x if self._corner is None else x[self._corner]

    @property
    def tail(self):
        return self.layers[-1]

    @property
    def k(self):
        """Class count."""
        return self.tail.out_features

    @property
    def n(self):
        """Representation dimension."""
        return self.tail.in_features

    def _checked(self, x):
        """``x`` as a float64 batch of ``input_shape`` examples; warns if
        it leaves the [0,1] box."""
        h = as_tensor(x)
        if h.shape[1:] != self.input_shape:
            dims = ", ".join(str(s) for s in self.input_shape)
            raise ShapeMismatchError(
                f"expected a batch of shape (B, {dims}), got {h.shape}")
        _box_warn(h)
        return h

    def head_forward(self, x):
        """Run the head on a batch in eval mode; returns the
        representations (B, N)."""
        return _forward(self._passes.head_forward,
                        self._read(self._checked(x)))

    def head_forward_with_ctx(self, xb):
        """Eval head forward keeping each context for :meth:`head_backward`."""
        ctxs = []
        return _forward(self._passes.head_forward, self._read(xb), ctxs), ctxs

    def head_backward(self, ctxs, gv):
        """Back-propagate a representation-space gradient to the input.

        Returns a C-contiguous batch-first array.  The conv kernels hand
        back a batch-innermost input gradient, so a CNN head pays one
        transposing copy here: (H·W, B) to (B, H·W) at one input channel.
        The copy writes the corner the head read into a +0.0 array of
        the whole input's shape.
        """
        g = gv
        for (layer, kw), ctx in zip(self._passes.head_backward,
                                    reversed(ctxs)):
            g = layer.backward(ctx, g, **kw)
        if self._corner is None:
            return np.ascontiguousarray(g)
        gx = np.zeros((len(g), *self.input_shape))
        gx[self._corner] = g
        return gx

    def tail_forward(self, v):
        """Logits z = v Wᵀ + b for a representation batch (B, N)."""
        z, _ = self.tail.forward(as_tensor(v))
        return z

    def forward(self, x):
        """Logits for x; identical computational path to head then tail."""
        return self.tail_forward(self.head_forward(x))

    def predict(self, x):
        """Predicted class per example (argmax of logits).

        Runs ``_PREDICT_ROWS`` (256) rows at a time, so it holds one
        block's activations, not the whole input's.  Unlike the other
        head passes, it runs on the whole input, not the corner.
        """
        # glibc sets its malloc thresholds from the largest block freed:
        # a predict of 16x16 digits on the corner frees 4.7 MB blocks, not
        # 7.4 MB ones, and a training run after it then gave about 12 MB
        # of heap back to the system and faulted it in again every step,
        # which made it ~30% slower
        x = self._checked(x)
        labels = np.empty(len(x), dtype=np.intp)
        for lo in range(0, len(x), _PREDICT_ROWS):
            z = self.tail_forward(_forward(self._passes.head_forward,
                                           x[lo:lo + _PREDICT_ROWS]))
            labels[lo:lo + _PREDICT_ROWS] = np.argmax(z, axis=1)
        return labels

    # -- persistence ----------------------------------------------------

    _MAGIC = "boundarylab-checkpoint"
    _FORMAT_VERSION = 1

    def _tensor_manifest(self):
        entries = []
        for i, layer in enumerate(self.layers):
            for kind, group in (("param", layer.params()),
                                ("buffer", layer.buffers())):
                for name, arr in group.items():
                    entries.append((i, kind, name, arr))
        return entries

    def save(self, path):
        """Write a checkpoint: one-line magic, JSON header, float64 payload."""
        manifest = self._tensor_manifest()
        header = {
            "arch": {
                "input_shape": list(self.input_shape),
                "split": len(self.layers) - 1,
                "layers": [layer.config() for layer in self.layers],
            },
            "tensors": [
                {"layer": i, "kind": kind, "name": name,
                 "shape": list(arr.shape)}
                for i, kind, name, arr in manifest
            ],
            "meta": self.meta,
        }
        with open(path, "wb") as f:
            f.write(f"{self._MAGIC} {self._FORMAT_VERSION}\n".encode())
            f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for _, _, _, arr in manifest:
                f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        return path

    @classmethod
    def load(cls, path):
        """Rebuild a classifier from :meth:`save` output, bit-exactly."""
        with open(path, "rb") as f:
            raw = f.read()
        nl = raw.find(b"\n")
        if nl < 0:
            raise CheckpointError("not a checkpoint: missing magic line")
        parts = raw[:nl].decode("utf-8", errors="replace").split()
        if len(parts) != 2 or parts[0] != cls._MAGIC:
            raise CheckpointError("not a checkpoint: bad magic line")
        if parts[1] != str(cls._FORMAT_VERSION):
            raise CheckpointError(
                f"checkpoint format version {parts[1]} not supported "
                f"(this build reads version {cls._FORMAT_VERSION})"
            )
        nl2 = raw.find(b"\n", nl + 1)
        if nl2 < 0:
            raise CheckpointError("truncated checkpoint: missing header")
        try:
            header = json.loads(raw[nl + 1 : nl2].decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None

        arch = _entry(header, "arch", "header")
        layers = []
        for i, cfg in enumerate(_entry(arch, "layers", "arch")):
            try:
                layers.append(layer_from_config(cfg))
            except (TypeError, ValueError) as e:
                raise CheckpointError(f"arch layer {i}: {e}") from None
        split = _entry(arch, "split", "arch")
        if split != len(layers) - 1:
            raise CheckpointError(
                f"arch split {split!r}: the tail must be the last of "
                f"{len(layers)} layers"
            )
        try:
            clf = cls(layers, _entry(arch, "input_shape", "arch"),
                      meta=header.get("meta"))
        except (TypeError, ValueError) as e:
            # meta is the header's own entry, the rest are arch's
            where = "" if str(e).startswith("meta:") else "arch: "
            raise CheckpointError(f"{where}{e}") from None

        expected = {(i, kind, name): arr
                    for i, kind, name, arr in clf._tensor_manifest()}
        payload = raw[nl2 + 1 :]
        offset = 0
        for n, entry in enumerate(_entry(header, "tensors", "header")):
            where = f"tensor {n}"
            i, kind, name, shape = (
                _entry(entry, key, where)
                for key in ("layer", "kind", "name", "shape"))
            if type(i) is not int or not 0 <= i < len(layers):
                raise CheckpointError(
                    f"{where}: layer {i!r} is not one of 0..{len(layers) - 1}")
            what = f"layer {i} ({layers[i].kind}) {kind} {name!r}"
            try:
                target = expected.pop((i, kind, name))
            except (KeyError, TypeError):
                raise CheckpointError(
                    f"{where}: {what} is not a param or buffer of that layer, "
                    f"or is listed twice") from None
            if shape != list(target.shape):
                raise CheckpointError(
                    f"{where}: {what} has shape {shape!r}, the layer's is "
                    f"{list(target.shape)}")
            nbytes = target.size * 8
            if offset + nbytes > len(payload):
                raise CheckpointError(
                    f"truncated checkpoint payload: need {offset + nbytes} "
                    f"bytes, file has {len(payload)}"
                )
            arr = np.frombuffer(
                payload, dtype="<f8", count=target.size, offset=offset
            ).reshape(target.shape).copy()
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(f"{what} has non-finite values")
            setattr(layers[i], name, arr)
            offset += nbytes
        if expected:
            i, kind, name = next(iter(expected))
            raise CheckpointError(
                f"layer {i} ({layers[i].kind}) {kind} {name!r} is missing "
                f"from the checkpoint's tensors")
        if offset != len(payload):
            raise CheckpointError(
                f"checkpoint payload has {len(payload) - offset} trailing bytes"
            )
        return clf


# -- presets -------------------------------------------------------------


# the presets' argument rules, as attacks._FIELD_RULES; refused as
# "<argument>: ...", which the CLI prefixes with "model."
_PRESET_RULES = {"k": (int, ">=", 2), "n": (int, ">=", 1),
                 "d": (int, ">=", 1), "hidden": ([int], ">=", 1),
                 "seed": (int, ">=", 0)}


def small_cnn(k=4, n=2, *, input_shape=(1, 28, 28), seed=0):
    """Two conv/BN/ReLU/pool blocks, a dense bottleneck to N, dense tail.

    The default (k=4, n=2) gives a 2-D representation space whose boundary
    lines can be plotted directly.
    """
    k, n, seed = _check_args(_PRESET_RULES, k=k, n=n, seed=seed)
    c, h, w = input_shape
    oh = (((h - 2) // 2) - 2) // 2
    ow = (((w - 2) // 2) - 2) // 2
    if oh < 1 or ow < 1:
        raise ValueError(
            f"input_shape: {h}x{w} is too small for two conv/pool blocks")
    rng = np.random.default_rng(seed)
    flat = 32 * oh * ow
    layers = [
        Conv2d(c, 16, 3, rng=rng), BatchNorm(16), ReLU(), MaxPool2x2(),
        Conv2d(16, 32, 3, rng=rng), BatchNorm(32), ReLU(), MaxPool2x2(),
        Flatten(),
        Dense(flat, n, rng=rng),
        Dense(n, k, rng=rng),
    ]
    return Classifier(layers, input_shape,
                      meta={"preset": "small_cnn", "init_seed": seed})


def mlp(input_shape, k, *, n=8, hidden=(32,), seed=0):
    """Flatten + dense/ReLU stack to an N-dim representation, dense tail."""
    k, n, seed, hidden = _check_args(_PRESET_RULES, k=k, n=n, seed=seed,
                                     hidden=hidden)
    rng = np.random.default_rng(seed)
    layers = [Flatten()]
    widths = [math.prod(input_shape), *hidden, n]
    for a, b in zip(widths[:-1], widths[1:]):
        layers.append(Dense(a, b, rng=rng))
        layers.append(ReLU())
    layers.pop()  # no nonlinearity on the representation itself
    layers.append(Dense(n, k, rng=rng))
    return Classifier(layers, input_shape,
                      meta={"preset": "mlp", "init_seed": seed})


def linear_model(d, k, *, weight=None, bias=None, seed=0):
    """Identity head: the input is its own representation.

    Geometry and attack math on this preset have closed forms, so tests
    can check exact values.  Pass ``weight``/``bias`` to pin the tail.
    """
    k, d, seed = _check_args(_PRESET_RULES, k=k, d=d, seed=seed)
    tail = Dense(d, k, rng=np.random.default_rng(seed))
    for name, value, shape in (("weight", weight, (k, d)),
                               ("bias", bias, (k,))):
        if value is not None:
            value = as_tensor(value)
            if value.shape != shape:
                raise ShapeMismatchError(
                    f"{name} must be {shape}, got {value.shape}")
            setattr(tail, name, value.copy())
    return Classifier([tail], (d,), meta={"preset": "linear"})


# -- training ------------------------------------------------------------


def _check_finite(clf, epoch, step):
    # ReLU zeroes NaN activations, so the loss can stay finite while a
    # tensor (a BatchNorm running_var, say) has already diverged
    for i, layer in enumerate(clf.layers):
        for name, arr in {**layer.params(), **layer.buffers()}.items():
            if not np.isfinite(arr).all():
                raise TrainingDivergedError(
                    f"non-finite {name} of layer {i} ({layer.kind}) at "
                    f"epoch {epoch}, step {step}"
                )


# Step t of adversarial training starts from seed·_START_STRIDE + t: a stream
# apart from the shuffler's, so epsilon 0 leaves the run equal to train().
_START_STRIDE = 1_000_003


# training's argument rules, as attacks._FIELD_RULES
_FIT_RULES = {"epochs": (int, ">=", 0), "lr": (float, ">", 0),
              "momentum": (float, ">=", 0, "<", 1),
              "batch_size": (int, ">=", 1), "seed": (int, ">=", 0)}


def check_fit(n, *, epochs, batch_size, seed, lr=0.05, momentum=0.9,
              adversarial=False):
    """The checked (epochs, lr, momentum, batch_size, seed) of training on
    ``n`` examples; raises naming the first argument out of its rule, as
    "<argument>: ..." (TypeError for a wrong type, else ValueError)."""
    epochs, lr, momentum, batch_size, seed = _check_args(
        _FIT_RULES, epochs=epochs, lr=lr, momentum=momentum,
        batch_size=batch_size, seed=seed)
    steps = epochs * -(-n // batch_size)
    last = seed * _START_STRIDE + steps - 1
    if adversarial and steps and last > 2**63 - 1:
        raise ValueError(
            f"seed: {seed} overflows adversarial training's start seeds "
            f"seed·{_START_STRIDE} + step, which must stay at or below "
            f"2**63 - 1")
    return epochs, lr, momentum, batch_size, seed


def _sgd_fit(clf, data, *, epochs, lr, momentum, batch_size, seed,
             attack_config):
    epochs, lr, momentum, batch_size, seed = check_fit(
        len(data.labels), epochs=epochs, lr=lr, momentum=momentum,
        batch_size=batch_size, seed=seed,
        adversarial=attack_config is not None)
    labels = np.asarray(data.labels)
    check_labels(clf, labels)
    clf = copy.deepcopy(clf)
    passes = clf._passes
    images = as_tensor(data.images)
    shuffle_rng = np.random.default_rng(seed)
    velocity = {}
    step = 0
    for epoch in range(epochs):
        perm = shuffle_rng.permutation(len(labels))
        for lo in range(0, len(labels), batch_size):
            idx = perm[lo : lo + batch_size]
            x, y = images[idx], labels[idx]
            if attack_config is not None:
                # the whole batch as one row, drawn from one stream
                start = attacks.random_start_batch(
                    x.reshape(1, -1), attack_config.epsilon,
                    [seed * _START_STRIDE + step]).reshape(x.shape)
                x = attacks.pgd_batch(clf, x, y, attack_config, start).x_adv
            ctxs = []
            z = _forward(passes.train_forward, x, ctxs)
            loss, g = cross_entropy_with_logits(z, y)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss!r} at epoch {epoch}, step {step}"
                )
            for i, (layer, kw) in zip(range(len(clf.layers) - 1, -1, -1),
                                      passes.train_backward):
                # the parameter gradients read g before backward writes it
                grads = layer.param_grads(ctxs[i], g)
                if i > 0:  # nothing reads the first layer's input gradient
                    g = layer.backward(ctxs[i], g, **kw)
                params = layer.params()
                for name, grad in grads.items():
                    vel = momentum * velocity.get((i, name), 0.0) - lr * grad
                    velocity[(i, name)] = vel
                    params[name] += vel
            # freed here, not when the next step overwrites them: the
            # contexts and the last input gradient would otherwise stay
            # through the next step's attack and forward
            del ctxs, g
            _check_finite(clf, epoch, step)
            step += 1
    clf.meta.update({
        "seed": seed,
        "epochs": epochs,
        "dataset_id": getattr(data, "dataset_id", ""),
        "adversarial": attack_config is not None,
    })
    return clf


def train(clf, data, *, epochs, lr=0.05, momentum=0.9, batch_size=128,
          seed=0):
    """SGD-with-momentum training; returns a new classifier.

    Deterministic per seed: the same preset, data, and seed reproduce an
    identical checkpoint.  Out-of-range arguments are refused by name
    (:func:`check_fit`), adversarial training's too large seeds included,
    and so are labels outside the model's classes (:func:`check_labels`);
    the input model is left as it was.
    """
    return _sgd_fit(clf, data, epochs=epochs, lr=lr, momentum=momentum,
                    batch_size=batch_size, seed=seed, attack_config=None)


def adv_train(clf, data, attack_config, *, epochs, lr=0.05, momentum=0.9,
              batch_size=128, seed=0):
    """As :func:`train`, but each batch is replaced by single-restart
    random-start PGD examples generated against the current parameters.

    Only ``attack_config``'s ``epsilon``, ``alpha`` and ``n_attack`` are
    read; its restarts, ``n_init``, ``eta_init`` and seed are not.
    """
    return _sgd_fit(clf, data, epochs=epochs, lr=lr, momentum=momentum,
                    batch_size=batch_size, seed=seed,
                    attack_config=attack_config)
