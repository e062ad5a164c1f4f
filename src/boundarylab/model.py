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
import weakref
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
    ``train=True``, and ``empty=None`` to each layer that takes
    ``empty``, for :func:`_sgd_fit` to fill with its fit's
    :class:`_Workspace`; ``train_backward`` ends at the first layer with
    parameters, whose input gradient nothing reads."""

    head_forward: tuple
    head_backward: tuple
    train_forward: tuple
    train_backward: tuple


def _shapes(layers, input_shape):
    """Each layer's input shape from ``input_shape`` by their ``out_shape``
    rules, and the last one's output shape; the first layer whose rule
    refuses its input is refused as "input_shape: layer <i>: <message>"."""
    shapes = [tuple(input_shape)]
    for i, layer in enumerate(layers):
        try:
            shapes.append(layer.out_shape(shapes[-1]))
        except ShapeMismatchError as e:
            raise ShapeMismatchError(f"input_shape: layer {i}: {e}") from None
    return shapes


def _head_corner(head, shapes):
    """The index of the top-left corner of a (C, H, W) input that the
    head's output reads, or None when it reads every pixel, from the
    head's input ``shapes`` (:func:`_shapes`).

    A MaxPool2x2 drops an odd trailing row and column, so nothing reads
    what the layers before it compute there.  Walking back from the
    head's output, read whole: a valid Conv2d reads out + k − 1 rows and
    columns of its input, a pool 2·out, BatchNorm and ReLU out, and a
    padded Conv2d, a Flatten or a Dense all of it."""
    need = ()  # the (H, W) a layer's output is read to, () past Flatten
    for layer, shape in zip(reversed(head), reversed(shapes[:len(head)])):
        if isinstance(layer, MaxPool2x2):
            need = (2 * need[0], 2 * need[1])
        elif isinstance(layer, Conv2d) and not layer.padding:
            need = (need[0] + layer.kernel_size - 1,
                    need[1] + layer.kernel_size - 1)
        elif not isinstance(layer, (BatchNorm, ReLU)):
            need = shape[1:]
    return None if need == shapes[0][1:] else np.s_[:, :, :need[0], :need[1]]


# the layers whose train-mode forward takes ``empty``
_BUFFERED = (BatchNorm, Conv2d, Dense, MaxPool2x2)


# Doubles per page, and the step between the page offsets at which the
# workspace's buffers start.  Arrays that start at one page offset, as
# every large fresh array does, are streamed side by side with equal
# page offsets, and loads then wait on stores to unrelated addresses
# (4K aliasing): on a 2-vCPU Xeon (numpy 2.4.6, one OpenBLAS thread) a
# training step whose arrays all started at one offset ran ~30% slower.
_PAGE, _STAGGER = 512, 32


class _Workspace:
    """The arrays that one fit's training steps ask ``empty`` for.

    The first step gets fresh arrays, and records each one's size and
    how many arrays had been asked for when it was freed.  From those,
    its end plans the flat float64 buffers of every later step: largest
    first, each array takes the smallest buffer that holds it and whose
    holders are all live at other times than it, else a new one of its
    size.  So a buffer whose contents are dead takes another role: at
    128 rows, small_cnn's 22 arrays take 12 buffers of 9.65 MB, where
    its first step held at most 9.64 MB at once.  The second step
    allocates the buffers (``allocations`` counts them), buffer b
    starting b·``_STAGGER`` doubles into its allocation.  Every step
    runs the same passes, so its k-th array is the leading elements of
    the k-th array's buffer, reshaped, and a short last batch asks for
    no more than the first batch did.
    """

    def __init__(self):
        self.allocations = 0
        self._asked = []  # first step: [doubles, arrays asked when freed]
        self._plan = None  # later steps: (buffer sizes, buffer per array)
        self._buffers = None
        self._k = 0  # arrays asked for in this step

    def _allocate(self):
        self._buffers = []
        for b, size in enumerate(self._plan[0]):
            start = b * _STAGGER % _PAGE
            self._buffers.append(np.empty(start + size)[start:])
        self.allocations += len(self._buffers)

    def empty(self, shape, dtype=np.float64):
        dtype = np.dtype(dtype)
        n = math.prod(shape)
        doubles = -(-n * dtype.itemsize // 8)
        if self._plan is None:
            flat = np.empty(doubles)
            self._asked.append([doubles, None])
            weakref.finalize(flat, self._freed, self._asked[-1])
        else:
            if self._buffers is None:
                self._allocate()
            flat = self._buffers[self._plan[1][self._k]]
            if doubles > flat.size:
                raise RuntimeError("a training step asked for more than "
                                   "its first step did")
        self._k += 1
        return flat.view(dtype)[:n].reshape(shape)

    def _freed(self, record):
        if self._plan is None:
            record[1] = self._k

    def end_step(self):
        if self._plan is None:
            # array k is live from its asking, k, until it was freed; one
            # still held at the step's end is live to the end
            asked = self._asked
            live = [(k, len(asked) if freed is None else freed)
                    for k, (_, freed) in enumerate(asked)]
            sizes, spans, owner = [], [], [None] * len(asked)
            for k in sorted(range(len(asked)), key=lambda k: -asked[k][0]):
                start, end = live[k]
                fits = [b for b, size in enumerate(sizes)
                        if size >= asked[k][0] and all(
                            end <= s or e <= start for s, e in spans[b])]
                if fits:
                    b = min(fits, key=sizes.__getitem__)
                else:
                    b = len(sizes)
                    sizes.append(asked[k][0])
                    spans.append([])
                spans[b].append((start, end))
                owner[k] = b
            self._plan = (sizes, owner)
        self._k = 0


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
    a list of ints >= 1 and ``meta`` a dict or None.  The layers' shape
    rules are walked from ``input_shape`` once, here (:func:`_shapes`),
    so a stack whose layers do not fit is refused when built.  Every head
    pass runs in eval mode: only training moves a BatchNorm running
    statistic or keeps a patch matrix.  The
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
        self._shapes = _shapes(layers, self.input_shape)

    @cached_property
    def _passes(self):
        # once per classifier: its layer list is fixed at construction
        layers, head = self.layers, self.layers[:-1]
        first = next(i for i, layer in enumerate(layers) if layer.params())
        train = [(layer, {**kw, "train": True,
                          **({"empty": None} if isinstance(layer, _BUFFERED)
                             else {})})
                 for layer, kw in _pooling(_owning(layers))]
        if isinstance(layers[first], Conv2d):
            # training takes no input gradient of this layer, which would
            # write over a kept patch matrix, so the matrix is built again
            # for param_grads instead of kept through the step
            train[first][1]["keep_patches"] = False
        return _Passes(head_forward=_pooling(_owning(head)),
                       head_backward=tuple(_owning(reversed(head))),
                       train_forward=tuple(train),
                       train_backward=tuple(_owning(reversed(layers[first:]),
                                                    owned=True)))

    @cached_property
    def _corner(self):
        # the index of the input corner the head passes read, or None
        return _head_corner(self.layers[:-1], self._shapes)

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
        # 7.4 MB ones, and harness.evaluate's attack loop, which predicts
        # first, then ran ~10% slower on small_cnn
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
    rng = np.random.default_rng(seed)
    blocks = [Conv2d(input_shape[0], 16, 3, rng=rng), BatchNorm(16), ReLU(),
              MaxPool2x2(), Conv2d(16, 32, 3, rng=rng), BatchNorm(32),
              ReLU(), MaxPool2x2(), Flatten()]
    (flat,) = _shapes(blocks, input_shape)[-1]
    layers = [*blocks, Dense(flat, n, rng=rng), Dense(n, k, rng=rng)]
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
    ws = _Workspace()
    forward = tuple((layer, {**kw, "empty": ws.empty} if "empty" in kw
                     else kw)
                    for layer, kw in clf._passes.train_forward)
    backward = clf._passes.train_backward
    first = len(clf.layers) - len(backward)  # the first with parameters
    images = as_tensor(data.images)
    shuffle_rng = np.random.default_rng(seed)
    velocity = {}
    step = 0
    for epoch in range(epochs):
        perm = shuffle_rng.permutation(len(labels))
        for lo in range(0, len(labels), batch_size):
            idx = perm[lo : lo + batch_size]
            x = np.take(images, idx, axis=0, mode="clip",
                        out=ws.empty((len(idx), *images.shape[1:])))
            y = labels[idx]
            if attack_config is not None:
                # the whole batch as one row, drawn from one stream
                start = attacks.random_start_batch(
                    x.reshape(1, -1), attack_config.epsilon,
                    [seed * _START_STRIDE + step]).reshape(x.shape)
                x = attacks.pgd_batch(clf, x, y, attack_config, start).x_adv
            ctxs = []
            z = _forward(forward, x, ctxs)
            del x  # nothing below reads it; a context that does keeps it
            loss, g = cross_entropy_with_logits(z, y)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss!r} at epoch {epoch}, step {step}"
                )
            for i, (layer, kw) in zip(range(len(clf.layers) - 1, -1, -1),
                                      backward):
                # each context is dropped once its layer's passes are done
                ctx = ctxs.pop()
                # the parameter gradients read g before backward writes it
                grads = layer.param_grads(ctx, g)
                if i > first:  # nothing reads the input gradient below
                    g = layer.backward(ctx, g, **kw)
                params = layer.params()
                for name, grad in grads.items():
                    vel = momentum * velocity.get((i, name), 0.0) - lr * grad
                    velocity[(i, name)] = vel
                    params[name] += vel
            # the step's arrays are freed before the workspace plans from
            # their lifetimes
            del z, g, ctx, ctxs
            ws.end_step()
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
