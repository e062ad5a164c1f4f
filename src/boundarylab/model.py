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
import warnings

import numpy as np

from .layers import (
    Dense,
    LAYER_KINDS,
    ShapeMismatchError,
    as_tensor,
    cross_entropy_with_logits,
    layer_from_config,
)


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""


class CheckpointError(Exception):
    """Checkpoint file is malformed, truncated, from a different version,
    or holds non-finite tensor values."""


def _box_warn(x):
    lo, hi = x.min(), x.max()
    if lo < 0.0 or hi > 1.0:
        warnings.warn(
            f"input outside [0,1] (min {lo:.4g}, max {hi:.4g})",
            stacklevel=3,
        )


class Classifier:
    """Layer stack with a designated final dense layer as the linear tail.

    ``layers[split:]`` must be exactly one dense layer; everything before
    it is the head.  ``input_shape`` is the per-example shape (no batch
    dimension).  ``meta`` carries training provenance into checkpoints.
    """

    def __init__(self, layers, split, input_shape, meta=None):
        layers = list(layers)
        if split != len(layers) - 1 or not isinstance(layers[-1], Dense):
            raise ValueError("tail must be exactly one dense layer at the end")
        self.layers = layers
        self.split = int(split)
        self.input_shape = tuple(int(s) for s in input_shape)
        self.meta = dict(meta) if meta else {}

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

    @property
    def d(self):
        """Flattened input dimension."""
        d = 1
        for s in self.input_shape:
            d *= s
        return d

    def tail_weights(self):
        """The tail's (weight, bias) as float64 copies."""
        return self.tail.weight.copy(), self.tail.bias.copy()

    def _batchify(self, x):
        x = as_tensor(x)
        if x.shape == self.input_shape:
            return x[None], True
        if x.shape[1:] == self.input_shape:
            return x, False
        raise ShapeMismatchError(
            f"expected input shape {self.input_shape} (optionally batched), "
            f"got {x.shape}"
        )

    def head_forward(self, x, train=False):
        """Run the head; returns the representation batch (B, N)."""
        xb, single = self._batchify(x)
        _box_warn(xb)
        v, _ = self.head_forward_with_ctx(xb, train=train)
        return v[0] if single else v

    def head_forward_with_ctx(self, xb, train=False):
        """Head forward keeping per-layer contexts for a later backward."""
        h = xb
        ctxs = []
        for layer in self.layers[: self.split]:
            h, ctx = layer.forward(h, train=train)
            ctxs.append(ctx)
        return h, ctxs

    def head_backward(self, ctxs, gv):
        """Back-propagate a representation-space gradient to the input."""
        g = gv
        for layer, ctx in zip(reversed(self.layers[: self.split]),
                              reversed(ctxs)):
            g, _ = layer.backward(ctx, g)
        return g

    def tail_forward(self, v):
        """Logits z = W v + b for representation batch or single vector."""
        v = as_tensor(v)
        single = v.ndim == 1
        z, _ = self.tail.forward(v[None] if single else v)
        return z[0] if single else z

    def forward(self, x):
        """Logits for x; identical computational path to head then tail."""
        return self.tail_forward(self.head_forward(x))

    def predict(self, x):
        """Predicted class index (argmax of logits)."""
        z = self.forward(x)
        pred = np.argmax(z, axis=-1)
        return int(pred) if np.ndim(z) == 1 else pred

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
                "split": self.split,
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

        layers = []
        for cfg in header["arch"]["layers"]:
            kind = cfg.get("kind")
            if kind not in LAYER_KINDS:
                raise CheckpointError(f"unknown layer kind {kind!r}")
            layers.append(layer_from_config(cfg))

        payload = raw[nl2 + 1 :]
        offset = 0
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            nbytes = count * 8
            if offset + nbytes > len(payload):
                raise CheckpointError(
                    f"truncated checkpoint payload: need {offset + nbytes} "
                    f"bytes, file has {len(payload)}"
                )
            arr = np.frombuffer(
                payload, dtype="<f8", count=count, offset=offset
            ).reshape(shape).copy()
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(
                    f"layer {entry['layer']} ({layers[entry['layer']].kind}) "
                    f"{entry['kind']} {entry['name']!r} has non-finite values"
                )
            setattr(layers[entry["layer"]], entry["name"], arr)
            offset += nbytes
        if offset != len(payload):
            raise CheckpointError(
                f"checkpoint payload has {len(payload) - offset} trailing bytes"
            )
        return cls(layers, header["arch"]["split"],
                   header["arch"]["input_shape"], meta=header.get("meta"))


# -- presets -------------------------------------------------------------


def small_cnn(k=4, n=2, *, input_shape=(1, 28, 28), seed=0):
    """Two conv/BN/ReLU/pool blocks, a dense bottleneck to N, dense tail.

    The default (k=4, n=2) gives a 2-D representation space whose boundary
    lines can be plotted directly.
    """
    from .layers import BatchNorm, Conv2d, Flatten, MaxPool2x2, ReLU

    c, h, w = input_shape
    rng = np.random.default_rng(seed)
    oh = (((h - 2) // 2) - 2) // 2
    ow = (((w - 2) // 2) - 2) // 2
    if oh < 1 or ow < 1:
        raise ValueError(f"input {h}x{w} too small for two conv/pool blocks")
    flat = 32 * oh * ow
    layers = [
        Conv2d(c, 16, 3, rng=rng), BatchNorm(16), ReLU(), MaxPool2x2(),
        Conv2d(16, 32, 3, rng=rng), BatchNorm(32), ReLU(), MaxPool2x2(),
        Flatten(),
        Dense(flat, n, rng=rng),
        Dense(n, k, rng=rng),
    ]
    return Classifier(layers, len(layers) - 1, input_shape,
                      meta={"preset": "small_cnn", "init_seed": seed})


def mlp(input_shape, k, *, n=8, hidden=(32,), seed=0):
    """Flatten + dense/ReLU stack to an N-dim representation, dense tail."""
    from .layers import Flatten, ReLU

    rng = np.random.default_rng(seed)
    d = 1
    for s in input_shape:
        d *= s
    layers = [Flatten()]
    widths = [d, *hidden, n]
    for a, b in zip(widths[:-1], widths[1:]):
        layers.append(Dense(a, b, rng=rng))
        layers.append(ReLU())
    layers.pop()  # no nonlinearity on the representation itself
    layers.append(Dense(n, k, rng=rng))
    return Classifier(layers, len(layers) - 1, input_shape,
                      meta={"preset": "mlp", "init_seed": seed})


def linear_model(d, k, *, weight=None, bias=None, seed=0):
    """Identity head: the input is its own representation (split 0).

    Geometry and attack math on this preset have closed forms, so tests
    can check exact values.  Pass ``weight``/``bias`` to pin the tail.
    """
    tail = Dense(d, k, rng=np.random.default_rng(seed))
    if weight is not None:
        w = as_tensor(weight)
        if w.shape != (k, d):
            raise ShapeMismatchError(f"weight must be ({k}, {d}), got {w.shape}")
        tail.weight = w.copy()
    if bias is not None:
        b = as_tensor(bias)
        if b.shape != (k,):
            raise ShapeMismatchError(f"bias must be ({k},), got {b.shape}")
        tail.bias = b.copy()
    return Classifier([tail], 0, (d,), meta={"preset": "linear"})


# -- training ------------------------------------------------------------


def _sgd_fit(clf, data, *, epochs, lr, momentum, batch_size, seed,
             attack_config):
    clf = copy.deepcopy(clf)
    images = as_tensor(data.images)
    labels = np.asarray(data.labels)
    shuffle_rng = np.random.default_rng(seed)
    velocity = {}
    step = 0
    for epoch in range(epochs):
        perm = shuffle_rng.permutation(len(labels))
        for lo in range(0, len(labels), batch_size):
            idx = perm[lo : lo + batch_size]
            x, y = images[idx], labels[idx]
            if attack_config is not None:
                from .attacks import pgd_batch, random_start

                # Separate seed stream from the shuffler, so a zero-budget
                # attack leaves the run identical to plain train().
                atk_seed = seed * 1_000_003 + step
                start = random_start(x, attack_config.epsilon, atk_seed)
                x = pgd_batch(clf, x, y, attack_config, start).x_adv
            h = x
            ctxs = []
            for layer in clf.layers:
                h, ctx = layer.forward(h, train=True)
                ctxs.append(ctx)
            loss, g = cross_entropy_with_logits(h, y)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss {loss!r} at epoch {epoch}, step {step}"
                )
            for i in range(len(clf.layers) - 1, -1, -1):
                g, grads = clf.layers[i].backward(ctxs[i], g,
                                                  need_param_grads=True)
                params = clf.layers[i].params()
                for name, grad in grads.items():
                    key = (i, name)
                    vel = velocity.get(key)
                    if vel is None:
                        vel = np.zeros_like(grad)
                    vel = momentum * vel - lr * grad
                    velocity[key] = vel
                    params[name] += vel
            step += 1
    clf.meta.update({
        "seed": int(seed),
        "epochs": int(epochs),
        "dataset_id": getattr(data, "dataset_id", ""),
        "adversarial": attack_config is not None,
    })
    return clf


def train(clf, data, *, epochs, lr=0.05, momentum=0.9, batch_size=128,
          seed=0):
    """SGD-with-momentum training; returns a new classifier.

    Deterministic per seed: the same preset, data, and seed reproduce an
    identical checkpoint.
    """
    return _sgd_fit(clf, data, epochs=epochs, lr=lr, momentum=momentum,
                    batch_size=batch_size, seed=seed, attack_config=None)


def adv_train(clf, data, attack_config, *, epochs, lr=0.05, momentum=0.9,
              batch_size=128, seed=0):
    """As :func:`train`, but each batch is replaced by single-restart
    random-start PGD examples generated against the current parameters."""
    return _sgd_fit(clf, data, epochs=epochs, lr=lr, momentum=momentum,
                    batch_size=batch_size, seed=seed,
                    attack_config=attack_config)
