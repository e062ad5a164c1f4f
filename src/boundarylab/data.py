"""Dataset loading, filtering, sampling, and synthetic fixtures.

Images are float64 in [0,1]; labels are compact class indices with a
``class_map`` recording which original label each index came from.  The
IDX reader/writer speaks the classic big-endian byte format.  Two
synthetic generators cover testing needs: Gaussian blobs with closed-form
structure, and a stroke-rendered digit corpus that stands in for
handwritten digits when no corpus file is available.
"""

from __future__ import annotations

import operator
import struct
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled image batch.

    ``class_map`` maps original label -> compact index; labels stored on
    the dataset are always compact indices in 0..K-1, where K (``k``) is
    the largest index in ``class_map`` plus one.  A class may have no
    examples: an IDX file without a label 2, or a sample that drew none.
    """

    images: np.ndarray
    labels: np.ndarray
    class_map: dict = field(default_factory=dict)
    dataset_id: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        finite = np.isfinite(self.images)
        if not finite.all():
            first = np.nonzero(~finite)[0][0]
            raise ValueError(f"image {first} has a non-finite pixel")
        if not self.class_map:
            # not np.unique, which imports numpy.ma on first use
            ks = sorted({int(v) for v in np.asarray(self.labels).tolist()})
            object.__setattr__(self, "class_map", {k: k for k in ks})

    def __len__(self):
        return len(self.labels)

    @property
    def k(self):
        return max(self.class_map.values(), default=-1) + 1

    @property
    def input_shape(self):
        return self.images.shape[1:]


def load_idx(images_path, labels_path):
    """Read an IDX image/label file pair into a Dataset.

    Image magic 0x00000803 (count, rows, cols), label magic 0x00000801
    (count), all big-endian; pixel bytes are scaled by 1/255.
    """
    with open(images_path, "rb") as f:
        raw = f.read()
    if len(raw) < 16:
        raise ValueError(
            f"{images_path}: IDX image header needs 16 bytes, file has {len(raw)}"
        )
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != _IMAGES_MAGIC:
        raise ValueError(
            f"{images_path}: bad image magic 0x{magic:08x} at offset 0 "
            f"(expected 0x{_IMAGES_MAGIC:08x})"
        )
    need = 16 + count * rows * cols
    if len(raw) != need:
        raise ValueError(
            f"{images_path}: expected {need} bytes for {count} images of "
            f"{rows}x{cols}, file has {len(raw)}"
        )
    images = (
        np.frombuffer(raw, dtype=np.uint8, offset=16)
        .reshape(count, 1, rows, cols)
        .astype(np.float64)
        / 255.0
    )

    with open(labels_path, "rb") as f:
        lraw = f.read()
    if len(lraw) < 8:
        raise ValueError(
            f"{labels_path}: IDX label header needs 8 bytes, file has {len(lraw)}"
        )
    lmagic, lcount = struct.unpack(">II", lraw[:8])
    if lmagic != _LABELS_MAGIC:
        raise ValueError(
            f"{labels_path}: bad label magic 0x{lmagic:08x} at offset 0 "
            f"(expected 0x{_LABELS_MAGIC:08x})"
        )
    if len(lraw) != 8 + lcount:
        raise ValueError(
            f"{labels_path}: expected {8 + lcount} bytes for {lcount} labels, "
            f"file has {len(lraw)}"
        )
    if lcount != count:
        raise ValueError(
            f"count mismatch: {count} images ({images_path}) vs "
            f"{lcount} labels ({labels_path})"
        )
    labels = np.frombuffer(lraw, dtype=np.uint8, offset=8).astype(np.int64)
    return Dataset(images=images, labels=labels,
                   dataset_id=f"idx:{images_path}")


def write_idx(dataset, images_path, labels_path):
    """Write a dataset as an IDX pair, quantizing pixels to the byte grid.

    Loading the result reproduces the images exactly when every pixel is
    a multiple of 1/255 (as loaded data always is).
    """
    images = np.asarray(dataset.images)
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError(
            f"IDX writer needs (B, 1, H, W) images, got {images.shape}"
        )
    b, _, rows, cols = images.shape
    px = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", _IMAGES_MAGIC, b, rows, cols))
        f.write(px.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", _LABELS_MAGIC, b))
        f.write(np.asarray(dataset.labels, dtype=np.uint8).tobytes())


# the types a kind takes; any other kind is its own type
_KIND_TYPES = {int: (int, np.integer),
               float: (int, float, np.integer, np.floating),
               list: (list, tuple)}
_HOLDS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
          "<": operator.lt}


def _check_value(name, value, kind, *rule):
    """``value`` as a ``kind`` (an int or float kind as int or float),
    refused unless it is a finite ``kind`` that keeps each (relation,
    bound) pair of ``rule``: "<name>: expected <kind>, got <type>"
    (TypeError), "<name>: must be finite, got <v>" or "<name>: must be
    <relation> <bound>, got <v>" (ValueError).

    ``kind=[int]`` asks for a list (or tuple) of ints, each checked as
    "<name>[i]" and returned in a list; ``kind=[int, 1]`` asks for at
    least one, and refuses an empty list as "<name>: empty list"
    (ValueError).
    """
    if isinstance(kind, list):
        items = _check_value(name, value, list)
        if len(kind) > 1 and not items:
            raise ValueError(f"{name}: empty list")
        return [_check_value(f"{name}[{i}]", v, kind[0], *rule)
                for i, v in enumerate(items)]
    # a bool is an int to isinstance, and JSON's true would pass as 1
    if isinstance(value, bool) or not isinstance(
            value, _KIND_TYPES.get(kind, kind)):
        raise TypeError(f"{name}: expected {kind.__name__}, got "
                        f"{type(value).__name__}")
    # NaN, ±inf and an int too big for a float all fail the comparison,
    # made on a Python number: a float32's would cast the bound to inf
    if kind is float and not abs(
            value if isinstance(value, int) else float(value)
    ) <= sys.float_info.max:
        got = "an int too big for a float" if isinstance(value, int) else value
        raise ValueError(f"{name}: must be finite, got {got}")
    for relation, bound in zip(rule[::2], rule[1::2]):
        if not _HOLDS[relation](value, bound):
            raise ValueError(
                f"{name}: must be {relation} {bound}, got {value}")
    return kind(value) if kind in (int, float) else value


def _check_args(rules, **args):
    """Each keyword argument checked by its entry in ``rules``, a table of
    name -> (kind, relation, bound, ...) (:func:`_check_value`), in the
    order given; returns the checked values in that order."""
    return [_check_value(name, value, *rules[name])
            for name, value in args.items()]


def _check_choice(name, value, choices):
    """``value``, refused unless it is one of the strings ``choices``:
    "<name>: <value!r> is not one of <a/b/...>" (ValueError)."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(
            f"{name}: {value!r} is not one of {'/'.join(choices)}")
    return value


_KEEP_RULES = {"keep": ([int],)}


def filter_classes(dataset, keep):
    """Keep only the listed classes, re-indexing labels to 0..len(keep)-1.

    ``keep`` names original labels (the keys of class_map), so filtering
    twice equals filtering once with the intersection.  Example order is
    preserved.
    """
    (keep,) = _check_args(_KEEP_RULES, keep=keep)
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep: must name at least one class")
    present = set(dataset.class_map)
    missing = [v for v in keep if v not in present]
    if missing:
        raise ValueError(
            f"keep: classes {missing} not present (have {sorted(present)})"
        )
    inverse = {v: k for k, v in dataset.class_map.items()}
    originals = np.array([inverse[int(l)] for l in dataset.labels])
    mask = np.isin(originals, keep)
    if not mask.any():
        raise ValueError(f"keep: no examples left after keeping classes {keep}")
    new_map = {orig: i for i, orig in enumerate(keep)}
    relabel = np.array([new_map[int(v)] for v in originals[mask]],
                       dtype=np.int64)
    if len(keep) < 2:
        warnings.warn(
            f"dataset reduced to {len(keep)} class(es); unusable for "
            f"boundary geometry or attacks"
        )
    return Dataset(
        images=dataset.images[mask],
        labels=relabel,
        class_map=new_map,
        dataset_id=f"{dataset.dataset_id}/keep-{'-'.join(map(str, keep))}",
    )


_SAMPLE_RULES = {"n": (int, ">=", 0), "seed": (int, ">=", 0)}


def sample(dataset, n, seed):
    """Uniform subsample without replacement, deterministic per seed; an
    ``n`` above the dataset's size is refused as its upper bound."""
    n, seed = _check_args(_SAMPLE_RULES, n=n, seed=seed)
    size = len(dataset)
    _check_value("n", n, int, "<=", size)
    idx = np.random.default_rng(seed).choice(size, size=n, replace=False)
    idx.sort()
    return Dataset(
        images=dataset.images[idx],
        labels=dataset.labels[idx],
        class_map=dict(dataset.class_map),
        dataset_id=f"{dataset.dataset_id}/sample-{n}-{seed}",
    )


_BLOBS_RULES = {"n_per_class": (int, ">=", 0), "k": (int, ">=", 2),
                "d": (int, ">=", 1), "separation": (float, ">", 0),
                "seed": (int, ">=", 0)}


def make_blobs(n_per_class, k, d, separation, seed, *, center=0.5):
    """Gaussian clusters at fixed centers, ``separation`` sigmas apart.

    With the default ``center=0.5`` everything is scaled and clipped to
    live in the [0,1] box like image data.  ``center=None`` produces raw
    unit-sigma clusters symmetric about the origin (useful for the
    closed-form linear-model checks; such data sits outside the box on
    purpose).
    """
    n_per_class, k, d, separation, seed = _check_args(
        _BLOBS_RULES, n_per_class=n_per_class, k=k, d=d,
        separation=separation, seed=seed)
    rng = np.random.default_rng(seed)
    # Unit-scale centers on a circle in the first two dims (line for d=1).
    centers = np.zeros((k, d))
    if d == 1:
        centers[:, 0] = np.arange(k) - (k - 1) / 2.0
        centers[:, 0] *= separation / max(1, k - 1)
    else:
        ang = 2.0 * np.pi * np.arange(k) / k
        radius = separation / 2.0
        centers[:, 0] = radius * np.cos(ang)
        centers[:, 1] = radius * np.sin(ang)
    images = np.concatenate([c + rng.normal(0.0, 1.0, (n_per_class, d))
                             for c in centers])
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_class)
    if center is not None:
        # Fit the cloud into the box: scale so centers plus a 4-sigma
        # fringe land inside, then shift to `center` and clip.
        extent = separation / 2.0 + 4.0
        images = center + images * (min(center, 1.0 - center) / extent)
        images = np.clip(images, 0.0, 1.0)
    return Dataset(
        images=images,
        labels=labels,
        class_map={j: j for j in range(k)},
        dataset_id=f"blobs-k{k}-d{d}-sep{separation}-seed{seed}"
                   f"{'-raw' if center is None else ''}",
    )


# -- synthetic stroke digits ----------------------------------------------


def _arc(cx, cy, rx, ry, deg0, deg1, steps=14):
    t = np.radians(np.linspace(deg0, deg1, steps))
    return np.stack([cx + rx * np.cos(t), cy + ry * np.sin(t)], axis=1)


def _digit_strokes():
    """Polyline control points per digit, in a unit square (y points down)."""
    line = lambda *pts: np.asarray(pts, dtype=np.float64)
    strokes = {
        0: [_arc(0.5, 0.5, 0.21, 0.3, 0, 360, 24)],
        1: [line((0.4, 0.32), (0.55, 0.18), (0.55, 0.82))],
        2: [np.concatenate([
            _arc(0.5, 0.35, 0.2, 0.16, 185, 390),
            line((0.3, 0.8), (0.72, 0.8)),
        ])],
        3: [_arc(0.5, 0.34, 0.18, 0.15, 200, 450),
            _arc(0.5, 0.64, 0.2, 0.17, 270, 540)],
        4: [line((0.62, 0.18), (0.3, 0.58), (0.78, 0.58)),
            line((0.66, 0.3), (0.66, 0.82))],
        5: [line((0.68, 0.2), (0.36, 0.2), (0.36, 0.48)),
            _arc(0.48, 0.62, 0.2, 0.17, 250, 510)],
        6: [line((0.63, 0.18), (0.47, 0.44)),
            _arc(0.5, 0.62, 0.17, 0.17, 140, 500)],
        7: [line((0.3, 0.2), (0.7, 0.2), (0.44, 0.82))],
        8: [_arc(0.5, 0.35, 0.16, 0.15, 0, 360, 20),
            _arc(0.5, 0.66, 0.19, 0.16, 0, 360, 20)],
        9: [_arc(0.5, 0.38, 0.17, 0.16, 0, 360, 20),
            line((0.66, 0.44), (0.6, 0.82))],
    }
    return strokes


_STROKES = _digit_strokes()


def _segments(polys):
    a = np.concatenate([p[:-1] for p in polys])
    b = np.concatenate([p[1:] for p in polys])
    return a, b


# Example x segment x pixel elements per distance-field pass (one example
# at least): each of the pass's three buffers then holds about 512 KB and
# stays in cache.
_RENDER_CHUNK = 1 << 16


def _render(a, b, size, widths):
    """Distance-field rasterization of E polylines on a size x size grid.

    ``a`` and ``b`` are the (E, S, 2) segment start and end points (x, y)
    of E examples with S segments each; ``widths`` is (E,).  Returns the
    (E, size, size) images.  Each example's image is, bit for bit, the one
    a per-example pass over a (pixels, segments, 2) array gives: the x and
    y parts are separate (examples, segments, pixels) arrays, a sum over
    the (x, y) axis is the x part plus the y part, and the minimum over
    segments is taken before the square root, which is monotone and
    correctly rounded.  Examples go through in chunks of about
    ``_RENDER_CHUNK`` elements.
    """
    coords = (np.arange(size) + 0.5) / size
    px = np.tile(coords, size)  # row-major pixel order: x varies fastest
    py = np.repeat(coords, size)
    ab = b - a
    ax, ay = a[..., 0, None], a[..., 1, None]  # (E, S, 1)
    abx, aby = ab[..., 0, None], ab[..., 1, None]
    denom = abx * abx + aby * aby
    denom[denom == 0.0] = 1e-12
    n_ex, n_seg = a.shape[:2]
    img = np.empty((n_ex, size * size))
    step = max(1, _RENDER_CHUNK // (n_seg * size * size))
    shape = (min(step, n_ex), n_seg, size * size)
    tbuf, xbuf, ybuf = np.empty(shape), np.empty(shape), np.empty(shape)
    for lo in range(0, n_ex, step):
        e = slice(lo, lo + step)
        m = min(step, n_ex - lo)
        t, x, y = tbuf[:m], xbuf[:m], ybuf[:m]
        # t = clip((p - a)·ab / |ab|², 0, 1)
        np.subtract(px, ax[e], out=x)
        x *= abx[e]
        np.subtract(py, ay[e], out=y)
        y *= aby[e]
        np.add(x, y, out=t)
        t /= denom[e]
        np.clip(t, 0.0, 1.0, out=t)
        # |p - (a + t·ab)|², minimized over segments
        np.multiply(t, abx[e], out=x)
        x += ax[e]
        np.subtract(px, x, out=x)
        x *= x
        np.multiply(t, aby[e], out=y)
        y += ay[e]
        np.subtract(py, y, out=y)
        y *= y
        x += y
        x.min(axis=1, out=img[e])
    # exp(-(dist / width)²) with dist = sqrt(min |p - closest|²), in place
    np.sqrt(img, out=img)
    img /= widths[:, None]
    img *= img
    np.negative(img, out=img)
    np.exp(img, out=img)
    return img.reshape(n_ex, size, size)


def _blur(images, sigmas, out):
    """Gaussian-blur each (size, size) image of ``images`` (E, size, size)
    with its own sigma into ``out``; bit for bit what
    ``scipy.ndimage.gaussian_filter(images[e], sigma=sigmas[e])`` gives.

    As there: radius r = int(4 sigma + 0.5), weights exp(-0.5 / sigma² ·
    x²) over x = -r..r divided by their sum, edges reflected with the
    edge pixel repeated (``np.pad``'s "symmetric", which reflects again
    when r exceeds the image), and one 1-D pass per axis, first axis
    first.  Each output is the centre pixel times w_0 plus, from the
    outermost mirrored pair inward, (left + right) · w_j.  Examples of
    one radius go through as one batch.
    """
    radii = (4.0 * sigmas + 0.5).astype(np.int64)
    for r in sorted(set(radii.tolist())):  # np.unique would import numpy.ma
        rows = np.nonzero(radii == r)[0]
        sig = sigmas[rows, None]
        w = np.exp(-0.5 / (sig * sig) * np.arange(-r, r + 1) ** 2)
        w = (w / w.sum(axis=1, keepdims=True))[:, :, None, None]
        x = images[rows]
        for _ in range(2):  # swapped, the last axis is axis 1, then axis 2
            x = x.swapaxes(1, 2)
            n = x.shape[2]
            p = np.pad(x, ((0, 0), (0, 0), (r, r)), mode="symmetric")
            x = p[..., r:r + n] * w[:, r]
            for j in range(r, 0, -1):
                x += (p[..., r - j:r - j + n] + p[..., r + j:r + j + n]) \
                    * w[:, r + j]
        out[rows] = x


def _digit_images(rng, base, out):
    """Fill ``out`` (E, size, size) with E jittered renderings of the
    stroke template ``base``.

    Rendering draws nothing, so every example's jitter, width, blur and
    noise are drawn first, in per-example order; then all E examples are
    rendered at 2x resolution in one :func:`_render` call, mean-pooled
    down and blurred by :func:`_blur`, one batch per kernel radius.
    """
    n, size = len(out), out.shape[-1]
    n_seg = sum(len(ply) - 1 for ply in base)
    a = np.empty((n, n_seg, 2))
    b = np.empty((n, n_seg, 2))
    widths = np.empty(n)
    sigmas = np.empty(n)
    noise = np.empty((n, size, size))
    for e in range(n):
        theta = rng.uniform(-0.21, 0.21)
        scale = rng.uniform(0.85, 1.1)
        shift = rng.uniform(-0.05, 0.05, 2)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        polys = []
        for ply in base:
            jit = ply + rng.normal(0.0, 0.015, ply.shape)
            polys.append((jit - 0.5) @ (scale * rot).T + 0.5 + shift)
        a[e], b[e] = _segments(polys)
        widths[e] = rng.uniform(0.022, 0.03)
        sigmas[e] = rng.uniform(0.4, 0.9)
        noise[e] = rng.normal(0.0, 0.02, (size, size))
    fine = _render(a, b, 2 * size, widths)
    pooled = fine.reshape(n, size, 2, size, 2).mean(axis=(2, 4))
    _blur(pooled, sigmas, out)
    out += noise
    np.clip(out, 0.0, 1.0, out=out)


# a class's range is the digits with a stroke template
_DIGITS_RULES = {"n_per_class": (int, ">=", 0), "classes": ([int],),
                 "size": (int, ">=", 1), "seed": (int, ">=", 0)}


def make_digits(n_per_class, *, classes=tuple(range(10)), size=28, seed=0):
    """Stroke-rendered digit corpus with per-example geometric jitter.

    Each example perturbs the control points, rotates up to ~12 degrees,
    rescales, translates, renders a distance field at 2x resolution,
    mean-pools down, blurs, and adds pixel noise.  Deterministic per seed:
    the draws come in per-example order, class by class, and each class
    is rendered as one batch (:func:`_digit_images`).
    """
    n_per_class, classes, size, seed = _check_args(
        _DIGITS_RULES, n_per_class=n_per_class, classes=classes, size=size,
        seed=seed)
    for i, cl in enumerate(classes):
        if cl not in _STROKES:
            raise ValueError(f"classes: no stroke template for digit {cl}")
        if cl in classes[:i]:  # two classes would share one class_map key
            raise ValueError(f"classes: digit {cl} is listed twice")
    rng = np.random.default_rng(seed)
    images = np.empty((n_per_class * len(classes), 1, size, size))
    labels = np.repeat(np.arange(len(classes), dtype=np.int64), n_per_class)
    for ci, cl in enumerate(classes):
        rows = images[ci * n_per_class:(ci + 1) * n_per_class, 0]
        _digit_images(rng, _STROKES[cl], rows)
    order = rng.permutation(len(labels))
    return Dataset(
        images=images[order],
        labels=labels[order],
        class_map={cl: i for i, cl in enumerate(classes)},
        dataset_id=f"digits-{''.join(map(str, classes))}-n{n_per_class}"
                   f"-s{seed}",
    )
