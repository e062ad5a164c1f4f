"""Dataset loading, filtering, sampling, and synthetic fixtures.

Images are float64 in [0,1]; labels are compact class indices with a
``class_map`` recording which original label each index came from.  The
IDX reader/writer speaks the classic big-endian byte format.  Two
synthetic generators cover testing needs: Gaussian blobs with closed-form
structure, and a stroke-rendered digit corpus that stands in for
handwritten digits when no corpus file is available.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

_IMAGES_MAGIC = 0x00000803
_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable labeled image batch.

    ``class_map`` maps original label -> compact index; labels stored on
    the dataset are always the compact indices 0..K-1.
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
            ks = sorted(int(v) for v in np.unique(self.labels))
            object.__setattr__(self, "class_map", {k: k for k in ks})

    def __len__(self):
        return len(self.labels)

    @property
    def k(self):
        return len(self.class_map)

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


def filter_classes(dataset, keep):
    """Keep only the listed classes, re-indexing labels to 0..len(keep)-1.

    ``keep`` names original labels (the keys of class_map), so filtering
    twice equals filtering once with the intersection.  Example order is
    preserved.
    """
    keep = sorted(set(int(v) for v in keep))
    if not keep:
        raise ValueError("keep must name at least one class")
    present = set(dataset.class_map)
    missing = [v for v in keep if v not in present]
    if missing:
        raise ValueError(
            f"classes {missing} not present (have {sorted(present)})"
        )
    inverse = {v: k for k, v in dataset.class_map.items()}
    originals = np.array([inverse[int(l)] for l in dataset.labels])
    mask = np.isin(originals, keep)
    if not mask.any():
        raise ValueError(f"no examples left after keeping classes {keep}")
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


def sample(dataset, n, seed):
    """Uniform subsample without replacement, deterministic per seed."""
    _check_count("seed", seed, 0)
    size = len(dataset)
    if n > size:
        raise ValueError(f"cannot sample {n} from {size} examples")
    idx = np.random.default_rng(seed).choice(size, size=n, replace=False)
    idx.sort()
    return Dataset(
        images=dataset.images[idx],
        labels=dataset.labels[idx],
        class_map=dict(dataset.class_map),
        dataset_id=f"{dataset.dataset_id}/sample-{n}-{seed}",
    )


def _check_count(name, value, least):
    # an argument is refused as "<name>: ...", which callers map to their key
    if value < least:
        raise ValueError(f"{name}: must be >= {least}, got {value}")


def make_blobs(n_per_class, k, d, separation, seed, *, center=0.5):
    """Gaussian clusters at fixed centers, ``separation`` sigmas apart.

    With the default ``center=0.5`` everything is scaled and clipped to
    live in the [0,1] box like image data.  ``center=None`` produces raw
    unit-sigma clusters symmetric about the origin (useful for the
    closed-form linear-model checks; such data sits outside the box on
    purpose).
    """
    _check_count("n_per_class", n_per_class, 0)
    _check_count("k", k, 2)
    _check_count("d", d, 1)
    if separation <= 0:
        raise ValueError(f"separation: must be > 0, got {separation}")
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    # Unit-scale centers on a circle in the first two dims (line for d=1).
    centers = np.zeros((k, d))
    if d == 1:
        for j in range(k):
            centers[j, 0] = (j - (k - 1) / 2.0)
        centers[:, 0] *= separation / max(1, k - 1)
    else:
        ang = 2.0 * np.pi * np.arange(k) / k
        radius = separation / 2.0
        centers[:, 0] = radius * np.cos(ang)
        centers[:, 1] = radius * np.sin(ang)
    xs, ys = [], []
    for j in range(k):
        pts = centers[j] + rng.normal(0.0, 1.0, (n_per_class, d))
        xs.append(pts)
        ys.append(np.full(n_per_class, j, dtype=np.int64))
    images = np.concatenate(xs)
    labels = np.concatenate(ys)
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


def _render(polys, size, width):
    """Distance-field rasterization of polylines on a size x size grid."""
    a, b = _segments(polys)
    coords = (np.arange(size) + 0.5) / size
    px, py = np.meshgrid(coords, coords, indexing="xy")
    p = np.stack([px.ravel(), py.ravel()], axis=1)  # (P, 2), (x, y)
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    denom[denom == 0.0] = 1e-12
    ap = p[:, None, :] - a[None, :, :]  # (P, S, 2)
    tpar = np.clip((ap * ab[None]).sum(axis=2) / denom, 0.0, 1.0)
    closest = a[None] + tpar[:, :, None] * ab[None]
    dist = np.sqrt(((p[:, None, :] - closest) ** 2).sum(axis=2)).min(axis=1)
    img = np.exp(-((dist / width) ** 2))
    return img.reshape(size, size)


def make_digits(n_per_class, *, classes=tuple(range(10)), size=28, seed=0):
    """Stroke-rendered digit corpus with per-example geometric jitter.

    Each example perturbs the control points, rotates up to ~12 degrees,
    rescales, translates, renders a distance field at 2x resolution,
    mean-pools down, blurs, and adds pixel noise.  Deterministic per seed.
    """
    _check_count("n_per_class", n_per_class, 0)
    _check_count("size", size, 1)
    _check_count("seed", seed, 0)
    classes = tuple(int(cl) for cl in classes)
    for cl in classes:
        if cl not in _STROKES:
            raise ValueError(f"classes: no stroke template for digit {cl}")
    rng = np.random.default_rng(seed)
    hi = 2 * size
    images = np.empty((n_per_class * len(classes), 1, size, size))
    labels = np.empty(n_per_class * len(classes), dtype=np.int64)
    row = 0
    for ci, cl in enumerate(classes):
        base = _STROKES[cl]
        for _ in range(n_per_class):
            theta = rng.uniform(-0.21, 0.21)
            scale = rng.uniform(0.85, 1.1)
            shift = rng.uniform(-0.05, 0.05, 2)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            polys = []
            for ply in base:
                jit = ply + rng.normal(0.0, 0.015, ply.shape)
                polys.append((jit - 0.5) @ (scale * rot).T + 0.5 + shift)
            width = rng.uniform(0.022, 0.03)
            img = _render(polys, hi, width)
            img = img.reshape(size, 2, size, 2).mean(axis=(1, 3))
            img = gaussian_filter(img, sigma=rng.uniform(0.4, 0.9))
            img = img + rng.normal(0.0, 0.02, img.shape)
            images[row, 0] = np.clip(img, 0.0, 1.0)
            labels[row] = ci
            row += 1
    order = rng.permutation(len(labels))
    return Dataset(
        images=images[order],
        labels=labels[order],
        class_map={cl: i for i, cl in enumerate(classes)},
        dataset_id=f"digits-{''.join(map(str, classes))}-n{n_per_class}"
                   f"-s{seed}",
    )
