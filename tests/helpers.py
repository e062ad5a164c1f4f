"""Shared test utilities: finite differences, error metrics and
checkpoint surgery."""

import json

import numpy as np


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of scalar f at x, elementwise."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = f(x)
        flat[i] = keep - eps
        lo = f(x)
        flat[i] = keep
        gf[i] = (hi - lo) / (2 * eps)
    return g


def rel_err(analytic, fd):
    """Norm-relative gradient error; safe when the true gradient is 0."""
    analytic = np.asarray(analytic, dtype=np.float64)
    fd = np.asarray(fd, dtype=np.float64)
    return float(np.linalg.norm(analytic - fd)
                 / max(np.linalg.norm(fd), 1e-12))


def rewrite_checkpoint_header(src, dst, mutate):
    """Copy checkpoint ``src`` to ``dst`` with ``mutate`` applied to its
    parsed JSON header; the payload bytes are kept as they are."""
    magic, header, payload = src.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    mutate(header)
    dst.write_bytes(b"\n".join((magic, json.dumps(header).encode(),
                                payload)))
