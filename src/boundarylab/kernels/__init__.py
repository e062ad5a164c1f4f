"""Hot numeric kernels behind a backend switch.

``_native`` is a Cython extension compiled at install time; when it is
absent (source checkout without build step, missing compiler) the numpy
reference implementations in :mod:`pyref` take over transparently.

Environment:
    BOUNDARYLAB_KERNELS=auto|native|python   backend selection (default auto)

Results are byte-identical for one machine and backend.  Across backends
the kernels agree to ~1e-12, not bit for bit (different summation
orders), so outputs may differ in the last bits.  ``bench/run.py
--trace 1`` times each kernel at the shapes the presets run.
"""

import os

import numpy as np

from . import pyref

_requested = os.environ.get("BOUNDARYLAB_KERNELS", "auto").lower()

if _requested not in ("auto", "native", "python"):
    raise ValueError(
        f"BOUNDARYLAB_KERNELS={_requested!r}: expected auto, native or python"
    )

BACKEND = "python"
_impl = pyref
if _requested in ("auto", "native"):
    try:
        from . import _native as _impl  # type: ignore[no-redef]

        BACKEND = "native"
    except ImportError:
        if _requested == "native":
            raise ImportError(
                "BOUNDARYLAB_KERNELS=native but boundarylab.kernels._native is "
                "not built; run `pip install -e . --no-build-isolation`"
            ) from None
        _impl = pyref


def _c64(a):
    return np.ascontiguousarray(a, dtype=np.float64)


def conv2d_forward(x, w, bias, padding=0):
    """Valid cross-correlation of (B,C,H,W) with (O,C,kh,kw) plus bias."""
    x = _c64(x)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return _impl.conv2d_forward(x, _c64(w), _c64(bias))


def conv2d_input_grad(gy, w, x_shape, padding=0):
    """Gradient w.r.t. the conv input, shape x_shape = (B,C,H,W)."""
    h, wdt = x_shape[2] + 2 * padding, x_shape[3] + 2 * padding
    gx = _impl.conv2d_input_grad(_c64(gy), _c64(w), h, wdt)
    if padding:
        gx = gx[:, :, padding:-padding, padding:-padding]
    return np.ascontiguousarray(gx)


def conv2d_param_grad(x, gy, w_shape, padding=0):
    """Gradients w.r.t. conv weight (O,C,kh,kw) and bias (O,)."""
    x = _c64(x)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    return _impl.conv2d_param_grad(x, _c64(gy), w_shape[2], w_shape[3])


def maxpool2_forward(x):
    """2x2/stride-2 max pool; returns (pooled, window argmax codes 0..3).

    Odd trailing rows/columns are dropped. Ties pick the first maximum in
    row-major window scan order.
    """
    return _impl.maxpool2_forward(_c64(x))


def maxpool2_backward(gy, idx, x_shape):
    """Scatter upstream values back to the argmax positions."""
    return _impl.maxpool2_backward(_c64(gy), idx, x_shape[2], x_shape[3])
