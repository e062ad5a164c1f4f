import os
import subprocess
import sys

import numpy as np
import pytest

import boundarylab
from boundarylab import kernels
from boundarylab.kernels import pyref


@pytest.fixture(scope="module")
def native():
    """The compiled backend; tests that need it skip when it is not built."""
    return pytest.importorskip("boundarylab.kernels._native",
                               reason="compiled backend not built")


def _conv_case(rng, b, ci, h, w, co, k):
    x = np.ascontiguousarray(rng.standard_normal((b, ci, h, w)))
    wt = np.ascontiguousarray(rng.standard_normal((co, ci, k, k)))
    bias = np.ascontiguousarray(rng.standard_normal(co))
    oh, ow = h - k + 1, w - k + 1
    gy = np.ascontiguousarray(rng.standard_normal((b, co, oh, ow)))
    return x, wt, bias, gy


# odd channel counts cover the blocked loops' remainder paths
@pytest.mark.parametrize("b,ci,h,w,co,k", [
    (3, 1, 8, 8, 4, 3),
    (2, 5, 9, 7, 7, 3),
    (1, 8, 6, 6, 4, 5),
    (4, 3, 5, 5, 1, 1),
])
def test_conv_primitives_agree_across_backends(native, rng, b, ci, h, w, co,
                                               k):
    x, wt, bias, gy = _conv_case(rng, b, ci, h, w, co, k)
    np.testing.assert_allclose(
        native.conv2d_forward(x, wt, bias),
        pyref.conv2d_forward(x, wt, bias), rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(
        native.conv2d_input_grad(gy, wt, h, w),
        pyref.conv2d_input_grad(gy, wt, h, w), rtol=1e-10, atol=1e-12)
    gw_n, gb_n = native.conv2d_param_grad(x, gy, k, k)
    gw_p, gb_p = pyref.conv2d_param_grad(x, gy, k, k)
    np.testing.assert_allclose(gw_n, gw_p, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(gb_n, gb_p, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("shape", [(2, 3, 8, 8), (1, 1, 5, 7), (3, 2, 2, 2)])
def test_pool_primitives_agree_across_backends(native, rng, shape):
    x = np.ascontiguousarray(rng.standard_normal(shape))
    yn, idn = native.maxpool2_forward(x)
    yp, idp = pyref.maxpool2_forward(x)
    np.testing.assert_array_equal(yn, yp)
    np.testing.assert_array_equal(idn, idp)
    gy = np.ascontiguousarray(rng.standard_normal(yn.shape))
    h, w = shape[2], shape[3]
    np.testing.assert_array_equal(
        native.maxpool2_backward(gy, idn, h, w),
        pyref.maxpool2_backward(gy, idp, h, w))


def test_pool_ties_agree_across_backends(native):
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 1, 1] = x[0, 0, 0, 0] = 1.0  # tie inside the first window
    _, idn = native.maxpool2_forward(x)
    _, idp = pyref.maxpool2_forward(x)
    np.testing.assert_array_equal(idn, idp)
    assert idn[0, 0, 0, 0] == 0  # first in scan order wins


def test_padding_wrapper_matches_manual_pad(rng):
    x = rng.standard_normal((2, 3, 6, 6))
    w = rng.standard_normal((4, 3, 3, 3))
    bias = rng.standard_normal(4)
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    np.testing.assert_allclose(
        kernels.conv2d_forward(x, w, bias, padding=1),
        pyref.conv2d_forward(np.ascontiguousarray(padded),
                             np.ascontiguousarray(w),
                             np.ascontiguousarray(bias)),
        rtol=1e-12)


def test_empty_batch_round_trips(native):
    x = np.zeros((0, 2, 6, 6))
    w = np.zeros((3, 2, 3, 3))
    bias = np.zeros(3)
    assert native.conv2d_forward(x, w, bias).shape == (0, 3, 4, 4)
    y, idx = native.maxpool2_forward(x)
    assert y.shape == (0, 2, 3, 3)


def _backend_of(env_value):
    code = ("import boundarylab.kernels as k; print(k.BACKEND)")
    # the package directory's parent, so an uninstalled checkout imports
    src = os.path.dirname(os.path.dirname(boundarylab.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "BOUNDARYLAB_KERNELS": env_value,
             "PYTHONPATH": src},
        capture_output=True, text=True, cwd="/",
    )


def test_backend_env_forces_python():
    res = _backend_of("python")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "python"


def test_backend_env_forces_native(native):
    res = _backend_of("native")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "native"


def test_backend_env_rejects_unknown_value():
    res = _backend_of("gpu")
    assert res.returncode != 0
    assert "BOUNDARYLAB_KERNELS" in res.stderr


def test_backends_match_through_public_wrappers(rng):
    # the wrapper handles padding and contiguity for both backends
    x = rng.standard_normal((2, 2, 7, 7))[:, :, ::1, ::1]
    w = rng.standard_normal((3, 2, 3, 3))
    bias = rng.standard_normal(3)
    y = kernels.conv2d_forward(x, w, bias, padding=1)
    gy = rng.standard_normal(y.shape)
    gx = kernels.conv2d_input_grad(gy, w, x.shape, padding=1)
    assert gx.shape == x.shape
    gw, gb = kernels.conv2d_param_grad(x, gy, w.shape, padding=1)
    assert gw.shape == w.shape and gb.shape == bias.shape
