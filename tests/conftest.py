"""The BLAS kernel this process computes on, and the fixture that picks its pins.

The golden chains, the workload chain digests and demo 04's stdout are bytes of
dgemm results, and OpenBLAS's kernels sum in different orders, so each of those
pins is a {kernel name: value} map. Run as a script, this file prints the kernel
name: `python tests/conftest.py`.
"""

import ctypes
import functools
import glob
import os

import numpy as np
import pytest

RECORD_COMMAND = "PYTHONPATH=src python tests/record_pins.py"


@functools.cache
def blas_kernel() -> str:
    """The core name numpy's bundled OpenBLAS computes with (the CPU's, unless
    OPENBLAS_CORETYPE names another), or "unknown" when numpy bundles no
    OpenBLAS that reports one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


@pytest.fixture
def kernel_pin(request):
    """kernel_pin(pins): the value a {kernel name: value} map pins for this
    process's BLAS kernel. With no pin for it the test fails, naming the kernel
    and the command that records its pins; it never skips."""
    def pick(pins):
        kernel = blas_kernel()
        if kernel not in pins:
            pytest.fail(f"{request.node.name}: no pin for BLAS kernel {kernel!r} (pinned: "
                        f"{', '.join(pins)}); record this kernel's pins with "
                        f"`{RECORD_COMMAND}` on it, or under OPENBLAS_CORETYPE={kernel}",
                        pytrace=False)
        return pins[kernel]
    return pick


if __name__ == "__main__":
    print(blas_kernel())
