"""The hot kernels, bound where the rest of the package imports them.

`axial._kernels_py` is the one implementation; `kernel_backend()` names it
in the benchmark's context line.
"""

from axial import _kernels_py as kernels


def kernel_backend() -> str:
    """Name of the kernel implementation."""
    return "pure"
