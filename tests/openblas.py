"""numpy's bundled OpenBLAS, read through ctypes: its thread count and kernel name.

The library is found by the wheel layout (``numpy.libs``); with any other
BLAS both readers say so.  Imported by the thread tests and by
``record_golden.py``; pytest does not collect this file.
"""

import ctypes
import functools
from pathlib import Path

import numpy as np

# thread-count getters of the OpenBLAS builds numpy wheels bundle
THREAD_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads")


@functools.cache
def _library():
    """(library, thread-count getter) of numpy's OpenBLAS, or None if none is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for name in THREAD_GETTERS:
            if hasattr(handle, name):
                get = getattr(handle, name)
                get.argtypes, get.restype = [], ctypes.c_int
                return handle, get
    return None


def threads():
    """numpy's OpenBLAS thread count, or None if numpy bundles no OpenBLAS."""
    found = _library()
    return None if found is None else found[1]()


def kernel_name() -> str:
    """The kernel family numpy's OpenBLAS picked (``SkylakeX``, ``Haswell``, ...)."""
    found = _library()
    get = getattr(found[0], "scipy_openblas_get_corename64_", None) if found else None
    if get is None:
        return "unknown (no scipy_openblas_get_corename64_ in numpy's BLAS)"
    get.argtypes, get.restype = [], ctypes.c_char_p
    return get().decode()
