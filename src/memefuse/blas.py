"""One BLAS thread for a scope, on the OpenBLAS that numpy bundles.

The BiLSTM trunk alternates small GEMMs with single-threaded element-wise
passes, so a second OpenBLAS thread mostly spins between GEMMs; the
frozen encoders' GEMMs are small too, and the captioner's convolution
GEMMs, the only ones large enough to wake a second thread, gain no wall
time from it.  A threaded GEMM also splits its sums by the thread count,
so features and trained weights would depend on the host's core count.
Balancing's Gram GEMM only shortlists neighbours for an exact float64
rerank, so its bytes do not depend on the count, but a second thread
doubled its CPU time for no wall time.  Building the training set,
training and prediction run inside ``single_thread``, which pins OpenBLAS
to one thread while its body runs and restores the previous count after.
Encoding and the fusion of imported embeddings come as one stream of
blocks, whose generator runs as ``pipeline.build_training_set`` or
``model.predict_blocks`` draws it, so inside their scope.
With any other BLAS (MKL, Accelerate, a system OpenBLAS that numpy does
not bundle) it does nothing.  The count is process-wide: scopes must not
run concurrently in threads of one process.

``memefuse.cli`` goes further and starts OpenBLAS on one thread: it sets
``OPENBLAS_NUM_THREADS=1`` as it is imported, unless the caller set it, and
numpy loads only later, when ``train`` or ``eval`` first imports the numpy
stack (``ingest`` and ``preprocess`` never load it).  The worker OpenBLAS
starts for each further core would never get work in a command, yet it
spins for about 0.13 s of CPU after numpy loads, which setting the count
after the import does not stop.  A program that imported numpy before
``memefuse.cli`` keeps its pool; the scopes still guard its calls.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (get, set) symbol names of the OpenBLAS builds numpy wheels bundle
THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """(library, get symbol, set symbol) of numpy's OpenBLAS, opened by ctypes,
    or None if none is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for get_name, set_name in THREAD_SYMBOLS:
            if hasattr(handle, get_name) and hasattr(handle, set_name):
                return handle, get_name, set_name
    return None


@functools.cache
def _thread_controls():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None if none is found."""
    found = _openblas()
    if found is None:
        return None
    handle, get_name, set_name = found
    get, put = getattr(handle, get_name), getattr(handle, set_name)
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def single_thread():
    """Run the body on one OpenBLAS thread; a no-op when no OpenBLAS is found."""
    controls = _thread_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
