"""The test process computes on one OpenBLAS thread, as every CLI process does.

Tests run train, eval and the encoders in process, and their modules import
numpy before any of them imports ``memefuse.cli``, so the count is set here.
pytest loads this file before it collects a test module, the first of which
(``perfbench/test_perfbench.py``) imports numpy; OpenBLAS reads the count
only while numpy loads.
"""

import os
import sys

if "numpy" in sys.modules:
    raise RuntimeError("numpy was loaded before conftest.py could set OPENBLAS_NUM_THREADS=1; "
                       "its thread pool would not be the CLI's one thread")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
