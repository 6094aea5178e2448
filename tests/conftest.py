"""Pin BLAS to one thread before any test module imports numpy.

``stairlab`` sets the same pin on import, but the test modules import
numpy first, and BLAS reads these variables only when numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
