"""Pin BLAS to one thread and numpy to its AVX2 loops before any test module imports numpy.

``stairlab`` sets the BLAS pin on import, but the test modules import
numpy first, and BLAS reads these variables only when numpy loads.

numpy picks its SIMD loops for the CPU it runs on, and ``np.exp`` and
``np.log`` round differently in their AVX2 and AVX-512 loops, so the
training goldens would hold on one kind of x86 machine only. Disabling
the AVX-512 levels makes every x86 CPU with AVX2 run the same loops. A
caller who sets ``NPY_DISABLE_CPU_FEATURES`` keeps their own setting.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("NPY_DISABLE_CPU_FEATURES", "X86_V4 AVX512_ICL AVX512_SPR")
