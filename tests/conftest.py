"""Pin BLAS to one thread before any test module imports numpy.

``import stairlab`` sets the pin, and BLAS reads it only when numpy
loads, so this runs before the test modules, which import numpy first.
The suite sets no other variable: numpy runs the SIMD loops of the CPU
it finds. Every exp and log of training goes through libm, so the
outputs hold per (numpy version, libm, BLAS on one thread), and numpy's
AVX2 and AVX-512 loops give the same bytes. Below AVX2, ``np.tanh``
rounds differently, so the training goldens need at least AVX2.
"""

import stairlab  # noqa: F401
