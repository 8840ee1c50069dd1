"""Depth-detachable MLP training on MNIST.

One parameter store backs a nested family of classifiers: removing the
trained base model's leading layers yields smaller models that were
optimized jointly with it and stay accurate on their own.
"""

import os

# One BLAS thread, set before numpy loads: fixed seeds give bitwise
# reproducible runs and resumes only with a fixed summation order. When
# numpy loaded first, blas.one_blas_thread sets OpenBLAS's count itself
# before the first step or evaluation.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
