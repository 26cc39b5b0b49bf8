"""Multi-frequency class averaging: spectral clustering of noisy viewing
directions with per-frequency Hermitian matrices, plus the analytic spectral
theory behind it."""

import os

# One BLAS thread each for numpy's and scipy's OpenBLAS, unless the caller
# set a count: pipeline.fork_map runs the frequency solves and the K-NN row
# blocks on forked worker processes, one a core (in this process when there
# is one core), and BLAS threads in every worker would oversubscribe the
# cores for no gain on their small products.  Read when numpy and scipy
# load, so it is set before any of them do.  A program that imports numpy
# before mfca keeps BLAS threads in its own process; fork_map's workers set
# their OpenBLAS to one thread when they start, as unpinned they made
# knn_streamed 2 to 25 times slower on 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import eigensolver, graphs, imaging, pipeline, so3, spectral, wigner  # noqa: E402

__all__ = [
    "eigensolver",
    "graphs",
    "imaging",
    "pipeline",
    "so3",
    "spectral",
    "wigner",
]

__version__ = "0.1.0"
