"""Multi-frequency class averaging: spectral clustering of noisy viewing
directions with per-frequency Hermitian matrices, plus the analytic spectral
theory behind it."""

import os

# One BLAS thread each for numpy's and scipy's OpenBLAS, unless the caller
# set a count: pipeline.embed_all solves the frequencies side by side, one
# thread a core, and BLAS threads on top would oversubscribe the cores for
# no gain on its small products.  Read when numpy and scipy load, so it is
# set before any of them do.
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
