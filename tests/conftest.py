"""Import mfca before any test module loads numpy, so that the package's
one-thread BLAS default is in the environment when numpy's and scipy's
OpenBLAS start, and tier-1 runs with the thread layout the CLI has."""

import mfca  # noqa: F401
