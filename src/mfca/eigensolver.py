"""Deterministic top-m eigenpair extraction for sparse Hermitian matrices.

Every solve takes the iterative Krylov path (ARPACK) with a start vector
derived deterministically from a hash of the matrix entries, so repeated
solves of the same matrix give bit-identical output.  ARPACK returns at most
n - 2 eigenpairs of an n x n complex matrix, so top_eigenpairs accepts only
1 <= m < n - 1, for real input too, and has no dense fallback.

ARPACK stops at a tolerance set by the residual contract, not at machine
precision.  A Rayleigh-Ritz step then makes the returned basis orthonormal:
for complex input ARPACK runs its non-symmetric driver, whose basis of a
degenerate eigenspace need not be.  The contract checks both the residuals
and the orthonormality of what is returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh, qr
from scipy.linalg.blas import get_blas_funcs
from scipy.sparse.linalg import ArpackError, eigsh

RESIDUAL_TOL = 1e-10  # worst residual allowed, relative to max(1, ||H||_F)
ORTHO_TOL = 1e-12  # largest entry of |V^H V - I| allowed
# ARPACK stops once each Ritz estimate is at most ARPACK_TOL * |theta|, and
# |theta| <= ||H||_2 <= ||H||_F.  The true residuals reach 0.999 of that
# stopping bound on the N=2000, p=0.1 matrices H^(1..10), so a tolerance of
# RESIDUAL_TOL itself would leave no margin; a factor of ten does.
ARPACK_TOL = RESIDUAL_TOL / 10


class EigensolverError(RuntimeError):
    """Raised on a request ARPACK cannot serve, an ARPACK failure
    (non-convergence included), or a violated residual contract."""


@dataclass(frozen=True)
class HermitianMatrix:
    """An n x n Hermitian matrix, stored as sparse CSR.

    A real input stays real, so ARPACK's symmetric Lanczos driver solves it
    and keeps a degenerate eigenspace's basis orthonormal.
    """

    data: sp.csr_matrix

    def __post_init__(self):
        d = sp.csr_matrix(self.data)
        if d.shape[0] != d.shape[1]:
            raise ValueError("matrix must be square")
        object.__setattr__(self, "data", d)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def frobenius(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.data.data) ** 2)))


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with orthonormal eigenvector columns."""

    values: np.ndarray  # (m,) real
    vectors: np.ndarray  # (n, m) complex

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=complex))


def _start_vector(h: HermitianMatrix) -> np.ndarray:
    # the hash runs over indptr, indices and data, then eight zero bytes:
    # every seeded output depends on these exact start vectors.  Feeding the
    # buffers one by one copies none of them.
    sha = hashlib.sha256()
    for part in (h.data.indptr, h.data.indices, h.data.data):
        sha.update(part)
    sha.update(bytes(8))
    rng = np.random.default_rng(int.from_bytes(sha.digest()[:8], "little"))
    v = rng.standard_normal(h.n)
    return v / np.linalg.norm(v)


# The dense steps below (QR, the m x m products, the eigh of the Ritz matrix
# and the Gram) run on scipy's BLAS and LAPACK, never numpy's.  numpy and
# scipy each load their own OpenBLAS; after a threaded numpy matmul or
# np.linalg call, numpy's BLAS threads keep spinning and take a core from the
# next ARPACK solve: the solves for k = 1..10 at N=2000, p=0.1 took 2.75 s
# with numpy's and 1.41 s with scipy's (medians of 5 processes, 2 cores).


def _rayleigh_ritz(h: HermitianMatrix, vecs: np.ndarray):
    """Ritz values (descending), orthonormal Ritz vectors X and H X over the
    span of vecs: Q from a QR of vecs, then eigh of Q^H H Q = Y diag(w) Y^H
    gives X = Q Y and H X = (H Q) Y."""
    q = qr(vecs, mode="economic", check_finite=False)[0]
    hq = h.data @ q
    gemm = get_blas_funcs("gemm", (q, hq))
    vals, y = eigh(gemm(1.0, q, hq, trans_a=2), check_finite=False)
    y = y[:, ::-1]
    return vals[::-1], gemm(1.0, q, y), gemm(1.0, hq, y)


def _check_contract(h: HermitianMatrix, values, vectors, h_vectors) -> None:
    """Raise EigensolverError unless every residual ||H v - lambda v|| is at
    most RESIDUAL_TOL * max(1, ||H||_F) and max |V^H V - I| is at most
    ORTHO_TOL; h_vectors is H @ vectors."""
    scale = max(1.0, h.frobenius())
    resid = h_vectors - vectors * values[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if not worst <= RESIDUAL_TOL * scale:  # NaN fails too
        raise EigensolverError(
            f"residual contract violated: {worst:.3e} > {RESIDUAL_TOL:.1e}*{scale:.3e}"
        )
    gram = get_blas_funcs("gemm", (vectors,))(1.0, vectors, vectors, trans_a=2)
    off = float(np.max(np.abs(gram - np.eye(len(gram)))))
    if not off <= ORTHO_TOL:
        raise EigensolverError(
            f"orthonormality contract violated: max |V^H V - I| = {off:.3e} > {ORTHO_TOL:.1e}"
        )


def top_eigenpairs(h: HermitianMatrix, m: int) -> EigenPairs:
    """The m algebraically largest eigenpairs of h, descending, for
    1 <= m < n - 1, with orthonormal eigenvectors (real for real input).

    Deterministic for fixed input; the start vector is seeded from a hash of
    the matrix entries.
    """
    n = h.n
    if not 1 <= m < n - 1:
        limit = f"ARPACK needs 1 <= m < n - 1 = {n - 1}"
        raise EigensolverError(f"requested m = {m} eigenpairs of an n = {n} matrix; {limit}")
    v0 = _start_vector(h)
    try:
        _, vecs = eigsh(
            h.data, k=m, which="LA", v0=v0, tol=ARPACK_TOL, maxiter=max(1000, 10 * m * 20)
        )
    except ArpackError as exc:  # ArpackNoConvergence included
        raise EigensolverError(f"iterative solver failed: {exc}") from exc
    vals, vecs, h_vecs = _rayleigh_ritz(h, vecs)
    _check_contract(h, vals, vecs, h_vecs)
    return EigenPairs(values=vals, vectors=vecs)
