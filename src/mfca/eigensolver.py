"""Deterministic top-m eigenpair extraction for sparse Hermitian matrices.

Every solve takes the iterative Krylov path (ARPACK) with a start vector
derived deterministically from a hash of the matrix entries, so repeated
solves of the same matrix give bit-identical output.  ARPACK returns at most
n - 2 eigenpairs of an n x n complex matrix, so top_eigenpairs accepts only
1 <= m < n - 1, for real input too, and has no dense fallback.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, eigsh

RESIDUAL_TOL = 1e-10  # worst residual allowed, relative to max(1, ||H||_F)


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
    # the payload ends in eight zero bytes: every seeded output depends on
    # these exact start vectors
    payload = h.data.indptr.tobytes() + h.data.indices.tobytes() + h.data.data.tobytes()
    digest = hashlib.sha256(payload + bytes(8)).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    v = rng.standard_normal(h.n)
    return v / np.linalg.norm(v)


def _check_contract(h: HermitianMatrix, values, vectors) -> None:
    scale = max(1.0, h.frobenius())
    resid = h.data @ vectors - vectors * values[None, :]
    worst = float(np.max(np.linalg.norm(resid, axis=0)))
    if not worst <= RESIDUAL_TOL * scale:  # NaN fails too
        raise EigensolverError(
            f"residual contract violated: {worst:.3e} > {RESIDUAL_TOL:.1e}*{scale:.3e}"
        )


def top_eigenpairs(h: HermitianMatrix, m: int) -> EigenPairs:
    """The m algebraically largest eigenpairs of h, descending, for
    1 <= m < n - 1.

    Deterministic for fixed input; the start vector is seeded from a hash of
    the matrix entries.
    """
    n = h.n
    if not 1 <= m < n - 1:
        limit = f"ARPACK needs 1 <= m < n - 1 = {n - 1}"
        raise EigensolverError(f"requested m = {m} eigenpairs of an n = {n} matrix; {limit}")
    v0 = _start_vector(h)
    try:
        vals, vecs = eigsh(h.data, k=m, which="LA", v0=v0, maxiter=max(1000, 10 * m * 20))
    except ArpackError as exc:  # ArpackNoConvergence included
        raise EigensolverError(f"iterative solver failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    _check_contract(h, vals, vecs)
    return EigenPairs(values=vals, vectors=vecs)
