"""The eigenvalues lambda_n^(k)(h) of the localized transport operator by
quadrature, the closed form of the top eigenvalue, and the spectral gap.

The bandwidth h = 1 - cos(a) parametrizes the spherical cap over which the
operator averages; h ranges over (0, 2].  For n < k the eigenvalue vanishes
identically; for n >= k it is a polynomial of degree n + 1 in h.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .wigner import jacobi_poly


def lambda_quadrature(n: int, k: int, h: float) -> float:
    """Gauss-Legendre evaluation of the Jacobi-integral form

        2^{-(k+1)} * integral_{1-h}^{1} (1+z)^k P_{n-k}^{(0,2k)}(z) dz,

    with enough nodes to integrate the degree-(n+k) integrand exactly.
    """
    if n < k:
        return 0.0
    n_nodes = (n + k + 2 + 1) // 2
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    lo, hi = 1.0 - h, 1.0
    z = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    vals = (1.0 + z) ** k * jacobi_poly(n - k, 0, 2 * k, z)
    return 0.5 * (hi - lo) * float(weights @ vals) / 2.0 ** (k + 1)


def lambda_top(k: int, h: float) -> float:
    """Closed form for lambda_k^(k)(h), the largest eigenvalue.

    Evaluated in exact rational arithmetic so that the top-eigenvalue
    dominance over the general formula holds without ulp-level ties.
    """
    u = 1 - Fraction(h) / 2
    return float((1 - u ** (k + 1)) / (k + 1))


def spectral_gap(k: int, h: float) -> float:
    """G^(k)(h) = (2^{k+2} - (2-h)^{k+1}((k+1)h + 2)) / (2^{k+1}(k+2)).

    Equals lambda_k^(k) - lambda_{k+1}^(k) everywhere on (0, 2]; behaves like
    (1+k) h^2 / 4 as h -> 0.  Evaluated in exact rational arithmetic: the
    float form cancels catastrophically at small h.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x = Fraction(h)
    return float(
        (2 ** (k + 2) - (2 - x) ** (k + 1) * ((k + 1) * x + 2))
        / (2 ** (k + 1) * (k + 2))
    )


def delta_k(k: int) -> float:
    """The bandwidth maximizing lambda_{k+1}^(k)(.): Delta_k = 1/(k+1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 / (k + 1)


def eigenvalue_table(k: int, h: float, n_max: int) -> tuple:
    """The rows (n, lambda_n^(k)(h), multiplicity 2n+1) for n = k..n_max,
    each eigenvalue by quadrature."""
    if n_max < k:
        raise ValueError("n_max must be >= k")
    return tuple(
        (n, lambda_quadrature(n, k, h), 2 * n + 1) for n in range(k, n_max + 1)
    )
