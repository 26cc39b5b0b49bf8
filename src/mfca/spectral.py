"""Closed-form and quadrature evaluation of the eigenvalues lambda_n^(k)(h)
of the localized transport operator, the spectral gap, and small-h
asymptotics.

The bandwidth h = 1 - cos(a) parametrizes the spherical cap over which the
operator averages; h ranges over (0, 2].  For n < k the eigenvalue vanishes
identically; for n >= k it is a polynomial of degree n + 1 in h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .wigner import jacobi_poly


def incomplete_beta(x: float, a: int, b: int) -> float:
    """B(x; a, b) = integral_0^x w^{a-1} (1-w)^{b-1} dw for integer a, b >= 1.

    Evaluated by the exact binomial expansion of (1-w)^{b-1}, summed with
    compensated addition.
    """
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive integers")
    terms = [
        math.comb(b - 1, j) * (-1) ** j * x ** (a + j) / (a + j) for j in range(b)
    ]
    return math.fsum(terms)


@lru_cache(maxsize=4096)
def _lambda_poly(n: int, k: int):
    """Exact rational coefficients of lambda_n^(k) as a polynomial in h.

    The alternating incomplete-Beta sum

        sum_nu (-1)^nu C(n-k,nu) C(n+k,nu) B(h/2; nu+1, n-nu+1)

    cancels catastrophically in floating point for large n and h, so the
    coefficients are accumulated in exact rational arithmetic once per (n, k).
    Returns (den, nums) with coefficient of h^t equal to nums[t]/den.
    """
    deg = n + 1
    coeffs = [Fraction(0)] * (deg + 1)
    for nu in range(n - k + 1):
        outer = (-1) ** nu * math.comb(n - k, nu) * math.comb(n + k, nu)
        # B(x; nu+1, n-nu+1) expanded in powers of x = h/2
        for j in range(n - nu + 1):
            t = nu + 1 + j
            coeffs[t] += Fraction(
                outer * math.comb(n - nu, j) * (-1) ** j, t * 2**t
            )
    den = math.lcm(*(c.denominator for c in coeffs))
    nums = tuple(int(c * den) for c in coeffs)
    return den, nums


def lambda_analytic(n: int, k: int, h: float) -> float:
    """The finite alternating incomplete-Beta sum for lambda_n^(k)(h),
    evaluated through its exact polynomial coefficients in h.

    Returns 0 for n < k (those eigenvalues vanish identically).
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be >= 0")
    if n < k:
        return 0.0
    den, nums = _lambda_poly(n, k)
    p, q = float(h).as_integer_ratio()
    deg = len(nums) - 1
    # sum nums[t] * (p/q)^t over a common denominator, exactly in integers
    total = 0
    pt = 1
    qt = q**deg
    for t in range(deg + 1):
        total += nums[t] * pt * qt
        pt *= p
        qt //= q
    return float(Fraction(total, den * q**deg))


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
    vals = (1.0 + z) ** k * np.array([jacobi_poly(n - k, 0, 2 * k, zz) for zz in z])
    return 0.5 * (hi - lo) * float(weights @ vals) / 2.0 ** (k + 1)


def lambda_taylor(n: int, k: int, h: float) -> float:
    """Quadratic small-h model h/2 - (n^2 + n - k^2) h^2 / 8."""
    if n < k:
        raise ValueError("requires n >= k")
    return 0.5 * h - (n * n + n - k * k) * h * h / 8.0


def lambda_top(k: int, h: float) -> float:
    """Closed form for lambda_k^(k)(h), the largest eigenvalue.

    Evaluated in exact rational arithmetic so that the top-eigenvalue
    dominance over the general formula holds without ulp-level ties.
    """
    u = 1 - Fraction(h) / 2
    return float((1 - u ** (k + 1)) / (k + 1))


def lambda_second(k: int, h: float) -> float:
    """Closed form for lambda_{k+1}^(k)(h)."""
    x = Fraction(h) / 2
    u = 1 - x
    val = (
        -Fraction(k, (k + 1) * (k + 2)) * (1 - u ** (k + 2))
        + Fraction(2 * k + 1, k + 1) * x * u ** (k + 1)
    )
    return float(val)


def lambda_third(k: int, h: float) -> float:
    """Closed form for lambda_{k+2}^(k)(h)."""
    x = Fraction(h) / 2
    u = 1 - x
    val = (
        Fraction(k, (k + 2) * (k + 3)) * (1 - u ** (k + 3))
        + Fraction(2, k + 2) * x * u ** (k + 2)
        - (2 * k + 1) * x * x * u ** (k + 1)
    )
    return float(val)


def spectral_gap(k: int, h: float) -> float:
    """G^(k)(h) = (2^{k+2} - (2-h)^{k+1}((k+1)h + 2)) / (2^{k+1}(k+2)).

    Equals lambda_top - lambda_second everywhere on (0, 2]; behaves like
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
    """The bandwidth maximizing lambda_second(k, .): Delta_k = 1/(k+1)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 / (k + 1)


@dataclass(frozen=True)
class EigenvalueTable:
    """Eigenvalues lambda_n^(k)(h) for n = k..n_max with multiplicities 2n+1."""

    k: int
    h: float
    values: tuple  # of (n, lambda, multiplicity)


def eigenvalue_table(k: int, h: float, n_max: int) -> EigenvalueTable:
    if n_max < k:
        raise ValueError("n_max must be >= k")
    rows = tuple(
        (n, lambda_quadrature(n, k, h), 2 * n + 1) for n in range(k, n_max + 1)
    )
    return EigenvalueTable(k=k, h=h, values=rows)
