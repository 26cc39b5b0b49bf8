"""Jacobi polynomials and Wigner d- and D-matrix entries.

Matrix entries are indexed by (m, n) with m, n in {-ell, ..., ell}.  A D
entry takes the z-x-z Euler angles of the rotation
R(phi, theta, psi) = Rz(phi) @ Rx(theta) @ Rz(psi), any real values.
"""

from __future__ import annotations

import math

import numpy as np

ELL_MAX = 64


class WeightCapError(ValueError):
    """Raised for weights ell beyond the supported cap."""


def jacobi_poly(n: int, a: int, b: int, x: float | np.ndarray) -> float | np.ndarray:
    """P_n^{(a,b)}(x) by the standard three-term recurrence, elementwise
    over an array x (degree 0 gives the scalar 1.0, which broadcasts)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    p_prev = 1.0
    if n == 0:
        return p_prev
    p = 0.5 * (a - b) + (1.0 + 0.5 * (a + b)) * x
    for m in range(2, n + 1):
        c = 2 * m + a + b
        a1 = 2 * m * (m + a + b) * (c - 2)
        a2 = (c - 1) * (a * a - b * b)
        a3 = (c - 2) * (c - 1) * c
        a4 = 2 * (m + a - 1) * (m + b - 1) * c
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p


def _check_indices(ell: int, m: int, n: int) -> None:
    if ell < 0:
        raise ValueError("weight must be >= 0")
    if ell > ELL_MAX:
        raise WeightCapError(f"weight {ell} exceeds the supported cap {ELL_MAX}")
    if abs(m) > ell or abs(n) > ell:
        raise IndexError(f"indices ({m},{n}) out of range for weight {ell}")


def _d_base(ell: int, m: int, n: int, theta: float) -> float:
    # valid branch: m >= |n|
    log_ratio = (
        math.lgamma(ell + m + 1)
        + math.lgamma(ell - m + 1)
        - math.lgamma(ell + n + 1)
        - math.lgamma(ell - n + 1)
    )
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    sign = -1.0 if (m - n) % 2 else 1.0
    return (
        sign
        * math.exp(0.5 * log_ratio)
        * c ** (m + n)
        * s ** (m - n)
        * jacobi_poly(ell - m, m - n, m + n, math.cos(theta))
    )


def wigner_d(ell: int, m: int, n: int, theta: float) -> float:
    """The small d-matrix entry d^ell_{mn}(theta) for any real theta.

    The base Jacobi-form evaluation is valid for m >= |n|; other index
    sectors are reached through the symmetries
    d_{mn} = (-1)^{m-n} d_{nm} = d_{-n,-m}.
    """
    _check_indices(ell, m, n)
    if m >= abs(n):
        return _d_base(ell, m, n, theta)
    if n >= abs(m):
        val = _d_base(ell, n, m, theta)
        return -val if (m - n) % 2 else val
    if m <= -abs(n):
        val = _d_base(ell, -m, -n, theta)
        return -val if (m - n) % 2 else val
    return _d_base(ell, -n, -m, theta)


def wigner_D(ell: int, m: int, n: int, phi: float, theta: float, psi: float) -> complex:
    """D^ell_{mn}(phi, theta, psi) = e^{-i m phi} d^ell_{mn}(theta) e^{-i n psi}."""
    _check_indices(ell, m, n)
    return np.exp(-1j * (m * phi + n * psi)) * wigner_d(ell, m, n, theta)
