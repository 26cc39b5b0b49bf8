"""Test-only closed forms of the paper: the eigenvalues lambda_n^(k)(h) as
the alternating incomplete-Beta sum, its small-h Taylor model and the
closed forms of the second and third eigenvalues; the factor rotations
Rz and Rx, the z-x-z Euler angles of a rotation and back; and the full
Wigner D-matrix of one rotation.

mfca computes none of these.  They are the oracles that the acceptance
criteria 1-4 and the unit tests check the package against: mfca.spectral's
quadrature, top eigenvalue and gap, and mfca.wigner's entries, which take
Euler angles rather than rotations.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from mfca.wigner import ELL_MAX, WeightCapError, wigner_d


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


def lambda_taylor(n: int, k: int, h: float) -> float:
    """Quadratic small-h model h/2 - (n^2 + n - k^2) h^2 / 8."""
    if n < k:
        raise ValueError("requires n >= k")
    return 0.5 * h - (n * n + n - k * k) * h * h / 8.0


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


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def from_euler(phi: float, theta: float, psi: float) -> np.ndarray:
    """Build the rotation Rz(phi) @ Rx(theta) @ Rz(psi).

    The third column is the viewing direction
    (sin(phi) sin(theta), -cos(phi) sin(theta), cos(theta)).
    """
    cf, sf = np.cos(phi), np.sin(phi)
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(psi), np.sin(psi)
    return np.array(
        [
            [cf * cp - sf * sp * ct, -cf * sp - sf * cp * ct, sf * st],
            [sf * cp + cf * sp * ct, -sf * sp + cf * cp * ct, -cf * st],
            [sp * st, cp * st, ct],
        ]
    )


def to_euler(r: np.ndarray) -> tuple:
    """Invert from_euler: (phi, theta, psi) with phi, psi in [0, 2*pi) and
    theta in [0, pi].  At gimbal lock (|r33| = 1) the convention psi = 0 is
    used and phi absorbs the full in-plane angle."""
    r = np.asarray(r, dtype=float)
    r33 = min(1.0, max(-1.0, r[2, 2]))
    theta = float(np.arccos(r33))
    if np.sin(theta) < 1e-12:
        # theta in {0, pi}: R = Rz(phi +/- psi) * const, put everything in phi
        phi = float(np.arctan2(r[1, 0], r[0, 0]))
        return float(np.mod(phi, 2.0 * np.pi)), 0.0 if r33 > 0 else np.pi, 0.0
    phi = float(np.arctan2(r[0, 2], -r[1, 2]))
    psi = float(np.arctan2(r[2, 0], r[2, 1]))
    return float(np.mod(phi, 2.0 * np.pi)), theta, float(np.mod(psi, 2.0 * np.pi))


def wigner_D_matrix(ell: int, x: np.ndarray) -> np.ndarray:
    """The (2*ell+1) x (2*ell+1) matrix D^ell(x), entry (m, n) at array
    index (m + ell, n + ell); its column 0 is the extrinsic column
    (D^ell_{m,-ell}(x))_m of the frequency-ell affinity identity."""
    if ell > ELL_MAX:
        raise WeightCapError(f"weight {ell} exceeds the supported cap {ELL_MAX}")
    phi, theta, psi = to_euler(x)
    ms = np.arange(-ell, ell + 1)
    d = np.array([[wigner_d(ell, m, n, theta) for n in ms] for m in ms])
    return np.exp(-1j * phi * ms)[:, None] * d * np.exp(-1j * psi * ms)[None, :]
