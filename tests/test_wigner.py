import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import theory_oracle
from mfca import so3, wigner


def haar(seed, n=1):
    return so3.sample_uniform(seed, n).frames


def jacobi_binomial_sum(n, a, b, x):
    """Independent oracle: the explicit finite binomial-sum form."""
    total = 0.0
    for nu in range(n + 1):
        total += (
            math.comb(n + a, n - nu)
            * math.comb(n + b, nu)
            * ((x - 1) / 2.0) ** nu
            * ((x + 1) / 2.0) ** (n - nu)
        )
    return total


def wigner_d_factorial(ell, m, n, theta):
    """Independent oracle: the direct factorial sum (usable for ell <= 8)."""
    total = 0.0
    pre = math.sqrt(
        math.factorial(ell + m)
        * math.factorial(ell - m)
        * math.factorial(ell + n)
        * math.factorial(ell - n)
    )
    for s in range(max(0, n - m), min(ell - m, ell + n) + 1):
        denom = (
            math.factorial(ell - m - s)
            * math.factorial(ell + n - s)
            * math.factorial(s)
            * math.factorial(s + m - n)
        )
        total += (
            (-1) ** (m - n + s)
            / denom
            * np.cos(theta / 2.0) ** (2 * ell + n - m - 2 * s)
            * np.sin(theta / 2.0) ** (m - n + 2 * s)
        )
    return pre * total


class TestJacobiPoly:
    @given(
        a=st.integers(min_value=0, max_value=6),
        b=st.integers(min_value=0, max_value=6),
        x=st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=30, deadline=None)
    def test_degree_zero(self, a, b, x):
        assert wigner.jacobi_poly(0, a, b, x) == 1.0

    def test_value_at_one(self):
        for ell in range(1, 8):
            for m in range(ell + 1):
                assert np.isclose(wigner.jacobi_poly(ell - m, 0, 2 * m, 1.0), 1.0)

    def test_binomial_sum_example(self):
        got = wigner.jacobi_poly(5, 0, 4, 0.3)
        assert np.isclose(got, jacobi_binomial_sum(5, 0, 4, 0.3), atol=1e-13)

    @given(
        n=st.integers(min_value=0, max_value=10),
        a=st.integers(min_value=0, max_value=5),
        b=st.integers(min_value=0, max_value=5),
        x=st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_binomial_sum(self, n, a, b, x):
        got = wigner.jacobi_poly(n, a, b, x)
        ref = jacobi_binomial_sum(n, a, b, x)
        assert np.isclose(got, ref, rtol=1e-11, atol=1e-11)

    def test_array_matches_scalar_calls(self):
        # lambda_quadrature evaluates all its Gauss nodes in one call
        x = np.concatenate([np.polynomial.legendre.leggauss(13)[0], [-1.0, 0.0, 1.0]])
        for n, a, b in [(1, 0, 2), (5, 0, 4), (14, 0, 22), (9, 3, 1)]:
            scalar = np.array([wigner.jacobi_poly(n, a, b, xi) for xi in x])
            assert np.array_equal(wigner.jacobi_poly(n, a, b, x), scalar)

    def test_negative_degree(self):
        with pytest.raises(ValueError):
            wigner.jacobi_poly(-1, 0, 0, 0.5)


class TestWignerSmallD:
    def test_kronecker_at_zero(self):
        for ell in (0, 1, 3, 6):
            for m in range(-ell, ell + 1):
                for n in range(-ell, ell + 1):
                    assert np.isclose(
                        wigner.wigner_d(ell, m, n, 0.0), 1.0 if m == n else 0.0, atol=1e-14
                    )

    def test_corner_identity(self):
        for ell in (1, 2, 5, 10):
            for theta in np.linspace(0, np.pi, 11):
                expected = ((1.0 + np.cos(theta)) / 2.0) ** ell
                assert np.isclose(wigner.wigner_d(ell, -ell, -ell, theta), expected, atol=1e-12)

    def test_diagonal_jacobi_form(self):
        for ell in range(1, 9):
            for m in range(ell + 1):
                for theta in (0.3, 1.1, 2.7):
                    c = np.cos(theta)
                    expected = (
                        2.0**-m * (1 + c) ** m * wigner.jacobi_poly(ell - m, 0, 2 * m, c)
                    )
                    assert np.isclose(wigner.wigner_d(ell, m, m, theta), expected, atol=1e-12)

    def test_matches_factorial_sum(self):
        for ell in range(9):
            for theta in (0.4, 1.3, 2.9):
                for m in range(-ell, ell + 1):
                    for n in range(-ell, ell + 1):
                        assert np.isclose(
                            wigner.wigner_d(ell, m, n, theta),
                            wigner_d_factorial(ell, m, n, theta),
                            atol=1e-11,
                        ), (ell, m, n, theta)

    def test_index_symmetry(self):
        for ell in (2, 4, 7):
            for k in range(ell + 1):
                for theta in (0.2, 1.5, 3.0):
                    assert np.isclose(
                        wigner.wigner_d(ell, -k, -k, theta),
                        wigner.wigner_d(ell, k, k, theta),
                        atol=1e-12,
                    )

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            wigner.wigner_d(2, 3, 0, 0.5)

    def test_weight_cap(self):
        with pytest.raises(wigner.WeightCapError):
            wigner.wigner_d(65, 0, 0, 0.5)

    def test_large_weight_finite(self):
        val = wigner.wigner_d(64, 10, -7, 1.0)
        assert np.isfinite(val)


def D(ell, m, n, x):
    """wigner_D at the oracle's Euler angles of the rotation x."""
    return wigner.wigner_D(ell, m, n, *theory_oracle.to_euler(x))


# gimbal lock (theta 0 and pi), theta outside [0, pi], phi and psi outside [0, 2*pi)
EULER_ANGLES = [
    (0.3, 0.0, 1.1),
    (2.0, np.pi, 0.4),
    (0.7, -0.5, 2.9),
    (5.1, 4.0, 0.2),
    (-1.3, 1.2, 9.5),
    (7.0, 2.2, -4.0),
]


class TestWignerD:
    def test_identity_rotation(self):
        for ell in (0, 1, 3):
            for m in range(-ell, ell + 1):
                for n in range(-ell, ell + 1):
                    assert np.isclose(
                        D(ell, m, n, np.eye(3)),
                        1.0 if m == n else 0.0,
                        atol=1e-14,
                    )

    def test_right_in_plane_action(self):
        x = haar(3)[0]
        alpha = 0.77
        xa = x @ theory_oracle.rot_z(alpha)
        for ell in (1, 2, 4):
            for m in range(-ell, ell + 1):
                for n in range(-ell, ell + 1):
                    assert np.isclose(
                        D(ell, m, n, xa),
                        np.exp(-1j * n * alpha) * D(ell, m, n, x),
                        atol=1e-10,
                    )

    def test_left_z_rotation(self):
        x = haar(4)[0]
        alpha = 1.21
        ax = theory_oracle.rot_z(alpha) @ x
        for ell in (1, 3):
            for m in range(-ell, ell + 1):
                for n in range(-ell, ell + 1):
                    assert np.isclose(
                        D(ell, m, n, ax),
                        np.exp(-1j * m * alpha) * D(ell, m, n, x),
                        atol=1e-10,
                    )

    @pytest.mark.parametrize("phi, theta, psi", EULER_ANGLES)
    def test_matches_oracle_of_the_rotation(self, phi, theta, psi):
        # the oracle rebuilds the rotation and reads its angles back into
        # phi, psi in [0, 2*pi) and theta in [0, pi], psi = 0 at gimbal lock
        x = theory_oracle.from_euler(phi, theta, psi)
        for ell in range(5):
            ms = range(-ell, ell + 1)
            got = np.array([[wigner.wigner_D(ell, m, n, phi, theta, psi) for n in ms] for m in ms])
            assert np.max(np.abs(got - theory_oracle.wigner_D_matrix(ell, x))) < 1e-12


class TestWignerDMatrix:
    def test_weight_zero(self):
        d = theory_oracle.wigner_D_matrix(0, haar(5)[0])
        assert d.shape == (1, 1)
        assert np.isclose(d[0, 0], 1.0)

    def test_homomorphism(self):
        rng = np.random.default_rng(8)
        for ell in range(1, 6):
            for _ in range(20):
                a, b = haar(int(rng.integers(1 << 31)), 2)
                da = theory_oracle.wigner_D_matrix(ell, a)
                db = theory_oracle.wigner_D_matrix(ell, b)
                dab = theory_oracle.wigner_D_matrix(ell, a @ b)
                assert np.max(np.abs(da @ db - dab)) < 1e-10

    def test_unitarity(self):
        for ell in range(1, 11):
            x = haar(100 + ell)[0]
            d = theory_oracle.wigner_D_matrix(ell, x)
            assert np.max(np.abs(d @ d.conj().T - np.eye(2 * ell + 1))) < 1e-10

    def test_row_column_norms(self):
        d = theory_oracle.wigner_D_matrix(6, haar(9)[0])
        assert np.allclose(np.linalg.norm(d, axis=0), 1.0, atol=1e-10)
        assert np.allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-10)

    def test_entry_accessor(self):
        # entry (m, n) sits at array index (m + ell, n + ell)
        x = haar(10)[0]
        d = theory_oracle.wigner_D_matrix(3, x)
        assert np.isclose(d[2 + 3, -1 + 3], D(3, 2, -1, x), atol=1e-13)


def extrinsic_column(k, x):
    """The column (D^k_{m,-k}(x))_{m=-k..k}: column 0 of D^k(x)."""
    return theory_oracle.wigner_D_matrix(k, x)[:, 0]


class TestExtrinsicColumn:
    def test_unit_norm(self):
        for k in (1, 2, 5):
            col = extrinsic_column(k, haar(11)[0])
            assert abs(np.linalg.norm(col) - 1.0) < 1e-10

    def test_self_inner_product(self):
        col = extrinsic_column(3, haar(12)[0])
        assert abs(abs(np.vdot(col, col)) - 1.0) < 1e-12

    def test_inner_product_identity(self):
        rng = np.random.default_rng(13)
        for k in (1, 2, 3, 5):
            for _ in range(25):
                x, y = haar(int(rng.integers(1 << 31)), 2)
                cx = extrinsic_column(k, x)
                cy = extrinsic_column(k, y)
                expected = ((x[:, 2] @ y[:, 2] + 1.0) / 2.0) ** k
                assert abs(abs(np.vdot(cx, cy)) - expected) < 1e-10

    def test_antipodal_orthogonal(self):
        x = haar(14)[0]
        y = x @ theory_oracle.rot_x(np.pi)
        for k in (1, 4):
            cx = extrinsic_column(k, x)
            cy = extrinsic_column(k, y)
            assert abs(np.vdot(cx, cy)) < 1e-10
