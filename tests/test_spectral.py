import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from mfca import spectral
from theory_oracle import (
    incomplete_beta,
    lambda_analytic,
    lambda_second,
    lambda_taylor,
    lambda_third,
)


class TestIncompleteBeta:
    @given(x=st.floats(min_value=0, max_value=1))
    @settings(max_examples=25, deadline=None)
    def test_uniform_case(self, x):
        assert np.isclose(incomplete_beta(x, 1, 1), x, atol=1e-15)

    def test_linear_case(self):
        assert np.isclose(incomplete_beta(0.5, 1, 2), 3.0 / 8.0, atol=1e-15)

    def test_quadrature_oracle(self):
        got = incomplete_beta(0.3, 3, 5)
        ref, _ = quad(lambda w: w**2 * (1 - w) ** 4, 0, 0.3, epsabs=1e-15)
        assert abs(got - ref) < 1e-13

    @given(
        x=st.floats(min_value=0, max_value=1),
        a=st.integers(min_value=1, max_value=8),
        b=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_against_quadrature(self, x, a, b):
        got = incomplete_beta(x, a, b)
        ref, _ = quad(lambda w: w ** (a - 1) * (1 - w) ** (b - 1), 0, x, epsabs=1e-15)
        assert abs(got - ref) < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            incomplete_beta(0.5, 0, 1)


class TestLambdaAnalytic:
    def test_k1_polynomials(self):
        for h in np.linspace(0.05, 2.0, 20):
            assert abs(lambda_analytic(1, 1, h) - (h / 2 - h**2 / 8)) < 1e-13
            assert abs(
                lambda_analytic(2, 1, h) - (h / 2 - 5 * h**2 / 8 + h**3 / 6)
            ) < 1e-13
            assert abs(
                lambda_analytic(3, 1, h)
                - (h / 2 - 11 * h**2 / 8 + 25 * h**3 / 24 - 15 * h**4 / 64)
            ) < 1e-13

    def test_k2_polynomial(self):
        for h in np.linspace(0.05, 2.0, 20):
            assert abs(
                lambda_analytic(2, 2, h) - (h / 2 - h**2 / 4 + h**3 / 24)
            ) < 1e-13

    def test_vanishes_at_zero(self):
        for k in range(4):
            for n in range(k, k + 4):
                assert lambda_analytic(n, k, 0.0) == 0.0

    def test_below_frequency_vanishes(self):
        assert lambda_analytic(2, 3, 0.7) == 0.0

    def test_polynomial_degree(self):
        # the (n+2)-th divided difference of a degree-(n+1) polynomial vanishes
        n, k = 6, 2
        pts = np.linspace(0.3, 1.1, n + 3)
        vals = np.array([lambda_analytic(n, k, h) for h in pts])
        for _ in range(n + 2):
            vals = np.diff(vals) / np.diff(pts)[: len(vals) - 1]
            pts = pts[:-1]
        assert abs(vals[0]) < 1e-6


    @pytest.mark.parametrize("h", [0.05, 0.3, 1.0, 1.7, 2.0])
    def test_matches_incomplete_beta_sum(self, h):
        # the paper's alternating sum, term by term in floats
        for k in range(4):
            for n in range(k, k + 5):
                terms = [
                    (-1) ** nu
                    * math.comb(n - k, nu)
                    * math.comb(n + k, nu)
                    * incomplete_beta(h / 2, nu + 1, n - nu + 1)
                    for nu in range(n - k + 1)
                ]
                assert abs(lambda_analytic(n, k, h) - math.fsum(terms)) < 1e-12


class TestLambdaQuadrature:
    def test_matches_analytic_grid(self):
        for k in range(1, 6):
            for n in range(k, k + 11):
                for h in (0.05, 0.2, 1.0, 2.0):
                    assert (
                        abs(spectral.lambda_quadrature(n, k, h) - lambda_analytic(n, k, h))
                        < 1e-12
                    )

    def test_top_closed_form(self):
        for k in (1, 3, 6):
            for h in (0.1, 0.9, 1.6):
                expected = (1 - (1 - h / 2) ** (k + 1)) / (k + 1)
                assert abs(spectral.lambda_quadrature(k, k, h) - expected) < 1e-14

    def test_full_bandwidth_value(self):
        for k in range(1, 8):
            assert abs(spectral.lambda_quadrature(k, k, 2.0) - 1.0 / (k + 1)) < 1e-14


class TestLambdaTaylor:
    def test_first_derivative(self):
        eps = 1e-7
        for k, n in ((1, 1), (2, 4), (3, 3)):
            d = (lambda_analytic(n, k, eps) - 0.0) / eps
            assert abs(d - 0.5) < 1e-5

    def test_second_derivative(self):
        eps = 1e-5
        for k, n in ((1, 1), (1, 2), (2, 3), (4, 5)):
            d2 = (
                lambda_analytic(n, k, 2 * eps)
                - 2 * lambda_analytic(n, k, eps)
            ) / eps**2
            assert abs(d2 - (-(n * n + n - k * k) / 4.0)) < 1e-2 * max(1, n * n)

    def test_cubic_remainder(self):
        n, k = 4, 2
        ratios = []
        for h in (1e-2, 1e-3, 1e-4):
            err = abs(lambda_analytic(n, k, h) - lambda_taylor(n, k, h))
            ratios.append(err / h**3)
        assert max(ratios) < 10 * max(1.0, min(ratios) + 1.0)

    def test_rejects_n_below_k(self):
        with pytest.raises(ValueError):
            lambda_taylor(1, 2, 0.1)


class TestClosedForms:
    def test_k1_reproduces_polynomials(self):
        for h in np.linspace(0.05, 2.0, 20):
            assert abs(spectral.lambda_top(1, h) - (h / 2 - h**2 / 8)) < 1e-14
            assert abs(
                lambda_second(1, h) - (h / 2 - 5 * h**2 / 8 + h**3 / 6)
            ) < 1e-14
            assert abs(
                lambda_third(1, h)
                - (h / 2 - 11 * h**2 / 8 + 25 * h**3 / 24 - 15 * h**4 / 64)
            ) < 1e-13

    def test_k2_reproduces_polynomials(self):
        for h in np.linspace(0.05, 2.0, 20):
            assert abs(spectral.lambda_top(2, h) - (h / 2 - h**2 / 4 + h**3 / 24)) < 1e-14

    def test_agree_with_analytic(self):
        for k in range(1, 11):
            for h in np.linspace(0.01, 2.0, 25):
                assert abs(spectral.lambda_top(k, h) - lambda_analytic(k, k, h)) < 1e-14
                assert (
                    abs(lambda_second(k, h) - lambda_analytic(k + 1, k, h)) < 1e-14
                )
                assert (
                    abs(lambda_third(k, h) - lambda_analytic(k + 2, k, h)) < 1e-14
                )


class TestSpectralGap:
    def test_identity_with_closed_forms(self):
        hs = np.linspace(2.0 / 200, 2.0, 200)
        for k in range(1, 11):
            for h in hs:
                assert (
                    abs(spectral.spectral_gap(k, h) - (spectral.lambda_top(k, h) - lambda_second(k, h)))
                    < 1e-12
                )

    def test_small_h_asymptote(self):
        h = 1e-3
        for k in range(1, 8):
            ratio = spectral.spectral_gap(k, h) / h**2
            assert abs(ratio - (1 + k) / 4.0) < 0.01 * (1 + k) / 4.0

    def test_exact_at_small_h(self):
        # the float form of the closed form loses ~0.5% here to cancellation
        h = 1e-7
        for k in (1, 5, 10):
            target = (1 + k) * h**2 / 4.0
            assert abs(spectral.spectral_gap(k, h) - target) < 1e-5 * target

    def test_vanishes_at_zero(self):
        for k in (1, 4):
            assert spectral.spectral_gap(k, 0.0) == 0.0


class TestDeltaK:
    def test_k1(self):
        assert spectral.delta_k(1) == 0.5

    def test_grid_maximizer(self):
        # independent float evaluation of the closed form on a fine grid
        hs = np.arange(1e-5, 2.0, 1e-5)
        for k in range(1, 7):
            u = 1.0 - hs / 2.0
            vals = (
                -k / (k + 1.0) * (1.0 - u ** (k + 2)) / (k + 2.0)
                + (2.0 * k + 1.0) / (k + 1.0) * (hs / 2.0) * u ** (k + 1)
            )
            argmax = hs[int(np.argmax(vals))]
            assert abs(argmax - spectral.delta_k(k)) < 2e-5

    def test_second_positive_below_delta(self):
        for k in range(1, 7):
            for h in np.linspace(1e-4, spectral.delta_k(k), 50):
                assert lambda_second(k, h) > 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            spectral.delta_k(0)


class TestEigenvalueTable:
    def test_top_value(self):
        n0, lam0, mult0 = spectral.eigenvalue_table(1, 0.1, 5)[0]
        assert n0 == 1
        assert abs(lam0 - 0.04875) < 1e-15
        assert mult0 == 3

    def test_multiplicity_sequence(self):
        table = spectral.eigenvalue_table(2, 0.4, 7)
        assert [row[2] for row in table] == [5, 7, 9, 11, 13, 15]

    def test_small_h_ordering(self):
        table = spectral.eigenvalue_table(2, 0.05, 4)
        lams = [row[1] for row in table]
        assert lams[0] > lams[1] > lams[2]

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            spectral.eigenvalue_table(3, 0.1, 2)


class TestDominance:
    def test_top_eigenvalue_dominates(self):
        hs = np.linspace(2.0 / 200, 2.0, 200)
        for k in range(1, 6):
            for h in hs:
                top = spectral.lambda_top(k, h)
                for n in range(k, k + 31):
                    assert lambda_analytic(n, k, h) <= top
