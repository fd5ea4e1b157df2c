import numpy as np
import pytest

from covext.cee import companion, problem_from_covariances, solve_cee
from covext.covdata import CovarianceSequence
from covext.errors import DataError, InvalidBranchError
from covext.polyalg import (
    RationalPR,
    SchurPolynomial,
    laurent_coeffs,
    monic_numerator,
    reflection_to_tail,
    unit_variance_rho,
)
from covext.realization import (
    CompanionRealization,
    SpectralFactorRealization,
    b_from_ag,
    compare_riccati_forms,
    eval_f_realization,
    g_from_ab,
    k_and_rho,
    riccati_step,
    solve_are_minimal,
)


def forward_instance(rng, n, radius=0.9):
    a = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    rho = unit_variance_rho(a, sigma)
    b = monic_numerator(a, sigma, rho)
    return a, sigma, rho, b


class TestCoefficientMaps:
    def test_g_zero_for_equal_polys(self):
        assert np.allclose(g_from_ab([0.3, 0.1], [0.3, 0.1]), 0.0)

    def test_worked_scalar(self):
        assert g_from_ab([-0.5], [0.5])[0] == pytest.approx(0.5)

    def test_inverse_map(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(5)
        g = rng.standard_normal(5)
        assert np.allclose(g_from_ab(a, b_from_ag(a, g)), g)

    def test_realization_matches_rational_form(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a, _, _, b = forward_instance(rng, n)
            real = CompanionRealization(a=a.coeffs, g=g_from_ab(a.coeffs, b.coeffs))
            for z in (2.0, -3.0, 1.7 + 0.9j):
                direct = np.polyval(b.full, z) / (2.0 * np.polyval(a.full, z))
                assert abs(real(z) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_char_poly_of_F(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 13))
            a = SchurPolynomial(reflection_to_tail(rng.uniform(-0.9, 0.9, n)))
            real = CompanionRealization(a=a.coeffs, g=np.zeros(n))
            assert np.max(np.abs(np.poly(real.F)[1:] - a.coeffs)) <= 1e-10

    def test_matrix_inversion_lemma_reciprocal(self):
        # a(z)/b(z) = 1 - 2 h'(2 g h' + zI - F)^{-1} g
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            a, _, _, b = forward_instance(rng, n)
            g = g_from_ab(a.coeffs, b.coeffs)
            F = companion(a.coeffs)
            n_I = np.eye(n)
            M = np.zeros((n, n))
            M[:, 0] = 2.0 * g
            for z in (2.3, -1.9, 1.5 + 1.1j):
                x = np.linalg.solve(z * n_I - F + M, g.astype(complex))
                lhs = 1.0 - 2.0 * x[0]
                rhs = np.polyval(a.full, z) / np.polyval(b.full, z)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


class TestClassicalRiccati:
    def test_worked_scalar(self):
        P = solve_are_minimal([-0.5], [0.5])
        assert P[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_zero_g(self):
        P = solve_are_minimal([0.3, -0.1], np.zeros(2))
        assert np.allclose(P, 0.0)

    def test_iterates_monotone(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            a, _, _, b = forward_instance(rng, n)
            g = g_from_ab(a.coeffs, b.coeffs)
            F = companion(a.coeffs)
            P_min = solve_are_minimal(a.coeffs, g)
            P = np.zeros((n, n))
            for _ in range(100):
                Pn = riccati_step(F, g, P)
                assert np.linalg.eigvalsh(Pn - P)[0] >= -1e-10
                # the iterates increase towards the minimal solution from below
                assert np.linalg.eigvalsh(P_min - Pn)[0] >= -1e-10
                P = Pn

    def test_hPh_below_one_and_psd(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            a, _, _, b = forward_instance(rng, n)
            P = solve_are_minimal(a.coeffs, g_from_ab(a.coeffs, b.coeffs))
            assert P[0, 0] < 1.0
            assert np.linalg.eigvalsh(P)[0] >= -1e-10

    @pytest.mark.parametrize(
        "a, g",
        [
            ([-1.5], [0.5]),  # a(z) not Schur; QZ gives P < 0
            ([0.3, -2.0], [0.1, 0.2]),  # stabilizing solution negative definite
            ([-0.5], [0.9]),  # polished QZ answer has ARE residual 0.69
        ],
    )
    def test_no_state_covariance_rejected(self, a, g):
        with pytest.raises(InvalidBranchError):
            solve_are_minimal(a, g)


class TestKAndRho:
    def test_worked_scalar(self):
        P = np.array([[0.25]])
        k, rho, agreement = k_and_rho(P, [0.0], [-0.5], [0.5])
        assert rho == pytest.approx(np.sqrt(0.75), abs=1e-14)
        assert k[0] == pytest.approx(np.sqrt(0.75) * 0.5, abs=1e-12)
        assert agreement <= 1e-14
        w = SpectralFactorRealization(a=np.array([-0.5]), k=k, rho=rho)
        for z in (2.0, 3.0, -4.0):
            direct = rho * z / (z - 0.5)
            assert abs(w(z) - direct) <= 1e-12

    def test_sigma_equals_a_gives_constant(self):
        a = SchurPolynomial([0.2, -0.1])
        rho = unit_variance_rho(a, a)
        b = monic_numerator(a, a, rho)
        g = g_from_ab(a.coeffs, b.coeffs)
        P = solve_are_minimal(a.coeffs, g)
        k, rho2, _ = k_and_rho(P, a.coeffs, a.coeffs, g)
        assert np.max(np.abs(k)) <= 1e-10
        assert rho2 == pytest.approx(1.0, abs=1e-12)

    def test_dual_formulas_agree_random(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            a, sigma, rho, b = forward_instance(rng, n)
            g = g_from_ab(a.coeffs, b.coeffs)
            P = solve_are_minimal(a.coeffs, g)
            k, rho_hat, agreement = k_and_rho(P, sigma.coeffs, a.coeffs, g)
            assert agreement <= 1e-10
            assert abs(rho_hat - rho) <= 1e-9

    def test_invalid_branch_rejected(self):
        with pytest.raises(InvalidBranchError):
            k_and_rho(np.array([[1.5]]), [0.0], [-0.5], [0.5])


class TestRiccatiEquivalence:
    def test_worked_scalar(self):
        rep = compare_riccati_forms([-0.5], [0.5], [0.0])
        assert rep.P_classical[0, 0] == pytest.approx(0.25, abs=1e-11)
        assert rep.difference <= 1e-10
        assert rep.passed

    def test_zero_g(self):
        rep = compare_riccati_forms([0.3, 0.0], np.zeros(2), [0.1, 0.05])
        assert np.allclose(rep.P_classical, 0.0)
        assert np.allclose(rep.P_companion, 0.0)

    def test_random_corpus(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            a, sigma, rho, b = forward_instance(rng, n, radius=0.85)
            g = g_from_ab(a.coeffs, b.coeffs)
            rep = compare_riccati_forms(a.coeffs, g, sigma.coeffs)
            assert rep.difference <= 1e-8
            assert rep.passed

    def test_matches_cee_solution(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            a, sigma, rho, b = forward_instance(rng, n, radius=0.8)
            g = g_from_ab(a.coeffs, b.coeffs)
            c_tail = laurent_coeffs(RationalPR(a, b), n)
            c = CovarianceSequence(np.concatenate([[1.0], c_tail]))
            sol = solve_cee(problem_from_covariances(c, sigma))
            P27 = solve_are_minimal(a.coeffs, g)
            assert np.max(np.abs(sol.P - P27)) <= 1e-7


class TestResolventEval:
    def test_constant_half(self):
        real = CompanionRealization(a=[-0.5], g=[0.0])
        for z in (2.0, 5.0, -1.3):
            assert eval_f_realization(real, z) == pytest.approx(0.5)

    def test_worked_values(self):
        real = CompanionRealization(a=[-0.5], g=[0.5])
        assert eval_f_realization(real, 2.0) == pytest.approx(5.0 / 6.0, abs=1e-14)
        assert eval_f_realization(real, 3.0) == pytest.approx(0.7, abs=1e-14)

    def test_near_eigenvalue_rejected(self):
        real = CompanionRealization(a=[-0.5], g=[0.5])
        with pytest.raises(DataError):
            eval_f_realization(real, 0.5 + 1e-15)
