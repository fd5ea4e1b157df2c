import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covext.errors import DataError, PoleOnCircleError
from covext.polyalg import (
    RationalPR,
    SchurPolynomial,
    ShapingFilter,
    factor_residual,
    is_schur,
    laurent_coeffs,
    laurent_series,
    monic_numerator,
    positive_real_min,
    reflection_to_tail,
    solve_b,
    spectral_density,
    tail_to_reflection,
    unit_variance_rho,
)


def random_schur(rng, n, radius=0.9):
    return SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))


class TestIsSchur:
    def test_single_root_inside(self):
        assert is_schur([-0.5])  # z - 0.5

    def test_single_root_outside(self):
        assert not is_schur([-1.5])  # z - 1.5

    def test_quadratic_roots_inside(self):
        # (z + 0.5)(z - 0.3) = z^2 + 0.2 z - 0.15
        assert is_schur([0.2, -0.15])

    def test_degree_zero(self):
        assert is_schur([])

    def test_root_on_circle_rejected(self):
        assert not is_schur([-1.0])
        assert not is_schur([0.0, -1.0])  # z^2 - 1

    def test_matches_root_computation(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            tail = rng.uniform(-1.5, 1.5, n)
            roots = np.roots(np.concatenate([[1.0], tail]))
            expected = bool(np.all(np.abs(roots) < 1.0)) if n else True
            assert is_schur(tail) == expected

    def test_reflection_roundtrip_is_schur(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            tail = reflection_to_tail(rng.uniform(-0.95, 0.95, n))
            assert is_schur(tail)

    def test_reflection_outside_unit_rejected(self):
        with pytest.raises(DataError):
            reflection_to_tail([0.5, 1.2])

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(
        lambda n: st.lists(st.floats(-0.95, 0.95), min_size=n, max_size=n)))
    def test_step_down_inverts_step_up(self, gammas):
        # the step-down recursion recovers the reflection coefficients to
        # its conditioning, prod 1 / (1 - gamma_k^2), and stepping them up
        # again gives the polynomial back to rounding
        g = np.array(gammas)
        n = g.size
        eps = np.finfo(float).eps
        tail = reflection_to_tail(g)
        back = tail_to_reflection(tail)
        assert back.shape == (n,)
        assert np.max(np.abs(back - g)) <= 1024 * n * eps * np.prod(1.0 / (1.0 - g * g))
        scale = np.prod(1.0 + np.abs(g))
        assert np.max(np.abs(reflection_to_tail(back) - tail)) <= 16 * n * eps * scale

    def test_step_down_needs_a_schur_polynomial(self):
        # tail_to_reflection fails exactly where is_schur does
        rng = np.random.default_rng(12)
        for _ in range(300):
            tail = rng.uniform(-1.5, 1.5, int(rng.integers(1, 9)))
            if is_schur(tail):
                assert np.all(np.abs(tail_to_reflection(tail)) < 1.0)
            else:
                with pytest.raises(DataError):
                    tail_to_reflection(tail)
        assert tail_to_reflection([]).shape == (0,)


class TestSchurPolynomial:
    def test_validates_by_default(self):
        with pytest.raises(DataError):
            SchurPolynomial([-2.0])

    def test_unchecked_carries_unstable(self):
        p = SchurPolynomial([-2.0], check=False)
        assert not p.is_schur
        assert p.degree == 1

    def test_full_and_eval(self):
        p = SchurPolynomial([-0.5])
        assert np.allclose(p.full, [1.0, -0.5])
        assert p(2.0) == pytest.approx(1.5)

    def test_coeffs_read_only(self):
        p = SchurPolynomial([-0.5])
        with pytest.raises(ValueError):
            p.coeffs[0] = 0.0


class TestLaurent:
    def test_worked_expansion(self):
        # f = (z + 0.5) / (2 (z - 0.5))
        f = RationalPR(SchurPolynomial([-0.5]), SchurPolynomial([0.5]))
        assert np.allclose(laurent_coeffs(f, 3), [0.5, 0.25, 0.125])

    def test_constant_half(self):
        a = SchurPolynomial([0.3, 0.02])
        f = RationalPR(a, a)
        assert np.allclose(laurent_coeffs(f, 6), np.zeros(6))

    def test_matching_identity_b_from_c(self):
        # b = 2c + (2C - I) a, coefficientwise identity of b(z) = 2 f(z) a(z)
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            a = random_schur(rng, n)
            sigma = random_schur(rng, n)
            rho = unit_variance_rho(a, sigma)
            b = monic_numerator(a, sigma, rho)
            f = RationalPR(a, b)
            c = laurent_coeffs(f, n)
            C = np.eye(n)
            for i in range(n):
                for j in range(i):
                    C[i, j] = c[i - j - 1]
            resid = b.coeffs - (2.0 * c + (2.0 * C - np.eye(n)) @ a.coeffs)
            assert np.max(np.abs(resid)) <= 1e-12

    def test_series_handles_general_leading_coeff(self):
        # (2z + 1) / (2z - 1) = 1 + 1/z + 0.5/z^2 + ...
        s = laurent_series([2.0, -1.0], [2.0, 1.0], 3)
        assert np.allclose(s, [1.0, 1.0, 0.5, 0.25])

    def test_degenerate_leading_zero_rejected(self):
        with pytest.raises(DataError):
            laurent_series([0.0, 1.0], [1.0, 0.0], 2)


class TestSolveB:
    def test_worked_case(self):
        b = solve_b(SchurPolynomial([-0.5]), SchurPolynomial([0.0]), np.sqrt(0.75))
        assert np.allclose(b, [1.0, 0.5], atol=1e-14)

    def test_sigma_equals_a(self):
        a = SchurPolynomial([0.2, -0.15])
        b = solve_b(a, a, 1.0)
        assert np.allclose(b, a.full, atol=1e-13)

    def test_random_residual_and_schur(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 13))
            a = random_schur(rng, n)
            sigma = random_schur(rng, n)
            rho = float(rng.uniform(0.2, 2.0))
            b_full = solve_b(a, sigma, rho)
            # independent oracle: correlate coefficient vectors directly
            corr = np.correlate(b_full, a.full, "full")
            lhs = corr + corr[::-1]
            rhs = 2.0 * rho * rho * np.correlate(sigma.full, sigma.full, "full")
            assert np.max(np.abs(lhs - rhs)) <= 1e-10
            assert factor_residual(a.full, b_full, sigma.full, rho) <= 1e-10
            # numerator is Schur regardless of scaling
            assert is_schur(b_full[1:] / b_full[0])

    def test_bit_identical_to_entrywise_sums(self):
        # the reference builds M entry by entry from 0.0; solve_b's library
        # Toeplitz and Hankel parts must give the same bits, signed zeros
        # of b included, also for -0.0 coefficients
        def reference(a, sigma, rho):
            n = a.degree
            af, sf = a.full, sigma.full
            M = np.zeros((n + 1, n + 1))
            for m in range(n + 1):
                for j in range(n + 1):
                    v = 0.0
                    if j >= m:
                        v += af[j - m]
                    if j + m <= n:
                        v += af[j + m]
                    M[m, j] = v
            rhs = np.array([np.dot(sf[: n + 1 - m], sf[m:]) for m in range(n + 1)])
            return np.linalg.solve(M, 2.0 * rho * rho * rhs)

        def tail(n, zeros):
            # sum |c| < 1 makes the polynomial Schur
            c = rng.uniform(-1.0, 1.0, n)
            c *= 0.9 / max(1.0, float(np.sum(np.abs(c))))
            c[rng.random(n) < zeros] = -0.0
            return SchurPolynomial(c)

        rng = np.random.default_rng(12)
        for n in range(31):
            for zeros in (0.0, 0.5, 1.0):
                a, sigma = tail(n, zeros), tail(n, zeros)
                rho = float(rng.uniform(0.2, 2.0))
                b = solve_b(a, sigma, rho)
                expected = reference(a, sigma, rho)
                assert np.array_equal(b, expected)
                assert np.array_equal(np.signbit(b), np.signbit(expected))

    def test_non_schur_a_can_be_singular(self):
        # roots at 2 and 1/2 pair across the circle: system singular
        a = SchurPolynomial([-2.5, 1.0], check=False)
        with pytest.raises(DataError):
            solve_b(a, SchurPolynomial([0.0, 0.0]), 1.0)

    def test_monic_numerator_requires_normalized_rho(self):
        a = SchurPolynomial([-0.5])
        sigma = SchurPolynomial([0.0])
        with pytest.raises(DataError):
            monic_numerator(a, sigma, 2.0)


class TestPositiveRealMin:
    def test_constant_half(self):
        a = SchurPolynomial([-0.2])
        f = RationalPR(a, a)
        assert positive_real_min(f) == pytest.approx(0.5, abs=1e-12)

    def test_worked_case_minimum(self):
        # min Re f is attained at theta = pi where f(-1) = 1/6; the spectral
        # density there is 2 * (1/6) = 1/3
        f = RationalPR(SchurPolynomial([-0.5]), SchurPolynomial([0.5]))
        assert positive_real_min(f, 4096) == pytest.approx(1.0 / 6.0, abs=1e-6)

    def test_non_pr_counterexample_negative(self):
        f = RationalPR(
            SchurPolynomial([-0.5]), SchurPolynomial([-3.0], check=False)
        )
        assert positive_real_min(f) < 0.0

    def test_pole_on_grid_reported(self):
        f = RationalPR(
            SchurPolynomial([-1.0], check=False), SchurPolynomial([0.5])
        )
        with pytest.raises(PoleOnCircleError):
            positive_real_min(f, 64)

    def test_too_few_samples(self):
        f = RationalPR(SchurPolynomial([-0.5]), SchurPolynomial([0.5]))
        with pytest.raises(DataError):
            positive_real_min(f, 2)

    @pytest.mark.parametrize("samples", [7, 64, 512, 1000, 4096, 8191])
    def test_cached_grid_bit_identical(self, samples):
        # 4096 is the --samples default of the cli's solve and verify commands
        rng = np.random.default_rng(samples)
        for n in (1, 3):
            a, sigma = random_schur(rng, n), random_schur(rng, n)
            f = RationalPR(a, monic_numerator(a, sigma, unit_variance_rho(a, sigma)))
            z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False))
            fresh = float(np.min(
                (np.polyval(f.b.full, z) / (2.0 * np.polyval(f.a.full, z))).real))
            for _ in range(2):  # the first call fills the cache, the second reads it
                assert positive_real_min(f, samples) == fresh


class TestSpectralDensity:
    def test_white_filter(self):
        a = SchurPolynomial([0.3])
        w = ShapingFilter(sigma=a, a=a, rho=1.0)
        theta = np.linspace(0, np.pi, 17)
        assert np.allclose(spectral_density(w, theta), 1.0)

    def test_worked_value_at_zero(self):
        w = ShapingFilter(
            sigma=SchurPolynomial([0.0]), a=SchurPolynomial([-0.5]),
            rho=np.sqrt(0.75),
        )
        assert spectral_density(w, 0.0) == pytest.approx(3.0, abs=1e-12)

    def test_equals_twice_re_f(self):
        rng = np.random.default_rng(9)
        theta = np.linspace(0, np.pi, 64)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = random_schur(rng, n)
            sigma = random_schur(rng, n)
            rho = unit_variance_rho(a, sigma)
            b = monic_numerator(a, sigma, rho)
            w = ShapingFilter(sigma=sigma, a=a, rho=rho)
            f = RationalPR(a, b)
            z = np.exp(1j * theta)
            re_f = (np.polyval(b.full, z) / (2 * np.polyval(a.full, z))).real
            phi = spectral_density(w, theta)
            assert np.all(phi >= 0.0)
            assert np.max(np.abs(phi - 2.0 * re_f)) <= 1e-10

    def test_rho_bounded_by_one_when_normalized(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = random_schur(rng, n)
            sigma = random_schur(rng, n)
            rho = unit_variance_rho(a, sigma)
            assert 0.0 < rho <= 1.0 + 1e-12
