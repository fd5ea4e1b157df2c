import numpy as np
import pytest

from covext.cee import CEEProblem, SolveOptions, solve_cee
from covext.errors import (
    DataError,
    SolverError,
    StructuralError,
    VerificationError,
)
from covext.nevpick import (
    InterpolationData,
    build_T,
    build_uU_np,
    build_vandermonde,
    implied_scale,
    interp_residual,
    solve_np,
)
from covext.polyalg import (
    RationalPR,
    SchurPolynomial,
    monic_numerator,
    reflection_to_tail,
    unit_variance_rho,
)
from covext.realization import g_from_ab


def forward_np_instance(rng, n, radius=0.85):
    """Interpolation data sampled from a known positive-real function."""
    a = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    rho = unit_variance_rho(a, sigma)
    b = monic_numerator(a, sigma, rho)
    nodes = conjugate_closed_nodes(rng, n + 1)
    f = RationalPR(a, b)
    values = f(nodes)
    return a, sigma, rho, b, InterpolationData(nodes=nodes, values=values)


def conjugate_closed_nodes(rng, count):
    """count distinct nodes outside the closed unit disc, closed under
    conjugation."""
    nodes = []
    while len(nodes) < count - (count % 2):
        r = rng.uniform(1.3, 3.5)
        phi = rng.uniform(0.15, np.pi - 0.15)
        z = r * np.exp(1j * phi)
        nodes.extend([z, np.conj(z)])
    while len(nodes) < count:
        nodes.append(complex(rng.uniform(1.3, 4.0) * rng.choice([-1.0, 1.0])))
    return np.array(nodes, dtype=complex)


# an n = 6 instance of the seeded interpolation set of
# tools/corpus_digest.py (problems #867 and #868 there), drawn by that
# tool's recipe with reflection coefficients in (-0.95, 0.95)
ILL_CONDITIONED_CLOSED = InterpolationData(
    nodes=[1.7237516053872612 + 2.1893512643513806j,
           1.7237516053872612 - 2.1893512643513806j,
           2.2432389232195864 + 0.4680318601058318j,
           2.2432389232195864 - 0.4680318601058318j,
           2.722031819108565 + 0.7120170607460964j,
           2.722031819108565 - 0.7120170607460964j,
           3.334031704538959],
    values=[0.6350954855437468 - 0.4078215367911032j,
            0.6350954855437468 + 0.4078215367911032j,
            1.1975471094091195 - 0.262282094164959j,
            1.1975471094091195 + 0.262282094164959j,
            0.9911541355400787 - 0.2029129671181648j,
            0.9911541355400787 + 0.2029129671181648j,
            0.9243098540554214])

WORKED_NODES = np.array([2.0, 3.0], dtype=complex)
WORKED_VALUES = np.array([5.0 / 6.0, 0.7], dtype=complex)


class TestData:
    def test_nodes_inside_disc_rejected(self):
        with pytest.raises(DataError):
            InterpolationData(nodes=[0.5, 2.0], values=[1.0, 1.0])

    def test_values_left_half_plane_rejected(self):
        with pytest.raises(DataError):
            InterpolationData(nodes=[2.0, 3.0], values=[-1.0, 1.0])

    def test_repeated_nodes_rejected(self):
        with pytest.raises(DataError):
            InterpolationData(nodes=[2.0, 2.0], values=[1.0, 1.0])

    def test_conjugate_closure_flag(self):
        d = InterpolationData(
            nodes=[1 + 2j, 1 - 2j], values=[1 + 1j, 1 - 1j]
        )
        assert d.conjugate_closed
        d2 = InterpolationData(nodes=[1 + 2j, 3.0], values=[1 + 1j, 1.0])
        assert not d2.conjugate_closed


class TestVandermonde:
    def test_literal_formula(self):
        V = build_vandermonde([2.0, 3.0])
        assert np.allclose(V, [[2.0, 1.0], [3.0, 1.0]])

    def test_determinant_identity(self):
        nodes = np.array([2.0, 3.0, 5.0])
        V = build_vandermonde(nodes)
        det = np.linalg.det(V)
        prod = np.prod([nodes[i] - nodes[j] for i in range(3) for j in range(i + 1, 3)])
        assert det == pytest.approx(prod, rel=1e-12)

    def test_conjugate_pair_symmetry(self):
        nodes = np.array([1.5 + 1j, 1.5 - 1j, 2.0])
        V = build_vandermonde(nodes)
        coeffs = np.array([1.0, -0.3, 0.2])  # real polynomial
        vals = V @ coeffs
        assert vals[0] == pytest.approx(np.conj(vals[1]))
        assert vals[2].imag == pytest.approx(0.0)


class TestBuildT:
    def test_half_values_give_zero(self):
        d = InterpolationData(nodes=[2.0, 3.0, -2.5], values=[0.5, 0.5, 0.5])
        T = build_T(d)
        assert np.max(np.abs(T)) <= 1e-13

    def test_worked_case_matrix(self):
        d = InterpolationData(nodes=WORKED_NODES, values=WORKED_VALUES)
        T = build_T(d)
        expected = np.array([[-1.0 / 15.0, -2.0 / 15.0], [4.0 / 5.0, 3.0 / 5.0]])
        assert np.allclose(T, expected, atol=1e-12)
        # consistency: T (1, a)' = (0, g)' for the generating function
        lhs = T @ np.array([1.0, -0.5])
        assert abs(lhs[0]) <= 1e-12
        assert lhs[1] == pytest.approx(0.5, abs=1e-12)

    def test_coupling_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a, sigma, rho, b, data = forward_np_instance(rng, n)
            T = build_T(data)
            g = g_from_ab(a.coeffs, b.coeffs)
            lhs = T @ np.concatenate([[1.0], a.coeffs])
            rhs = np.concatenate([[0.0], g])
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_non_conjugate_closed_rejected(self):
        d = InterpolationData(nodes=[1 + 2j, 3.0], values=[1 + 1j, 1.0])
        with pytest.raises(DataError, match="conjugation"):
            build_T(d)

    def test_ill_conditioned_conjugate_closed_accepted(self):
        # exactly conjugate-closed, cond(V) ~ 1e6: the imaginary residue of
        # V^{-1} C V is 2.5e-12, above the 1e-12 floor but within roundoff
        d = ILL_CONDITIONED_CLOSED
        W = np.linalg.solve(build_vandermonde(d.nodes), np.diag(d.values)
                            @ build_vandermonde(d.nodes))
        assert np.max(np.abs(W.imag)) > 1e-12
        for paper_factor in (False, True):
            T = build_T(d, paper_factor=paper_factor)
            assert T.dtype == np.float64 and T.shape == (7, 7)

    @pytest.mark.parametrize("data", [
        ILL_CONDITIONED_CLOSED,
        forward_np_instance(np.random.default_rng(5), 4)[4],
    ])
    def test_moved_imaginary_part_rejected(self, data):
        build_T(data)
        values = data.values.copy()
        values[0] += 1e-6j
        with pytest.raises(DataError, match="conjugation"):
            build_T(InterpolationData(nodes=data.nodes, values=values))


class TestBuildUU:
    def test_zero_T(self):
        params = build_uU_np(np.zeros((3, 3)))
        assert np.allclose(params.u, 0.0)
        assert np.allclose(params.U, 0.0)

    def test_worked_case(self):
        d = InterpolationData(nodes=WORKED_NODES, values=WORKED_VALUES)
        params = build_uU_np(build_T(d))
        assert params.u[0] == pytest.approx(0.5, abs=1e-12)
        assert params.U[0, 0] == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_singular_reported(self):
        with pytest.raises(StructuralError):
            build_uU_np(-np.eye(2))

    def test_real_for_conjugate_closed(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            _, _, _, _, data = forward_np_instance(rng, n)
            T = build_T(data)  # raises if the imaginary residue exceeds roundoff
            params = build_uU_np(T)
            assert params.u.dtype == np.float64
            assert params.U.dtype == np.float64


class TestSolveNP:
    def test_all_half_values(self):
        d = InterpolationData(nodes=[2.0, -3.0, 4.0], values=[0.5, 0.5, 0.5])
        sigma = SchurPolynomial([0.2, 0.05])
        res = solve_np(d, sigma)
        assert np.allclose(res.solution.P, 0.0, atol=1e-12)
        assert np.allclose(res.solution.a, sigma.coeffs, atol=1e-12)
        assert res.solution.rho == pytest.approx(1.0, abs=1e-12)
        assert res.interp_residual <= 1e-12

    def test_worked_case_recovery(self):
        d = InterpolationData(nodes=WORKED_NODES, values=WORKED_VALUES)
        res = solve_np(d, SchurPolynomial([0.0]))
        assert res.solution.a[0] == pytest.approx(-0.5, abs=1e-10)
        assert res.solution.rho == pytest.approx(np.sqrt(0.75), abs=1e-10)
        assert res.solution.P[0, 0] == pytest.approx(0.25, abs=1e-10)
        assert res.interp_residual <= 1e-10
        assert abs(res.first_row_residual) <= 1e-10

    def test_random_recovery(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            a, sigma, rho, b, data = forward_np_instance(rng, n)
            res = solve_np(data, sigma)
            assert np.max(np.abs(res.solution.a - a.coeffs)) <= 1e-6
            assert abs(res.solution.rho - rho) <= 1e-7
            assert res.interp_residual <= 1e-8

    def test_fixed_point_runs_unguarded(self):
        # h'Ph passes 1 mid-sweep on this data, so the guarded plain
        # iteration gives up, while the unguarded sweep that solve_np runs
        # converges to an accepted answer
        z = -2.7491429386211674 + 1.0438707314103797j
        c = 0.8267487294282498 + 0.16609217045974578j
        d = InterpolationData(nodes=[z, np.conj(z)], values=[c, np.conj(c)])
        sigma = SchurPolynomial([-0.7577517989198768])
        params = build_uU_np(build_T(d))
        prob = CEEProblem(sigma=sigma.coeffs, u=params.u, U=params.U)
        opts = SolveOptions(method="fixed-point")
        with pytest.raises(SolverError, match="after 11 steps"):
            solve_cee(prob, opts)
        res = solve_np(d, sigma, options=opts)
        assert res.solution.method == "fixed-point"
        assert res.solution.a[0] == pytest.approx(0.69556, abs=1e-5)

    def test_sigma_degree_mismatch(self):
        d = InterpolationData(nodes=WORKED_NODES, values=WORKED_VALUES)
        with pytest.raises(DataError):
            solve_np(d, SchurPolynomial([0.1, 0.0]))

    def test_paper_factor_diverges_on_worked_case(self):
        # regression lock of the alternative scaling: it produces a
        # different, non-interpolating answer on the same data
        d = InterpolationData(nodes=WORKED_NODES, values=WORKED_VALUES)
        with pytest.raises(VerificationError):
            solve_np(d, SchurPolynomial([0.0]), paper_factor=True)
        T = build_T(d, paper_factor=True)
        params = build_uU_np(T)
        assert params.u[0] == pytest.approx(64.0 / 153.0, abs=1e-12)

    def test_inconsistent_values_reported_unsolvable(self):
        d = InterpolationData(
            nodes=WORKED_NODES, values=WORKED_VALUES + np.array([0.1, 0.0])
        )
        with pytest.raises(VerificationError, match="unsolvable"):
            solve_np(d, SchurPolynomial([0.0]))


class TestInterpResidual:
    def test_exact_zero(self):
        d = InterpolationData(nodes=WORKED_NODES, values=WORKED_VALUES)
        assert interp_residual((np.array([-0.5]), np.array([0.5])), d) <= 1e-15

    def test_perturbed_value(self):
        d = InterpolationData(
            nodes=WORKED_NODES, values=WORKED_VALUES + np.array([0.1, 0.0])
        )
        r = interp_residual((np.array([-0.5]), np.array([0.5])), d)
        assert r == pytest.approx(0.1, abs=1e-12)


class TestImpliedScale:
    def test_exact_data_scale_near_one(self):
        rng = np.random.default_rng(19)
        _, _, _, _, data = forward_np_instance(rng, 3)
        alpha = implied_scale(data)
        assert alpha == pytest.approx(1.0, abs=0.2)

    def test_scale_estimate_is_linear(self):
        # scaling all values by s divides the estimate by s exactly
        rng = np.random.default_rng(23)
        _, _, _, _, data = forward_np_instance(rng, 4)
        base = implied_scale(data)
        for s in (0.5, 3.0, 11.0):
            assert implied_scale(data.scaled(s)) == pytest.approx(
                base / s, rel=1e-12
            )

    def test_mis_scaled_data_unsolvable_without_normalize(self):
        d = InterpolationData(nodes=WORKED_NODES, values=3.0 * WORKED_VALUES)
        with pytest.raises(VerificationError):
            solve_np(d, SchurPolynomial([0.0]))
        # the heuristic scale lands near the true 1/3 (truncation-limited)
        assert implied_scale(d) == pytest.approx(1.0 / 3.0, rel=0.2)
