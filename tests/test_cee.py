import dataclasses
import inspect
import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from covext import cee
from covext.cee import (
    CEEProblem,
    SolveOptions,
    build_problem,
    cee_residual,
    companion,
    extract_filter,
    fixed_point_step,
    g_of_P,
    positive_degree,
    problem_from_covariances,
    rank_P,
    solve_cee,
)
from covext.covdata import CovarianceSequence, build_cov_params
from covext.errors import DataError, InvalidBranchError, SolverError
from covext.nevpick import InterpolationData, build_T, build_uU_np
from covext.polyalg import (
    RationalPR,
    SchurPolynomial,
    factor_residual,
    is_schur,
    laurent_coeffs,
    monic_numerator,
    reflection_to_tail,
    unit_variance_rho,
)


def scalar_problem(c1, sigma1):
    c = CovarianceSequence([1.0, c1])
    return problem_from_covariances(c, SchurPolynomial([sigma1]))


def forward_instance(rng, n, radius=0.9):
    a = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    rho = unit_variance_rho(a, sigma)
    b = monic_numerator(a, sigma, rho)
    c_tail = laurent_coeffs(RationalPR(a, b), n)
    c = CovarianceSequence(np.concatenate([[1.0], c_tail]))
    return a, sigma, rho, b, c


class TestAssembly:
    def test_gamma_structure(self):
        prob = CEEProblem(sigma=[0.3, -0.1], u=[0.5, 0.0],
                          U=[[0.0, 0.0], [0.5, 0.0]])
        assert np.allclose(prob.Gamma, [[-0.3, 1.0], [0.1, 0.0]])

    def test_scalar_case(self):
        prob = scalar_problem(0.5, 0.0)
        assert prob.Gamma.shape == (1, 1)
        assert prob.Gamma[0, 0] == 0.0
        assert np.allclose(prob.u, [0.5])
        assert np.allclose(prob.U, [[0.0]])

    def test_white_noise_params_vanish(self):
        c = CovarianceSequence([1.0, 0.0, 0.0])
        prob = problem_from_covariances(c, SchurPolynomial([0.2, -0.1]))
        assert np.allclose(prob.u, 0.0)
        assert np.allclose(prob.U, 0.0)

    def test_non_schur_sigma_rejected(self):
        with pytest.raises(DataError):
            CEEProblem(sigma=[-2.0], u=[0.5], U=[[0.0]])

    def test_dimension_mismatch(self):
        params = build_cov_params(CovarianceSequence([1.0, 0.5, 0.25]))
        with pytest.raises(DataError):
            build_problem(params, SchurPolynomial([0.5]))


class TestGofP:
    def test_zero_U_means_constant_g(self):
        prob = scalar_problem(0.5, 0.3)
        for p in (0.0, 0.2, 0.7):
            assert g_of_P(prob, np.array([[p]])) == pytest.approx(0.5)

    def test_worked_two_dim(self):
        c = CovarianceSequence([1.0, 0.5, 0.25])
        prob = problem_from_covariances(c, SchurPolynomial([0.0, 0.0]))
        g = g_of_P(prob, np.zeros((2, 2)))
        assert np.allclose(g, [0.5, 0.0])


class TestResidual:
    def test_white_noise_zero_at_zero(self):
        c = CovarianceSequence([1.0, 0.0, 0.0])
        prob = problem_from_covariances(c, SchurPolynomial([0.3, 0.1]))
        assert cee_residual(prob, np.zeros((2, 2))) == pytest.approx(0.0)

    def test_scalar_solution_and_miss(self):
        prob = scalar_problem(0.5, 0.0)
        assert cee_residual(prob, np.array([[0.25]])) == pytest.approx(0.0)
        assert cee_residual(prob, np.array([[0.0]])) == pytest.approx(0.25)


def kron_jacobian(prob, P):
    """Reference Newton Jacobian: the five-term formula as dense Kronecker
    products, I - G(x)G + (G P h h')(x)G + G(x)(G P h h') - (g h')(x)UG
    - UG(x)(g h')."""
    n = prob.n
    G = prob.Gamma
    UG = prob.U @ G
    g = g_of_P(prob, P)
    GPhh = np.zeros((n, n))
    GPhh[:, 0] = G @ P[:, 0]
    ghT = np.zeros((n, n))
    ghT[:, 0] = g
    return (
        np.eye(n * n)
        - np.kron(G, G)
        + np.kron(GPhh, G)
        + np.kron(G, GPhh)
        - np.kron(ghT, UG)
        - np.kron(UG, ghT)
    )


def random_newton_point(rng, n):
    """A Schur sigma with dense, non-Toeplitz (u, U) and a symmetric P."""
    sigma = reflection_to_tail(rng.uniform(-0.95, 0.95, n))
    prob = CEEProblem(sigma=sigma, u=rng.standard_normal(n),
                      U=rng.standard_normal((n, n)))
    A = rng.standard_normal((n, n))
    return prob, 0.5 * (A + A.T)


def lifted_step(prob, P):
    """cee._lifted_step at P for the exact residual R(P)."""
    form = cee._quadratic(prob, cee._first_column_operator(cee._stein_matrix(prob.Gamma)))
    return cee._lifted_step(form, P, cee._residual_matrix(prob, P))


class TestNewtonJacobian:
    def test_directional_derivative_of_residual(self):
        # the lifted step d solves J d = R(P): the derivative of the
        # residual along d is R(P) itself; the residual is quadratic in P,
        # so the forward difference along the unit direction misses it by
        # O(eps)
        rng = np.random.default_rng(9)
        eps = 1e-7
        for n in range(1, 9):
            for _ in range(5):
                prob, P = random_newton_point(rng, n)
                R = cee._residual_matrix(prob, P)
                d = lifted_step(prob, P)
                size = np.linalg.norm(d)
                fd = (cee._residual_matrix(prob, P + eps * d / size) - R) * (size / eps)
                assert np.max(np.abs(fd - R)) <= 1e-5 * size * max(1.0, np.max(np.abs(R)))


def corpus_slice(seed=20261020, per_degree=3):
    """Criterion-02 style problems: n = 2..8, reflection coefficients in
    (-0.95, 0.95)."""
    rng = np.random.default_rng(seed)
    return [problem_from_covariances(c, sigma)
            for n in range(2, 9) for _ in range(per_degree)
            for _, sigma, _, _, c in [forward_instance(rng, n, 0.95)]]


class TestLineSearch:
    def test_quadratic_identity(self):
        # the first-column residual r(x) = x - F(x) is quadratic in x, so
        # along the Newton step d, r(x - t d) = (1 - t) r(x) - t^2 q with
        # q = H(d) d = K vec(M d d'M' - Gamma d d'Gamma'): the model the
        # first-column Newton backtracks on, at all 34 of its trial lengths;
        # r itself is evaluated through B(g) and B(Gamma x)
        rng = np.random.default_rng(41)
        for n in range(1, 13):
            for _ in range(5):
                prob, _ = random_newton_point(rng, n)
                op = cee._first_column_operator(cee._stein_matrix(prob.Gamma))
                _, _, _, _, _, J0, H = cee._quadratic(prob, op)
                K = op[1]
                x = rng.standard_normal(n)
                r0 = x - first_column_terms(prob, K, x)[4]
                d = cee._reduced_step(J0, H @ x, r0)
                q = (H @ d) @ d
                scale = np.linalg.norm(r0) + np.linalg.norm(q) + np.linalg.norm(x)
                for t in (2.0 ** -k for k in range(34)):
                    xt = x - t * d
                    rt = xt - first_column_terms(prob, K, xt)[4]
                    model = (1.0 - t) * r0 - t * t * q
                    assert np.linalg.norm(rt - model) <= 1e-12 * scale

    def test_stalling_trial_fails_at_the_damping_floor(self, monkeypatch):
        # benchmark corpus seed 9702 request 40 (n = 7): the first trial's
        # damped Newton from P = 0 creeps toward a nonzero local minimum of
        # ||r||.  Backtracking down to t = 2^-33 runs all 25 steps of the
        # cap and ends less than 1% below the residual where the damping
        # floor of 1/16 fails the trial, in fewer steps
        _, prob = perfbench_request(9702, 40)
        assert prob.n == 7
        form = cee._quadratic(prob, cee._operator(prob))
        steps = []
        reduced_step = cee._reduced_step
        monkeypatch.setattr(cee, "_reduced_step",
                            lambda *args: steps.append(args) or reduced_step(*args))

        def first_trial():
            """(n x n steps, error) of the first-column Newton from 0."""
            steps.clear()
            with pytest.raises(SolverError) as info:
                cee._reduced_newton(prob, np.zeros(prob.n), form)
            return len(steps), info.value

        def residual(exc):
            return float(re.search(r"residual (\S+)", str(exc)).group(1))

        floored, floor_exc = first_trial()
        assert floored < cee._RAMP_NEWTON_MAX_ITER
        assert isinstance(floor_exc, cee._DampingFloorError)
        monkeypatch.setattr(cee, "_DAMPING_FLOOR", 2.0 ** -33)
        crawled, crawl_exc = first_trial()
        assert crawled == cee._RAMP_NEWTON_MAX_ITER
        assert not isinstance(crawl_exc, cee._DampingFloorError)
        assert 0.99 * residual(floor_exc) < residual(crawl_exc) <= residual(floor_exc)


def branch_reference(P):
    """_on_valid_branch's decision through eigvalsh: P finite, h'Ph < 1 and
    lambda_min(P) >= -1e-9 max(1, max|P|)."""
    if not np.all(np.isfinite(P)) or P[0, 0] >= 1.0:
        return False
    delta = 1e-9 * max(1.0, float(np.max(np.abs(P))))
    return float(np.linalg.eigvalsh(P)[0]) >= -delta


@st.composite
def branch_points(draw):
    """A symmetric P of order n = 1..10: A A' - C C' - s delta I, with
    A A' of rank 0..n, C C' of rank 0..2 (P is then mostly indefinite),
    delta the branch margin of A A' - C C' and s in [-3, 3], so that
    lambda_min(P) lies on either side of the margin."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 10.0 ** draw(st.floats(-3.0, 1.5))
    A = size * rng.standard_normal((n, draw(st.integers(0, n))))
    B = A @ A.T
    if draw(st.booleans()) and B[0, 0] > 0.25:
        # h'Ph = 1/4: the semidefinite test decides
        c = 0.5 / np.sqrt(B[0, 0])
        B[0, :] *= c
        B[:, 0] *= c
    C = size * rng.standard_normal((n, draw(st.integers(0, 2))))
    B = B - C @ C.T
    delta = 1e-9 * max(1.0, float(np.max(np.abs(B))))
    P = B - draw(st.floats(-3.0, 3.0)) * delta * np.eye(n)
    return 0.5 * (P + P.T)


class TestBranch:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(branch_points())
    @example(np.array([[np.nan]]))
    @example(np.array([[1.0, 0.0], [0.0, 2.0]]))
    @example(np.diag([0.5, 0.0]) - 0.99e-9 * np.eye(2))
    @example(np.diag([0.5, 0.0]) - 1.01e-9 * np.eye(2))
    def test_cholesky_decides_as_eigvalsh(self, P):
        # one Cholesky factorization of P + delta I decides lambda_min(P)
        # >= -delta as the eigenvalues do, wherever lambda_min is not within
        # rounding of -delta
        if np.all(np.isfinite(P)):
            scale = max(1.0, float(np.max(np.abs(P))))
            lam = float(np.linalg.eigvalsh(P)[0])
            assume(abs(lam + 1e-9 * scale) > 1e-12 * scale)
        assert cee._on_valid_branch(P) == branch_reference(P)


def path_trials(monkeypatch):
    """A list that collects (problem, path, s) for every continuation trial
    solve_cee runs from now on: path "t" for a data ramp, "s" for the
    numerator path, and ``problem`` the problem whose path it is."""
    trials = []

    def spy(name, path):
        make = getattr(cee, name)

        def spied(prob):
            family = make(prob)

            def trial(s):
                trials.append((prob, path, s))
                return family(s)

            return trial

        monkeypatch.setattr(cee, name, spied)

    spy("_ramp_family", "t")
    spy("_sigma_family", "s")
    return trials


def labelled(trials, prob):
    """The trials of a solve of ``prob`` as (path, s), with path "t0" for the
    data ramp at sigma = z^n."""
    return [(path if p is prob else "t0", s) for p, path, s in trials]


def sigma_path_gives_up(monkeypatch):
    """Make every numerator-path trial fail to build, as a sigma(s) that
    rounds onto the unit circle does, so that the path gives up at its
    step floor."""
    def family(prob):
        def trial(s):
            raise DataError("sigma(s) is not Schur")
        return trial

    monkeypatch.setattr(cee, "_sigma_family", family)


def levinson_start_fails(monkeypatch):
    """Make the Levinson start fail: the first-column Newton from a start
    with x_1 = h'Ph = 1, a point off the branch that no other trial starts
    from, raises as a stalled trial does."""
    reduced_newton = cee._reduced_newton

    def spied(prob, x, form):
        if x[0] == 1.0:
            raise SolverError("forced failure of the Levinson start")
        return reduced_newton(prob, x, form)

    monkeypatch.setattr(cee, "_reduced_newton", spied)


def sigma_path(prob, P, step):
    """(P, Newton steps) of the numerator path of ``prob`` from P with first
    step ``step``, the first-column operator rebuilt for each trial short of
    s = 1."""
    return cee._continuation(cee._sigma_family(prob), cee._operator(prob), prob,
                             SolveOptions().tol, P, step, cee._SIGMA_MIN_STEP)[:2]


def data_ramp_alone(prob, tol=SolveOptions().tol, step=1.0):
    """(P, Newton steps) of the data ramp of ``prob`` from t = 0 with first
    step ``step``; with step 1, the trial sequence of the solver without the
    numerator path."""
    return cee._continuation(cee._ramp_family(prob), cee._operator(prob), prob, tol,
                             np.zeros((prob.n, prob.n)), step, cee._RAMP_MIN_STEP)[:2]


def interpolation_slice(seed=20261021, per_degree=5):
    """Interpolation-sourced problems: the values of a random positive-real
    b/(2a) at n + 1 nodes outside the unit disc, closed under conjugation,
    at its generating sigma, n = 1..4, reflection coefficients in
    (-0.9, 0.9).  All 20 solve, six of them (#6, #7, #12 and #15-#17) after
    a failed first trial, and none has a closed-form start (cee._central)."""
    rng = np.random.default_rng(seed)
    problems = []
    for n in range(1, 5):
        for _ in range(per_degree):
            a, sigma, _, b, _ = forward_instance(rng, n)
            nodes = []
            while len(nodes) < n + 1 - (n + 1) % 2:
                z = rng.uniform(1.4, 3.0) * np.exp(1j * rng.uniform(0.2, np.pi - 0.2))
                nodes.extend([z, np.conj(z)])
            if len(nodes) < n + 1:
                nodes.append(rng.uniform(1.4, 4.0))
            nodes = np.array(nodes, dtype=complex)
            params = build_uU_np(build_T(InterpolationData(nodes, RationalPR(a, b)(nodes))))
            problems.append(CEEProblem(sigma=sigma.coeffs, u=params.u, U=params.U))
    return problems


class TestContinuation:
    def test_no_newton_run_repeats(self, monkeypatch):
        # a corrector call with the same problem object and start bytes as
        # the call before it repeats a deterministic computation
        calls = []
        reduced_newton = cee._reduced_newton

        def spy(prob, x, op):
            calls.append((prob, x.tobytes()))
            return reduced_newton(prob, x, op)

        monkeypatch.setattr(cee, "_reduced_newton", spy)
        trials = path_trials(monkeypatch)
        repeats = skips = 0
        # benchmark corpus seed 44 request 111 (n = 8) fails many data-ramp
        # trials close to t = 1; the skip is reached on the data ramp, so the
        # second pass makes the numerator path give up
        problems = corpus_slice() + [perfbench_request(44, 111)[1]]
        for give_up in (False, True):
            if give_up:
                sigma_path_gives_up(monkeypatch)
            for prob in problems:
                calls.clear()
                trials.clear()
                solve_outcome(prob)
                repeats += sum(a[0] is b[0] and a[1] == b[1]
                               for a, b in zip(calls, calls[1:]))
                # replay the data ramp's step from its trials: a failed t = 1
                # trial whose halved step still reaches t = 1 would be run
                # again without the skip
                ts = [t for path, t in labelled(trials, prob) if path == "t"]
                base, step = 0.0, 1.0
                for t, t_after in zip(ts, ts[1:]):
                    if t_after > t:
                        base, step = t, min(2.0 * step, 0.5)
                        continue
                    step *= 0.5
                    skips += t == 1.0 and base + step >= 1.0
                    step = t_after - base
        assert repeats == 0
        # the problems reach the case
        assert skips > 0

    def test_only_the_problem_itself_is_polished(self, monkeypatch):
        # an intermediate trial is the first-column Newton and the branch
        # test alone: full-space Newton runs only on the problem being
        # solved, and every accepted intermediate P is on the PSD h'Ph < 1
        # branch
        polished = []
        legs = []  # [target, trials as [s, problem, reduced P], finished]
        newton = cee._newton
        continuation = cee._continuation
        reduced_newton = cee._reduced_newton

        def newton_spy(prob, *args):
            polished.append(prob)
            return newton(prob, *args)

        def continuation_spy(family, operator, target, tol, P, step, min_step):
            leg = [target, [], False]
            legs.append(leg)

            def trial(s):
                prob = family(s)
                leg[1].append([s, prob, None])
                return prob

            result = continuation(trial, operator, target, tol, P, step, min_step)
            leg[2] = True
            return result

        def reduced_newton_spy(prob, x, op):
            P, steps = reduced_newton(prob, x, op)
            legs[-1][1][-1][2] = P
            return P, steps

        monkeypatch.setattr(cee, "_newton", newton_spy)
        monkeypatch.setattr(cee, "_continuation", continuation_spy)
        monkeypatch.setattr(cee, "_reduced_newton", reduced_newton_spy)

        def check(prob):
            """(legs, accepted intermediate trials) of a solve of prob."""
            polished.clear()
            legs.clear()
            solve_outcome(prob)
            assert polished and all(p is prob for p in polished)
            accepted = 0
            for target, trials, finished in legs:
                # a trial was accepted when the next one goes beyond it, or
                # when it ended a leg that finished
                ends = [s for s, _, _ in trials[1:]] + [np.inf if finished else -np.inf]
                for (s, trial, P), s_after in zip(trials, ends):
                    if trial is not target and s_after > s:
                        assert cee._on_valid_branch(P)
                        accepted += 1
            return len(legs), accepted

        # the corpus starts from the closed-form solution at sigma = z^n;
        # interpolation problems that fail their first trial run the data
        # ramp at z^n before the numerator path
        intermediate = 0
        first_trial_fails = None
        for prob in corpus_slice() + interpolation_slice():
            leg_count, accepted = check(prob)
            intermediate += accepted
            if leg_count > 1 and first_trial_fails is None:
                first_trial_fails = prob
        assert intermediate > 0 and first_trial_fails is not None
        # with the numerator path forced to give up, the data-ramp fallback
        # runs its intermediate trials on the problem's own data ramp, after
        # a central start as after a failed first trial
        sigma_path_gives_up(monkeypatch)
        assert check(corpus_slice()[0])[1] > 0
        assert check(first_trial_fails)[1] > 0

    def test_polish_is_refinement_on_an_extended_precision_residual(self, monkeypatch):
        # the polish of a trial on the problem itself is one Newton whose
        # residuals are computed in np.longdouble: mixed-precision iterative
        # refinement.  From the solver's own P it still takes a step, and
        # every residual it evaluates goes through _residual_matrix in long
        # double
        dtypes = []
        residual_matrix = cee._residual_matrix

        def spy(prob, P):
            dtypes.append(P.dtype)
            return residual_matrix(prob, P)

        tol = SolveOptions().tol
        for prob in corpus_slice():
            P = solve_cee(prob).P
            form = cee._quadratic(prob, cee._operator(prob))
            dtypes.clear()
            with monkeypatch.context() as m:
                m.setattr(cee, "_residual_matrix", spy)
                _, steps = cee._newton(prob, P, tol, form)
            assert steps >= 1
            assert dtypes and all(dtype == np.longdouble for dtype in dtypes)


def first_column_point(gammas, seed):
    """(problem, x): the Schur sigma of reflection coefficients ``gammas``,
    dense (u, U) and a first column x drawn from ``seed``."""
    n = len(gammas)
    rng = np.random.default_rng(seed)
    prob = CEEProblem(sigma=reflection_to_tail(np.array(gammas)),
                      u=0.5 * rng.standard_normal(n),
                      U=0.5 * rng.standard_normal((n, n)))
    return prob, 0.5 * rng.standard_normal(n)


@st.composite
def first_column_points(draw):
    """(problem, x): a Schur sigma of degree n = 1..8 from reflection
    coefficients in [-0.9, 0.9], dense (u, U) and a first column x."""
    n = draw(st.integers(1, 8))
    gammas = draw(st.lists(st.floats(-0.9, 0.9), min_size=n, max_size=n))
    return first_column_point(gammas, draw(st.integers(0, 2**32 - 1)))


def first_column_terms(prob, K, x):
    """(g, Gamma x, B(g), B(Gamma x), F(x)) of the first-column form."""
    n = prob.n
    y = prob.Gamma @ x
    g = prob.u + prob.U @ (prob.sigma + y)
    Bg = (K @ g).reshape(n, n)
    By = (K @ y).reshape(n, n)
    return g, y, Bg, By, Bg @ g - By @ y


def stein_cond(prob):
    return np.linalg.cond(cee._stein_matrix(prob.Gamma))


class TestFirstColumn:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(first_column_points())
    def test_stein_solve_of_Q(self, point):
        # P(x) solves P - Gamma P Gamma' = Q(x) to rounding, and its first
        # column is F(x) to the inverse's forward error
        prob, x = point
        G = prob.Gamma
        lu, K, _ = cee._first_column_operator(cee._stein_matrix(G))
        g, y, _, _, F = first_column_terms(prob, K, x)
        Q = np.outer(g, g) - np.outer(y, y)
        P = cee._stein_solve(lu, Q)
        assert np.array_equal(P, P.T)
        scale = (1.0 + np.linalg.norm(G) ** 2) * np.linalg.norm(P) + np.linalg.norm(Q)
        eps = np.finfo(float).eps
        assert np.linalg.norm(P - G @ P @ G.T - Q) <= 64 * prob.n * eps * scale
        cond = stein_cond(prob)
        assert np.linalg.norm(F - P[:, 0]) <= 64 * prob.n * eps * cond * scale

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(first_column_points())
    @example(first_column_point(np.linspace(-0.9, 0.9, 20), 20))
    def test_quadratic_form_is_the_first_column_map(self, point):
        # within one problem F(x) = B(g) g - B(Gamma x) Gamma x is the fixed
        # quadratic F0 + (L + H(x)) x, L = I - J0, to rounding, and the
        # Jacobian L + 2 H(x) of F is the central difference of F evaluated
        # through B(g) and B(Gamma x); a quadratic's central difference is
        # exact, so both sides differ by rounding alone
        prob, x = point
        n = prob.n
        G = prob.Gamma
        op = cee._first_column_operator(cee._stein_matrix(G))
        K = op[1]
        _, _, _, _, F0, J0, H = cee._quadratic(prob, op)
        eps = np.finfo(float).eps

        def rounding(xabs):
            """32 n eps (a'|K_k| a + b'|K_k| b)_k, with a and b bounds on
            |g| and |Gamma x| as either side forms them."""
            a = (np.abs(prob.u) + np.abs(prob.U) @ (np.abs(prob.sigma) + np.abs(G) @ xabs)
                 + np.abs(prob.U @ G) @ xabs)
            b = np.abs(G) @ xabs
            return 32 * n * eps * ((np.abs(K) @ a) @ a + (np.abs(K) @ b) @ b)

        # J0 = I - L with L = 2 c'K_k M; the identity is left out of the
        # comparisons below, so that only K's terms round
        L = 2.0 * ((K @ (prob.u + prob.U @ prob.sigma)) @ (prob.U @ G))
        assert np.array_equal(J0, np.eye(n) - L)
        F = first_column_terms(prob, K, x)[4]
        assert np.all(np.abs(F0 + (L + H @ x) @ x - F) <= rounding(np.abs(x)))
        h = 0.5
        fd = np.column_stack([
            (first_column_terms(prob, K, x - h * e)[4]
             - first_column_terms(prob, K, x + h * e)[4]) / (2 * h)
            for e in np.eye(n)])
        assert np.all(np.abs(fd + (L + 2.0 * H @ x))
                      <= rounding(np.abs(x) + h)[:, None] / h)

    def test_shift_operator_is_cached_read_only(self):
        # at sigma = z^n the operator depends on n alone: every call, and
        # cee._operator of any problem there, gets the same read-only arrays,
        # bit-identical to a fresh build
        for n in (1, 4, 9):
            (lu, piv), K, kappa = cee._shift_operator(n)
            assert cee._shift_operator(n)[1] is K
            fresh = cee._first_column_operator(cee._stein_matrix(companion(np.zeros(n))))
            assert cee._operator(CEEProblem(sigma=np.zeros(n), u=np.ones(n),
                                            U=np.eye(n)))[1] is K
            assert np.array_equal(fresh[0][0], lu) and np.array_equal(fresh[0][1], piv)
            assert np.array_equal(fresh[1], K) and fresh[2] == kappa
            for arr in (lu, piv, K):
                assert not arr.flags.writeable

    def test_fallback_builds_only_the_targets_operator(self, monkeypatch):
        # every trial of the data-ramp fallback shares the problem's Gamma,
        # and the data ramp at sigma = z^n takes the cached operator: a solve
        # whose numerator path gives up builds the problem's operator alone,
        # after a central start and after a failed first trial alike
        problems = corpus_slice()[:5] + interpolation_slice()
        for prob in problems:
            cee._shift_operator(prob.n)
        built = []
        first_column_operator = cee._first_column_operator
        monkeypatch.setattr(cee, "_first_column_operator",
                            lambda stein: built.append(stein) or first_column_operator(stein))
        sigma_path_gives_up(monkeypatch)
        trials = path_trials(monkeypatch)
        fell_back = 0
        for prob in problems:
            built.clear()
            trials.clear()
            cee._ramp(prob, SolveOptions())
            fell_back += labelled(trials, prob)[-1] == ("t", 1.0) and len(trials) > 1
            assert len(built) == 1
        assert fell_back >= 10

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_solution_is_a_fixed_point(self, n, seed):
        # at a solved problem x* = Ph is a fixed point of F, and the Stein
        # solve of Q(x*) is a solution of the CEE
        _, sigma, _, _, c = forward_instance(np.random.default_rng(seed), n, 0.9)
        prob = problem_from_covariances(c, sigma)
        Pstar = solve_cee(prob).P
        x = Pstar[:, 0]
        lu, K, _ = cee._first_column_operator(cee._stein_matrix(prob.Gamma))
        g, y, _, _, F = first_column_terms(prob, K, x)
        scale = 1.0 + np.linalg.norm(Pstar)
        cond = stein_cond(prob)
        assert np.linalg.norm(x - F) <= 1e-13 * cond * scale
        P = cee._stein_solve(lu, np.outer(g, g) - np.outer(y, y))
        assert cee_residual(prob, P) <= 1e-13 * cond * scale
        assert np.linalg.norm(P - Pstar) <= 1e-12 * cond * scale

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(first_column_points())
    def test_reduced_step_lifts_to_full_step(self, point):
        # full-space Newton from P depends on P only through x = Ph: its
        # iterate is the Stein solve of Q linearized at x along the n x n
        # step d, whose first column is x - d
        prob, x0 = point
        n = prob.n
        G = prob.Gamma
        stein = cee._stein_matrix(G)
        assume(np.linalg.cond(stein) <= 1e4)
        op = cee._first_column_operator(stein)
        lu, K, _ = op
        g0, y0, _, _, _ = first_column_terms(prob, K, x0)
        P = cee._stein_solve(lu, np.outer(g0, g0) - np.outer(y0, y0))
        J = kron_jacobian(prob, P)
        assume(np.linalg.cond(J) <= 1e8)
        full = P - np.linalg.solve(J, cee._residual_matrix(prob, P).ravel(order="F")
                                   ).reshape(n, n, order="F")
        x = P[:, 0]
        g, y, _, _, F = first_column_terms(prob, K, x)
        M = prob.U @ G
        _, _, _, _, _, J0, H = cee._quadratic(prob, op)
        d = cee._reduced_step(J0, H @ x, x - F)
        Md = M @ d
        Gd = G @ d
        Qlin = (np.outer(g, g) - np.outer(y, y) - np.outer(g, Md) - np.outer(Md, g)
                + np.outer(y, Gd) + np.outer(Gd, y))
        lifted = np.linalg.solve(stein, Qlin.ravel(order="F")).reshape(n, n, order="F")
        assert np.linalg.norm(lifted - full) <= 1e-8 * np.linalg.norm(full)
        assert np.linalg.norm(x - d - full[:, 0]) <= 1e-8 * np.linalg.norm(full)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(first_column_points(), st.integers(0, 2**32 - 1))
    def test_lifted_step_is_the_full_step(self, point, seed):
        # at any symmetric P, not only at P = P(x), the lifted step solves
        # J d = R(P) with the dense n^2 x n^2 Jacobian
        prob, _ = point
        n = prob.n
        assume(stein_cond(prob) <= 1e4)
        A = np.random.default_rng(seed).standard_normal((n, n))
        P = 0.25 * (A + A.T)
        J = kron_jacobian(prob, P)
        assume(np.linalg.cond(J) <= 1e8)
        full = np.linalg.solve(J, cee._residual_matrix(prob, P).ravel(order="F")
                               ).reshape(n, n, order="F")
        d = lifted_step(prob, P)
        assert np.linalg.norm(d - full) <= 1e-8 * np.linalg.norm(full)

    def test_a_stop_short_of_the_solution_is_not_returned(self):
        # with kappa inflated, the first-column Newton's rounding level is
        # loose enough to stop it at its start, as it can on an ill-conditioned
        # large-n ramp; refinement from there reaches the solution or raises,
        # and never returns a P on the branch that misses the equation
        reached = failed = 0
        for prob in corpus_slice():
            x_star = solve_cee(prob).P[:, 0]
            lu, K, kappa = cee._operator(prob)
            form = cee._quadratic(prob, (lu, K, 1e30 * kappa))
            rng = np.random.default_rng(prob.n)
            for distance in (0.01, 0.1, 1.0):
                for _ in range(5):
                    d = rng.standard_normal(prob.n)
                    d *= distance * np.linalg.norm(x_star) / np.linalg.norm(d)
                    try:
                        P, _ = cee._reduced_newton(prob, x_star + d, form)
                    except SolverError:
                        failed += 1
                        continue
                    assert (not cee._on_valid_branch(P)
                            or cee_residual(prob, P) <= 1e-9)
                    reached += 1
        assert reached > 0 and failed > 0


def perfbench_pool(seed):
    """(a, problem) of the requests of the benchmark's corpus pool at
    ``seed``, in order: rng [seed, 2], n = 2..8 interleaved."""
    rng = np.random.default_rng([seed, 2])
    for k in itertools.count():
        a, sigma, _, _, c = forward_instance(rng, 2 + k % 7, 0.95)
        yield a, problem_from_covariances(c, sigma)


def perfbench_request(seed, request):
    """(a, problem) of request ``request`` of the benchmark's corpus pool at
    ``seed``."""
    return next(itertools.islice(perfbench_pool(seed), request, None))


def solve_outcome(prob):
    """(P bytes, iterations) of solve_cee, or the error text."""
    try:
        sol = solve_cee(prob)
    except SolverError as exc:
        return str(exc)
    return sol.P.tobytes(), sol.iterations


class TestFallback:
    """Problems on which the minimum-phase test on a decides the solve,
    which a second, full-space ramp used to rerun."""

    def test_non_schur_landing_at_t1_is_a_failed_trial(self, monkeypatch):
        # each problem solves at its first trial, the one on the problem
        # itself; forcing the Schur test to fail there makes it a failed
        # trial, and the path goes on.  The corpus problem starts from the
        # closed-form solution at sigma = z^n, so its first trial is s = 1 of
        # the numerator path, which halves its step: s = 1/2, whose sigma is
        # checked as its problem is built, then s = 1.  The interpolation
        # problem has no closed-form start: its first trial is t = 1 of the
        # data ramp, and the data ramp at sigma = z^n, which has no Schur
        # test, follows, then the Levinson start from there, the trial at
        # s = 1 of sigma(s), on the problem
        cases = [(corpus_slice()[15], 7, [("s", 1.0)],
                  [("s", 1.0), ("s", 0.5), ("s", 1.0)]),
                 (interpolation_slice()[10], 3, [("t", 1.0)],
                  [("t", 1.0), ("t0", 1.0), ("s", 1.0)])]
        cee_is_schur = cee.is_schur
        for prob, n, solved, forced in cases:
            assert prob.n == n
            trials = path_trials(monkeypatch)
            solve_outcome(prob)
            assert labelled(trials, prob) == solved
            schur_calls = []

            def is_schur(a):
                schur_calls.append(a)
                return len(schur_calls) > 1 and cee_is_schur(a)

            monkeypatch.setattr(cee, "is_schur", is_schur)
            trials.clear()
            sol = solve_cee(prob)
            assert labelled(trials, prob) == forced
            # the forced test, the check of the second trial's sigma
            # (sigma(1/2), or sigma = z^n) as its problem is built and the
            # test at s = 1, whose a solve_cee reports without testing it
            # again
            assert sol.a_is_schur and len(schur_calls) == 3
            assert schur_calls[-1] is sol.a
            monkeypatch.undo()

    def test_fragile_request_recovers_a(self):
        # perfbench corpus seed 2002 request 615 (n = 8): sigma and a have
        # roots within 1e-4 of the unit circle, and a t = 1 trial of the data
        # ramp lands on an exact solution with a non-Schur a; the solve,
        # which now ends at its Levinson start, must still recover a
        a, prob = perfbench_request(2002, 615)
        sol = solve_cee(prob, SolveOptions(max_iter=20_000))
        assert prob.n == 8 and sol.a_is_schur
        assert np.max(np.abs(sol.a - a.coeffs)) <= 1e-6


class TestNumeratorPath:
    """From the solution P0 at sigma = z^n, in closed form (cee._central)
    or, without one, after a failed first trial, at the end of the data
    ramp at z^n, the solve runs the Levinson start and then the path
    sigma(s) to the problem; the data ramp of the problem itself is the
    fallback."""

    def test_lands_on_the_data_ramps_solution(self, monkeypatch):
        # the PSD h'Ph < 1 solution is unique, so the numerator path and the
        # data ramp reach the same P: on the first 20 benchmark-pool
        # requests, which start from the closed form and run the numerator
        # path alone, and on the interpolation problems whose first trial
        # fails
        trials = path_trials(monkeypatch)
        for _, prob in itertools.islice(perfbench_pool(7), 20):
            trials.clear()
            sol = solve_cee(prob)
            path = labelled(trials, prob)
            assert {kind for kind, _ in path} == {"s"} and path[-1] == ("s", 1.0)
            P, _ = data_ramp_alone(prob)
            assert np.max(np.abs(sol.P - P)) <= 1e-8
        compared = 0
        for prob in interpolation_slice():
            trials.clear()
            sol = solve_cee(prob)
            path = labelled(trials, prob)
            if len(path) == 1:
                continue
            assert path[1] == ("t0", 1.0) and path[-1] == ("s", 1.0)
            P, _ = data_ramp_alone(prob)
            assert np.max(np.abs(sol.P - P)) <= 1e-8
            compared += 1
        assert compared >= 5

    def test_first_trial_success_builds_no_sigma_problem(self, monkeypatch):
        # without a closed-form start, a solve that succeeds at its first
        # trial is the data ramp's first trial, bit for bit
        built = []
        sigma_family = cee._sigma_family
        monkeypatch.setattr(cee, "_sigma_family",
                            lambda prob: built.append(prob) or sigma_family(prob))
        trials = path_trials(monkeypatch)
        solved = 0
        for prob in interpolation_slice():
            trials.clear()
            built.clear()
            P, steps, _ = cee._ramp(prob, SolveOptions())
            if labelled(trials, prob) != [("t", 1.0)]:
                continue
            assert not built
            P_data, steps_data = data_ramp_alone(prob)
            assert P.tobytes() == P_data.tobytes() and steps == steps_data
            solved += 1
        assert solved >= 5

    def test_forced_give_up_is_the_data_ramp(self, monkeypatch):
        # when the numerator path gives up, the data ramp goes on from t = 0
        # with step 1/2.  After a failed first trial that is the rest of the
        # data ramp's own trial sequence, so the result is bit-identical to
        # the data ramp alone; after a central start, which runs no first
        # trial, it is the data ramp from step 1/2, bit for bit
        sigma_path_gives_up(monkeypatch)
        trials = path_trials(monkeypatch)
        fell_back = 0
        for prob in interpolation_slice():
            trials.clear()
            P, steps, _ = cee._ramp(prob, SolveOptions())
            fell_back += labelled(trials, prob)[-1] == ("t", 1.0) and len(trials) > 1
            P_data, steps_data = data_ramp_alone(prob)
            assert P.tobytes() == P_data.tobytes() and steps == steps_data
        assert fell_back >= 5
        for prob in corpus_slice() + [perfbench_request(44, 111)[1]]:
            trials.clear()
            P, steps, _ = cee._ramp(prob, SolveOptions())
            ramp = [t for kind, t in labelled(trials, prob) if kind == "t"]
            assert ramp[0] == 0.5 and ramp[-1] == 1.0
            P_data, steps_data = data_ramp_alone(prob, step=0.5)
            assert P.tobytes() == P_data.tobytes() and steps == steps_data

    def test_corpus_solves_at_its_levinson_start(self, monkeypatch):
        # every corpus_slice problem has a closed-form start and solves at
        # its first trial, the Levinson start on the problem itself, with the
        # branch test, the polish and the Schur test passed
        trials = path_trials(monkeypatch)
        for prob in corpus_slice():
            trials.clear()
            sol = solve_cee(prob)
            assert labelled(trials, prob) == [("s", 1.0)]
            assert sol.a_is_schur and cee._on_valid_branch(sol.P)

    def test_failed_levinson_start_runs_the_path_from_the_closed_form(self, monkeypatch):
        # when the Levinson start fails, the numerator path runs from the
        # closed-form solution P0 with step 1/2: the trials that followed a
        # failed first trial from P0 itself.  Benchmark-pool seed 7 request
        # 6 (n = 8) is such a case: its numerator path from P0 with step 1
        # fails the trial at s = 1, then solves at s = 1/2 and 1, and the
        # forced failure gives that path's P bit for bit; so do the corpus
        # problems, against the path from P0 with step 1/2 or, where that
        # path gives up, the data-ramp fallback
        _, request = perfbench_request(7, 6)
        P_request = sigma_path(request, cee._central(request), 1.0)
        levinson_start_fails(monkeypatch)
        trials = path_trials(monkeypatch)
        fell_back = 0
        for prob in [request] + corpus_slice():
            trials.clear()
            P, steps, _ = cee._ramp(prob, SolveOptions())
            assert labelled(trials, prob)[:2] == [("s", 1.0), ("s", 0.5)]
            if prob is request:
                P_ref, steps_ref = P_request
            else:
                try:
                    P_ref, steps_ref = sigma_path(prob, cee._central(prob), 0.5)
                except SolverError:
                    P_ref, steps_ref = data_ramp_alone(prob, step=0.5)
                    fell_back += 1
            assert P.tobytes() == P_ref.tobytes() and steps == steps_ref
        # one corpus problem's path from P0 with step 1/2 gives up
        assert fell_back == 1

    def test_ramped_start_runs_the_levinson_start(self, monkeypatch):
        # without a closed form, a failed first trial from P = 0 is followed
        # by the data ramp at sigma = z^n and then, as after a closed-form
        # start, by the Levinson start: the next first-column Newton on the
        # problem itself starts from P0 h of that ramp's unpolished end P0
        # with x_1 set to 1
        starts = []
        reduced_newton = cee._reduced_newton
        monkeypatch.setattr(cee, "_reduced_newton",
                            lambda p, x, form: starts.append((p, x.copy()))
                            or reduced_newton(p, x, form))
        trials = path_trials(monkeypatch)
        ramped = 0
        for prob in interpolation_slice():
            starts.clear()
            trials.clear()
            solve_outcome(prob)
            path = labelled(trials, prob)
            if len(path) == 1:
                continue
            zn = sum(kind == "t0" for kind, _ in path)
            assert path[0] == ("t", 1.0) and zn > 0
            assert {kind for kind, _ in path[1:zn + 1]} == {"t0"}
            assert path[zn + 1] == ("s", 1.0)
            on_prob = [x for p, x in starts if p is prob]
            P0, _ = zn_data_ramp(prob, polished=False)
            assert on_prob[1][0] == 1.0 and np.array_equal(on_prob[1][1:], P0[1:, 0])
            ramped += 1
        assert ramped >= 5

    def test_failed_levinson_start_after_the_ramp_runs_the_path_at_half_step(
            self, monkeypatch):
        # when the Levinson start from the ramped P0 fails, the numerator
        # path runs from P0 with step 1/2, as it does from the closed form:
        # its trials begin s = 1, 1/2, and its P is that path's bit for bit,
        # with the steps of the data ramp at sigma = z^n counted in
        levinson_start_fails(monkeypatch)
        trials = path_trials(monkeypatch)
        compared = 0
        for prob in interpolation_slice():
            trials.clear()
            P, steps, _ = cee._ramp(prob, SolveOptions())
            path = labelled(trials, prob)
            if len(path) == 1:
                continue
            assert [entry for entry in path if entry[0] == "s"][:2] == [
                ("s", 1.0), ("s", 0.5)]
            P0, steps0 = zn_data_ramp(prob, polished=False)
            P_ref, steps_ref = sigma_path(prob, P0, 0.5)
            assert P.tobytes() == P_ref.tobytes() and steps == steps0 + steps_ref
            compared += 1
        assert compared >= 5

    def test_unbuildable_sigma_is_a_failed_trial(self, monkeypatch):
        # benchmark-pool seed 7 request 6 starts from the closed form at
        # sigma = z^n; with its Levinson start forced to fail, the numerator
        # path from there solves at s = 1/2 and 1; a sigma(1/2) that rounds
        # onto the unit circle, so that building its problem raises
        # DataError, fails that trial and the path halves its step instead
        _, prob = perfbench_request(7, 6)
        levinson_start_fails(monkeypatch)
        trials = path_trials(monkeypatch)
        solve_cee(prob)
        sigma_trials = [s for path, s in labelled(trials, prob) if path == "s"]
        assert sigma_trials == [1.0, 0.5, 1.0]
        step_up = cee.reflection_to_tail
        failed = []

        def reflection_to_tail(gammas):
            tail = step_up(gammas)
            if not failed:
                failed.append(tail)
                tail = np.concatenate([tail[:-1], [1.0]])
            return tail

        monkeypatch.setattr(cee, "reflection_to_tail", reflection_to_tail)
        trials.clear()
        sol = solve_cee(prob)
        sigma_trials = [s for path, s in labelled(trials, prob) if path == "s"]
        assert failed and sigma_trials[:3] == [1.0, 0.5, 0.25]
        assert sol.a_is_schur
        assert np.max(np.abs(sol.P - data_ramp_alone(prob)[0])) <= 1e-8


def zn_data_ramp(prob, polished=True):
    """(P, Newton steps) of the data ramp of ``prob``'s (u, U) at sigma =
    z^n, polished on that problem, or not: the solver's leg without a
    closed form targets ``prob`` itself, so its end P0 is not polished."""
    start = CEEProblem(sigma=np.zeros(prob.n), u=prob.u, U=prob.U)
    target = start if polished else prob
    return cee._continuation(cee._ramp_family(start), cee._operator(target), target,
                             SolveOptions().tol, np.zeros((prob.n, prob.n)),
                             1.0, cee._RAMP_MIN_STEP)[:2]


class TestCentral:
    """The closed-form solution at sigma = z^n (cee._central): Levinson's
    predictor of the lags (I - U)^{-1} u, accepted only where it solves the
    equation at z^n to rounding."""

    def test_is_the_data_ramps_solution_at_zn(self):
        # the PSD h'Ph < 1 solution at z^n is unique: the closed form and the
        # data ramp at z^n agree on 21 benchmark-pool requests (n = 2..8) and
        # on an n = 20 instance with reflection coefficients in (-0.95, 0.95)
        # (Toeplitz lambda_min 8.4e-6)
        problems = [prob for _, prob in itertools.islice(perfbench_pool(11), 21)]
        _, sigma, _, _, c = forward_instance(np.random.default_rng(0), 20, 0.95)
        problems.append(problem_from_covariances(c, sigma))
        for prob in problems:
            P = cee._central(prob)
            assert P is not None
            P_ramp, _ = zn_data_ramp(prob)
            assert np.linalg.norm(P - P_ramp) <= 1e-10 * np.linalg.norm(P_ramp)

    def test_no_closed_form_runs_the_first_trial(self, monkeypatch):
        # Levinson's predictor of interpolation parameters' pseudo-lags does
        # not solve the equation at z^n, and lags with an indefinite
        # Toeplitz matrix have a reflection coefficient outside (-1, 1):
        # those solves start with the first trial, t = 1 of the data ramp,
        # and go on, if it fails, with the data ramp at z^n
        indefinite = CovarianceSequence([1.0, 0.99, 0.999, 0.9])
        assert np.linalg.eigvalsh(indefinite.toeplitz())[0] < 0.0
        problems = interpolation_slice() + [
            problem_from_covariances(indefinite, SchurPolynomial(np.zeros(3)))]
        trials = path_trials(monkeypatch)
        for prob in problems:
            assert cee._central(prob) is None
            trials.clear()
            solve_outcome(prob)
            path = labelled(trials, prob)
            assert path[0] == ("t", 1.0)
            assert len(path) == 1 or path[1] == ("t0", 1.0)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.sampled_from(["random", "sigma_n = 0", "z^n"]),
           st.integers(0, 2**32 - 1))
    def test_levinson_start_extracts_levinsons_a(self, n, kind, seed):
        # Gamma x + sigma = J x + (1 - x_1) sigma with J the up-shift, so the
        # Levinson start, P0 h of the closed form with x_1 set to 1, extracts
        # a = (I - U)(Gamma x + sigma) - u equal to the a of P0 at sigma =
        # z^n, Levinson's predictor of the lags, whatever sigma is; that a
        # is the generating one to the Toeplitz matrix's condition number
        # times rounding
        rng = np.random.default_rng(seed)
        k = rng.uniform(-0.95, 0.95, n)
        c, a_gen, _ = levinson_sequence(k)
        gammas = {"random": rng.uniform(-0.95, 0.95, n),
                  "sigma_n = 0": np.append(rng.uniform(-0.95, 0.95, n - 1), 0.0),
                  "z^n": np.zeros(n)}[kind]
        prob = problem_from_covariances(c, SchurPolynomial(reflection_to_tail(gammas)))
        starts = []
        reduced_newton = cee._reduced_newton
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cee, "_reduced_newton",
                      lambda p, x, form: starts.append(x.copy())
                      or reduced_newton(p, x, form))
            solve_outcome(prob)
        P0 = cee._central(prob)
        x = starts[0]
        assert x[0] == 1.0 and np.array_equal(x[1:], P0[1:, 0])
        a = (np.eye(n) - prob.U) @ (prob.Gamma @ x + prob.sigma) - prob.u
        a_zn, _ = extract_filter(CEEProblem(sigma=np.zeros(n), u=prob.u, U=prob.U), P0)
        assert np.max(np.abs(a - a_zn)) <= 1e-13
        bound = (4 * n * np.finfo(float).eps * np.linalg.cond(c.toeplitz())
                 * (1.0 + np.max(np.abs(a_gen))))
        assert np.max(np.abs(a - a_gen)) <= bound

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    @example(1, 0)
    @example(30, 0)
    def test_levinson_round_trip(self, n, seed):
        # the lags of a Levinson-generated a, solved at sigma = z^n, give back
        # that a and rho^2, to the Toeplitz matrix's condition number times
        # rounding
        k = np.random.default_rng(seed).uniform(-0.9, 0.9, n)
        c, a, rho2 = levinson_sequence(k)
        prob = problem_from_covariances(c, SchurPolynomial(np.zeros(n)))
        P = cee._central(prob)
        assert P is not None
        a_P, rho = extract_filter(prob, P)
        bound = (4 * n * np.finfo(float).eps * np.linalg.cond(c.toeplitz())
                 * (1.0 + np.max(np.abs(a))))
        assert np.max(np.abs(a_P - a)) <= bound
        assert abs(rho * rho - rho2) <= bound


class TestEnvelope:
    def test_large_n_table_cases(self):
        # the six large-n cases of the ROADMAP's table: forward_instance on
        # default_rng(5), three draws at n = 30, r = 0.8, then three at
        # n = 20, r = 0.95; n = 30 #0 and #1 (Toeplitz lambda_min 3.3e-9 and
        # 1.1e-6) may fail typed, but nothing succeeds with a wrong a
        rng = np.random.default_rng(5)
        strata = [(30, 0.8)] * 3 + [(20, 0.95)] * 3
        for k, (n, r) in enumerate(strata):
            a, sigma, _, _, c = forward_instance(rng, n, r)
            try:
                sol = solve_cee(problem_from_covariances(c, sigma))
            except SolverError:
                assert k in (0, 1)
                continue
            assert sol.a_is_schur
            assert np.max(np.abs(sol.a - a.coeffs)) <= 1e-6


class TestSolve:
    def test_newton_path_extracts_the_filter_once(self, monkeypatch):
        # the trial on the problem itself extracts (a, rho) for its Schur
        # test; solve_cee reports that filter and extracts no other
        calls = []
        extract = cee.extract_filter

        def spy(prob, P):
            calls.append((P.tobytes(), extract(prob, P)))
            return calls[-1][1]

        monkeypatch.setattr(cee, "extract_filter", spy)
        for prob in corpus_slice():
            calls.clear()
            sol = solve_cee(prob)
            assert len({P for P, _ in calls}) == len(calls)
            assert calls[-1][0] == sol.P.tobytes()
            a, rho = calls[-1][1]
            assert a is sol.a and rho == sol.rho

    def test_scalar_sigma_zero(self):
        sol = solve_cee(scalar_problem(0.5, 0.0))
        assert sol.P[0, 0] == pytest.approx(0.25, abs=1e-12)
        assert sol.rho == pytest.approx(np.sqrt(0.75), abs=1e-12)
        assert sol.a[0] == pytest.approx(-0.5, abs=1e-12)
        assert sol.rank == 1

    def test_scalar_sigma_half(self):
        sol = solve_cee(scalar_problem(0.5, 0.5))
        p_exact = (-3.0 + np.sqrt(13.0)) / 2.0
        assert sol.P[0, 0] == pytest.approx(p_exact, abs=1e-12)
        assert sol.a[0] == pytest.approx(-0.5 * p_exact, abs=1e-12)
        assert sol.rho == pytest.approx(np.sqrt(1.0 - p_exact), abs=1e-12)
        # the recovered function must reproduce c_1 = 0.5
        f = RationalPR(SchurPolynomial(sol.a), SchurPolynomial(sol.b))
        assert laurent_coeffs(f, 1)[0] == pytest.approx(0.5, abs=1e-12)

    def test_white_noise_any_sigma(self):
        c = CovarianceSequence([1.0, 0.0, 0.0, 0.0])
        sigma = SchurPolynomial([0.4, -0.2, 0.05])
        sol = solve_cee(problem_from_covariances(c, sigma))
        assert np.allclose(sol.P, 0.0)
        assert np.allclose(sol.a, sigma.coeffs)
        assert sol.rho == pytest.approx(1.0)
        assert sol.rank == 0

    def test_extract_at_zero(self):
        c = CovarianceSequence([1.0, 0.5, 0.25])
        sigma = SchurPolynomial([0.3, 0.1])
        prob = problem_from_covariances(c, sigma)
        a, rho = extract_filter(prob, np.zeros((2, 2)))
        expected = (np.eye(2) - prob.U) @ prob.sigma - prob.u
        assert np.allclose(a, expected)
        assert rho == 1.0

    def test_extract_invalid_branch(self):
        prob = scalar_problem(0.5, 0.0)
        with pytest.raises(InvalidBranchError):
            extract_filter(prob, np.array([[1.0]]))

    def test_methods_agree(self):
        # uniqueness probe: both methods land on the same P whenever the
        # plain fixed point converges at all
        rng = np.random.default_rng(21)
        compared = 0
        for _ in range(25):
            n = int(rng.integers(1, 7))
            _, sigma, _, _, c = forward_instance(rng, n)
            prob = problem_from_covariances(c, sigma)
            try:
                fp = solve_cee(prob, SolveOptions(method="fixed-point"))
            except SolverError:
                continue
            nw = solve_cee(prob, SolveOptions(method="newton"))
            assert np.max(np.abs(fp.P - nw.P)) <= 1e-8
            compared += 1
        assert compared >= 10

    def test_fixed_point_monotone_on_reference_cases(self):
        # monotone nondecreasing iterates are a regression property of these
        # closed-form cases only; random instances violate it structurally
        # (the quadratic g(P)g(P)' term is not matrix-monotone)
        cases = [
            scalar_problem(0.5, 0.0),
            scalar_problem(0.5, 0.5),
            problem_from_covariances(
                CovarianceSequence([1.0, 0.5, 0.25]), SchurPolynomial([0.0, 0.0])
            ),
            problem_from_covariances(
                CovarianceSequence([1.0, 0.0, 0.0]), SchurPolynomial([0.3, 0.1])
            ),
        ]
        for prob in cases:
            P = np.zeros((prob.n, prob.n))
            for _ in range(200):
                Pn = fixed_point_step(prob, P)
                lam = np.linalg.eigvalsh(Pn - P)
                assert lam[0] >= -1e-12
                P = Pn

    def test_roundtrip_recovery_small(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a, sigma, rho, b, c = forward_instance(rng, n)
            sol = solve_cee(problem_from_covariances(c, sigma))
            assert np.max(np.abs(sol.a - a.coeffs)) <= 1e-6
            assert abs(sol.rho - rho) <= 1e-8
            assert factor_residual(
                np.concatenate([[1.0], sol.a]),
                np.concatenate([[1.0], sol.b]),
                sigma.full,
                sol.rho,
            ) <= 1e-10

    @pytest.mark.parametrize("options, match", [
        (None, None),
        (SolveOptions(method="fixed-point"), "left the h'Ph < 1 region"),
    ], ids=["default", "fixed-point"])
    def test_divergence_guard(self, options, match):
        # (1, 0.2, 0.5) is positive, but (1, 0.99, 0.999) is far from it
        with pytest.raises(SolverError, match=match):
            c = CovarianceSequence([1.0, 0.99, 0.999, 0.9])
            solve_cee(problem_from_covariances(c, SchurPolynomial([0.0] * 3)),
                      options)

    def test_nonconvergence_reports_residual(self):
        prob = scalar_problem(0.5, 0.5)
        with pytest.raises(SolverError, match="residual"):
            solve_cee(prob, SolveOptions(method="fixed-point", max_iter=2))

    def test_smooth_dependence_on_sigma(self):
        # finite-difference probe: small sigma perturbations move (a, rho)
        # proportionally
        rng = np.random.default_rng(55)
        _, sigma, _, _, c = forward_instance(rng, 3)
        base = solve_cee(problem_from_covariances(c, sigma))
        eps = 1e-6
        tail = sigma.coeffs.copy()
        tail[0] += eps
        pert = solve_cee(problem_from_covariances(c, SchurPolynomial(tail)))
        assert np.max(np.abs(pert.a - base.a)) < 100 * eps
        assert abs(pert.rho - base.rho) < 100 * eps


class TestRank:
    def test_zero(self):
        assert rank_P(np.zeros((3, 3))) == 0

    def test_scalar(self):
        assert rank_P(np.array([[0.25]])) == 1

    def test_geometric_embedded_rank_one(self):
        c = CovarianceSequence([1.0] + [0.5**k for k in range(1, 5)])
        sigma = SchurPolynomial([0.0, 0.0, 0.0, 0.0])  # z^4
        sol = solve_cee(problem_from_covariances(c, sigma))
        assert sol.rank == 1
        # pole-zero cancellation: a(z) = z^3 (z - 0.5)
        assert np.allclose(sol.a, [-0.5, 0.0, 0.0, 0.0], atol=1e-9)


class TestPositiveDegree:
    def test_white_noise(self):
        c = CovarianceSequence([1.0, 0.0, 0.0])
        res = positive_degree(c, grid=5)
        assert res.degree == 0

    def test_geometric_order_two(self):
        c = CovarianceSequence([1.0, 0.5, 0.25])
        res = positive_degree(c, grid=11)
        assert res.degree == 1

    def test_degenerate_instance_needs_full_degree(self):
        c = CovarianceSequence([1.0, 0.2, 0.5])
        res = positive_degree(c, grid=9)
        assert res.degree == 2

    def test_exceeds_algebraic_degree(self):
        from covext.covdata import algebraic_degree

        rng = np.random.default_rng(77)
        for _ in range(6):
            n = int(rng.integers(2, 4))
            a = SchurPolynomial(reflection_to_tail(rng.uniform(-0.8, 0.8, n)))
            sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-0.8, 0.8, n)))
            rho = unit_variance_rho(a, sigma)
            b = monic_numerator(a, sigma, rho)
            c_tail = laurent_coeffs(RationalPR(a, b), n)
            c = CovarianceSequence(np.concatenate([[1.0], c_tail]))
            res = positive_degree(c, grid=7)
            assert res.degree >= algebraic_degree(c)


def levinson_sequence(k):
    """(c, a, rho^2): the normalized covariance sequence of the reflection
    coefficients ``k`` in (-1, 1) through the Levinson recursion, with its
    predictor coefficients a, a(z) = z^n + a_1 z^{n-1} + ... + a_n, and
    prediction-error variance rho^2."""
    n = len(k)
    c = np.zeros(n + 1)
    c[0] = 1.0
    a = np.zeros(0)
    err = 1.0
    for m in range(n):
        c[m + 1] = -k[m] * err - np.dot(a, c[m:0:-1])
        a = np.concatenate([a + k[m] * a[::-1], [k[m]]])
        err *= 1.0 - k[m] ** 2
    return CovarianceSequence(c), a, err


def random_positive_sequence(rng, n):
    """A normalized positive covariance sequence: reflection coefficients
    in (-0.95, 0.95) through the Levinson recursion."""
    return levinson_sequence(rng.uniform(-0.95, 0.95, n))[0]


class TestRampFamily:
    def test_covariance_path_scales_the_sequence(self):
        # on covariance parameters the ramp is the parameter path of the
        # scaled sequence t c, whose Toeplitz matrix stays positive definite
        rng = np.random.default_rng(31)
        for n in range(1, 13):
            for _ in range(10):
                c = random_positive_sequence(rng, n)
                assert np.linalg.eigvalsh(c.toeplitz())[0] > 0.0
                prob = build_problem(build_cov_params(c),
                                     SchurPolynomial(np.zeros(n)))
                family = cee._ramp_family(prob)
                for t in (0.1, 0.5, 0.9, 0.999):
                    ref = build_cov_params(CovarianceSequence(
                        np.concatenate([[1.0], t * c.c[1:]])))
                    pt = family(t)
                    scale = max(1.0, np.max(np.abs(ref.u)))
                    assert np.max(np.abs(pt.u - ref.u)) <= 1e-13 * scale
                    assert np.max(np.abs(pt.U - ref.U)) <= 1e-13 * scale

    def test_endpoints(self):
        rng = np.random.default_rng(32)
        for n in (1, 4, 9):
            prob, _ = random_newton_point(rng, n)
            family = cee._ramp_family(prob)
            start = family(0.0)
            assert np.array_equal(start.sigma, prob.sigma)
            assert np.all(start.u == 0.0) and np.all(start.U == 0.0)
            assert cee_residual(start, np.zeros((n, n))) == 0.0
            assert family(1.0) is prob

    def test_singular_ramp_point_is_a_failed_substep(self):
        # I - (1 - t) U is singular at t = 1/2 for U = 2; plain Newton from
        # P = 0 fails here, so the ramp tries t = 1/2 and must treat the
        # singular solve as a failed substep, ending in a typed error
        prob = CEEProblem(sigma=[-0.9], u=[-2.0], U=[[2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            cee._ramp_family(prob)(0.5)
        with pytest.raises(SolverError, match="continuation stalled"):
            solve_cee(prob)


class TestUniversality:
    def test_problem_carries_no_source(self):
        # the type itself makes the solver source-blind: a problem is
        # (sigma, u, U) and the derived Gamma, nothing else
        names = [f.name for f in dataclasses.fields(CEEProblem)]
        assert names == ["sigma", "u", "U", "Gamma"]

    def test_solver_has_no_source_branches(self):
        # the identical code path serves covariance- and interpolation-
        # sourced parameters; nothing in it tests the structure of (u, U)
        # or rebuilds a covariance sequence
        for fn in (
            cee.solve_cee,
            cee._fixed_point,
            cee._ramp,
            cee._central,
            cee._continuation,
            cee._sigma_family,
            cee._operator,
            cee._first_column_operator,
            cee._shift_operator,
            cee._quadratic,
            cee._stein_solve,
            cee._reduced_step,
            cee._lifted_step,
            cee._reduced_newton,
            cee._ramp_family,
            cee._newton,
            cee._stein_matrix,
            cee._residual_matrix,
            cee.fixed_point_step,
            cee.g_of_P,
            cee.cee_residual,
            cee.extract_filter,
        ):
            src = inspect.getsource(fn)
            for name in ("_strict_lower_toeplitz", "_sequence_from_u",
                         "build_cov_params", "CovarianceSequence"):
                assert name not in src, (fn.__name__, name)


class TestCompanion:
    def test_char_poly_matches(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 13))
            tail = reflection_to_tail(rng.uniform(-0.9, 0.9, n))
            F = companion(tail)
            assert np.max(np.abs(np.poly(F)[1:] - tail)) <= 1e-10
