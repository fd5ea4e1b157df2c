"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines.

The round-trip corpus (criterion 2) is shared by criteria 3, 4, 5 and 9.
"""

import time

import numpy as np
import pytest

from covext.cee import (
    SolveOptions,
    positive_degree,
    problem_from_covariances,
    solve_cee,
)
from covext.covdata import (
    CovarianceSequence,
    ObservationRecord,
    algebraic_degree,
    build_cov_params,
    estimate_covariances,
    toeplitz_min_eig,
    unit_lower_toeplitz,
)
from covext.errors import SolverError, VerificationError
from covext.nevpick import InterpolationData, build_T, build_uU_np, solve_np
from covext.polyalg import (
    RationalPR,
    SchurPolynomial,
    factor_residual,
    is_schur,
    laurent_coeffs,
    monic_numerator,
    positive_real_min,
    reflection_to_tail,
    unit_variance_rho,
)
from covext.realization import compare_riccati_forms, g_from_ab

SEED = 20260808


def _line(num, ok, msg):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {msg}")


def forward_instance(rng, n, radius):
    a = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    rho = unit_variance_rho(a, sigma)
    b = monic_numerator(a, sigma, rho)
    c_tail = laurent_coeffs(RationalPR(a, b), n)
    c = CovarianceSequence(np.concatenate([[1.0], c_tail]))
    return a, sigma, rho, b, c


@pytest.fixture(scope="module")
def roundtrip_corpus():
    """100 seeded instances per n in {2..8}, reflection coefficients in
    (-0.95, 0.95); solved with the default method (damped Newton with
    continuation)."""
    rng = np.random.default_rng(SEED)
    opts = SolveOptions(max_iter=20_000)
    rows = []
    t0 = time.perf_counter()
    for n in range(2, 9):
        for _ in range(100):
            a, sigma, rho, b, c = forward_instance(rng, n, 0.95)
            prob = problem_from_covariances(c, sigma)
            try:
                sol = solve_cee(prob, opts)
                err = None
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                sol, err = None, exc
            rows.append({
                "n": n, "a": a, "sigma": sigma, "rho": rho, "b": b, "c": c,
                "sol": sol, "error": err,
            })
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_01_closed_form_scalar_cases():
    opts = SolveOptions()
    prob_a = problem_from_covariances(
        CovarianceSequence([1.0, 0.5]), SchurPolynomial([0.0])
    )
    prob_b = problem_from_covariances(
        CovarianceSequence([1.0, 0.5]), SchurPolynomial([0.5])
    )
    solve_cee(prob_a, opts)  # warm-up before timing
    timings = []
    for prob in (prob_a, prob_b):
        best = np.inf
        for _ in range(5):
            t0 = time.perf_counter()
            sol = solve_cee(prob, opts)
            best = min(best, time.perf_counter() - t0)
        timings.append((sol, best))
    sol_a, t_a = timings[0]
    sol_b, t_b = timings[1]
    p_exact = (-3.0 + np.sqrt(13.0)) / 2.0
    checks = [
        abs(sol_a.P[0, 0] - 0.25) <= 1e-10,
        abs(sol_a.rho - np.sqrt(0.75)) <= 1e-10,
        abs(sol_a.a[0] + 0.5) <= 1e-10,
        abs(sol_b.P[0, 0] - p_exact) <= 1e-10,
        abs(sol_b.a[0] + 0.5 * p_exact) <= 1e-10,
        abs(sol_b.rho - np.sqrt(1.0 - p_exact)) <= 1e-10,
        t_a < 1e-3,
        t_b < 1e-3,
    ]
    ok = all(checks)
    _line(1, ok, f"closed-form scalar cases at 1e-10; {t_a*1e3:.2f} ms / "
                 f"{t_b*1e3:.2f} ms per solve")
    assert ok, checks


def test_criterion_02_roundtrip_recovery(roundtrip_corpus):
    rows, elapsed = roundtrip_corpus
    failures = [r for r in rows if r["error"] is not None]
    a_err = max(
        float(np.max(np.abs(r["sol"].a - r["a"].coeffs)))
        for r in rows if r["sol"] is not None
    )
    rho_err = max(
        abs(r["sol"].rho - r["rho"]) for r in rows if r["sol"] is not None
    )
    ok = (not failures) and a_err <= 1e-6 and rho_err <= 1e-8 and elapsed < 30.0
    _line(2, ok,
          f"round-trip recovery on {len(rows)} instances: max |a err| = "
          f"{a_err:.2e} (tol 1e-6), max |rho err| = {rho_err:.2e} (tol 1e-8), "
          f"{len(failures)} solver failures (fallback must give 100%), "
          f"{elapsed:.1f} s (< 30 s)")
    assert not failures
    assert a_err <= 1e-6
    assert rho_err <= 1e-8
    assert elapsed < 30.0


def test_criterion_02_fixed_point_rate(roundtrip_corpus):
    # stated requirement: the plain fixed-point iteration alone converges on
    # at least 99% of the corpus.  The solution is a repelling fixed point
    # of that iteration for roughly half of these instances (verified via
    # the spectral radius of the linearized map), so the bound is not
    # attainable by any iteration budget; see the decisions ledger.
    # the default method never runs the plain iteration, so it gets its own
    # pass over the same problems, outside the corpus's timed section
    rows, _ = roundtrip_corpus
    opts = SolveOptions(method="fixed-point", max_iter=20_000)
    fp_only = 0
    for r in rows:
        try:
            solve_cee(problem_from_covariances(r["c"], r["sigma"]), opts)
        except SolverError:
            continue
        fp_only += 1
    rate = fp_only / len(rows)
    ok = rate >= 0.99
    _line(2, ok, f"fixed-point-only convergence rate {100*rate:.1f}% "
                 f"(stated bound 99%)")
    assert ok, (
        f"plain fixed-point iteration converged on {100*rate:.1f}% of the "
        "corpus; the 99% bound is unattainable because the valid solution "
        "is repelling for the plain iteration on a large fraction of "
        "near-boundary instances (see notes/decisions.md)"
    )


def test_criterion_03_spectral_factor_identity(roundtrip_corpus):
    rows, _ = roundtrip_corpus
    worst = 0.0
    for r in rows:
        if r["sol"] is None:
            continue
        sol = r["sol"]
        resid = factor_residual(
            np.concatenate([[1.0], sol.a]),
            np.concatenate([[1.0], sol.b]),
            r["sigma"].full,
            sol.rho,
        )
        worst = max(worst, resid)
    ok = worst <= 1e-10
    _line(3, ok, f"symmetric-factor identity residual <= 1e-10 on every "
                 f"accepted solution (worst {worst:.2e})")
    assert ok


def test_criterion_04_covariance_matching(roundtrip_corpus):
    rows, _ = roundtrip_corpus
    worst = 0.0
    for r in rows:
        if r["sol"] is None:
            continue
        sol = r["sol"]
        f = RationalPR(
            SchurPolynomial(sol.a, check=False),
            SchurPolynomial(sol.b, check=False),
        )
        c_hat = laurent_coeffs(f, r["n"])
        worst = max(worst, float(np.max(np.abs(c_hat - r["c"].c[1:]))))
    ok = worst <= 1e-8
    _line(4, ok, f"covariance matching c_1..c_n <= 1e-8 (worst {worst:.2e})")
    assert ok


def test_criterion_05_riccati_form_equivalence(roundtrip_corpus):
    rows, _ = roundtrip_corpus
    worst = 0.0
    for r in rows:
        g = g_from_ab(r["a"].coeffs, r["b"].coeffs)
        rep = compare_riccati_forms(
            r["a"].coeffs, g, r["sigma"].coeffs, tol=1e-13
        )
        worst = max(worst, rep.difference)
    ok = worst <= 1e-8
    _line(5, ok, f"classical vs companion-form Riccati minimal solutions "
                 f"agree <= 1e-8 Frobenius (worst {worst:.2e})")
    assert ok


def test_criterion_06_parameter_identities():
    rng = np.random.default_rng(SEED + 6)
    worst_cu = 0.0
    worst_ci = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        _, _, _, _, c = forward_instance(rng, n, 0.9)
        params = build_cov_params(c)
        C = unit_lower_toeplitz(c.c[1:], n)
        worst_cu = max(worst_cu,
                       float(np.max(np.abs(C @ params.u - c.c[1:]))))
        worst_ci = max(
            worst_ci,
            float(np.max(np.abs(C @ (np.eye(n) - params.U) - np.eye(n)))),
        )
    ok = worst_cu <= 1e-14 and worst_ci <= 1e-14
    _line(6, ok, f"C u = c and C(I-U) = I at 1e-14 over 1000 sequences, "
                 f"n <= 20 (worst {worst_cu:.2e} / {worst_ci:.2e})")
    assert ok


def _np_nodes(rng, count):
    nodes = []
    while len(nodes) < count - (count % 2):
        r = rng.uniform(1.4, 3.0)
        phi = rng.uniform(0.2, np.pi - 0.2)
        z = r * np.exp(1j * phi)
        nodes.extend([z, np.conj(z)])
    while len(nodes) < count:
        nodes.append(complex(rng.uniform(1.4, 4.0) * rng.choice([-1.0, 1.0])))
    return np.array(nodes, dtype=complex)


def test_criterion_07_interpolation_recovery():
    worked = InterpolationData(
        nodes=[2.0, 3.0], values=[5.0 / 6.0, 0.7]
    )
    res = solve_np(worked, SchurPolynomial([0.0]))
    ok = (
        abs(res.solution.a[0] + 0.5) <= 1e-8
        and abs(res.solution.rho - np.sqrt(0.75)) <= 1e-8
        and res.interp_residual <= 1e-8
    )
    worst = res.interp_residual
    rng = np.random.default_rng(SEED + 7)
    for n in range(1, 7):
        for _ in range(5):
            a = SchurPolynomial(reflection_to_tail(rng.uniform(-0.85, 0.85, n)))
            sigma = SchurPolynomial(
                reflection_to_tail(rng.uniform(-0.85, 0.85, n))
            )
            rho = unit_variance_rho(a, sigma)
            b = monic_numerator(a, sigma, rho)
            nodes = _np_nodes(rng, n + 1)
            data = InterpolationData(nodes=nodes, values=RationalPR(a, b)(nodes))
            res = solve_np(data, sigma)
            worst = max(worst, res.interp_residual)
            ok = ok and res.interp_residual <= 1e-8
            ok = ok and float(np.max(np.abs(res.solution.a - a.coeffs))) <= 1e-6

    # regression lock of the alternative coupling factor on the worked case:
    # it must keep producing exactly this divergent answer
    from covext.cee import CEEProblem
    from covext.nevpick import interp_residual

    T_alt = build_T(worked, paper_factor=True)
    params_alt = build_uU_np(T_alt)
    ok = ok and abs(params_alt.u[0] - 64.0 / 153.0) <= 1e-12
    sol_alt = solve_cee(CEEProblem(
        sigma=np.array([0.0]), u=params_alt.u, U=params_alt.U,
    ))
    resid_alt = interp_residual(sol_alt, worked)
    ok = ok and abs(sol_alt.a[0] + 64.0 / 153.0) <= 1e-10
    ok = ok and abs(resid_alt - 0.06887052341597766) <= 1e-9
    diverged = False
    try:
        solve_np(worked, SchurPolynomial([0.0]), paper_factor=True)
    except VerificationError:
        diverged = True
    ok = ok and diverged
    _line(7, ok, f"interpolation recovery <= 1e-8 (worst residual "
                 f"{worst:.2e}); alternative-factor divergence locked "
                 f"(u = 64/153, residual {resid_alt:.4e})")
    assert ok


def test_criterion_08_degree_ordering():
    cases = []
    white2 = CovarianceSequence([1.0, 0.0, 0.0])
    white3 = CovarianceSequence([1.0, 0.0, 0.0, 0.0])
    geo = CovarianceSequence([1.0, 0.5, 0.25])
    degen = CovarianceSequence([1.0, 0.2, 0.5])
    cases.extend([white2, white3, geo, degen])
    rng = np.random.default_rng(SEED + 8)
    for _ in range(8):
        n = int(rng.integers(2, 4))
        _, _, _, _, c = forward_instance(rng, n, 0.85)
        cases.append(c)

    ok = True
    for c in cases:
        d_alg = algebraic_degree(c)
        d_pos = positive_degree(c, grid=7).degree
        ok = ok and d_pos >= d_alg

    wn = positive_degree(white2, grid=5)
    ok = ok and algebraic_degree(white2) == 0 and wn.degree == 0
    ok = ok and algebraic_degree(geo) == 1
    ok = ok and positive_degree(geo, grid=11).degree == 1
    d_alg_degen = algebraic_degree(degen)
    d_pos_degen = positive_degree(degen, grid=9).degree
    ok = ok and d_alg_degen == 1 and d_pos_degen == 2
    _line(8, ok, "positive degree >= algebraic degree on the corpus; white "
                 "noise (0,0); geometric (1,1); constructed order-2 instance "
                 f"(algebraic {d_alg_degen}, positive {d_pos_degen})")
    assert ok


def test_criterion_09_positive_realness(roundtrip_corpus):
    rows, _ = roundtrip_corpus
    worst = np.inf
    schur_ok = True
    for r in rows:
        if r["sol"] is None:
            continue
        sol = r["sol"]
        f = RationalPR(
            SchurPolynomial(sol.a, check=False),
            SchurPolynomial(sol.b, check=False),
        )
        worst = min(worst, positive_real_min(f, 4096))
        schur_ok = schur_ok and is_schur(sol.a)
    ok = worst >= -1e-10 and schur_ok
    _line(9, ok, f"positive-real minimum over 4096 grid points >= -1e-10 "
                 f"(worst {worst:.2e}); every extracted a(z) Schur: "
                 f"{schur_ok}")
    assert ok


def test_criterion_10_estimator_positivity():
    rng = np.random.default_rng(SEED + 10)
    worst = np.inf
    for _ in range(100):
        N = int(rng.integers(10, 200))
        y = rng.standard_normal(N + 1)
        n = int(rng.integers(1, min(12, N)))
        c = estimate_covariances(ObservationRecord(y), n)
        worst = min(worst, toeplitz_min_eig(c) * c.scale)
    ok = worst >= -1e-12
    _line(10, ok, f"biased-estimator Toeplitz lambda_min >= -1e-12 over 100 "
                  f"records (worst {worst:.2e})")
    assert ok
