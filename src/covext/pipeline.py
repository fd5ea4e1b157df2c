"""High-level flows tying the solver modules to the file formats.

Each command-level operation lives here as a pure function over in-memory
problem objects, so the CLI stays a thin argument-parsing shell and tests
can exercise the full pipelines directly.  The verification report
recomputes every invariant of a solution from scratch (no solving) and is
shared by the solve commands (post-check) and the verify command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .cee import (
    CEEProblem,
    CEESolution,
    SolveOptions,
    cee_residual,
    extract_filter,
    g_of_P,
    problem_from_covariances,
    rank_P,
    solve_cee,
)
from .covdata import toeplitz_min_eig
from .errors import DataError, VerificationError
from .io import CovarianceProblem, InterpolationProblem, SolutionRecord
from .nevpick import NPResult, build_T, build_uU_np, interp_residual, solve_np
from .polyalg import (
    RationalPR,
    SchurPolynomial,
    ShapingFilter,
    factor_residual,
    is_schur,
    laurent_series,
    positive_real_min,
    spectral_density,
)


# fixed thresholds of the verification suite: CEE residual, recomputed
# (a, rho, b) against the recorded ones, relative PSD margin of P, and the
# interpolation first-row consistency
_CEE_RESIDUAL_TOL = 1e-9
_EXTRACTION_TOL = 1e-9
_PSD_TOL = 1e-9
_FIRST_ROW_TOL = 1e-6


@dataclass(frozen=True)
class VerifyTolerances:
    """Settable thresholds of the post-hoc verification suite."""

    factor_identity: float = 1e-10
    match: float = 1e-8
    positive_real: float = 1e-10
    pr_samples: int = 4096


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class Report:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _np_workdata(problem: InterpolationProblem, record: SolutionRecord):
    """Scaled data and coupling matrix the stored solution was solved
    against."""
    scale = float(record.provenance.get("scale", 1.0))
    paper_factor = bool(record.provenance.get(
        "paper_factor", problem.options.get("paper_factor", False)
    ))
    work = problem.data.scaled(scale) if scale != 1.0 else problem.data
    return scale, build_T(work, paper_factor=paper_factor)


def _rebuild_cee_problem(problem, record: SolutionRecord) -> CEEProblem:
    if isinstance(problem, CovarianceProblem):
        return problem_from_covariances(problem.c, problem.sigma)
    _, T = _np_workdata(problem, record)
    params = build_uU_np(T)
    return CEEProblem(sigma=problem.sigma.coeffs, u=params.u, U=params.U)


def verification_report(
    problem,
    record: SolutionRecord,
    tols: Optional[VerifyTolerances] = None,
) -> Report:
    """Recompute every solution invariant without re-solving."""
    tols = tols or VerifyTolerances()
    prob = _rebuild_cee_problem(problem, record)
    sigma = problem.sigma
    P = record.P
    checks = []

    def add(name, value, threshold, ok=None):
        ok = bool(value <= threshold) if ok is None else bool(ok)
        checks.append(Check(name=name, value=float(value), threshold=threshold,
                            passed=ok))

    resid = cee_residual(prob, P)
    add("cee_residual", resid, _CEE_RESIDUAL_TOL)
    add("residual_matches_recorded", abs(resid - record.residual), 1e-14)

    a_hat, rho_hat = extract_filter(prob, P)
    add("extracted_a_matches", float(np.max(np.abs(a_hat - record.a))),
        _EXTRACTION_TOL)
    add("extracted_rho_matches", abs(rho_hat - record.rho), _EXTRACTION_TOL)
    b_hat = a_hat + 2.0 * g_of_P(prob, P)
    add("derived_b_matches", float(np.max(np.abs(b_hat - record.b))),
        _EXTRACTION_TOL)

    add("factor_identity_residual",
        factor_residual(
            np.concatenate([[1.0], record.a]),
            np.concatenate([[1.0], record.b]),
            sigma.full,
            record.rho,
        ),
        tols.factor_identity)

    for name, poly in (("a_is_schur", record.a), ("b_is_schur", record.b)):
        schur = is_schur(poly)
        add(name, 0.0 if schur else 1.0, 0.5, ok=schur)
    add("hPh_below_one", float(P[0, 0]), 1.0, ok=P[0, 0] < 1.0)
    # rho = sqrt(1 - h'Ph) lies in (0, 1] once the data carries the c_0 = 1
    # normalization (both sources do after ingestion)
    add("rho_in_unit_interval", record.rho, 1.0 + 1e-12,
        ok=0.0 < record.rho <= 1.0 + 1e-12)
    lam_min = float(np.linalg.eigvalsh(P)[0])
    scale = max(1.0, float(np.max(np.abs(P))))
    add("P_min_eigenvalue", lam_min, _PSD_TOL * scale,
        ok=lam_min >= -_PSD_TOL * scale)

    if isinstance(problem, CovarianceProblem):
        n = problem.c.n
        a_full = np.concatenate([[1.0], record.a])
        b_full = np.concatenate([[1.0], record.b])
        c_hat = laurent_series(a_full, b_full, n)[1:] / 2.0
        match = float(np.max(np.abs(c_hat - problem.c.c[1:])))
        add("covariance_match", match, tols.match)
    else:
        scale_np, T = _np_workdata(problem, record)
        match = interp_residual((record.a, record.b), problem.data,
                                scale=scale_np)
        add("interp_residual", match, tols.match)
        first_row = float((T @ np.concatenate([[1.0], record.a]))[0])
        add("first_row_consistency", abs(first_row), _FIRST_ROW_TOL)
    add("match_value_matches_recorded", abs(match - record.match), 1e-14)

    f = RationalPR(
        SchurPolynomial(record.a, check=False),
        SchurPolynomial(record.b, check=False),
    )
    pr_min = positive_real_min(f, tols.pr_samples)
    add("positive_real_min", pr_min, tols.positive_real,
        ok=pr_min >= -tols.positive_real)
    add("pr_min_matches_recorded", abs(pr_min - record.positive_real_min),
        1e-14)

    rank_recomputed = rank_P(P, float(record.provenance.get("rank_tol", 1e-8)))
    add("rank_matches", abs(rank_recomputed - record.rank), 0.0,
        ok=rank_recomputed == record.rank)
    return Report(checks=checks)


def _record_from_solution(
    sol: CEESolution,
    match: float,
    match_kind: str,
    provenance: dict,
    pr_samples: int,
) -> SolutionRecord:
    f = RationalPR(
        SchurPolynomial(sol.a, check=False),
        SchurPolynomial(sol.b, check=False),
    )
    return SolutionRecord(
        a=sol.a,
        b=sol.b,
        rho=sol.rho,
        P=sol.P,
        rank=sol.rank,
        residual=sol.residual,
        positive_real_min=positive_real_min(f, pr_samples),
        match=match,
        match_kind=match_kind,
        provenance=provenance,
    )


def _base_provenance(opts: SolveOptions, sol: CEESolution, kind, sigma,
                     input_sha, pr_samples) -> dict:
    return {
        "input_sha256": input_sha,
        "kind": kind,
        "sigma": [float(v) for v in sigma.coeffs],
        "method": sol.method,
        "iterations": int(sol.iterations),
        "tol": float(opts.tol),
        "rank_tol": float(opts.rank_tol),
        "samples": int(pr_samples),
        "package_version": __version__,
    }


def run_extend(
    problem: CovarianceProblem,
    options: Optional[SolveOptions] = None,
    tols: Optional[VerifyTolerances] = None,
    input_sha: str = "",
) -> tuple[SolutionRecord, Report]:
    """Full covariance-extension pipeline: positivity check, parameter
    build, solve, numerator, verification."""
    opts = options or SolveOptions()
    tols = tols or VerifyTolerances()
    lam = toeplitz_min_eig(problem.c)
    if not lam > 0.0:
        raise DataError(
            f"covariance sequence is not positive (Toeplitz lambda_min = "
            f"{lam:.3e})"
        )
    prob = problem_from_covariances(problem.c, problem.sigma)
    sol = solve_cee(prob, opts)
    n = problem.c.n
    a_full = np.concatenate([[1.0], sol.a])
    b_full = np.concatenate([[1.0], sol.b])
    match = float(
        np.max(np.abs(laurent_series(a_full, b_full, n)[1:] / 2.0
                      - problem.c.c[1:]))
    )
    prov = _base_provenance(opts, sol, "covariance", problem.sigma, input_sha,
                            tols.pr_samples)
    prov["scale"] = float(problem.c.scale)
    prov["rho_unnormalized"] = float(sol.rho * np.sqrt(problem.c.scale))
    record = _record_from_solution(sol, match, "covariance_match", prov,
                                   tols.pr_samples)
    return record, verification_report(problem, record, tols)


def run_nevpick(
    problem: InterpolationProblem,
    options: Optional[SolveOptions] = None,
    tols: Optional[VerifyTolerances] = None,
    paper_factor: bool = False,
    normalize: bool = False,
    interp_tol: float = 1e-8,
    input_sha: str = "",
) -> tuple[SolutionRecord, Report]:
    """Interpolation pipeline reusing the covariance-extension solver."""
    opts = options or SolveOptions()
    tols = tols or VerifyTolerances()
    res: NPResult = solve_np(
        problem.data,
        problem.sigma,
        options=opts,
        paper_factor=paper_factor,
        normalize=normalize,
        interp_tol=interp_tol,
    )
    sol = res.solution
    prov = _base_provenance(opts, sol, "interpolation", problem.sigma,
                            input_sha, tols.pr_samples)
    prov["scale"] = float(res.scale)
    prov["paper_factor"] = bool(paper_factor)
    prov["first_row_residual"] = float(res.first_row_residual)
    record = _record_from_solution(sol, res.interp_residual, "interp_residual",
                                   prov, tols.pr_samples)
    return record, verification_report(problem, record, tols)


def spectrum_rows(record: SolutionRecord, samples: int) -> np.ndarray:
    """(theta, spectral density, Re f) on a uniform grid of [0, pi],
    endpoints included."""
    if samples < 2:
        raise DataError("need at least 2 spectrum samples")
    sigma = SchurPolynomial(np.asarray(record.provenance["sigma"], dtype=float))
    a = SchurPolynomial(record.a, check=False)
    b = SchurPolynomial(record.b, check=False)
    w = ShapingFilter(sigma=sigma, a=a, rho=record.rho)
    theta = np.linspace(0.0, np.pi, samples)
    phi = spectral_density(w, theta)
    z = np.exp(1j * theta)
    re_f = (np.polyval(b.full, z) / (2.0 * np.polyval(a.full, z))).real
    return np.column_stack([theta, phi, re_f])


def check_spectrum_consistency(rows: np.ndarray, tol: float = 1e-10) -> float:
    """Max |Phi - 2 Re f| over the table; raises above tol."""
    gap = float(np.max(np.abs(rows[:, 1] - 2.0 * rows[:, 2])))
    if gap > tol:
        raise VerificationError(
            f"spectral density and 2 Re f disagree by {gap:.3e} (tol {tol:g})"
        )
    return gap
