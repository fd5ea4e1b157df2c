"""Command-line interface.

Subcommands: extend, nevpick, estimate, posdeg, verify, spectrum.
Exit codes are a stable contract:

    0  success (all checks pass)
    2  bad input data
    3  solver failure
    4  verification failure
    5  structural condition (I + T singular / ill-conditioned)
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from .cee import SolveOptions, positive_degree
from .covdata import (
    ObservationRecord,
    algebraic_degree,
    estimate_covariances,
    toeplitz_min_eig,
)
from .errors import (
    DataError,
    SolverError,
    StructuralError,
    VerificationError,
)
from .io import (
    _write_json,
    covariance_problem_doc,
    dump_problem,
    dump_solution,
    file_sha256,
    load_problem,
    load_solution,
    read_series_csv,
    write_spectrum_csv,
)
from .pipeline import (
    VerifyTolerances,
    check_spectrum_consistency,
    run_extend,
    run_nevpick,
    spectrum_rows,
    verification_report,
)

EXIT_OK = 0
EXIT_DATA = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_STRUCTURAL = 5


def _solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-12,
                   help="solver residual tolerance (default 1e-12)")
    p.add_argument("--max-iter", type=int, default=100_000,
                   help="fixed-point iteration budget, used by --method "
                   "fixed-point (default 100000)")
    p.add_argument("--method", choices=["auto", "fixed-point", "newton"],
                   default="auto", help="solution method (default auto: "
                   "damped Newton with continuation)")
    p.add_argument("--rank-tol", type=float, default=1e-8,
                   help="relative rank threshold for P (default 1e-8)")


def _verify_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=4096,
                   help="circle grid size for positive-realness (default 4096)")
    p.add_argument("--match-tol", type=float, default=1e-8,
                   help="covariance/interpolation match tolerance (default 1e-8)")
    p.add_argument("--factor-tol", type=float, default=1e-10,
                   help="symmetric-factor identity tolerance (default 1e-10)")
    p.add_argument("--pr-tol", type=float, default=1e-10,
                   help="positive-realness margin (default 1e-10)")


def _options_from(args) -> SolveOptions:
    return SolveOptions(tol=args.tol, max_iter=args.max_iter,
                        method=args.method, rank_tol=args.rank_tol)


def _tols_from(args) -> VerifyTolerances:
    return VerifyTolerances(
        match=args.match_tol,
        factor_identity=args.factor_tol,
        positive_real=args.pr_tol,
        pr_samples=args.samples,
    )


def _default_out(path, suffix: str) -> Path:
    p = Path(path)
    return p.with_name(p.stem + suffix)


def _print_report(report) -> None:
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        print(f"  [{mark}] {c.name}: {c.value:.3e} (tol {c.threshold:g})")


def cmd_extend(args) -> int:
    problem = load_problem(args.problem)
    if problem.kind != "covariance":
        raise DataError("extend expects a covariance-kind problem file")
    record, report = run_extend(
        problem,
        options=_options_from(args),
        tols=_tols_from(args),
        input_sha=file_sha256(args.problem),
    )
    out = args.out or _default_out(args.problem, ".solution.json")
    dump_solution(record, out)
    print(f"a = {record.a.tolist()}")
    print(f"rho = {record.rho!r}")
    print(f"rank P = {record.rank}, residual = {record.residual:.3e}")
    print(f"wrote {out}")
    _print_report(report)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_nevpick(args) -> int:
    problem = load_problem(args.problem)
    if problem.kind != "interpolation":
        raise DataError("nevpick expects an interpolation-kind problem file")
    record, report = run_nevpick(
        problem,
        options=_options_from(args),
        tols=_tols_from(args),
        paper_factor=args.paper_factor,
        normalize=args.normalize,
        interp_tol=args.interp_tol,
        input_sha=file_sha256(args.problem),
    )
    out = args.out or _default_out(args.problem, ".solution.json")
    dump_solution(record, out)
    print(f"a = {record.a.tolist()}")
    print(f"rho = {record.rho!r}")
    print(f"interp residual = {record.match:.3e}")
    print(f"wrote {out}")
    _print_report(report)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_estimate(args) -> int:
    y = read_series_csv(args.series)
    if args.lags >= y.size:
        raise DataError(
            f"--lags {args.lags} needs a record longer than {args.lags}"
        )
    c = estimate_covariances(ObservationRecord(y), args.lags,
                             unbiased=args.unbiased)
    lam = toeplitz_min_eig(c)
    doc = covariance_problem_doc(
        c.c, np.zeros(args.lags),
        diagnostics={"raw_c0": float(c.scale),
                     "toeplitz_min_eig": float(lam),
                     "record_length": int(y.size),
                     "estimator": "unbiased" if args.unbiased else "biased"},
    )
    out = args.out or _default_out(args.series, ".problem.json")
    dump_problem(doc, out)
    print(f"raw c_0 = {c.scale!r}")
    print(f"toeplitz lambda_min = {lam!r}")
    if not lam > 0.0:
        print("warning: sequence is not strictly positive")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_posdeg(args) -> int:
    problem = load_problem(args.problem)
    if problem.kind != "covariance":
        raise DataError("posdeg expects a covariance-kind problem file")
    d_alg = algebraic_degree(problem.c, rank_tol=args.rank_tol)
    res = positive_degree(problem.c, grid=args.grid, rank_tol=args.rank_tol,
                          seed=args.seed)
    doc = {
        "algebraic_degree": int(d_alg),
        "positive_degree_upper_bound": int(res.degree),
        "argmin_sigma": [float(v) for v in res.sigma.coeffs],
        "grid_points_evaluated": int(res.evaluated),
        "grid_points_failed": int(res.failures),
    }
    print(f"algebraic degree = {d_alg}")
    print(f"positive degree (grid upper bound) = {res.degree}")
    print(f"argmin sigma = {doc['argmin_sigma']}")
    if args.out:
        _write_json(doc, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    record = load_solution(args.solution)
    problem = load_problem(args.problem)
    report = verification_report(problem, record, _tols_from(args))
    _print_report(report)
    if not report.passed:
        print("verification FAILED")
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    record = load_solution(args.solution)
    rows = spectrum_rows(record, args.samples)
    gap = check_spectrum_consistency(rows)
    out = args.out or _default_out(args.solution, ".spectrum.csv")
    write_spectrum_csv(out, rows)
    print(f"{rows.shape[0]} rows, max |Phi - 2 Re f| = {gap:.3e}")
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="covext",
        description="Rational covariance extension and Nevanlinna-Pick "
                    "interpolation via the covariance extension equation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extend", help="solve a covariance extension problem")
    p.add_argument("problem", help="covariance-kind problem JSON")
    p.add_argument("--out", help="solution JSON path")
    _solver_flags(p)
    _verify_flags(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("nevpick", help="solve an interpolation problem")
    p.add_argument("problem", help="interpolation-kind problem JSON")
    p.add_argument("--out", help="solution JSON path")
    p.add_argument("--paper-factor", action="store_true",
                   help="use the alternative (1/2) coupling factor instead "
                        "of the corrected one")
    p.add_argument("--normalize", action="store_true",
                   help="pre-scale values so the implied value at infinity "
                        "is 1/2 (heuristic)")
    p.add_argument("--interp-tol", type=float, default=1e-8,
                   help="interpolation residual acceptance (default 1e-8)")
    _solver_flags(p)
    _verify_flags(p)
    p.set_defaults(fn=cmd_nevpick)

    p = sub.add_parser("estimate",
                       help="estimate covariances from a series CSV")
    p.add_argument("series", help="CSV with one numeric column")
    p.add_argument("--lags", type=int, required=True, help="max lag n")
    p.add_argument("--unbiased", action="store_true",
                   help="divide lag k by N+1-k (positivity may fail)")
    p.add_argument("--out", help="problem JSON path")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("posdeg",
                       help="algebraic degree and positive-degree bound")
    p.add_argument("problem", help="covariance-kind problem JSON")
    p.add_argument("--grid", type=int, default=None,
                   help="points per reflection axis (n <= 3) or random "
                        "draws (n > 3)")
    p.add_argument("--rank-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(fn=cmd_posdeg)

    p = sub.add_parser("verify", help="re-check a solution against its problem")
    p.add_argument("solution", help="solution JSON")
    p.add_argument("problem", help="problem JSON")
    _verify_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="emit the spectral density table")
    p.add_argument("solution", help="solution JSON")
    p.add_argument("--samples", type=int, default=512,
                   help="rows on [0, pi] inclusive (default 512)")
    p.add_argument("--out", help="CSV path")
    p.set_defaults(fn=cmd_spectrum)
    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args builds a fresh namespace from the defaults on every call,
    # so one parser serves every main() call of the process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except DataError as exc:
        print(f"error (data): {exc}", file=sys.stderr)
        return EXIT_DATA
    except StructuralError as exc:
        print(f"error (structural): {exc}", file=sys.stderr)
        return EXIT_STRUCTURAL
    except VerificationError as exc:
        print(f"error (verification): {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except SolverError as exc:
        print(f"error (solver): {exc}", file=sys.stderr)
        return EXIT_SOLVER


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
