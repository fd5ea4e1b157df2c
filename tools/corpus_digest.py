"""Solve the criterion-02 corpus and print its wall clock, a digest and an
outcome report.

The corpus is the acceptance suite's round-trip recipe: seed 20260808,
100 instances for each n in 2..8, reflection coefficients of a and sigma
drawn uniformly from (-0.95, 0.95), each solved by ``solve_cee`` with
``SolveOptions(max_iter=20_000)``.  The digest is a sha256 over every
instance's P bytes, method, iteration count and error text, in corpus
order, so two source trees that print the same digest produce bit-identical
solutions and the same failures on the whole corpus.

A change that alters the solver's path changes the digest; the outcome
report judges it instead.  It lists every failing instance with its typed
reason, the worst and median |a err| and the worst |rho err| against the
generating filter, and the solve count and total iterations per method.

Run from any directory; the covext sources next to this script are used:

    python3 tools/corpus_digest.py
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from covext.cee import SolveOptions, problem_from_covariances, solve_cee  # noqa: E402
from covext.covdata import CovarianceSequence  # noqa: E402
from covext.polyalg import (  # noqa: E402
    RationalPR,
    SchurPolynomial,
    laurent_coeffs,
    monic_numerator,
    reflection_to_tail,
    unit_variance_rho,
)

SEED = 20260808
DEGREES = range(2, 9)
PER_DEGREE = 100
RADIUS = 0.95


def corpus_problems():
    """The corpus in the acceptance suite's draw order, as (a, rho, problem)
    with (a, rho) the generating filter."""
    rng = np.random.default_rng(SEED)
    for n in DEGREES:
        for _ in range(PER_DEGREE):
            a = SchurPolynomial(reflection_to_tail(rng.uniform(-RADIUS, RADIUS, n)))
            sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-RADIUS, RADIUS, n)))
            rho = unit_variance_rho(a, sigma)
            b = monic_numerator(a, sigma, rho)
            c_tail = laurent_coeffs(RationalPR(a, b), n)
            c = CovarianceSequence(np.concatenate([[1.0], c_tail]))
            yield a, rho, problem_from_covariances(c, sigma)


def main() -> int:
    opts = SolveOptions(max_iter=20_000)
    digest = hashlib.sha256()
    failures = []
    a_err = []
    rho_err = []
    per_method = defaultdict(lambda: [0, 0])  # method -> [solves, iterations]
    # timed like the criterion-02 gate: instance generation plus solves
    t0 = time.perf_counter()
    for index, (a, rho, prob) in enumerate(corpus_problems()):
        try:
            sol = solve_cee(prob, opts)
        except Exception as exc:  # noqa: BLE001 - a failure is part of the digest
            reason = f"{type(exc).__name__}: {exc}"
            failures.append((index, prob.n, reason))
            digest.update(f"error {reason}\n".encode())
            continue
        digest.update(sol.P.tobytes())
        digest.update(f"{sol.method} {sol.iterations}\n".encode())
        a_err.append(float(np.max(np.abs(sol.a - a.coeffs))))
        rho_err.append(abs(sol.rho - rho))
        per_method[sol.method][0] += 1
        per_method[sol.method][1] += sol.iterations
    elapsed = time.perf_counter() - t0
    print(f"instances {len(a_err) + len(failures)}  failures {len(failures)}  "
          f"elapsed {elapsed:.2f} s")
    print(f"sha256 {digest.hexdigest()}")
    for index, n, reason in failures:
        print(f"failure #{index} n={n}  {reason}")
    if a_err:
        print(f"|a err| worst {max(a_err):.3e}  median {np.median(a_err):.3e}  "
              f"|rho err| worst {max(rho_err):.3e}")
    for method, (solves, iterations) in sorted(per_method.items()):
        print(f"method {method}  solves {solves}  iterations {iterations}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
