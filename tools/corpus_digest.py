"""Solve the criterion-02 corpus and print its wall clock and a digest.

The corpus is the acceptance suite's round-trip recipe: seed 20260808,
100 instances for each n in 2..8, reflection coefficients of a and sigma
drawn uniformly from (-0.95, 0.95), each solved by ``solve_cee`` with
``SolveOptions(max_iter=20_000)``.  The digest is a sha256 over every
instance's P bytes, method, iteration count and error text, in corpus
order, so two source trees that print the same digest produce bit-identical
solutions and the same failures on the whole corpus.

Run from any directory; the covext sources next to this script are used:

    python3 tools/corpus_digest.py
"""

from __future__ import annotations

import hashlib
import sys
import time
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
    """The corpus problems in the acceptance suite's draw order."""
    rng = np.random.default_rng(SEED)
    for n in DEGREES:
        for _ in range(PER_DEGREE):
            a = SchurPolynomial(reflection_to_tail(rng.uniform(-RADIUS, RADIUS, n)))
            sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-RADIUS, RADIUS, n)))
            rho = unit_variance_rho(a, sigma)
            b = monic_numerator(a, sigma, rho)
            c_tail = laurent_coeffs(RationalPR(a, b), n)
            c = CovarianceSequence(np.concatenate([[1.0], c_tail]))
            yield problem_from_covariances(c, sigma)


def main() -> int:
    opts = SolveOptions(max_iter=20_000)
    digest = hashlib.sha256()
    count = failures = 0
    # timed like the criterion-02 gate: instance generation plus solves
    t0 = time.perf_counter()
    for prob in corpus_problems():
        count += 1
        try:
            sol = solve_cee(prob, opts)
        except Exception as exc:  # noqa: BLE001 - a failure is part of the digest
            failures += 1
            digest.update(f"error {type(exc).__name__}: {exc}\n".encode())
            continue
        digest.update(sol.P.tobytes())
        digest.update(f"{sol.method} {sol.iterations}\n".encode())
    elapsed = time.perf_counter() - t0
    print(f"instances {count}  failures {failures}  elapsed {elapsed:.2f} s")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
