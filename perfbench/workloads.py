"""Workloads of the covext benchmark: seeded inputs, one request each, checks.

Every workload turns ``--seed`` into a fixed pool of whole stratified
rounds (each round holds one request of every stratum), runs each
request through covext's public API or its CLI entry point, and checks the
answer afterwards.  Inputs follow the acceptance suite's forward recipe:
reflection coefficients -> a, sigma -> rho, b -> covariance lags c, built
with public ``polyalg``/``covdata`` functions only.  covext sees only the
generated problems (in memory) or problem files (written before timing).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from covext import cee, cli
from covext.polyalg import (
    RationalPR,
    SchurPolynomial,
    is_schur,
    laurent_coeffs,
    monic_numerator,
    reflection_to_tail,
    unit_variance_rho,
)
from covext.covdata import CovarianceSequence, algebraic_degree

# criterion 02 tolerances
A_TOL = 1e-6
RHO_TOL = 1e-8


@dataclass
class Instance:
    """Ground truth of one generated filter: a, sigma, rho, b and lags c."""

    n: int
    a: SchurPolynomial
    sigma: SchurPolynomial
    rho: float
    b: SchurPolynomial
    c: CovarianceSequence


def forward_instance(rng, n: int, radius: float) -> Instance:
    """The acceptance suite's forward recipe: reflection coefficients drawn
    uniformly from (-radius, radius) give a and sigma, then rho, b and c."""
    a = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    rho = unit_variance_rho(a, sigma)
    b = monic_numerator(a, sigma, rho)
    c_tail = laurent_coeffs(RationalPR(a, b), n)
    return Instance(n, a, sigma, rho, b, CovarianceSequence(np.concatenate([[1.0], c_tail])))


def np_nodes(rng, count: int) -> np.ndarray:
    """Conjugate-closed interpolation nodes outside the unit circle."""
    nodes = []
    while len(nodes) < count - (count % 2):
        z = rng.uniform(1.4, 3.0) * np.exp(1j * rng.uniform(0.2, np.pi - 0.2))
        nodes.extend([z, np.conj(z)])
    while len(nodes) < count:
        nodes.append(complex(rng.uniform(1.4, 4.0) * rng.choice([-1.0, 1.0])))
    return np.array(nodes, dtype=complex)


def recovery_error(inst: Instance, a, rho) -> str | None:
    """None when (a, rho) recovers the generating filter, else the reason."""
    a = np.asarray(a, dtype=float)
    a_err = float(np.max(np.abs(a - inst.a.coeffs)))
    if not a_err <= A_TOL:
        return f"|a - a_true| = {a_err:.3e} > {A_TOL:g}"
    if not abs(rho - inst.rho) <= RHO_TOL:
        return f"|rho - rho_true| = {abs(rho - inst.rho):.3e} > {RHO_TOL:g}"
    if not is_schur(a):
        return "a is not Schur"
    return None


class Workload:
    """One workload: a fixed pool of ``rounds`` whole stratified rounds,
    each holding one request of every stratum, with inputs drawn from the
    seed.
    ``request(i)`` runs request i of the pool (inside the timed region) and
    returns its output; ``check(i, out)`` returns None when the output is
    correct, else the reason."""

    name = ""
    strata: tuple = ()  # one request of each per round
    rounds_per_s = 1.0  # nominal pace; sizes a run's pool from --seconds
    trace_rounds = 1  # rounds in the traced pass (fixed, so counts repeat)

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.pool: list = []

    def request(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    @classmethod
    def warmup(cls, workdir: Path) -> None:
        """One fixed, seed-independent request (the set-up probe's)."""
        raise NotImplementedError


def _interleave(strata, rounds: int, make: Callable) -> list:
    return [make(s) for _ in range(rounds) for s in strata]


class Corpus(Workload):
    # The acceptance round-trip recipe (criterion 02) at n = 2..8 with
    # reflection coefficients in (-0.95, 0.95): the traffic the 30 s gate
    # judges and the only workload where both solver stages (fixed point and
    # Newton fallback) carry real load.
    name = "corpus"
    strata = tuple(range(2, 9))
    rounds_per_s = 2.0
    trace_rounds = 20
    options = cee.SolveOptions(max_iter=20_000)

    def __init__(self, seed, workdir, rounds: int):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 2])
        self.pool = _interleave(self.strata, rounds, lambda n: forward_instance(rng, n, 0.95))

    def request(self, i):
        inst = self.pool[i]
        sol = cee.solve_cee(cee.problem_from_covariances(inst.c, inst.sigma), self.options)
        return sol.a, sol.rho

    def check(self, i, out):
        return recovery_error(self.pool[i], *out)

    @classmethod
    def warmup(cls, workdir):
        inst = forward_instance(np.random.default_rng(0), 2, 0.95)
        cee.solve_cee(cee.problem_from_covariances(inst.c, inst.sigma), cls.options)


class LargeN(Corpus):
    # One solve per request at n in {12, 16, 20} and r in {0.5, 0.8, 0.95}:
    # where the dense n^2 x n^2 Newton stage dominates.  A single request can
    # take tens of seconds and some r = 0.95 instances fail today, so this
    # workload is run by hand with a long --seconds, not by BENCHMARK.json.
    name = "large_n"
    strata = tuple((n, r) for r in (0.5, 0.8, 0.95) for n in (12, 16, 20))
    rounds_per_s = 0.03
    trace_rounds = 1
    options = cee.SolveOptions()

    def __init__(self, seed, workdir, rounds: int):
        Workload.__init__(self, workdir)
        rng = np.random.default_rng([seed, 3])
        self.pool = _interleave(self.strata, rounds, lambda s: forward_instance(rng, *s))


class PosdegScan(Workload):
    # One positive_degree scan per request on small grids at n in {2, 3},
    # default solver options (as the CLI uses): many solves share one c and
    # vary sigma up to the eps = 0.05 edge, so the fixed-point sweep does
    # almost all the work and budget-exhausting solves set the tail.
    name = "posdeg_scan"
    strata = ((2, 4), (3, 3))  # (n, grid points per reflection axis)
    rounds_per_s = 0.5
    trace_rounds = 8

    def __init__(self, seed, workdir, rounds: int):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 4])
        self.pool = _interleave(self.strata, rounds,
                                lambda s: (forward_instance(rng, s[0], 0.85), s[1]))

    def request(self, i):
        inst, grid = self.pool[i]
        return cee.positive_degree(inst.c, grid=grid)

    def check(self, i, res):
        inst, _ = self.pool[i]
        d_alg = algebraic_degree(inst.c)
        if not d_alg <= res.degree <= inst.n:
            return f"degree {res.degree} outside [{d_alg}, {inst.n}]"
        prob = cee.problem_from_covariances(inst.c, res.sigma)
        rank = cee.solve_cee(prob, cee.SolveOptions()).rank
        if rank != res.degree:
            return f"re-solve at the argmin sigma gives rank {rank} != {res.degree}"
        return None

    @classmethod
    def warmup(cls, workdir):
        inst = forward_instance(np.random.default_rng(0), 2, 0.85)
        cee.positive_degree(inst.c, grid=2)


class CliRoundtrip(Workload):
    # covext.cli.main(["extend" | "nevpick", ...]) then main(["verify", ...])
    # in-process, on covariance problems (r = 0.5, n = 2..6) mixed with
    # interpolation problems (n = 1..3): the only workload where io,
    # pipeline, nevpick and verification carry the load, with solution
    # writes beside problem and solution reads.
    name = "cli_roundtrip"
    strata = (("covariance", 2), ("interpolation", 1), ("covariance", 3),
              ("covariance", 4), ("interpolation", 2), ("covariance", 5),
              ("covariance", 6), ("interpolation", 3))
    rounds_per_s = 1.5
    trace_rounds = 12

    def __init__(self, seed, workdir, rounds: int):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 5])
        (workdir / "in").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        self.pool = []
        for k in range(rounds * len(self.strata)):
            kind, n = self.strata[k % len(self.strata)]
            path = workdir / "in" / f"{k}.json"
            self.pool.append((kind, self._write_problem(rng, kind, n, path), path))

    @staticmethod
    def _write_problem(rng, kind, n, path) -> Instance:
        inst = forward_instance(rng, n, 0.5)
        doc = {"kind": kind, "sigma": inst.sigma.coeffs.tolist()}
        if kind == "covariance":
            doc["c"] = inst.c.c.tolist()
        else:
            nodes = np_nodes(rng, n + 1)
            values = RationalPR(inst.a, inst.b)(nodes)
            doc["nodes"] = [[z.real, z.imag] for z in nodes]
            doc["values"] = [[v.real, v.imag] for v in values]
        path.write_text(json.dumps(doc), encoding="utf-8")
        return inst

    @staticmethod
    def _roundtrip(kind, problem: Path, out: Path):
        cmd = "extend" if kind == "covariance" else "nevpick"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            solve_rc = cli.main([cmd, str(problem), "--out", str(out)])
            verify_rc = cli.main(["verify", str(out), str(problem)])
        return solve_rc, verify_rc, stdout.getvalue()

    def request(self, i):
        kind, _, problem = self.pool[i]
        return self._roundtrip(kind, problem, self.workdir / "out" / f"{i}.json")

    def check(self, i, out):
        solve_rc, verify_rc, text = out
        if solve_rc != 0 or verify_rc != 0:
            return f"exit codes {solve_rc}/{verify_rc}"
        if not text.rstrip().endswith("verification passed"):
            return "verify report did not pass"
        _, inst, _ = self.pool[i]
        doc = json.loads((self.workdir / "out" / f"{i}.json").read_text(encoding="utf-8"))
        return recovery_error(inst, doc["a"], doc["rho"])

    @classmethod
    def warmup(cls, workdir):
        path = workdir / "warmup.json"
        cls._write_problem(np.random.default_rng(0), "covariance", 2, path)
        cls._roundtrip("covariance", path, workdir / "warmup.solution.json")


WORKLOADS = {w.name: w for w in (Corpus, LargeN, PosdegScan, CliRoundtrip)}
