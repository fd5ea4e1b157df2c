"""Solve the acceptance workloads and print, for each, its wall clock, a
digest and an outcome report.

Four sections: the criterion-02 corpus, the positive-degree grids, the
interpolation set and the command-line round trips.  A fifth, the large-n
instances, runs on its own with ``--large-n``, and a sixth, the benchmark's
``corpus`` pools, with ``--perfbench-seeds``.

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

The grid section solves every point of the criterion-08 and
``test_exceeds_algebraic_degree`` positive-degree grids one by one, without
the scan's early exit at rank 0, and prints the point count, the failures,
a sha256 over the per-point ranks and the time.  Two trees with the same
grid digest give the same rank (or failure) at every point.

The interpolation section runs ``solve_np`` on criterion 07's 31 instances
and on a seeded random set (75 instances for each n in 1..6, reflection
coefficients in (-0.95, 0.95), each at the generating sigma and at an
unrelated sigma), each with both coupling factors.  It prints how many
were accepted, rejected (``VerificationError``), failed (``SolverError``)
or structural (``StructuralError``), and a sha256 over the status sequence.

The cli section writes a seeded set of problem files (10 covariance
problems for each n in 2..6 and 10 interpolation problems for each n in
1..3, reflection coefficients in (-0.95, 0.95); each interpolation problem
once at the generating sigma and once at an unrelated sigma) and runs each
through ``cli.main`` in-process: ``extend`` or ``nevpick``, then ``verify``.
Five fixed problems follow that the commands must reject: two schema
violations, a singular sequence, a file of the wrong kind and clustered
nodes.  It prints how many problems gave each pair of exit codes, and a
sha256 over the exit codes, the printed output (with the temporary
directory masked) and the bytes of every solution file written.  Two trees
with the same cli digest write byte-identical solution files and print the
same messages.

Each section also prints a work line: how many residuals
(``cee._residual_matrix``) it evaluated, how many lifted full-space Newton
steps (``cee._lifted_step``) and how many n x n solves with the
first-column Jacobian (``cee._reduced_step``, which each lifted step also
calls once) it took, both counting the iterations of failed continuation
trials too, and how many first-column operators (``cee._first_column_operator``,
one n^2 x n^2 LU each) it built; the operator at sigma = z^n is built once
per n and process (``cee._shift_operator``), so a section that runs after
another one may build none of those.  Then the continuation trials
(``cee._continuation``, over all its runs): how many ran and how many
failed, and how many lifted steps and n x n solves the failed trials took;
failed trials on the problem itself (t = 1 of its data ramp, s = 1 of the
numerator path) are also counted on their own, and so are the trials whose
first-column Newton (``cee._reduced_newton``) failed at its damping floor,
where no damped step down to ``cee._DAMPING_FLOOR`` lowered the residual.
Last, how many solves found the closed-form solution at sigma = z^n
(``cee._central``, which runs no ramp and no trial), how many Levinson
starts ran, the one-trial leg of the numerator path on the problem itself
from the solution at sigma = z^n with x_1 set to 1, that solution being
the closed form or the end of a data ramp at z^n, and how many of those
trials failed, how many numerator paths began with a data ramp at
sigma = z^n (the "σ paths"), how many of the trials were sigma
trials and how many of those failed, how many sigma paths gave up at
their step floor (a failed Levinson start is not a give-up), and how many
solves fell back to the data ramp (after a give-up or a stalled ramp at
z^n).  The counts come from wrapping those module functions and
``cee._ramp_family`` and ``cee._sigma_family`` here; the wrappers change
no result: the P bytes of every corpus solve are the same with and
without them.

The cli section also prints a validation line: how many documents
(problems and solutions, read or written) were validated, how many the
compiled acceptance check passed, how many went on to jsonschema, and how
many of those jsonschema found valid, which should be none.  The counts
come from wrapping ``covext.io._validator`` here.

``--details`` adds one line per grid point, per interpolation problem and
per cli round trip, so the outputs of two trees can be compared with
``diff``.

``--large-n`` runs only the large-n section instead: one round of the
benchmark's ``large_n`` workload (n in {12, 16, 20}, r in {0.5, 0.8,
0.95}) for each of the seeds 1-3, 27 solves with default options.  It
prints one line per instance (the outcome with its iteration count and
|a err|, or the error text), a sha256 over P bytes, method, iterations and
error texts, the elapsed time and the work line.  Then it solves the six
cases of the ROADMAP's large-n table (``default_rng(5)``: three draws at
n = 30, r = 0.8, then three at n = 20, r = 0.95) and prints the outcome,
|a err| and seconds of each, with their own work line.

``--perfbench-seeds S1,S2,...`` runs only the benchmark's ``corpus``
pools instead: for each seed, the 770 requests of a 55 s run (rng
``[seed, 2]``, n = 2..8 interleaved, reflection coefficients in
(-0.95, 0.95)), each solved as the workload does.  Per seed it prints the
failures with their texts, the requests with |a err| > 1e-8 and the worst
|a err|, a sha256 over P bytes, method, iterations and error texts, and
the work line.  A last line sums up all seeds: the requests, the failures
as seed/request, the worst |a err| with its seed/request, how many
requests have |a err| > 1e-8, and the total elapsed time.

Run from any directory; the covext sources next to this script are used:

    python3 tools/corpus_digest.py [--details | --large-n | --perfbench-seeds S1,S2,...]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import covext.io  # noqa: E402
from covext import cee, cli  # noqa: E402
from covext.cee import (  # noqa: E402
    _GRID_EPS,
    SolveOptions,
    _sigma_grid,
    build_problem,
    problem_from_covariances,
    solve_cee,
)
from covext.covdata import CovarianceSequence, build_cov_params  # noqa: E402
from covext.errors import (  # noqa: E402
    DataError,
    SolverError,
    StructuralError,
    VerificationError,
)
from covext.nevpick import InterpolationData, solve_np  # noqa: E402
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
NP_SEED = 20261018
NP_DEGREES = range(1, 7)
NP_PER_DEGREE = 75
CLI_SEED = 20261019
CLI_COV_DEGREES = range(2, 7)
CLI_NP_DEGREES = range(1, 4)
CLI_PER_DEGREE = 10
LARGE_N_SEEDS = range(1, 4)
# the benchmark's corpus pool: 55 s at 2 rounds of n = 2..8 per second
PERFBENCH_REQUESTS = 770
# the benchmark's large_n strata (perfbench/workloads.py), one round per seed
LARGE_N_STRATA = tuple((n, r) for r in (0.5, 0.8, 0.95) for n in (12, 16, 20))


@contextlib.contextmanager
def counted_work(section: str):
    """Count residual evaluations, lifted steps, n x n solves, first-column
    operators, continuation trials and damping-floor failures inside the
    block, then print them as the section's work line.  Yields the dict of
    counts."""
    counts = {"residuals": 0, "lifted steps": 0, "n×n steps": 0,
              "operators": 0, "ramp trials": 0, "failed trials": 0,
              "failed trials at t=1": 0,
              "lifted steps of failed trials": 0,
              "lifted steps of failed trials at t=1": 0,
              "n×n steps of failed trials": 0,
              "trials at the damping floor": 0,
              "central starts": 0,
              "Levinson starts": 0, "failed Levinson starts": 0,
              "σ paths": 0, "σ trials": 0, "failed σ trials": 0,
              "σ give-ups": 0, "fallbacks": 0}
    originals = {name: getattr(cee, name) for name in
                 ("_residual_matrix", "_lifted_step", "_reduced_step",
                  "_first_column_operator", "_continuation", "_ramp_family",
                  "_sigma_family", "_reduced_newton", "_central")}

    def counter(name, key):
        def counted(*args):
            counts[key] += 1
            return originals[name](*args)
        return counted

    def tagged(name):
        """The path family of ``name``, marked with its problem and kind."""
        def make(prob):
            family = originals[name](prob)

            def trial(s):
                return family(s)

            trial.problem, trial.sigma = prob, name == "_sigma_family"
            return trial
        return make

    def tally(trials, stalled, sigma):
        """An accepted trial moves the path forward, so a trial failed when
        the next one does not go beyond it; the last trial failed when the
        path stalled, and otherwise ended it.  A trial at s = 1 is on the
        problem itself, except on the data ramp at sigma = z^n."""
        last = (-np.inf if stalled else np.inf, counts["lifted steps"],
                counts["n×n steps"], False)
        for (s, lifted, steps, on_target), (s_after, lifted_end, steps_end, _) in zip(
                trials, trials[1:] + [last]):
            counts["ramp trials"] += 1
            counts["σ trials"] += sigma
            if s_after <= s:
                counts["failed trials"] += 1
                counts["failed σ trials"] += sigma
                counts["lifted steps of failed trials"] += lifted_end - lifted
                counts["n×n steps of failed trials"] += steps_end - steps
                if on_target:
                    counts["failed trials at t=1"] += 1
                    counts["lifted steps of failed trials at t=1"] += (
                        lifted_end - lifted)

    def continuation(family, operator, target, tol, P, step, min_step):
        """One leg of a solve: the first trial from P = 0, the data ramp at
        sigma = z^n, the Levinson start (the one-trial leg of the numerator
        path), the numerator path, or the data-ramp fallback; ``operator``
        is the first-column operator of ``target``."""
        trials = []  # (s, lifted steps, n×n steps at start, on the problem)
        levinson = family.sigma and min_step == 1.0

        def trial(s):
            # the loop builds its problem once per trial
            trials.append((s, counts["lifted steps"], counts["n×n steps"],
                           s == 1.0 and family.problem is target))
            return family(s)

        counts["σ paths"] += family.problem is not target
        counts["Levinson starts"] += levinson
        counts["fallbacks"] += (not family.sigma and family.problem is target
                                and step < 1.0)
        stalled = False
        try:
            return originals["_continuation"](trial, operator, target, tol, P,
                                              step, min_step)
        except SolverError:
            stalled = True
            counts["failed Levinson starts"] += levinson
            counts["σ give-ups"] += family.sigma and not levinson
            raise
        finally:
            tally(trials, stalled, family.sigma)

    def central(prob):
        P = originals["_central"](prob)
        counts["central starts"] += P is not None
        return P

    def reduced_newton(*args):
        try:
            return originals["_reduced_newton"](*args)
        except cee._DampingFloorError:
            counts["trials at the damping floor"] += 1
            raise

    cee._residual_matrix = counter("_residual_matrix", "residuals")
    cee._lifted_step = counter("_lifted_step", "lifted steps")
    cee._reduced_step = counter("_reduced_step", "n×n steps")
    cee._first_column_operator = counter("_first_column_operator", "operators")
    cee._ramp_family = tagged("_ramp_family")
    cee._sigma_family = tagged("_sigma_family")
    cee._continuation = continuation
    cee._reduced_newton = reduced_newton
    cee._central = central
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(cee, name, fn)
    print(f"{section} work  " + "  ".join(f"{k} {v}" for k, v in counts.items()))


@contextlib.contextmanager
def counted_validation(section: str):
    """Count the documents validated inside the block, those the compiled
    check accepted and those sent on to jsonschema, then print them."""
    counts = {"documents": 0, "compiled accepts": 0, "to jsonschema": 0,
              "valid at jsonschema": 0}
    original = covext.io._validator

    def validator(schema_name):
        jsonschema_validator, accepts = original(schema_name)

        def counted(doc):
            accepted = accepts(doc)
            counts["documents"] += 1
            counts["compiled accepts"] += accepted
            if not accepted:
                counts["to jsonschema"] += 1
                counts["valid at jsonschema"] += jsonschema_validator.is_valid(doc)
            return accepted

        return jsonschema_validator, counted

    covext.io._validator = validator
    try:
        yield
    finally:
        covext.io._validator = original
    print(f"{section} validation  " + "  ".join(f"{k} {v}" for k, v in counts.items()))


def forward_instance(rng, n, radius):
    """(a, sigma, rho, b, c): a random filter and its covariance sequence,
    drawn as in the acceptance suite."""
    a = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    sigma = SchurPolynomial(reflection_to_tail(rng.uniform(-radius, radius, n)))
    rho = unit_variance_rho(a, sigma)
    b = monic_numerator(a, sigma, rho)
    c_tail = laurent_coeffs(RationalPR(a, b), n)
    return a, sigma, rho, b, CovarianceSequence(np.concatenate([[1.0], c_tail]))


def corpus_problems():
    """The corpus in the acceptance suite's draw order, as (a, rho, problem)
    with (a, rho) the generating filter."""
    rng = np.random.default_rng(SEED)
    for n in DEGREES:
        for _ in range(PER_DEGREE):
            a, sigma, rho, _, c = forward_instance(rng, n, RADIUS)
            yield a, rho, problem_from_covariances(c, sigma)


def grid_scans():
    """(sequence, grid) for every positive-degree scan of criterion 08 and
    ``test_exceeds_algebraic_degree``, in test order."""
    white2 = CovarianceSequence([1.0, 0.0, 0.0])
    geo = CovarianceSequence([1.0, 0.5, 0.25])
    degen = CovarianceSequence([1.0, 0.2, 0.5])
    cases = [white2, CovarianceSequence([1.0, 0.0, 0.0, 0.0]), geo, degen]
    rng = np.random.default_rng(SEED + 8)
    for _ in range(8):
        cases.append(forward_instance(rng, int(rng.integers(2, 4)), 0.85)[4])
    scans = [(c, 7) for c in cases] + [(white2, 5), (geo, 11), (degen, 9)]
    rng = np.random.default_rng(77)
    for _ in range(6):
        scans.append((forward_instance(rng, int(rng.integers(2, 4)), 0.8)[4], 7))
    return scans


def np_nodes(rng, count):
    """Criterion 07's nodes: conjugate pairs, then real nodes."""
    nodes = []
    while len(nodes) < count - (count % 2):
        z = rng.uniform(1.4, 3.0) * np.exp(1j * rng.uniform(0.2, np.pi - 0.2))
        nodes.extend([z, np.conj(z)])
    while len(nodes) < count:
        nodes.append(complex(rng.uniform(1.4, 4.0) * rng.choice([-1.0, 1.0])))
    return np.array(nodes, dtype=complex)


def np_problems():
    """(data, sigma) pairs: criterion 07's 31 instances, then the random
    set at the generating and at an unrelated sigma."""
    yield (InterpolationData(nodes=[2.0, 3.0], values=[5.0 / 6.0, 0.7]),
           SchurPolynomial([0.0]))
    rng = np.random.default_rng(SEED + 7)
    for n in range(1, 7):
        for _ in range(5):
            a, sigma, _, b, _ = forward_instance(rng, n, 0.85)
            nodes = np_nodes(rng, n + 1)
            yield InterpolationData(nodes, RationalPR(a, b)(nodes)), sigma
    rng = np.random.default_rng(NP_SEED)
    for n in NP_DEGREES:
        for _ in range(NP_PER_DEGREE):
            a, sigma, _, b, _ = forward_instance(rng, n, RADIUS)
            other = SchurPolynomial(
                reflection_to_tail(rng.uniform(-RADIUS, RADIUS, n)))
            nodes = np_nodes(rng, n + 1)
            data = InterpolationData(nodes, RationalPR(a, b)(nodes))
            yield data, sigma
            yield data, other


def cli_problems():
    """(command, problem document) pairs for the cli section: the covariance
    problems, the interpolation problems at the generating and at an
    unrelated sigma, then the problems the commands must reject."""
    rng = np.random.default_rng(CLI_SEED)
    for n in CLI_COV_DEGREES:
        for _ in range(CLI_PER_DEGREE):
            _, sigma, _, _, c = forward_instance(rng, n, RADIUS)
            yield "extend", {"kind": "covariance", "c": c.c.tolist(),
                             "sigma": sigma.coeffs.tolist()}
    for n in CLI_NP_DEGREES:
        for _ in range(CLI_PER_DEGREE):
            a, sigma, _, b, _ = forward_instance(rng, n, RADIUS)
            other = reflection_to_tail(rng.uniform(-RADIUS, RADIUS, n))
            nodes = np_nodes(rng, n + 1)
            values = RationalPR(a, b)(nodes)
            doc = {"kind": "interpolation",
                   "nodes": [[z.real, z.imag] for z in nodes],
                   "values": [[v.real, v.imag] for v in values]}
            yield "nevpick", {**doc, "sigma": sigma.coeffs.tolist()}
            yield "nevpick", {**doc, "sigma": other.tolist()}
    yield "extend", {"kind": "covariance", "sigma": [0.0]}
    yield "extend", {"kind": "covariance", "c": "1, 0.5", "sigma": [0.0]}
    yield "extend", {"kind": "covariance", "c": [1.0, 1.0], "sigma": [0.0]}
    yield "nevpick", {"kind": "covariance", "c": [1.0, 0.5], "sigma": [0.0]}
    yield "nevpick", {"kind": "interpolation",
                      "nodes": [[2.0, 0.0], [2.0000000001, 0.0], [-3.0, 0.0]],
                      "values": [[0.6, 0.0], [5.0, 0.0], [1.0, 0.0]],
                      "sigma": [0.0, 0.0]}


def cli_section(details: bool) -> None:
    digest = hashlib.sha256()
    counts = defaultdict(int)
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for index, (command, doc) in enumerate(cli_problems()):
            problem = Path(tmp) / f"{index}.problem.json"
            solution = Path(tmp) / f"{index}.solution.json"
            problem.write_text(json.dumps(doc), encoding="utf-8")
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                solve_rc = cli.main([command, str(problem), "--out", str(solution)])
                verify_rc = cli.main(["verify", str(solution), str(problem)])
            counts[f"{solve_rc}/{verify_rc}"] += 1
            line = f"cli #{index} {command} exit {solve_rc}/{verify_rc}"
            digest.update(f"{line}\n".encode())
            digest.update(printed.getvalue().replace(tmp, "<tmp>").encode())
            if solution.exists():
                digest.update(solution.read_bytes())
            if details:
                print(line)
    elapsed = time.perf_counter() - t0
    summary = "  ".join(f"exit {codes} {count}" for codes, count in sorted(counts.items()))
    print(f"cli problems {sum(counts.values())}  {summary}  elapsed {elapsed:.2f} s")
    print(f"cli sha256 {digest.hexdigest()}")


def grid_section(details: bool) -> None:
    digest = hashlib.sha256()
    points = failures = 0
    t0 = time.perf_counter()
    for scan, (c, grid) in enumerate(grid_scans()):
        params = build_cov_params(c)
        # positive_degree's default seed
        for k, gammas in enumerate(_sigma_grid(c.n, grid, _GRID_EPS, seed=0)):
            prob = build_problem(params, SchurPolynomial(reflection_to_tail(gammas)))
            try:
                outcome = f"rank {solve_cee(prob).rank}"
            except (SolverError, DataError) as exc:
                outcome = f"error {type(exc).__name__}"
                failures += 1
            points += 1
            line = f"grid scan {scan} point {k} {outcome}"
            digest.update(f"{line}\n".encode())
            if details:
                print(line)
    elapsed = time.perf_counter() - t0
    print(f"grid points {points}  failures {failures}  elapsed {elapsed:.2f} s")
    print(f"grid sha256 {digest.hexdigest()}")


def np_section(details: bool) -> None:
    digest = hashlib.sha256()
    counts = defaultdict(int)
    t0 = time.perf_counter()
    for index, (data, sigma) in enumerate(np_problems()):
        for paper_factor in (False, True):
            try:
                solve_np(data, sigma, paper_factor=paper_factor)
                status = "accepted"
            except VerificationError:
                status = "rejected"
            except StructuralError:
                status = "structural"
            except SolverError:
                status = "failed"
            except DataError:
                status = "data"
            counts[status] += 1
            line = f"np #{index} paper_factor={paper_factor} {status}"
            digest.update(f"{line}\n".encode())
            if details:
                print(line)
    elapsed = time.perf_counter() - t0
    summary = "  ".join(f"{s} {counts[s]}" for s in
                        ("accepted", "rejected", "failed", "structural", "data"))
    print(f"np problems {sum(counts.values())}  {summary}  elapsed {elapsed:.2f} s")
    print(f"np sha256 {digest.hexdigest()}")


def corpus_section() -> None:
    opts = SolveOptions(max_iter=20_000)
    digest = hashlib.sha256()
    failures = []
    a_err = {}
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
        a_err[index] = float(np.max(np.abs(sol.a - a.coeffs)))
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
        worst = max(a_err, key=a_err.get)
        print(f"|a err| worst {a_err[worst]:.3e} (#{worst})  "
              f"median {np.median(list(a_err.values())):.3e}  "
              f"|rho err| worst {max(rho_err):.3e}")
    for method, (solves, iterations) in sorted(per_method.items()):
        print(f"method {method}  solves {solves}  iterations {iterations}")


def large_n_problems():
    """(seed, n, r, a, problem): one round of the benchmark's ``large_n``
    workload for each seed, drawn from ``default_rng([seed, 3])``."""
    for seed in LARGE_N_SEEDS:
        rng = np.random.default_rng([seed, 3])
        for n, r in LARGE_N_STRATA:
            a, sigma, _, _, c = forward_instance(rng, n, r)
            yield seed, n, r, a, problem_from_covariances(c, sigma)


def large_n_section() -> None:
    digest = hashlib.sha256()
    failures = 0
    t0 = time.perf_counter()
    for seed, n, r, a, prob in large_n_problems():
        try:
            sol = solve_cee(prob)
        except Exception as exc:  # noqa: BLE001 - a failure is part of the digest
            outcome = f"error {type(exc).__name__}: {exc}"
            failures += 1
            digest.update(f"{outcome}\n".encode())
        else:
            digest.update(sol.P.tobytes())
            digest.update(f"{sol.method} {sol.iterations}\n".encode())
            outcome = (f"ok iterations {sol.iterations}  "
                       f"|a err| {np.max(np.abs(sol.a - a.coeffs)):.3e}")
        print(f"large_n seed {seed} n={n} r={r}  {outcome}")
    elapsed = time.perf_counter() - t0
    print(f"large_n instances {len(LARGE_N_SEEDS) * len(LARGE_N_STRATA)}  "
          f"failures {failures}  elapsed {elapsed:.2f} s")
    print(f"large_n sha256 {digest.hexdigest()}")


def large_n_table_problems():
    """(case, a, problem) for the six cases of the ROADMAP's large-n table:
    ``forward_instance`` on ``default_rng(5)``, three draws at n = 30,
    r = 0.8, then three at n = 20, r = 0.95."""
    rng = np.random.default_rng(5)
    for n, r in ((30, 0.8), (20, 0.95)):
        for k in range(3):
            a, sigma, _, _, c = forward_instance(rng, n, r)
            yield f"n={n} r={r} #{k}", a, problem_from_covariances(c, sigma)


def large_n_table_section() -> None:
    for case, a, prob in large_n_table_problems():
        t0 = time.perf_counter()
        try:
            sol = solve_cee(prob)
        except SolverError as exc:
            outcome = f"error {type(exc).__name__}: {exc}"
        else:
            schur = "Schur" if sol.a_is_schur else "not Schur"
            outcome = (f"ok {schur}  "
                       f"|a err| {np.max(np.abs(sol.a - a.coeffs)):.3e}")
        print(f"large_n table {case}  {outcome}  "
              f"{time.perf_counter() - t0:.2f} s")


def perfbench_problems(seed):
    """(request, n, a, rho, problem) for the pool of the benchmark's
    ``corpus`` workload at ``seed``: rng ``[seed, 2]``, n = 2..8 interleaved,
    r = 0.95, the requests of a 55 s run."""
    rng = np.random.default_rng([seed, 2])
    for request in range(PERFBENCH_REQUESTS):
        n = DEGREES[request % len(DEGREES)]
        a, sigma, rho, _, c = forward_instance(rng, n, RADIUS)
        yield request, n, a, rho, problem_from_covariances(c, sigma)


def perfbench_section(seed: int):
    """Solve and report the pool at ``seed``; returns (failed requests,
    {request: |a err|}, elapsed seconds)."""
    opts = SolveOptions(max_iter=20_000)
    digest = hashlib.sha256()
    failures = []
    a_err = {}
    t0 = time.perf_counter()
    for request, n, a, rho, prob in perfbench_problems(seed):
        try:
            sol = solve_cee(prob, opts)
        except Exception as exc:  # noqa: BLE001 - a failure is part of the digest
            reason = f"{type(exc).__name__}: {exc}"
            failures.append((request, n, reason))
            digest.update(f"error {reason}\n".encode())
            continue
        digest.update(sol.P.tobytes())
        digest.update(f"{sol.method} {sol.iterations}\n".encode())
        a_err[(request, n)] = float(np.max(np.abs(sol.a - a.coeffs)))
    elapsed = time.perf_counter() - t0
    print(f"perfbench seed {seed}  requests {PERFBENCH_REQUESTS}  "
          f"failures {len(failures)}  elapsed {elapsed:.2f} s")
    for request, n, reason in failures:
        print(f"perfbench seed {seed} failure #{request} n={n}  {reason}")
    for (request, n), err in a_err.items():
        if err > 1e-8:
            print(f"perfbench seed {seed} #{request} n={n}  |a err| {err:.3e}")
    if a_err:
        print(f"perfbench seed {seed} |a err| worst {max(a_err.values()):.3e}")
    print(f"perfbench seed {seed} sha256 {digest.hexdigest()}")
    return ([request for request, _, _ in failures],
            {request: err for (request, _), err in a_err.items()}, elapsed)


def perfbench_summary(results) -> None:
    """One line over all pools, from (seed, perfbench_section's result)
    pairs: requests, failures as seed/request, the worst |a err| with its
    seed/request, the count above 1e-8 and the total elapsed time."""
    failed = [f"{seed}/{request}" for seed, (failures, _, _) in results
              for request in failures]
    errors = {f"{seed}/{request}": err for seed, (_, a_err, _) in results
              for request, err in a_err.items()}
    line = (f"perfbench seeds {len(results)}  "
            f"requests {PERFBENCH_REQUESTS * len(results)}  "
            f"failures {len(failed)} ({', '.join(failed) or 'none'})")
    if errors:
        worst = max(errors, key=errors.get)
        line += f"  |a err| worst {errors[worst]:.3e} ({worst})"
    line += (f"  above 1e-8 {sum(err > 1e-8 for err in errors.values())}  "
             f"elapsed {sum(elapsed for _, (_, _, elapsed) in results):.2f} s")
    print(line)


def main() -> int:
    if "--large-n" in sys.argv[1:]:
        with counted_work("large_n"):
            large_n_section()
        with counted_work("large_n table"):
            large_n_table_section()
        return 0
    if "--perfbench-seeds" in sys.argv[1:]:
        seeds = sys.argv[sys.argv.index("--perfbench-seeds") + 1]
        results = []
        for seed in map(int, seeds.split(",")):
            with counted_work(f"perfbench seed {seed}"):
                results.append((seed, perfbench_section(seed)))
        perfbench_summary(results)
        return 0
    details = "--details" in sys.argv[1:]
    with counted_work("corpus"):
        corpus_section()
    with counted_work("grid"):
        grid_section(details)
    with counted_work("np"):
        np_section(details)
    with counted_work("cli"), counted_validation("cli"):
        cli_section(details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
