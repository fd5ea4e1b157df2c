import importlib.util
import itertools
import re
from pathlib import Path

from covext import cee
from covext.cee import CEEProblem, SolveOptions, solve_cee
from covext.nevpick import build_T, build_uU_np


def load_corpus_digest():
    path = Path(__file__).resolve().parents[1] / "tools" / "corpus_digest.py"
    spec = importlib.util.spec_from_file_location("corpus_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCorpusDigest:
    def test_counted_work_counts_and_changes_no_result(self, capsys):
        # counted_work wraps private cee functions by name: a renamed or
        # re-signed one breaks the tool.  The digest's first nine corpus
        # instances have a closed-form solution at sigma = z^n and solve at
        # their first trial, the Levinson start; its first twenty
        # interpolation problems have no closed form, and six of them (#8 the
        # first) fail their first trial, so the count covers failed trials
        # and the data ramp at z^n before the numerator path too; the
        # wrappers must leave every P as it is
        tool = load_corpus_digest()
        opts = SolveOptions(max_iter=20_000)
        problems = [prob for _, _, prob in itertools.islice(tool.corpus_problems(), 9)]
        for data, sigma in itertools.islice(tool.np_problems(), 20):
            params = build_uU_np(build_T(data))
            problems.append(CEEProblem(sigma=sigma.coeffs, u=params.u, U=params.U))
        plain = [solve_cee(prob, opts) for prob in problems]
        originals = {name: getattr(cee, name) for name in dir(cee)}
        with tool.counted_work("test") as counts:
            counted = [solve_cee(prob, opts) for prob in problems]
        assert {name: getattr(cee, name) for name in dir(cee)} == originals
        for a, b in zip(plain, counted):
            assert a.P.tobytes() == b.P.tobytes() and a.iterations == b.iterations
        for key in ("residuals", "lifted steps", "n×n steps", "operators",
                    "ramp trials", "failed trials", "trials at the damping floor",
                    "central starts", "Levinson starts", "σ paths", "σ trials"):
            assert counts[key] > 0, key
        # "n×n steps" counts every n x n solve with the first-column
        # Jacobian: those of the accepted trials are the reported iterations
        # (first-column steps plus the lifted polish steps), the rest belong
        # to failed trials
        assert (counts["n×n steps"] - counts["n×n steps of failed trials"]
                == sum(sol.iterations for sol in counted))
        assert capsys.readouterr().out.startswith("test work  residuals ")

    def test_perfbench_seeds_end_with_a_summary(self, capsys, monkeypatch):
        # the last line sums up all pools: requests, failures, the worst
        # |a err| with its seed/request, the count above 1e-8 and the time
        tool = load_corpus_digest()
        monkeypatch.setattr(tool, "PERFBENCH_REQUESTS", 14)
        monkeypatch.setattr("sys.argv",
                            ["corpus_digest.py", "--perfbench-seeds", "406,604"])
        assert tool.main() == 0
        lines = capsys.readouterr().out.splitlines()
        worst = max(float(line.split()[-1]) for line in lines
                    if line.startswith("perfbench seed ") and "|a err| worst" in line)
        elapsed = sum(float(re.search(r"elapsed (\S+) s", line).group(1))
                      for line in lines if "  requests 14  " in line)
        summary = lines[-1]
        assert summary.startswith("perfbench seeds 2  requests 28  failures 0 (none)  ")
        assert f"|a err| worst {worst:.3e} (" in summary
        total = float(re.search(r"elapsed (\S+) s$", summary).group(1))
        assert abs(total - elapsed) <= 0.011
        # failures and the worst request are named as seed/request
        tool.perfbench_summary([(1, ([3], {0: 2e-8, 1: 1e-9}, 1.5)),
                                (2, ([], {0: 5e-9}, 2.0))])
        assert capsys.readouterr().out == (
            "perfbench seeds 2  requests 28  failures 1 (1/3)  "
            "|a err| worst 2.000e-08 (1/0)  above 1e-8 1  elapsed 3.50 s\n")
