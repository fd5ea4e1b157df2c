import importlib.util
import itertools
from pathlib import Path

from covext import cee
from covext.cee import SolveOptions, solve_cee


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
        # instances include #6, whose first trial fails, so the count covers
        # the numerator path too; the wrappers must leave every P as it is
        tool = load_corpus_digest()
        opts = SolveOptions(max_iter=20_000)
        problems = [prob for _, _, prob in itertools.islice(tool.corpus_problems(), 9)]
        plain = [solve_cee(prob, opts) for prob in problems]
        originals = {name: getattr(cee, name) for name in dir(cee)}
        with tool.counted_work("test") as counts:
            counted = [solve_cee(prob, opts) for prob in problems]
        assert {name: getattr(cee, name) for name in dir(cee)} == originals
        for a, b in zip(plain, counted):
            assert a.P.tobytes() == b.P.tobytes() and a.iterations == b.iterations
        for key in ("residuals", "lifted steps", "n×n steps", "operators",
                    "ramp trials", "failed trials", "σ paths", "σ trials"):
            assert counts[key] > 0, key
        assert capsys.readouterr().out.startswith("test work  residuals ")
