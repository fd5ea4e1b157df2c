"""Self-test of the benchmark, kept out of the tier-1 testpaths.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
from workloads import Corpus, CliRoundtrip  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_with_its_unit():
    for spec in BENCH["workloads"]:
        result = _run(spec["name"], 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        # a 1 s run has fewer than 100 requests, so its p90 is withheld
        expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
        expected.pop("latency_p90_ms")
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_run_prints_every_layer_metric():
    result = _run("cli_roundtrip", 1)
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["pipeline.verification_report.calls"]["value"] > 0


def test_wrong_answer_is_counted_as_failure(tmp_path):
    wl = Corpus(seed=7, workdir=tmp_path, rounds=1)
    outputs = [wl.request(i) for i in range(3)]
    assert worker.check_all(wl, outputs) == ([], 0)
    a, rho = outputs[1]
    outputs[1] = (a + 1e-3, rho)
    outputs[2] = RuntimeError("solver blew up")
    failures, wrong = worker.check_all(wl, outputs)
    assert len(failures) == 2 and wrong == 1
    assert failures[0].startswith("request 1: |a - a_true|")


def test_failed_verify_is_counted_as_failure(tmp_path):
    wl = CliRoundtrip(seed=7, workdir=tmp_path, rounds=1)
    solve_rc, verify_rc, text = wl.request(0)
    assert worker.check_all(wl, [(solve_rc, verify_rc, text)]) == ([], 0)
    assert worker.check_all(wl, [(solve_rc, 4, text)])[1] == 1
    out = tmp_path / "out" / "0.json"
    doc = json.loads(out.read_text(encoding="utf-8"))
    doc["a"] = (np.asarray(doc["a"]) + 1e-3).tolist()
    out.write_text(json.dumps(doc), encoding="utf-8")
    assert worker.check_all(wl, [(solve_rc, verify_rc, text)])[1] == 1


def test_inputs_follow_the_seed(tmp_path):
    one = Corpus(seed=3, workdir=tmp_path, rounds=2).pool
    two = Corpus(seed=3, workdir=tmp_path, rounds=2).pool
    other = Corpus(seed=4, workdir=tmp_path, rounds=2).pool
    assert [i.n for i in one] == [2, 3, 4, 5, 6, 7, 8] * 2
    assert all(np.array_equal(x.c.c, y.c.c) for x, y in zip(one, two))
    assert not np.array_equal(one[0].c.c, other[0].c.c)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
