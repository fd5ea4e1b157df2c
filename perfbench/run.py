"""covext benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 55 --trace 0

--trace 0 measures the end-to-end metrics: the set-up time (median over
fresh processes that import covext and finish one warm-up request), then a
closed loop with one client over a fixed pool of requests, sized to take
about --seconds, in a fresh worker process.
--trace 1 runs the traced pass instead and reports the per-layer metrics
and the tracing overhead.  Every request's output is checked.

The BLAS thread count is pinned here, for every workload and commit, so
that runs compare.  The last line of standard output is the JSON result;
the line before it is the environment stamp.  Results and span traces are
kept under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("corpus", "cli_roundtrip", "posdeg_scan", "large_n")
BLAS_THREADS = "1"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# a worker's timed passes last at most twice --seconds (see worker.py); the
# slack covers import, input generation and checks
WORKER_SLACK_S = 45


def worker(mode: str, args, workdir: Path, timeout: float, extra=()) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir), *extra]
    # run() kills and reaps the worker if it outlives the timeout
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=timeout, check=True)


def setup_seconds(args, workdir: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        worker("probe", args, workdir, PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="covext benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "covext" / "__init__.py").is_file():
        print(f"error: no covext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_file = WORK / "results" / f"{tag}.spans.jsonl"
            proc = worker("trace", args, workdir, 2 * args.seconds + WORKER_SLACK_S,
                          ["--trace-file", str(trace_file)])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        else:
            setup = setup_seconds(args, workdir / "probe")
            proc = worker("run", args, workdir, 2 * args.seconds + WORKER_SLACK_S)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            result["setup_probes_s"] = setup
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: benchmark worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result["workload"], result["seed"], result["seconds"] = args.workload, args.seed, args.seconds
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    failures = result["failures"]
    for line in failures[:20]:
        print(f"FAILED {line}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    # a request that raised is failed; one that returned a wrong answer is
    # failed and makes the run incorrect
    print(json.dumps({
        "correct": result["wrong_answers"] == 0,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": dict(sorted(result["metrics"].items())),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
