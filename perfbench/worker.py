"""One measurement process of the covext benchmark (started by run.py).

Modes:
  probe  import covext and finish the workload's warm-up request, then exit;
         run.py times the whole process as the set-up time.
  run    closed loop, one client, untraced: each request starts when the
         previous one has finished.  The pool holds the whole stratified
         rounds that fit in --seconds at the workload's nominal pace, so a
         run times the same requests however fast the host is.  Outputs
         are checked after the timed loop.
  trace  the workload's ``trace_rounds`` rounds, each run once with the span
         wrappers installed and once without, to give the per-layer metrics
         and the tracing overhead.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import covext  # noqa: E402

if not Path(covext.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"covext was imported from {covext.__file__}, not from {SRC}")

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_P90_REQUESTS = 100  # so that at least ten samples lie beyond the p90
# A host slower than half the nominal pace stops the pool early, at a round
# boundary, so that a run still ends within run.py's worker timeout.
STRETCH = 2.0


def env_stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run_requests(wl, indices, deadline, tracer=None):
    """Run the requests ``indices`` in order; past the deadline, stop at the
    next round boundary.  Returns (latencies in seconds, outputs or exceptions,
    warning count)."""
    latencies, outputs = [], []
    clock = time.perf_counter
    round_size = len(wl.strata)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in indices:
            if i % round_size == 0 and clock() >= deadline:
                break
            t0 = clock()
            try:
                if tracer is None:
                    out = wl.request(i)
                else:
                    tracer.request = i
                    with tracer.span("request"):
                        out = wl.request(i)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                out = exc
            latencies.append(clock() - t0)
            outputs.append(out)
    return latencies, outputs, len(caught)


def check_all(wl, outputs) -> tuple[list[str], int]:
    """Reasons of the failed requests, and how many of them returned a wrong
    answer (the rest raised, as a solver failure does)."""
    failures, wrong = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for i, out in enumerate(outputs):
            if isinstance(out, Exception):
                failures.append(f"request {i}: {type(out).__name__}: {out}")
                continue
            try:
                reason = wl.check(i, out)
            except Exception as exc:  # noqa: BLE001 - a failed check is a failure
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append(f"request {i}: {reason}")
                wrong += 1
    return failures, wrong


def warmup(cls, workdir) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cls.warmup(workdir)


def mode_run(wl, seconds):
    warmup(type(wl), wl.workdir)
    t_start = time.perf_counter()
    latencies, outputs, n_warn = run_requests(wl, range(len(wl.pool)), t_start + STRETCH * seconds)
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, wrong = check_all(wl, outputs)
    attempted = len(outputs)
    ok = attempted - len(failures)
    ms = [1e3 * t for t in latencies]
    metrics = {
        "throughput_rps": (ok / wall, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "success_rate": (ok / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if attempted >= MIN_P90_REQUESTS:
        metrics["latency_p90_ms"] = (float(np.percentile(ms, 90)), "ms")
    return attempted, failures, wrong, metrics, {"warnings": n_warn, "wall_s": wall,
                                                 "pool": len(wl.pool), "latencies_ms": ms}


def mode_trace(wl, seconds, trace_path):
    warmup(type(wl), wl.workdir)
    tracer = Tracer()
    size = len(wl.strata)
    traced, plain, outputs, n_warn = [], [], [], 0
    deadline = time.perf_counter() + seconds
    for start in range(0, len(wl.pool), size):
        if time.perf_counter() >= deadline:
            break
        rnd = range(start, start + size)
        # Each round runs traced and untraced, in alternating order, so that
        # a drift in host speed cancels out of the overhead.
        for with_trace in (True, False) if start // size % 2 == 0 else (False, True):
            if not with_trace:
                plain += run_requests(wl, rnd, math.inf)[0]
                continue
            tracer.install()
            try:
                lat, out, warned = run_requests(wl, rnd, math.inf, tracer)
            finally:
                tracer.uninstall()
            traced += lat
            outputs += out
            n_warn += warned
    traced_s, plain_s = sum(traced), sum(plain)
    failures, wrong = check_all(wl, outputs)
    tracer.write(trace_path)
    metrics = {name: (value, _unit(name)) for name, value in tracer.layer_metrics().items()}
    metrics["warnings.count"] = (n_warn, "count")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    return len(outputs), failures, wrong, metrics, {"traced_s": traced_s, "untraced_s": plain_s}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "io.bytes_written":
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=["probe", "run", "trace"], required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--trace-file", type=Path)
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "probe":
        warmup(cls, args.workdir)
        return 0
    if args.mode == "run":
        wl = cls(args.seed, args.workdir, max(1, math.ceil(args.seconds * cls.rounds_per_s)))
        attempted, failures, wrong, metrics, extra = mode_run(wl, args.seconds)
    else:
        wl = cls(args.seed, args.workdir, cls.trace_rounds)
        attempted, failures, wrong, metrics, extra = mode_trace(wl, args.seconds, args.trace_file)
    print(json.dumps({
        "attempted": attempted,
        "failures": failures,
        "wrong_answers": wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": env_stamp(),
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
