"""In-memory span tracing of covext's public functions, from outside.

``Tracer.install`` replaces public functions in the module namespaces where
their callers look them up (``covext.pipeline.solve_cee``,
``covext.cee.fixed_point_step``, ``covext.cli.load_problem``, ...) with
wrappers that record a span: name, start, end, parent span and request id.
Private functions (``_newton``, ``_newton_jacobian``, ``_try_step``) are not
wrapped.  ``uninstall`` restores the originals.

Two functions run 10^4 to 10^6 times per run, ``fixed_point_step`` and
``g_of_P``; storing a span per call would cost hundreds of megabytes.  Their
calls are folded into the enclosing span as a count, busy time and the end
of the last call.  Calls made inside a folded call (``g_of_P`` within a
fixed-point step) are not counted separately.

A span's self time is its duration minus the time its child spans (and
folded calls) cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

import covext.cee
import covext.cli
import covext.nevpick
import covext.pipeline

# (module, attribute, span name, folded)
WRAPS = [
    (covext.cee, "solve_cee", "cee.solve_cee", False),
    (covext.pipeline, "solve_cee", "cee.solve_cee", False),
    (covext.nevpick, "solve_cee", "cee.solve_cee", False),
    (covext.cee, "fixed_point_step", "cee.fixed_point_step", True),
    (covext.cee, "g_of_P", "cee.g_of_P", True),
    (covext.cee, "extract_filter", "cee.extract_filter", False),
    (covext.cee, "rank_P", "cee.rank_P", False),
    (covext.pipeline, "rank_P", "cee.rank_P", False),
    (covext.cee, "positive_degree", "cee.positive_degree", False),
    (covext.cee, "build_cov_params", "covdata.build_cov_params", False),
    (covext.pipeline, "toeplitz_min_eig", "covdata.toeplitz_min_eig", False),
    (covext.pipeline, "positive_real_min", "polyalg.positive_real_min", False),
    (covext.pipeline, "laurent_series", "polyalg.laurent_series", False),
    (covext.nevpick, "build_T", "nevpick.build_T", False),
    (covext.pipeline, "build_T", "nevpick.build_T", False),
    (covext.nevpick, "build_uU_np", "nevpick.build_uU_np", False),
    (covext.pipeline, "build_uU_np", "nevpick.build_uU_np", False),
    (covext.pipeline, "solve_np", "nevpick.solve_np", False),
    (covext.pipeline, "verification_report", "pipeline.verification_report", False),
    (covext.cli, "verification_report", "pipeline.verification_report", False),
    (covext.cli, "run_extend", "pipeline.run_extend", False),
    (covext.cli, "run_nevpick", "pipeline.run_nevpick", False),
    (covext.cli, "load_problem", "io.load_problem", False),
    (covext.cli, "load_solution", "io.load_solution", False),
    (covext.cli, "dump_solution", "io.dump_solution", False),
    (covext.cli, "file_sha256", "io.file_sha256", False),
    (covext.cli, "main", "cli.main", False),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs", "folded")

    def __init__(self, name, parent, request):
        self.name = name
        self.parent = parent
        self.request = request
        self.start = self.end = 0.0
        self.attrs = None
        self.folded = None  # name -> [calls, busy seconds, end of last call]

    def as_dict(self, index) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request,
                "attrs": self.attrs, "folded": self.folded}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.request = None
        self.in_folded = False
        self.bytes_written = 0
        self._saved = []

    # -- recording -------------------------------------------------------
    def span(self, name: str) -> "_Open":
        return _Open(self, name)

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.in_folded:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if name == "cee.solve_cee":
                    span.attrs = {"method": result.method, "iterations": int(result.iterations)}
            if name == "io.dump_solution":
                tracer.bytes_written += os.path.getsize(args[1])
            return result

        return traced

    def _wrap_folded(self, fn, name: str):
        tracer = self
        clock = time.perf_counter

        def folded(*args, **kwargs):
            if tracer.in_folded or not tracer.stack:
                return fn(*args, **kwargs)
            tracer.in_folded = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer.in_folded = False
                span = tracer.spans[tracer.stack[-1]]
                if span.folded is None:
                    span.folded = {}
                entry = span.folded.get(name)
                if entry is None:
                    span.folded[name] = [1, t1 - t0, t1]
                else:
                    entry[0] += 1
                    entry[1] += t1 - t0
                    entry[2] = t1

        return folded

    def install(self) -> None:
        for module, attr, name, is_folded in WRAPS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            wrap = self._wrap_folded if is_folded else self._wrap
            setattr(module, attr, wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")

    # -- analysis --------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span (see README.md).
        ``cee.positive_degree.self_s`` is given only when the trace holds a
        ``positive_degree`` scan."""
        busy = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        children = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        fp_steps = fp_wasted = newton_its = 0
        newton_s = 0.0
        solves = fallbacks = 0
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            busy[s.name] += dur
            calls[s.name] += 1
            covered = sum(self.spans[c].end - self.spans[c].start for c in children[i])
            for fname, (fcalls, fbusy, _) in (s.folded or {}).items():
                covered += fbusy
                busy[fname] += fbusy
                calls[fname] += fcalls
            self_s[s.name] += dur - covered
            if s.name != "cee.solve_cee":
                continue
            folded = s.folded or {}
            steps, _, fp_end = folded.get("cee.fixed_point_step", (0, 0.0, s.start))
            post = [self.spans[c].start for c in children[i]
                    if self.spans[c].name == "cee.extract_filter"]
            # Newton stage: from the end of the last fixed-point step (or the
            # start) to the post-solve extraction (or the end, on failure)
            newton_s += (post[0] if post else s.end) - fp_end
            method = (s.attrs or {}).get("method")
            # under the default method a solve raises only after falling back
            fell_back = method is None or "newton" in method
            solves += 1
            fallbacks += fell_back
            fp_steps += steps
            fp_wasted += steps if fell_back else 0
            if method is not None:
                newton_its += s.attrs["iterations"] - steps
        metrics = {
            "cee.solve_cee.calls": solves,
            "cee.fixed_point_step.calls": fp_steps,
            "cee.fixed_point_step.busy_s": busy["cee.fixed_point_step"],
            "cee.fixed_point.wasted_ratio": fp_wasted / fp_steps if fp_steps else 0.0,
            "cee.newton.busy_s": newton_s,
            "cee.newton.iterations": newton_its,
            "cee.g_of_P.calls": calls["cee.g_of_P"],
            "cee.fallback_ratio": fallbacks / solves if solves else 0.0,
            "cee.rank_P.busy_s": busy["cee.rank_P"],
            "polyalg.positive_real_min.calls": calls["polyalg.positive_real_min"],
            "polyalg.positive_real_min.busy_s": busy["polyalg.positive_real_min"],
            "polyalg.laurent_series.busy_s": busy["polyalg.laurent_series"],
            "covdata.build_cov_params.busy_s": busy["covdata.build_cov_params"],
            "covdata.toeplitz_min_eig.busy_s": busy["covdata.toeplitz_min_eig"],
            "nevpick.build_T.busy_s": busy["nevpick.build_T"],
            "nevpick.build_uU_np.busy_s": busy["nevpick.build_uU_np"],
            "nevpick.solve_np.self_s": self_s["nevpick.solve_np"],
            "pipeline.verification_report.calls": calls["pipeline.verification_report"],
            "pipeline.verification_report.busy_s": busy["pipeline.verification_report"],
            "pipeline.run_extend.self_s": self_s["pipeline.run_extend"],
            "pipeline.run_nevpick.self_s": self_s["pipeline.run_nevpick"],
            "io.load_problem.busy_s": busy["io.load_problem"],
            "io.load_solution.busy_s": busy["io.load_solution"],
            "io.dump_solution.busy_s": busy["io.dump_solution"],
            "io.file_sha256.busy_s": busy["io.file_sha256"],
            "io.bytes_written": self.bytes_written,
            "cli.main.self_s": self_s["cli.main"],
            "trace.spans": len(self.spans),
        }
        # only the scan reaches positive_degree; elsewhere it would read 0
        if calls["cee.positive_degree"]:
            metrics["cee.positive_degree.self_s"] = self_s["cee.positive_degree"]
        return metrics


class _Open:
    """Context manager that opens a span under the current one."""

    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        span = Span(self.name, t.stack[-1] if t.stack else None, t.request)
        self.index = len(t.spans)
        t.spans.append(span)
        t.stack.append(self.index)
        span.start = time.perf_counter()
        return span

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        span = t.spans[self.index]
        span.end = time.perf_counter()
        if exc_type is not None:
            span.attrs = {"error": exc_type.__name__}
        t.stack.pop()
        return False

