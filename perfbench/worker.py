"""The process that runs one workload: ``python3 perfbench/worker.py MODE
WORKLOAD SEED SECONDS``.  ``run.py`` starts it with one BLAS thread and
``src`` on the path, and reads the JSON object on its last stdout line.

Modes:

* ``setup``: serve the workload's first request from a cold process.
  Prints ``served`` the moment the request returns (``run.py`` stops its
  set-up clock there), then checks the output and exits 0 or 1.
* ``measure``: warm up, then a closed loop for SECONDS (and at least
  ``MIN_REQUESTS`` requests), untraced.  Reports latencies, operations,
  failures and peak RSS.
* ``trace``: a fixed number of request cycles under the tracer, from a
  cold start, for the per-layer metrics; its spans go to
  ``.perfbench-out/spans-WORKLOAD.csv``.  Then, for SECONDS, one cycle
  untraced and the same cycle traced, in pairs, for the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from itertools import chain, islice
from pathlib import Path

from qdistill import cli
from cpu import pin_to_fastest_cpu
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS

# Enough requests that at least ten lie beyond the pooled p90.
MIN_REQUESTS = 100
OUT_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"
# Seconds between CPU probes (see cpu.py); co-tenant load on a shared host
# moves between cores on a scale of seconds.
REPIN_S = 0.5


def serve(req):
    """One request through ``cli.run``; returns (rc, seconds, stdout,
    stderr).  A raised exception is a failed request (rc None)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(list(req.argv))
    except Exception:
        rc = None
        err.write(traceback.format_exc())
    dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Pass:
    """Requests served and judged in one pass."""

    def __init__(self, workload):
        self.checker = workload.checker()
        self.latencies = []
        self.scales = []
        self.ops = 0
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0

    def record(self, req, rc, dt, out, err, timed=True, scale=1.0):
        """Judge one output.  A timed request also adds its latency ``dt``
        and the speed scale it ran at (see cpu.py)."""
        self.attempted += 1
        try:
            reason = self.checker.check(req, rc, out, err)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason is not None:
            self.failures.append(f"{' '.join(req.argv)}: {reason}")
        if timed:
            self.latencies.append(dt)
            self.scales.append(scale)
            self.ops += req.ops
            self.output_bytes += len(out)

    def finish(self):
        # A failed run-level check counts as one more attempted item.
        run_failures = self.checker.finish()
        self.failures += run_failures
        self.attempted += len(run_failures)


def _run_setup(workload, seed):
    req = next(workload.requests(seed))
    result = serve(req)
    print("served", flush=True)
    p = Pass(workload)
    p.record(req, *result)
    if p.failures:
        print(p.failures[0], file=sys.stderr)
        return 1
    return 0


def _run_measure(workload, seed, seconds):
    stream = workload.requests(seed)
    first_cycle = list(islice(stream, workload.cycle))
    p = Pass(workload)
    for req in first_cycle:
        p.checker.expect(req)
    p.record(first_cycle[0], *serve(first_cycle[0]), timed=False)
    cpus = os.sched_getaffinity(0)
    now = time.perf_counter()
    deadline, repin_at = now + seconds, now
    for req in chain(first_cycle, stream):
        now = time.perf_counter()
        if now >= deadline and len(p.latencies) >= MIN_REQUESTS:
            break
        if now >= repin_at:
            scale = pin_to_fastest_cpu(cpus)
            repin_at = now + REPIN_S
        p.record(req, *serve(req), scale=scale)
    p.finish()

    def summary(latencies):
        lat_ms = [x * 1e3 for x in latencies]
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
        return {"ops_per_s": p.ops / sum(latencies),
                "req_p50_ms": statistics.median(lat_ms), "req_p90_ms": p90}

    scaled = summary([t * s for t, s in zip(p.latencies, p.scales)])
    return {
        "attempted": p.attempted,
        "failed": len(p.failures),
        "failures": p.failures[:5],
        "requests": len(p.latencies),
        "ops": p.ops,
        "speed_scale": {"median": statistics.median(p.scales),
                        "min": min(p.scales), "max": max(p.scales)},
        "raw": summary(p.latencies),
        "metrics": {
            "ops_per_s": (scaled["ops_per_s"], "op/s"),
            "req_p50_ms": (scaled["req_p50_ms"], "ms"),
            "req_p90_ms": (scaled["req_p90_ms"], "ms"),
            "ok_frac": (1.0 - len(p.failures) / p.attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        },
    }


def _serve_cycle(p, reqs):
    """Serve and judge ``reqs``; the seconds spent inside the requests."""
    total = 0.0
    for req in reqs:
        rc, dt, out, err = serve(req)
        p.record(req, rc, dt, out, err)
        total += dt
    return total


def _run_trace(workload, seed, seconds):
    reqs = list(islice(workload.requests(seed),
                       workload.trace_cycles * workload.cycle))
    cpus = os.sched_getaffinity(0)
    pin_to_fastest_cpu(cpus)
    served = []
    with Tracer() as tracer:
        for i, req in enumerate(reqs):
            tracer.request_id = i
            served.append(serve(req))
    traced = Pass(workload)
    for req, result in zip(reqs, served):
        traced.record(req, *result)
    traced.finish()
    metrics = layer_metrics(tracer, traced.checker.trials)
    # Overhead: one warm cycle untraced, then the same cycle traced, in
    # pairs until the run's time is used, so that both sides of each ratio
    # see the same machine state.
    paired = Pass(workload)
    cycle = reqs[:workload.cycle]
    ratios = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(ratios) < 3:
        pin_to_fastest_cpu(cpus)
        plain = _serve_cycle(paired, cycle)
        with Tracer():
            ratios.append(_serve_cycle(paired, cycle) / plain)
    paired.finish()
    failures = traced.failures + paired.failures
    attempted = traced.attempted + paired.attempted
    metrics.update({
        "montecarlo.abort_frac": (traced.checker.aborts / traced.checker.trials
                                  if traced.checker.trials else 0.0, "ratio"),
        "cli.output_bytes": (traced.output_bytes, "bytes"),
        "trace_overhead_frac": (statistics.median(ratios) - 1.0, "ratio"),
        "trace.requests": (len(reqs), "count"),
        "trace.ops": (traced.ops, "count"),
        "failed_frac": (len(failures) / attempted, "ratio"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(OUT_DIR / f"spans-{workload.name}.csv")
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "requests": len(reqs),
        "overhead_pairs": len(ratios),
        "spans": len(tracer.name),
        "metrics": metrics,
    }


def main(argv) -> int:
    mode, name, seed, seconds = argv
    workload = WORKLOADS[name]
    if mode == "setup":
        return _run_setup(workload, int(seed))
    run = _run_measure if mode == "measure" else _run_trace
    result = run(workload, int(seed), float(seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
