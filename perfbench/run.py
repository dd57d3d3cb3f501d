"""qdistill benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Drives the ``qdistill`` command in-process
through ``qdistill.cli.run(argv)`` under one of the workloads defined in
``workloads.py`` and checks every output.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the run's record (provenance, workload parameters, sample
counts, first failures).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
``SETUP_RUNS`` cold processes, each timed from spawn until the workload's
first request has been served; the rest come from one untraced worker
process.  ``--trace 1`` reports the per-layer metrics from one traced
worker process.  Each process pins BLAS to one thread, and only one runs at
a time.  End-to-end times are scaled to a reference core (see cpu.py); the
record keeps the raw values.  See README.md in this directory for the
metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from cpu import pin_to_fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 7
# Wall-clock budget for all child processes of one run.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def time_setup(workload: str, seed: int, env: dict, deadline: float):
    """Seconds from spawning a cold worker until it has served the first
    request, the speed scale of the core it started on (see cpu.py), and
    whether that request's output passed its check."""
    cpus = os.sched_getaffinity(0)
    scale = pin_to_fastest_cpu(cpus)
    t0 = time.perf_counter()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), "setup", workload, str(seed), "0"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    finally:
        os.sched_setaffinity(0, cpus)
    watchdog = threading.Timer(_remaining(deadline), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate()
    finally:
        watchdog.cancel()
        proc.wait()
    if line.strip() != "served" or proc.returncode not in (0, 1):
        raise BenchError(f"set-up process for {workload} exited {proc.returncode}")
    return elapsed, scale, proc.returncode == 0


def run_worker(mode: str, workload: str, seed: int, seconds: int, env: dict,
               deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), mode, workload, str(seed), str(seconds)],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def provenance(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "processes": "one at a time",
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "qdistill" / "cli.py").is_file():
        print(f"no qdistill sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # Pinned before numpy is first imported, here and in every child.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    paths = (str(SRC), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    deadline = time.perf_counter() + BUDGET_S
    try:
        if args.trace:
            result = run_worker("trace", wl.name, args.seed, args.seconds, env,
                                deadline)
            metrics = result["metrics"]
        else:
            setups = [time_setup(wl.name, args.seed, env, deadline)
                      for _ in range(SETUP_RUNS)]
            result = run_worker("measure", wl.name, args.seed, args.seconds,
                                env, deadline)
            result["attempted"] += len(setups)
            result["failed"] += sum(not ok for _, _, ok in setups)
            result["raw"]["setup_s"] = [t for t, _, _ in setups]
            result["speed_scale"]["setup"] = [s for _, s, _ in setups]
            metrics = {"setup_s": (statistics.median(t * s for t, s, _ in setups),
                                   "s")}
            metrics.update(result["metrics"])
            metrics["ok_frac"] = (1.0 - result["failed"] / result["attempted"],
                                  "ratio")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record = {k: v for k, v in result.items() if k != "metrics"}
    record.update({"workload": wl.name, "why": wl.why, "params": wl.params,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "provenance": provenance(numpy)})
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
