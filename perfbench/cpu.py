"""Core choice and speed scale.

On a shared host a co-tenant often slows a core by a third or more, for
seconds to minutes at a time.  Before timing, the benchmark's processes
pin themselves to whichever allowed CPU runs a short pure-Python probe
fastest, and measure the probe again there.  The probe's time gives the
speed scale ``REFERENCE_PROBE_S / probe time``: a time measured on the
core, times the scale, is the time the same work takes on a reference core
that runs the probe in exactly ``REFERENCE_PROBE_S``.  This acts only on
the benchmark's own processes.
"""

from __future__ import annotations

import os
import time

#: Probe time of the reference core; near the probe's time on an idle
#: 2-vCPU Intel Xeon host with Python 3.11.
REFERENCE_PROBE_S = 1.0e-3


def probe_seconds() -> float:
    """Best of three runs of a ~1 ms pure-Python loop on the current CPU."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_on(cpu) -> float:
    os.sched_setaffinity(0, {cpu})
    return probe_seconds()


def pin_to_fastest_cpu(cpus) -> float:
    """Pin this process to the CPU in ``cpus`` that runs the probe fastest
    and return the speed scale there, from a fresh probe."""
    os.sched_setaffinity(0, {min(sorted(cpus), key=_probe_on)})
    return REFERENCE_PROBE_S / probe_seconds()
