"""CPU placement and the speed probe.

The program under test runs on one CPU and the benchmark's load
generator on another, so the two never compete for a core.

On a shared host a vCPU's speed swings by tens of percent within seconds
as other tenants load the same physical core; a CPU-bound measurement
inherits the swing. The probe is fixed interpreter and numpy work that
uses no code of the program. Timed on the program's CPU right before and
after a CPU-bound measurement, it gives the speed that measurement ran
at, and such metrics are reported at the reference speed: a time is
scaled by ``REF_S / probe_s``, a rate by ``probe_s / REF_S``.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Probe time at the reference speed (this probe's fast-state duration on
#: the 2-vCPU x86-64 VM the baseline was recorded on).
REF_S = 0.05

# The probe touches tens of megabytes, like the program does: a probe that
# fits in cache misses the slowdowns that contention for the shared cache
# and memory bus causes.
_VALUES = np.random.default_rng(0).integers(0, 1 << 30, 2_000_000)
_INDEX = np.random.default_rng(1).integers(0, 2_000_000, 1_000_000)


def _work() -> int:
    table = {}
    for i in range(25_000):
        table[i * 7919 % 1_000_003] = (i, i + 1)
    ordered = sorted(table.items(), key=lambda kv: kv[1][0] ^ 0x5555)
    np.argsort(_VALUES[:200_000], kind="stable")
    return len(ordered) + int(_VALUES[_INDEX].sum() & 1)


def probe() -> float:
    """Seconds the probe takes on the calling thread's CPU (best of 2)."""
    best = float("inf")
    for _ in range(2):
        tic = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - tic)
    return best


def cpus():
    """``(program_cpu, load_cpu)``: distinct when two CPUs are allowed."""
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


def pin(pid: int, cpu: int) -> None:
    """Run ``pid`` (0 = the calling thread) on ``cpu`` only."""
    os.sched_setaffinity(pid, {cpu})


def probe_on(cpu: int) -> float:
    """Time the probe on ``cpu``, then move the caller back to its CPUs."""
    before = os.sched_getaffinity(0)
    pin(0, cpu)
    try:
        return probe()
    finally:
        os.sched_setaffinity(0, before)
