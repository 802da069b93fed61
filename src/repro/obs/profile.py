"""Opt-in profiling: per-kernel self-time hooks and a sampling profiler.

Two complementary tools, both disabled by default:

* :class:`KernelProfiler` — deterministic wall-clock attribution for the
  three numpy hot-path kernels (``wtable``, ``doph_bulk``,
  ``encode_sorted``). The kernels are decorated with
  ``@profile.profiled("<name>")``; when no profiler is installed a call
  costs one global read and an ``is None`` test, so the hooks are free in
  production (benchmarked in ``benchmarks/test_obs_overhead.py``,
  attribution committed to ``BENCH_obs.json``). The instrumented kernels
  never call each other, so per-call wall time *is* self-time.
* :class:`SamplingProfiler` — a background thread that samples another
  thread's Python stack at a fixed interval and attributes samples to the
  innermost ``repro`` frame (a miniature py-spy). Used by the
  ``--profile`` CLI knob on ``serve`` and ``loadgen``, where there is no
  single instrumented hot loop to hook.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "KernelProfiler",
    "SamplingProfiler",
    "kernel",
    "profiled",
    "use",
    "active",
]


class KernelProfiler:
    """Accumulates per-kernel call counts and self-time.

    Thread-safe; one instance can be shared by the whole process.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._seconds: Dict[str, float] = {}

    def record(self, name: str, seconds: float) -> None:
        """Add one finished kernel call to the tally."""
        with self._lock:
            self._calls[name] = self._calls.get(name, 0) + 1
            self._seconds[name] = self._seconds.get(name, 0.0) + seconds

    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{kernel: {"calls": n, "seconds": s}}`` for every kernel."""
        with self._lock:
            return {
                name: {
                    "calls": self._calls[name],
                    "seconds": self._seconds[name],
                }
                for name in sorted(self._calls)
            }

    def format_table(self) -> str:
        """Human-readable attribution table for CLI output."""
        rows = self.summary()
        if not rows:
            return "no kernel calls recorded"
        width = max(len(name) for name in rows)
        lines = [f"{'kernel':<{width}}  {'calls':>8}  {'seconds':>10}"]
        for name, row in rows.items():
            lines.append(
                f"{name:<{width}}  {row['calls']:>8.0f}  "
                f"{row['seconds']:>10.4f}"
            )
        return "\n".join(lines)


class _KernelTimer:
    """Context manager timing one kernel call into a profiler."""

    __slots__ = ("_profiler", "_name", "_tic")

    def __init__(self, profiler: KernelProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._tic = 0.0

    def __enter__(self) -> "_KernelTimer":
        self._tic = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler.record(self._name, time.perf_counter() - self._tic)
        return False


class _NoopTimer:
    """Shared do-nothing timer returned when profiling is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_TIMER = _NoopTimer()

_ACTIVE: Optional[KernelProfiler] = None


class _Use:
    """Context manager installing a process-wide active profiler."""

    __slots__ = ("_profiler", "_previous")

    def __init__(self, profiler: Optional[KernelProfiler]) -> None:
        self._profiler = profiler
        self._previous: Optional[KernelProfiler] = None

    def __enter__(self) -> Optional[KernelProfiler]:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._profiler
        return self._profiler

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def use(profiler: Optional[KernelProfiler]) -> _Use:
    """``with use(profiler):`` — route :func:`kernel` timings to it."""
    return _Use(profiler)


def active() -> Optional[KernelProfiler]:
    """The currently installed kernel profiler, or ``None``."""
    return _ACTIVE


def kernel(name: str):
    """Time one kernel call on the active profiler (no-op when off)."""
    profiler = _ACTIVE
    if profiler is None:
        return _NOOP_TIMER
    return _KernelTimer(profiler, name)


def profiled(name: str) -> Callable:
    """Decorator attributing every call of a kernel to ``name``.

    With no active profiler the wrapper is one global read and an
    ``is None`` test on top of the call — cheap enough to leave on the
    production numpy kernels unconditionally.
    """
    def wrap(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            profiler = _ACTIVE
            if profiler is None:
                return fn(*args, **kwargs)
            tic = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.record(name, time.perf_counter() - tic)
        return inner
    return wrap


class SamplingProfiler:
    """Periodically samples a target thread's stack (a mini py-spy).

    Every ``interval`` seconds the sampler walks the target thread's
    current Python stack (via :func:`sys._current_frames`) and charges
    one sample to the innermost frame whose module matches
    ``module_prefix`` — i.e. self-time within this package, with
    third-party/numpy time attributed to the repro frame that called it.

    With ``all_threads=True`` every live thread is sampled each tick
    (one sample per thread, so estimated seconds remain per-thread time)
    — the right mode for thread-pool workloads like the load generator.

    Usage::

        profiler = SamplingProfiler(interval=0.005)
        profiler.start()            # samples the *calling* thread
        ...workload...
        profiler.stop()
        print(profiler.format_table())
    """

    def __init__(
        self,
        interval: float = 0.005,
        module_prefix: str = "repro",
        all_threads: bool = False,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.module_prefix = module_prefix
        self.all_threads = all_threads
        self.samples: Dict[str, int] = {}
        self.total_samples = 0
        self._target_id: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self, target_thread_id: Optional[int] = None) -> None:
        """Begin sampling (defaults to the calling thread)."""
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._target_id = (
            target_thread_id
            if target_thread_id is not None
            else threading.get_ident()
        )
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval):
            frames = sys._current_frames()
            if self.all_threads:
                # One sample per live thread per tick (excluding the
                # sampler itself) — est_seconds stays per-thread time.
                targets = [
                    frame for tid, frame in frames.items() if tid != own_id
                ]
            else:
                frame = frames.get(self._target_id)
                targets = [frame] if frame is not None else []
            if not targets:
                continue
            with self._lock:
                for frame in targets:
                    location = self._attribute(frame)
                    self.total_samples += 1
                    if location is not None:
                        self.samples[location] = (
                            self.samples.get(location, 0) + 1
                        )

    def _attribute(self, frame: Any) -> Optional[str]:
        """Innermost ``module_prefix`` frame, as ``module.function``."""
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith(self.module_prefix):
                return f"{module}.{frame.f_code.co_name}"
            frame = frame.f_back
        return None

    # ------------------------------------------------------------------
    def report(self, top: int = 20) -> List[Tuple[str, int, float]]:
        """Top locations as ``(name, samples, est_seconds)`` tuples."""
        with self._lock:
            items = sorted(
                self.samples.items(), key=lambda kv: -kv[1]
            )[:top]
        return [
            (name, count, count * self.interval) for name, count in items
        ]

    def format_table(self, top: int = 20) -> str:
        """Human-readable top-N table for CLI output."""
        rows = self.report(top)
        if not rows:
            return "no samples attributed (workload too short?)"
        width = max(len(name) for name, _, _ in rows)
        lines = [
            f"{'location':<{width}}  {'samples':>8}  {'est_s':>8}"
        ]
        for name, count, seconds in rows:
            lines.append(f"{name:<{width}}  {count:>8}  {seconds:>8.3f}")
        return "\n".join(lines)
