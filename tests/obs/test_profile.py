"""Profiler hooks: kernel attribution, the decorator seam, the sampler.

The contract under test is "free when off": with no active profiler the
decorated kernels run undisturbed (the overhead bound itself is enforced
in ``benchmarks/test_obs_overhead.py``), and with one installed, every
call is attributed to its kernel name with exact call counts.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import profile
from repro.obs.profile import KernelProfiler, SamplingProfiler


class TestKernelProfiler:
    def test_record_accumulates(self):
        profiler = KernelProfiler()
        profiler.record("wtable", 0.5)
        profiler.record("wtable", 0.25)
        profiler.record("encode_sorted", 1.0)
        summary = profiler.summary()
        assert summary["wtable"] == {"calls": 2, "seconds": 0.75}
        assert summary["encode_sorted"]["calls"] == 1
        assert list(summary) == sorted(summary)

    def test_format_table(self):
        profiler = KernelProfiler()
        assert profiler.format_table() == "no kernel calls recorded"
        profiler.record("doph_bulk", 0.125)
        table = profiler.format_table()
        assert "doph_bulk" in table
        assert "0.1250" in table

    def test_thread_safety(self):
        profiler = KernelProfiler()

        def hammer():
            for _ in range(500):
                profiler.record("k", 0.001)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert profiler.summary()["k"]["calls"] == 2000


class TestSeam:
    def test_disabled_by_default(self):
        assert profile.active() is None
        # kernel() returns the shared no-op timer when off.
        timer = profile.kernel("anything")
        with timer:
            pass
        assert timer is profile.kernel("other")

    def test_use_installs_and_restores(self):
        profiler = KernelProfiler()
        with profile.use(profiler) as installed:
            assert installed is profiler
            assert profile.active() is profiler
            with profile.kernel("k"):
                pass
        assert profile.active() is None
        assert profiler.summary()["k"]["calls"] == 1

    def test_use_nests(self):
        outer, inner = KernelProfiler(), KernelProfiler()
        with profile.use(outer):
            with profile.use(inner):
                assert profile.active() is inner
            assert profile.active() is outer

    def test_timer_records_on_exception(self):
        profiler = KernelProfiler()
        with profile.use(profiler):
            with pytest.raises(ValueError):
                with profile.kernel("k"):
                    raise ValueError("boom")
        assert profiler.summary()["k"]["calls"] == 1


class TestProfiledDecorator:
    def test_passthrough_when_disabled(self):
        calls = []

        @profile.profiled("k")
        def fn(x, y=1):
            calls.append((x, y))
            return x + y

        assert fn(2, y=3) == 5
        assert calls == [(2, 3)]

    def test_records_when_active(self):
        @profile.profiled("k")
        def fn():
            return 42

        profiler = KernelProfiler()
        with profile.use(profiler):
            assert fn() == 42
            assert fn() == 42
        assert profiler.summary()["k"]["calls"] == 2
        assert profiler.summary()["k"]["seconds"] >= 0

    def test_records_on_exception(self):
        @profile.profiled("k")
        def fn():
            raise RuntimeError("boom")

        profiler = KernelProfiler()
        with profile.use(profiler):
            with pytest.raises(RuntimeError):
                fn()
        assert profiler.summary()["k"]["calls"] == 1

    def test_wraps_preserves_metadata(self):
        @profile.profiled("k")
        def documented():
            """The docstring survives."""

        assert documented.__name__ == "documented"
        assert documented.__doc__ == "The docstring survives."

    def test_production_kernels_are_instrumented(self):
        from repro.lsh.doph import doph_signatures_bulk
        from repro.lsh.permutation import random_permutation

        rng = np.random.default_rng(1)
        perm = random_permutation(8, rng)
        directions = rng.integers(0, 2, size=4).astype(np.int64)
        row_ids = np.array([0, 0, 1, 1])
        item_ids = np.array([1, 3, 2, 5])
        profiler = KernelProfiler()
        with profile.use(profiler):
            doph_signatures_bulk(row_ids, item_ids, 2, perm, 4, directions)
        assert profiler.summary()["doph_bulk"]["calls"] == 1


def busy_wait(duration):
    """Burn CPU in a repro-module frame so the sampler can attribute it."""
    deadline = time.perf_counter() + duration
    while time.perf_counter() < deadline:
        pass


class TestSamplingProfiler:
    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)

    def test_double_start_rejected(self):
        profiler = SamplingProfiler(interval=0.01)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_without_start_is_noop(self):
        SamplingProfiler().stop()

    def test_samples_calling_thread(self):
        profiler = SamplingProfiler(
            interval=0.002, module_prefix="repro"
        )
        from repro.graph.generators import web_host_graph
        from repro.core.ldme import LDME

        graph = web_host_graph(num_hosts=8, host_size=16, seed=1)
        # One run takes a few ms, less than a sampling tick plus the
        # interpreter's switch interval, so repeat it until the sampler
        # has ticked (bounded: a sampler that never samples still fails).
        deadline = time.monotonic() + 5.0
        with profiler:
            while True:
                LDME(k=4, iterations=4, seed=0).summarize(graph)
                if profiler.total_samples or time.monotonic() > deadline:
                    break
        assert profiler.total_samples > 0
        # Every attributed location is inside the package.
        for name in profiler.samples:
            assert name.startswith("repro")
        table = profiler.format_table()
        assert "location" in table or "no samples" in table

    def test_all_threads_mode_sees_worker_threads(self):
        profiler = SamplingProfiler(
            interval=0.002, module_prefix="tests.obs", all_threads=True
        )
        threads = [
            threading.Thread(target=busy_wait, args=(0.15,))
            for _ in range(2)
        ]
        profiler.start()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            profiler.stop()
        busy = sum(
            count for name, count in profiler.samples.items()
            if name.endswith("busy_wait")
        )
        assert busy > 0

    def test_report_orders_by_count(self):
        profiler = SamplingProfiler()
        profiler.samples = {"a.f": 3, "b.g": 10, "c.h": 1}
        profiler.total_samples = 14
        report = profiler.report(top=2)
        assert [name for name, _, _ in report] == ["b.g", "a.f"]
        name, count, est = report[0]
        assert est == pytest.approx(count * profiler.interval)
