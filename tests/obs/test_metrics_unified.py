"""Unified metrics registry: one Histogram, labels, and the module seam.

The serving layer and the pipeline historically carried duplicate metric
implementations; these tests pin the unification (``repro.serve.metrics``
re-exports the *same* objects) and property-test the shared Histogram
with Hypothesis: percentiles below capacity are insertion-order
insensitive and always bounded by the reservoir min/max.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
import repro.serve.metrics as serve_metrics
from repro.metrics import PhaseTimer
from repro.obs.metrics import Histogram, MetricsRegistry


class TestUnification:
    def test_serve_reexports_identity(self):
        # Not copies: isinstance checks and monkeypatching anywhere hit
        # the single implementation.
        assert serve_metrics.Histogram is obs_metrics.Histogram
        assert serve_metrics.MetricsRegistry is obs_metrics.MetricsRegistry

    def test_phase_timer_forwards_to_active_registry(self):
        registry = MetricsRegistry()
        timer = PhaseTimer()
        with obs_metrics.use(registry):
            with timer.phase("w_build", graph="1e5"):
                pass
            timer.add("encode", 0.25)
        hist = registry.histogram(
            "phase_seconds", labels={"phase": "encode"}
        )
        assert hist is not None and hist.count == 1
        assert hist.total == 0.25
        assert registry.histogram(
            "phase_seconds", labels={"phase": "w_build"}
        ).count == 1
        # The timer's own records are unaffected by forwarding.
        assert [r["phase"] for r in timer.records] == ["w_build", "encode"]

    def test_phase_timer_without_registry_is_silent(self):
        timer = PhaseTimer()
        timer.add("anything", 1.0)
        assert obs_metrics.active() is None


floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestHistogramProperties:
    @given(
        st.lists(floats, min_size=1, max_size=200),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentiles_order_insensitive_below_capacity(
        self, values, rnd
    ):
        a = Histogram(capacity=512)
        b = Histogram(capacity=512)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        for v in values:
            a.observe(v)
        for v in shuffled:
            b.observe(v)
        for q in (0, 25, 50, 75, 95, 99, 100):
            assert a.percentile(q) == b.percentile(q)
        assert a.count == b.count
        assert a.total == pytest.approx(b.total)

    @given(st.lists(floats, min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_percentiles_bounded_by_min_max(self, values):
        hist = Histogram(capacity=128)
        for v in values:
            hist.observe(v)
        window = values[-128:] if len(values) > 128 else values
        for q in (0, 10, 50, 90, 100):
            p = hist.percentile(q)
            assert min(window) <= p <= max(window)

    @given(st.lists(floats, min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_percentiles_monotone_in_q(self, values):
        hist = Histogram()
        for v in values:
            hist.observe(v)
        quantiles = [hist.percentile(q) for q in range(0, 101, 10)]
        assert quantiles == sorted(quantiles)

    @given(st.lists(floats, min_size=1, max_size=400))
    @settings(max_examples=40, deadline=None)
    def test_count_and_total_are_exact_despite_eviction(self, values):
        hist = Histogram(capacity=16)
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(sum(values))

    def test_empty_and_invalid(self):
        assert Histogram().percentile(50) is None
        assert Histogram().summary() == {"count": 0}
        with pytest.raises(ValueError):
            Histogram(capacity=0)

    def test_summary_keys(self):
        hist = Histogram()
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        summary = hist.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max"] == 3.0


class TestRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.inc("reqs")
        registry.inc("reqs", 2)
        registry.set_gauge("depth", 7)
        registry.observe("lat", 0.5)
        assert registry.counter("reqs") == 3
        assert registry.gauge("depth") == 7
        assert registry.histogram("lat").count == 1
        assert registry.counter("never") == 0
        assert registry.gauge("never") is None
        assert registry.histogram("never") is None

    def test_labels_are_independent_series(self):
        registry = MetricsRegistry()
        registry.inc("m", labels={"op": "bfs"})
        registry.inc("m", 5, labels={"op": "degree"})
        registry.inc("m")
        assert registry.counter("m", labels={"op": "bfs"}) == 1
        assert registry.counter("m", labels={"op": "degree"}) == 5
        assert registry.counter("m") == 1

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.inc("m", labels={"a": 1, "b": 2})
        assert registry.counter("m", labels={"b": 2, "a": 1}) == 1

    def test_snapshot_flattens_labeled_series(self):
        registry = MetricsRegistry()
        registry.inc("plain")
        registry.inc("labeled", labels={"op": "bfs"})
        snap = registry.snapshot()
        assert snap["counters"]["plain"] == 1
        assert snap["counters"]['labeled{op="bfs"}'] == 1
        assert "uptime_seconds" in snap

    def test_format_line_still_works(self):
        # The serve heartbeat's format survived the unification.
        registry = MetricsRegistry()
        registry.inc("requests_total", 10)
        registry.observe("request_latency_seconds", 0.01)
        line = registry.format_line()
        assert line.startswith("serve ")
        assert "requests=10" in line
        assert "latency_ms" in line


class TestModuleSeam:
    def test_disabled_calls_are_noops(self):
        assert obs_metrics.active() is None
        obs_metrics.inc("x")
        obs_metrics.observe("y", 1.0)
        obs_metrics.set_gauge("z", 2.0)

    def test_use_routes_and_restores(self):
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            assert obs_metrics.active() is registry
            obs_metrics.inc("x", labels={"k": "v"})
            obs_metrics.observe("y", 0.5)
            obs_metrics.set_gauge("z", 9)
        assert obs_metrics.active() is None
        assert registry.counter("x", labels={"k": "v"}) == 1
        assert registry.histogram("y").count == 1
        assert registry.gauge("z") == 9


class TestPipelineMetrics:
    def test_phase_histograms_carry_no_labels(self):
        from repro.core.ldme import LDME
        from repro.graph.generators import web_host_graph

        graph = web_host_graph(num_hosts=3, host_size=6, seed=1)
        registry = MetricsRegistry()
        with obs_metrics.use(registry):
            LDME(k=4, iterations=2, seed=0).summarize(graph)
        assert registry.histogram("ldme_divide_seconds").count == 2
        assert registry.histogram("ldme_merge_seconds").count == 2
        assert registry.histogram("ldme_encode_seconds").count == 1
