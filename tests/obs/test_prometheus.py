"""Prometheus text-format conformance for the exporter.

A minimal parser for the exposition format (0.0.4) lives *in this test*
— a deliberately independent reimplementation of the grammar: ``# TYPE``
comments, ``name{label="value"} number`` samples, backslash/quote/newline
escapes in label values. Every exporter output must round-trip through
it, be NaN-free, and use only declared metric names. The serving tests
then verify the same text comes back through the ``metrics`` op and the
HTTP scrape endpoint.
"""

import math
import re
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ldme import LDME
from repro.graph.generators import web_host_graph
from repro.obs.metrics import MetricsRegistry
from repro.serve import ServerConfig, ServerThread, SummaryClient

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE = re.compile(
    rf"^(?P<name>{_NAME})(?:\{{(?P<labels>.*)\}})? (?P<value>\S+)$"
)
_TYPE = re.compile(rf"^# TYPE (?P<name>{_NAME}) "
                   r"(?P<type>counter|gauge|histogram|summary|untyped)$")
_LABEL = re.compile(rf'^(?P<key>{_NAME})="')


def _unescape(value: str) -> str:
    out = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_labels(text: str) -> dict:
    labels = {}
    rest = text
    while rest:
        match = _LABEL.match(rest)
        assert match, f"bad label syntax at {rest!r}"
        key = match.group("key")
        i = match.end()
        value = []
        while i < len(rest):
            ch = rest[i]
            if ch == "\\":
                assert i + 1 < len(rest), "dangling escape"
                value.append(rest[i:i + 2])
                i += 2
                continue
            if ch == '"':
                break
            assert ch != "\n", "raw newline inside label value"
            value.append(ch)
            i += 1
        assert i < len(rest) and rest[i] == '"', "unterminated label value"
        labels[key] = _unescape("".join(value))
        rest = rest[i + 1:]
        if rest.startswith(","):
            rest = rest[1:]
        else:
            assert rest == "", f"junk after label value: {rest!r}"
    return labels


def parse_exposition(text: str):
    """Parse exposition text to ``(types, samples)``.

    ``types`` maps metric name -> declared type. ``samples`` is a list of
    ``(name, labels-dict, float-value)``. Raises AssertionError on any
    grammar violation — the conformance check itself.
    """
    types = {}
    samples = []
    assert text == "" or text.endswith("\n"), "must end with a newline"
    # Split on "\n" only: the format is byte-line oriented, and label
    # values may legally contain other Unicode line breaks (e.g. NEL)
    # that str.splitlines() would treat as delimiters.
    for line in text.split("\n"):
        if not line:
            continue
        if line.startswith("#"):
            match = _TYPE.match(line)
            if match:        # other comments are legal and skipped
                assert match.group("name") not in types, "duplicate TYPE"
                types[match.group("name")] = match.group("type")
            continue
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        labels = _parse_labels(match.group("labels") or "")
        value = float(match.group("value"))
        samples.append((match.group("name"), labels, value))
    return types, samples


def base_name(name: str) -> str:
    """Strip summary suffixes so samples map to their TYPE declaration."""
    for suffix in ("_sum", "_count", "_bucket"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def assert_conformant(text: str):
    """Full conformance: parses, typed, NaN-free, no duplicate series."""
    types, samples = parse_exposition(text)
    seen = set()
    for name, labels, value in samples:
        assert math.isfinite(value), f"non-finite sample {name} {value}"
        declared = types.get(name) or types.get(base_name(name))
        assert declared is not None, f"sample {name} has no TYPE"
        series = (name, tuple(sorted(labels.items())))
        assert series not in seen, f"duplicate series {series}"
        seen.add(series)
    return types, samples


class TestExporterConformance:
    def test_basic_render(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", 3)
        registry.set_gauge("queue_depth", 2)
        registry.observe("latency_seconds", 0.5)
        registry.observe("latency_seconds", 1.5)
        types, samples = assert_conformant(registry.to_prometheus())
        assert types["repro_requests_total"] == "counter"
        assert types["repro_queue_depth"] == "gauge"
        assert types["repro_latency_seconds"] == "summary"
        by_name = {(n, tuple(sorted(l.items()))): v for n, l, v in samples}
        assert by_name[("repro_requests_total", ())] == 3
        assert by_name[("repro_latency_seconds_count", ())] == 2
        assert by_name[("repro_latency_seconds_sum", ())] == 2.0
        assert (
            "repro_latency_seconds", (("quantile", "0.5"),)
        ) in by_name

    def test_labels_render_and_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("ops_total", 2, labels={"op": "bfs", "ok": True})
        types, samples = assert_conformant(registry.to_prometheus())
        (sample,) = [s for s in samples if s[0] == "repro_ops_total"]
        assert sample[1] == {"op": "bfs", "ok": "True"}
        assert sample[2] == 2

    def test_escaping_edge_cases(self):
        registry = MetricsRegistry()
        evil = 'quo"te back\\slash new\nline'
        registry.inc("evil_total", labels={"v": evil})
        _, samples = assert_conformant(registry.to_prometheus())
        (sample,) = [s for s in samples if s[0] == "repro_evil_total"]
        # The parser's unescape must recover the original value exactly.
        assert sample[1]["v"] == evil

    def test_metric_name_sanitized(self):
        registry = MetricsRegistry()
        registry.inc("weird-metric.name!")
        types, samples = assert_conformant(registry.to_prometheus())
        assert "repro_weird_metric_name_" in types

    def test_nonfinite_values_skipped(self):
        registry = MetricsRegistry()
        registry.set_gauge("bad", float("nan"))
        registry.set_gauge("worse", float("inf"))
        registry.set_gauge("good", 1.0)
        registry.observe("h", float("nan"))
        text = registry.to_prometheus()
        assert "nan" not in text.lower().replace("# type", "")
        _, samples = assert_conformant(text)
        names = {n for n, _, _ in samples}
        assert "repro_good" in names
        assert "repro_bad" not in names
        assert "repro_worse" not in names

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus() == ""

    label_values = st.text(min_size=0, max_size=30)

    @given(st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True),
        label_values, min_size=0, max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_label_values_roundtrip(self, labels):
        registry = MetricsRegistry()
        registry.inc("fuzz_total", labels=labels)
        _, samples = assert_conformant(registry.to_prometheus())
        (sample,) = [s for s in samples if s[0] == "repro_fuzz_total"]
        assert sample[1] == {k: str(v) for k, v in labels.items()}


@pytest.fixture(scope="module")
def live_server():
    summary = LDME(k=4, iterations=3, seed=1).summarize(
        web_host_graph(num_hosts=4, host_size=8, seed=2)
    )
    config = ServerConfig(
        port=0, metrics_port=0, log_interval=0
    )
    with ServerThread(summary, config) as handle:
        yield handle


class TestServedMetrics:
    def test_metrics_op_returns_conformant_text(self, live_server):
        client = SummaryClient("127.0.0.1", live_server.port)
        try:
            client.neighbors(0)
            text = client.metrics_text()
        finally:
            client.close()
        types, samples = assert_conformant(text)
        names = {n for n, _, _ in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_queue_depth" in names

    def test_http_scrape_endpoint(self, live_server):
        client = SummaryClient("127.0.0.1", live_server.port)
        try:
            client.degree(0)
        finally:
            client.close()
        port = live_server.server.metrics_http_port
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            assert response.status == 200
            content_type = response.headers.get("Content-Type", "")
            assert content_type.startswith("text/plain")
            body = response.read().decode("utf-8")
        types, samples = assert_conformant(body)
        assert any(n == "repro_serve_requests_total" for n, _, _ in samples)

    def test_http_unknown_path_is_404(self, live_server):
        port = live_server.server.metrics_http_port
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/nope", timeout=10
            )
        assert excinfo.value.code == 404

    def test_scrape_includes_latency_summary_after_traffic(
        self, live_server
    ):
        client = SummaryClient("127.0.0.1", live_server.port)
        try:
            for v in range(5):
                client.degree(v)
            text = client.metrics_text()
        finally:
            client.close()
        types, _ = assert_conformant(text)
        assert types.get("repro_serve_request_latency_seconds") == "summary"


class TestServerStageConformance:
    """The queue-vs-execute split: ``stage_seconds{stage=...}`` summary
    rows, zero-registered at construction so they render before the
    first query, then counting enqueue→pop and executor calls."""

    def test_stage_rows_zero_registered(self):
        from repro.serve import SummaryServer

        summary = LDME(k=4, iterations=2, seed=1).summarize(
            web_host_graph(num_hosts=2, host_size=6, seed=2)
        )
        types, samples = assert_conformant(
            SummaryServer(summary).prometheus()
        )
        assert types["repro_serve_stage_seconds"] == "summary"
        counts = {
            s[1]["stage"]: s[2] for s in samples
            if s[0] == "repro_serve_stage_seconds_count"
        }
        assert counts == {"queue": 0, "execute": 0}

    def test_stage_rows_after_traffic(self, live_server):
        client = SummaryClient("127.0.0.1", live_server.port)
        try:
            client.neighbors(1)
            _, samples = assert_conformant(client.metrics_text())
        finally:
            client.close()
        counts = {
            s[1]["stage"]: s[2] for s in samples
            if s[0] == "repro_serve_stage_seconds_count"
        }
        # One queue observation per query, one execute per batch.
        assert counts["queue"] >= counts["execute"] >= 1


class TestShardMetricsConformance:
    """The shard-aware serving metrics render conformantly: per-shard
    generation gauges, the scatter fanout counter, and the
    partial-results counter."""

    @pytest.fixture()
    def sharded_cluster(self, tmp_path):
        from repro.serve import SummaryCluster
        from repro.shard import summarize_sharded

        graph = web_host_graph(num_hosts=5, host_size=8, seed=6)
        result = summarize_sharded(
            graph, shards=2, k=4, iterations=4, seed=0,
            out_dir=str(tmp_path / "m"),
        )
        with SummaryCluster.from_manifest(
            result.manifest, replicas=1,
            config=ServerConfig(),
        ) as cluster:
            yield cluster

    def test_shard_gauges_and_counters_render(self, sharded_cluster):
        from repro.serve.cluster import ClusterHealthChecker

        client = sharded_cluster.client()
        try:
            client.bfs(0)                      # drives scatter fanout
            ClusterHealthChecker(client).probe_all()
            types, samples = assert_conformant(client.prometheus())
            assert types["repro_cluster_shard_generation"] == "gauge"
            assert types["repro_cluster_scatter_fanout_total"] == \
                "counter"
            gens = {
                s[1]["shard"]: s[2] for s in samples
                if s[0] == "repro_cluster_shard_generation"
            }
            assert sorted(gens) == [
                str(s) for s in sharded_cluster.shard_ids
            ]
            assert all(v == 0 for v in gens.values())
            fanout = [s for s in samples
                      if s[0] == "repro_cluster_scatter_fanout_total"]
            assert fanout and fanout[0][2] > 0
        finally:
            client.shutdown()

    def test_partial_results_counter_renders_after_shard_loss(
        self, sharded_cluster
    ):
        # Kill the second shard's only replica, then accept a partial.
        sharded_cluster.kill(1)
        client = sharded_cluster.client(timeout=1.0,
                                        breaker_failures=1)
        try:
            ring = sharded_cluster.ring
            dead = sharded_cluster.shard_ids[1]
            truth = sharded_cluster.shard_index(
                sharded_cluster.shard_ids[0]
            )
            source = next(
                v for v in range(truth.num_nodes)
                if ring.shard_of(v) != dead and any(
                    ring.shard_of(u) == dead
                    for u in truth.bfs_distances(v)
                )
            )
            client.bfs(source, allow_partial=True)
            types, samples = assert_conformant(client.prometheus())
            assert types["repro_cluster_partial_results_total"] == \
                "counter"
            (sample,) = [
                s for s in samples
                if s[0] == "repro_cluster_partial_results_total"
            ]
            assert sample[2] >= 1
        finally:
            client.shutdown()


class TestMigrationMetricsConformance:
    """The elastic re-sharding rows: per-phase ``migration_state``
    gauges, the remapped-vertex gauge, the rollback counter, and the
    cluster ring epoch — all zero-registered at construction so
    dashboards see the series before the first migration ever runs."""

    def test_migration_rows_zero_registered(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry
        from repro.shard import GenerationStore, MigrationCoordinator
        from repro.shard.migrate import MIGRATION_PHASES

        registry = MetricsRegistry()
        MigrationCoordinator(
            GenerationStore(tmp_path / "store"), registry=registry
        )
        types, samples = assert_conformant(registry.to_prometheus())
        assert types["repro_migration_state"] == "gauge"
        assert types["repro_migration_remapped_vertices"] == "gauge"
        assert types["repro_migration_rollback_total"] == "counter"
        assert types["repro_cluster_ring_epoch"] == "gauge"
        states = {
            s[1]["phase"]: s[2] for s in samples
            if s[0] == "repro_migration_state"
        }
        assert sorted(states) == sorted(MIGRATION_PHASES)
        assert all(v == 0 for v in states.values())
        by_name = {n: v for n, l, v in samples if not l}
        assert by_name["repro_migration_remapped_vertices"] == 0
        assert by_name["repro_migration_rollback_total"] == 0
        assert by_name["repro_cluster_ring_epoch"] == 0

    def test_migration_rows_after_a_run(self, tmp_path):
        from repro.graph.generators import web_host_graph as _whg
        from repro.obs.metrics import MetricsRegistry
        from repro.shard import (
            GenerationStore,
            HashRing,
            MigrationCoordinator,
        )

        graph = _whg(num_hosts=3, host_size=8, seed=5)
        store = GenerationStore(tmp_path / "store")
        store.bootstrap(graph, shards=2, iterations=3, seed=0)
        registry = MetricsRegistry()
        report = MigrationCoordinator(
            store, iterations=3, seed=0, registry=registry
        ).migrate(HashRing(3, virtual_nodes=1), graph)
        assert report.committed
        _, samples = assert_conformant(registry.to_prometheus())
        states = {
            s[1]["phase"]: s[2] for s in samples
            if s[0] == "repro_migration_state"
        }
        assert states["done"] == 1
        assert sum(states.values()) == 1     # exactly one active phase
        by_name = {n: v for n, l, v in samples if not l}
        assert by_name["repro_migration_remapped_vertices"] > 0

    def test_ring_epoch_gauge_tracks_client_refresh(self):
        from repro.serve import ClusterClient

        client = ClusterClient([("127.0.0.1", 1)], epoch=2)
        try:
            _, samples = assert_conformant(
                client.metrics.to_prometheus()
            )
            by_name = {n: v for n, l, v in samples if not l}
            assert by_name["repro_cluster_ring_epoch"] == 2
        finally:
            client.shutdown()


class TestIngestMetricsConformance:
    """The crash-safe ingest service's exposition: lag/segment gauges
    plus applied/replayed counters, refreshed at scrape time."""

    def run_ingest(self, tmp_path, events, **kwargs):
        from repro.ingest import IngestService

        service, report = IngestService.open(
            tmp_path / "wal", num_nodes=16, fsync=False, **kwargs
        )
        with service:
            for op, u, v in events:
                service.submit(op, u, v)
            assert service.drain(10)
            text = service.prometheus()
        return service, report, text

    def test_ingest_rows_render_conformantly(self, tmp_path):
        events = [("+", u, u + 1) for u in range(12)] + [("-", 3, 4)]
        service, _, text = self.run_ingest(tmp_path, events)
        types, samples = assert_conformant(text)
        assert types["repro_ingest_lag_events"] == "gauge"
        assert types["repro_ingest_applied_total"] == "counter"
        assert types["repro_ingest_replayed_total"] == "counter"
        assert types["repro_wal_segments_active"] == "gauge"
        by_name = {n: v for n, _, v in samples}
        assert by_name["repro_ingest_applied_total"] == len(events)
        assert by_name["repro_ingest_replayed_total"] == 0
        assert by_name["repro_ingest_lag_events"] == 0
        assert by_name["repro_wal_segments_active"] >= 1
        assert by_name["repro_ingest_last_seq"] == len(events)

    def test_replayed_counter_counts_recovery(self, tmp_path):
        from repro.ingest import IngestService

        events = [("+", u, u + 1) for u in range(9)]
        first, _ = IngestService.open(
            tmp_path / "wal", num_nodes=16, fsync=False
        )
        first.start()
        for op, u, v in events:
            first.submit(op, u, v)
        assert first.drain(10)
        # No checkpoint gets written (snapshot_every=0 and the final
        # snapshot is skipped), so reopening replays the whole WAL.
        first.stop(snapshot=False)

        service, report = IngestService.open(
            tmp_path / "wal", num_nodes=16, fsync=False
        )
        try:
            assert report.replayed == len(events)
            _, samples = assert_conformant(service.prometheus())
            by_name = {n: v for n, _, v in samples}
            assert by_name["repro_ingest_replayed_total"] == len(events)
            assert by_name["repro_ingest_last_seq"] == len(events)
        finally:
            service.stop(snapshot=False)
