"""End-to-end tests for the query server.

Every test stands up a real asyncio server on an ephemeral port (via
``ServerThread``) and talks to it through the blocking client or a raw
socket — no mocked transports.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.core.ldme import LDME
from repro.queries import SummaryIndex
from repro.serve import (
    ServerConfig,
    ServerError,
    ServerThread,
    SummaryClient,
    SummaryServer,
)
from repro.serve.protocol import ErrorCode, recv_frame, send_frame
from repro.streaming import DynamicSummarizer


@pytest.fixture(scope="module")
def summary():
    from repro.graph.generators import web_host_graph

    graph = web_host_graph(num_hosts=6, host_size=12, seed=42)
    return LDME(k=5, iterations=8, seed=0).summarize(graph)


@pytest.fixture(scope="module")
def truth(summary):
    return SummaryIndex(summary)


@pytest.fixture
def handle(summary):
    with ServerThread(summary, ServerConfig()) as handle:
        yield handle


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0},
        {"max_pending": 0},
        {"request_timeout": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_port_requires_start(self, summary):
        with pytest.raises(RuntimeError):
            SummaryServer(summary).port


class TestEndToEnd:
    def test_500_mixed_queries_concurrent_clients_match_truth(
        self, handle, truth
    ):
        """≥500 mixed queries from 4 concurrent clients, all verified."""
        num_nodes = truth.num_nodes
        mismatches = []
        errors = []

        def worker(worker_id):
            rng = np.random.default_rng(worker_id)
            client = SummaryClient("127.0.0.1", handle.port)
            try:
                for i in range(150):
                    op = ("neighbors", "degree", "has_edge",
                          "bfs")[int(rng.integers(4)) if i % 10 == 0 else
                                 int(rng.integers(3))]
                    v = int(rng.integers(num_nodes))
                    if op == "neighbors":
                        got, want = client.neighbors(v), truth.neighbors(v)
                    elif op == "degree":
                        got, want = client.degree(v), truth.degree(v)
                    elif op == "has_edge":
                        u = int(rng.integers(num_nodes))
                        got, want = client.has_edge(u, v), \
                            truth.has_edge(u, v)
                    else:
                        got, want = client.bfs(v), truth.bfs_distances(v)
                    if got != want:
                        mismatches.append((op, v, got, want))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert not mismatches
        stats = SummaryClient("127.0.0.1", handle.port).stats()
        assert stats["metrics"]["counters"]["requests_total"] >= 600

    def test_pipelining_coalesces_into_batches(self, handle, truth):
        client = SummaryClient("127.0.0.1", handle.port)
        nodes = list(range(truth.num_nodes)) * 2
        got = client.neighbors_many(nodes)
        assert got == [truth.neighbors(v) for v in nodes]
        stats = client.stats()
        batch_hist = stats["metrics"]["histograms"]["batch_size"]
        assert batch_hist["max"] > 1          # coalescing actually happened
        assert stats["metrics"]["counters"]["batches_total"] < len(nodes)
        client.close()

    def test_cache_hit_rate_positive_and_reported(self, handle, truth):
        client = SummaryClient("127.0.0.1", handle.port)
        for _ in range(3):
            for v in (0, 1, 2, 3):
                assert client.neighbors(v) == truth.neighbors(v)
        stats = client.stats()
        assert stats["cache"]["hits"] > 0
        assert stats["cache"]["hit_rate"] > 0
        assert stats["metrics"]["gauges"]["cache_hit_rate"] > 0
        client.close()

    def test_out_of_range_is_typed_error(self, handle, truth):
        client = SummaryClient("127.0.0.1", handle.port, retries=0)
        with pytest.raises(ServerError) as excinfo:
            client.neighbors(truth.num_nodes + 5)
        assert excinfo.value.code == ErrorCode.OUT_OF_RANGE
        assert not excinfo.value.retryable
        client.close()

    def test_ping_and_stats_shape(self, handle):
        client = SummaryClient("127.0.0.1", handle.port)
        assert client.ping()
        stats = client.stats()
        for key in ("num_nodes", "generation", "draining", "pending",
                    "connections", "cache", "metrics"):
            assert key in stats
        client.close()


class TestQueueDrivenBatching:
    def test_lone_request_runs_at_once_as_batch_of_one(self, handle, truth):
        client = SummaryClient("127.0.0.1", handle.port)
        assert client.neighbors(3) == truth.neighbors(3)
        client.close()
        metrics = handle.server.metrics
        assert metrics.counter("batches_total") == 1
        sizes = metrics.histogram("batch_size")
        assert (sizes.count, sizes.total) == (1, 1)
        for stage in ("queue", "execute"):
            assert metrics.histogram(
                "stage_seconds", labels={"stage": stage}
            ).count == 1

    def test_queue_drains_in_batches_capped_by_max_batch(
        self, summary, truth, batch_hold
    ):
        max_batch, n = 8, 13
        config = ServerConfig(max_batch=max_batch)
        with ServerThread(summary, config) as handle, batch_hold:
            batch_hold.occupy(handle.port)          # batch 1, held
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10.0
            ) as sock:
                for v in range(n):
                    send_frame(sock, {"id": v, "op": "degree",
                                      "args": {"v": v}})
                batch_hold.wait_pending(handle.server, n + 1)
                assert handle.server.health()["queue_depth"] == n
                batch_hold.release()
                answers = {}
                while len(answers) < n:
                    frame = recv_frame(sock)
                    answers[frame["id"]] = frame["result"]
            assert answers == {v: truth.degree(v) for v in range(n)}
            metrics = handle.server.metrics
            assert metrics.counter("batches_total") == 3
            sizes = metrics.histogram("batch_size")
            assert sizes.count == 3
            assert [sizes.percentile(q) for q in (0, 50, 100)] == \
                [1, n - max_batch, max_batch]


class TestRobustness:
    def test_backpressure_rejects_with_overloaded(self, summary,
                                                  batch_hold):
        config = ServerConfig(max_pending=1)
        with ServerThread(summary, config) as handle, batch_hold:
            batch_hold.occupy(handle.port)     # the one pending slot
            client = SummaryClient("127.0.0.1", handle.port, retries=0)
            with pytest.raises(ServerError) as excinfo:
                client.neighbors_many(range(16))
            assert excinfo.value.code == ErrorCode.OVERLOADED
            assert excinfo.value.retryable
            client.close()

    def test_request_timeout_is_typed_error(self, summary, batch_hold):
        config = ServerConfig(request_timeout=0.05)
        with ServerThread(summary, config) as handle, batch_hold:
            client = SummaryClient("127.0.0.1", handle.port, retries=0)
            with pytest.raises(ServerError) as excinfo:
                client.neighbors(0)
            assert excinfo.value.code == ErrorCode.TIMEOUT
            client.close()

    def test_bad_op_gets_bad_request_not_disconnect(self, handle, truth):
        with socket.create_connection(("127.0.0.1", handle.port)) as sock:
            send_frame(sock, {"id": 1, "op": "frobnicate"})
            response = recv_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == ErrorCode.BAD_REQUEST
            # connection survives: a valid request still works
            send_frame(sock, {"id": 2, "op": "degree", "args": {"v": 0}})
            response = recv_frame(sock)
            assert response == {"id": 2, "ok": True,
                                "result": truth.degree(0)}

    def test_garbage_framing_answered_then_closed(self, handle):
        with socket.create_connection(("127.0.0.1", handle.port)) as sock:
            sock.sendall(b"\x00\x00\x00\x05notjs")
            response = recv_frame(sock)
            assert response["error"]["code"] == ErrorCode.BAD_REQUEST
            assert recv_frame(sock) is None   # server hung up

    def test_oversize_frame_rejected(self, summary):
        config = ServerConfig(max_frame_bytes=64)
        with ServerThread(summary, config) as handle:
            with socket.create_connection(
                ("127.0.0.1", handle.port)
            ) as sock:
                sock.sendall(b"\x00\x01\x00\x00")  # 64KiB length prefix
                response = recv_frame(sock)
                assert response["error"]["code"] == ErrorCode.BAD_REQUEST

    def test_client_retries_transport_faults(self, summary):
        # Nothing listening on this port: exhausting retries raises
        # ConnectionError and counts the backoff sleeps taken.
        client = SummaryClient("127.0.0.1", 1, retries=2, backoff=0.001)
        with pytest.raises(ConnectionError):
            client.ping()
        assert client.retries_used == 2

    def test_graceful_shutdown_drains_inflight(self, summary, truth,
                                               batch_hold):
        config = ServerConfig(max_batch=8)
        handle = ServerThread(summary, config).start()
        results = {}

        def pipeline():
            client = SummaryClient("127.0.0.1", handle.port)
            results["got"] = client.neighbors_many(range(40))
            client.close()

        thread = threading.Thread(target=pipeline)
        thread.start()
        # Hold the first batch until all 40 requests are admitted, so
        # the stop below finds work both executing and queued.
        batch_hold.wait_pending(handle.server, 40)
        batch_hold.release_after(0.05)
        handle.stop()             # must drain, not drop
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert results["got"] == [truth.neighbors(v) for v in range(40)]
        # and the listener is really gone
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", handle.port),
                                     timeout=0.5)


class TestHotSwap:
    def test_dynamic_snapshot_swap_serves_updated_graph(self, handle):
        """Stream → snapshot → swap; served answers track the new graph
        on the same connection (satellite: DynamicSummarizer coverage)."""
        ds = DynamicSummarizer(num_nodes=30, seed=0)
        rng = np.random.default_rng(1)
        for _ in range(120):
            u, v = rng.integers(30, size=2)
            if u != v:
                ds.insert(int(u), int(v))
        client = SummaryClient("127.0.0.1", handle.port)
        base_generation = client.stats()["generation"]

        generation = handle.server.swap(ds.snapshot())
        assert generation == base_generation + 1
        truth1 = SummaryIndex(ds.snapshot())
        for v in range(0, 30, 5):
            assert client.neighbors(v) == truth1.neighbors(v)

        # more stream churn, second swap, same connection still live
        for _ in range(80):
            u, v = rng.integers(30, size=2)
            if u != v:
                if rng.random() < 0.3:
                    ds.delete(int(u), int(v))
                else:
                    ds.insert(int(u), int(v))
        handle.server.swap(ds.snapshot_compiled())
        truth2 = SummaryIndex(ds.snapshot())
        for v in range(30):
            assert client.neighbors(v) == truth2.neighbors(v)
            assert client.degree(v) == truth2.degree(v)
        assert client.bfs(0) == truth2.bfs_distances(0)
        assert client.stats()["generation"] == base_generation + 2
        client.close()

    def test_swap_invalidates_cache(self, summary):
        with ServerThread(summary, ServerConfig()) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            client.neighbors(0)
            client.neighbors(0)
            assert client.stats()["cache"]["hits"] > 0
            handle.server.swap(summary)
            assert client.stats()["cache"]["entries"] == 0
            assert client.stats()["cache"]["generation"] == 1
            client.close()

    def test_reload_forbidden_by_default(self, handle, tmp_path):
        client = SummaryClient("127.0.0.1", handle.port, retries=0)
        with pytest.raises(ServerError) as excinfo:
            client.reload(str(tmp_path / "whatever.ldmeb"))
        assert excinfo.value.code == ErrorCode.FORBIDDEN
        client.close()

    def test_reload_op_hot_swaps_from_file(self, summary, tmp_path):
        from repro.binaryio import write_summary_binary
        from repro.graph.generators import web_host_graph

        graph2 = web_host_graph(num_hosts=3, host_size=9, seed=7)
        summary2 = LDME(k=5, iterations=6, seed=0).summarize(graph2)
        path = tmp_path / "next.ldmeb"
        write_summary_binary(summary2, path)

        config = ServerConfig(allow_reload=True)
        with ServerThread(summary, config) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            result = client.reload(str(path))
            assert result["generation"] == 1
            assert result["num_nodes"] == summary2.num_nodes
            truth2 = SummaryIndex(summary2)
            assert client.neighbors(0) == truth2.neighbors(0)
            # bad path is a typed bad_request, not a crash
            with pytest.raises(ServerError) as excinfo:
                client.reload(str(tmp_path / "missing.ldmeb"))
            assert excinfo.value.code == ErrorCode.BAD_REQUEST
            client.close()
