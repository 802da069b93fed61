"""Integration tests for the replicated serving layer.

Every test runs real servers on ephemeral ports (no mocked transports):
a :class:`SummaryCluster` of ``ServerThread`` replicas queried through
:class:`ClusterClient`. Chaos-at-scale lives in
``test_cluster_chaos.py``; these tests pin each mechanism — failover,
breakers, health checks, hedging, deadline propagation, degraded/stale
serving, rolling swap + rollback — in isolation.
"""

import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.binaryio import write_summary_binary
from repro.core.ldme import LDME
from repro.queries.compiled import CompiledSummaryIndex
from repro.resilience import flip_bit
from repro.serve import (
    BreakerOpenError,
    ClusterClient,
    ServerConfig,
    ServerError,
    ServerThread,
    SummaryClient,
    SummaryCluster,
)
from repro.serve.protocol import ErrorCode, recv_frame, send_frame


@pytest.fixture(scope="module")
def summary():
    from repro.graph.generators import web_host_graph

    graph = web_host_graph(num_hosts=6, host_size=12, seed=42)
    return LDME(k=5, iterations=8, seed=0).summarize(graph)


@pytest.fixture(scope="module")
def truth(summary):
    return CompiledSummaryIndex(summary)


@pytest.fixture
def cluster(summary):
    with SummaryCluster(
        summary,
        replicas=3,
        config=ServerConfig(degraded_enabled=True),
    ) as cluster:
        yield cluster


def expected_neighbors(truth, v):
    return [int(x) for x in
            truth.neighbors_batch(np.asarray([v], dtype=np.int64))[0]]


class SilentServer:
    """Accepts connections, reads forever, never answers — a stalled
    replica for hedging tests."""

    def __init__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(10.0)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._conns = []
        self._thread = threading.Thread(target=self._serve, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._listener.close()
        for conn in self._conns:
            conn.close()
        self._thread.join(timeout=5)

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self._conns.append(conn)


class TestClusterBasics:
    def test_all_replicas_answer_and_agree(self, cluster, truth):
        client = cluster.client()
        try:
            for handle_port in [p for _, p in cluster.addresses]:
                direct = SummaryClient("127.0.0.1", handle_port)
                try:
                    assert direct.neighbors(0) == expected_neighbors(
                        truth, 0
                    )
                finally:
                    direct.close()
            assert client.degree(5) == len(expected_neighbors(truth, 5))
            assert client.ping()["pong"] is True
        finally:
            client.shutdown()

    def test_ping_health_fields(self, cluster):
        client = cluster.client()
        try:
            health = client.ping()
            assert health["generation"] == 0
            assert health["queue_depth"] == 0
            assert health["draining"] is False
            assert "degraded" in health and "pending" in health
        finally:
            client.shutdown()

    def test_requires_at_least_one_replica(self, summary):
        with pytest.raises(ValueError):
            SummaryCluster(summary, replicas=0)
        with pytest.raises(ValueError):
            ClusterClient([])

    def test_rng_seeds_the_round_robin_offset(self, cluster):
        """A fleet of fresh clients must not stampede replica 0: the
        starting round-robin offset is drawn from the injectable RNG,
        and over many seeds every replica is somebody's first choice,
        roughly uniformly."""
        import collections

        firsts = collections.Counter()
        for seed in range(60):
            client = ClusterClient(
                cluster.addresses, rng=random.Random(seed)
            )
            firsts[client._ordered()[0]] += 1
            client.shutdown()
        assert sorted(firsts) == [0, 1, 2]   # every replica chosen
        # No replica dominates: with 60 draws over 3 replicas a fair
        # split is 20 each; allow generous slack, forbid stampedes.
        assert max(firsts.values()) <= 40
        # Determinism: the same seed always picks the same offset.
        a = ClusterClient(cluster.addresses, rng=random.Random(7))
        b = ClusterClient(cluster.addresses, rng=random.Random(7))
        try:
            assert a._ordered() == b._ordered()
        finally:
            a.shutdown()
            b.shutdown()

    def test_round_robin_spreads_first_attempts(self, cluster):
        client = cluster.client()
        try:
            for _ in range(6):
                client.degree(0)
            stats_hits = [
                SummaryClient("127.0.0.1", port)
                for _, port in cluster.addresses
            ]
            try:
                served = [
                    s.stats()["metrics"]["counters"].get(
                        "queries_degree_total", 0
                    )
                    for s in stats_hits
                ]
            finally:
                for s in stats_hits:
                    s.close()
            # Every replica saw traffic (cache hits still count queries).
            assert all(count >= 1 for count in served)
        finally:
            client.shutdown()


class TestFailover:
    def test_killed_replica_fails_over_with_zero_wrong_answers(
        self, cluster, truth
    ):
        client = cluster.client(timeout=2.0, breaker_recovery=60.0)
        try:
            cluster.kill(1)
            for v in range(30):
                assert client.neighbors(v) == expected_neighbors(truth, v)
            states = client.breaker_states()
            killed = f"127.0.0.1:{cluster.addresses[1][1]}"
            assert states[killed] == "open"
            assert [s for a, s in states.items() if a != killed] == \
                ["closed", "closed"]
        finally:
            client.shutdown()

    def test_breaker_skips_dead_replica_without_reconnecting(
        self, cluster
    ):
        client = cluster.client(timeout=2.0, breaker_recovery=60.0)
        try:
            cluster.kill(2)
            for _ in range(10):
                client.degree(0)
            dead = f"127.0.0.1:{cluster.addresses[2][1]}"
            failures = client.breakers[2].failures_total
            # Breaker open: later calls never touch the dead replica.
            assert client.breaker_states()[dead] == "open"
            for _ in range(10):
                client.degree(0)
            assert client.breakers[2].failures_total == failures
        finally:
            client.shutdown()

    def test_all_replicas_dead_raises_after_breakers_trip(
        self, summary
    ):
        cluster = SummaryCluster(summary, replicas=2).start()
        client = cluster.client(
            timeout=1.0, breaker_failures=1, breaker_recovery=60.0,
        )
        try:
            cluster.kill(0)
            cluster.kill(1)
            with pytest.raises(ConnectionError):
                client.degree(0)
            with pytest.raises(BreakerOpenError):
                client.degree(0)
        finally:
            client.shutdown()
            cluster.stop()

    def test_restart_and_health_checks_close_the_breaker(
        self, cluster, truth
    ):
        client = cluster.client(timeout=2.0, breaker_recovery=0.2)
        try:
            cluster.kill(0)
            for v in range(10):
                client.neighbors(v)
            addr = f"127.0.0.1:{cluster.addresses[0][1]}"
            assert client.breaker_states()[addr] == "open"
            cluster.restart(0)
            checker = client.start_health_checks(
                interval=0.05, probe_timeout=1.0
            )
            deadline = time.time() + 10
            while time.time() < deadline:
                if client.breaker_states()[addr] == "closed":
                    break
                time.sleep(0.02)
            assert client.breaker_states()[addr] == "closed"
            assert checker.probes_total >= 1
            assert checker.last_health[addr]["pong"] is True
            for v in range(10):
                assert client.neighbors(v) == expected_neighbors(truth, v)
        finally:
            client.shutdown()

    def test_retry_budget_bounds_failover_storms(self, summary):
        from repro.serve.breaker import RetryBudget

        cluster = SummaryCluster(summary, replicas=2).start()
        budget = RetryBudget(ratio=0.0, max_tokens=4.0, initial=2.0)
        client = cluster.client(
            timeout=1.0, retry_budget=budget, breaker_failures=100,
        )
        try:
            cluster.kill(0)
            cluster.kill(1)
            failures = 0
            for _ in range(10):
                try:
                    client.degree(0)
                except ConnectionError:
                    failures += 1
            assert failures == 10
            # ratio=0 means only the 2 initial tokens fund failovers:
            # at most 2 of the 10 requests got a second attempt.
            assert budget.spent_total == 2
            assert budget.denied_total == 8
            assert client.metrics.counter(
                "cluster_retry_budget_exhausted_total"
            ) == 8
        finally:
            client.shutdown()
            cluster.stop()


class TestHedging:
    def test_hedge_fires_on_stalled_primary_and_wins(self, summary,
                                                     truth):
        with ServerThread(summary) as real, SilentServer() as silent:
            # Pin the round-robin offset to 0 so the first attempt is
            # guaranteed to hit the silent primary and the hedge must
            # fire (seed 1 draws offset 0 over two replicas).
            client = ClusterClient(
                [("127.0.0.1", silent.port), ("127.0.0.1", real.port)],
                timeout=30.0,
                hedge_delay=0.05,
                rng=random.Random(1),
            )
            try:
                tic = time.perf_counter()
                result = client.neighbors(0)
                elapsed = time.perf_counter() - tic
                assert result == expected_neighbors(truth, 0)
                # Far faster than the 30s socket timeout on the primary.
                assert elapsed < 5.0
                assert client.metrics.counter(
                    "cluster_hedges_total", labels={"op": "neighbors"}
                ) == 1
            finally:
                client.shutdown()

    def test_fast_primary_never_hedges(self, cluster, truth):
        client = cluster.client(hedge_delay=5.0)
        try:
            for v in range(10):
                assert client.neighbors(v) == expected_neighbors(truth, v)
            assert client.metrics.counter(
                "cluster_hedges_total", labels={"op": "neighbors"}
            ) == 0
        finally:
            client.shutdown()

    def test_control_ops_are_never_hedged(self, cluster):
        client = cluster.client(hedge_delay=0.0)
        try:
            client.ping()
            client.stats()
            assert client.metrics.counter(
                "cluster_hedges_total", labels={"op": "ping"}
            ) == 0
        finally:
            client.shutdown()


class TestDeadlinePropagation:
    def test_expired_deadline_fails_locally_without_a_wire_call(
        self, cluster
    ):
        client = cluster.client()
        try:
            with pytest.raises(ServerError) as excinfo:
                client.call("degree", {"v": 0}, deadline=-1.0)
            assert excinfo.value.code == ErrorCode.DEADLINE_EXCEEDED
            assert client.metrics.counter(
                "cluster_deadline_exceeded_total"
            ) == 1
            # No attempt was ever made: no breaker saw an outcome.
            assert all(
                b.failures_total == 0 and b.successes_total == 0
                for b in client.breakers
            )
        finally:
            client.shutdown()

    def test_queued_past_deadline_rejected_never_executed(
        self, summary, batch_hold
    ):
        """A request whose deadline expires in the server queue is
        answered ``deadline_exceeded`` at queue-pop and never reaches the
        index — proven by the server's own counters."""
        config = ServerConfig(degraded_enabled=False)
        with ServerThread(summary, config) as handle, batch_hold:
            batch_hold.occupy(handle.port)
            client = SummaryClient("127.0.0.1", handle.port, retries=0)
            try:
                with pytest.raises(ServerError) as excinfo:
                    # 5ms budget behind a held batch: expires queued.
                    client.call("neighbors", {"v": 0}, deadline_ms=5)
                assert excinfo.value.code == ErrorCode.DEADLINE_EXCEEDED
                metrics = handle.server.metrics
                # The batcher discards the expired item once the held
                # batch finishes (after the client already has its error).
                batch_hold.release()
                until = time.time() + 5
                while (metrics.counter("deadline_expired_total") < 1
                       and time.time() < until):
                    time.sleep(0.01)
                assert metrics.counter("deadline_expired_total") == 1
                # The query never executed against the index.
                assert metrics.counter("queries_neighbors_total") == 0
                # A successor with no deadline executes normally.
                assert client.neighbors(0) is not None
                assert metrics.counter("queries_neighbors_total") == 1
            finally:
                client.close()

    def test_deadline_exceeded_is_not_retried_and_not_a_breaker_failure(
        self, summary, batch_hold
    ):
        with ServerThread(summary, ServerConfig()) as handle, batch_hold:
            batch_hold.occupy(handle.port)
            client = ClusterClient([("127.0.0.1", handle.port)])
            try:
                with pytest.raises(ServerError):
                    client.degree(0, deadline=0.005)
                # The replica answered (with a typed error): healthy.
                assert client.breakers[0].state == "closed"
                assert client.breakers[0].failures_total == 0
            finally:
                client.shutdown()

    def test_generous_deadline_succeeds_end_to_end(self, cluster, truth):
        client = cluster.client(deadline=30.0)
        try:
            assert client.neighbors(3) == expected_neighbors(truth, 3)
        finally:
            client.shutdown()


class TestLoadShedding:
    def test_best_effort_queries_shed_before_normal_ones(
        self, summary, batch_hold
    ):
        config = ServerConfig(max_pending=2, shed_fraction=0.5)
        with ServerThread(summary, config) as handle, batch_hold:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=10.0
            ) as sock:
                # Request 1 is held in the batch executor (pending=1,
                # at the shed threshold of 1)...
                send_frame(sock, {"id": 1, "op": "degree",
                                  "args": {"v": 0}})
                assert batch_hold.entered.wait(timeout=10)
                # ...so a best-effort request is shed immediately...
                send_frame(sock, {"id": 2, "op": "degree",
                                  "args": {"v": 0}, "priority": 2})
                # ...while a normal-priority one is admitted.
                send_frame(sock, {"id": 3, "op": "degree",
                                  "args": {"v": 0}})
                responses = {}
                while len(responses) < 3:
                    frame = recv_frame(sock)
                    responses[frame["id"]] = frame
                    # The first reply is the shed one: let 1 and 3 run.
                    batch_hold.release()
            assert responses[1]["ok"]
            assert responses[3]["ok"]
            assert not responses[2]["ok"]
            assert responses[2]["error"]["code"] == ErrorCode.OVERLOADED
            assert handle.server.metrics.counter(
                "shed_total", labels={"priority": 2}
            ) == 1

    def test_critical_priority_never_shed_by_the_shed_threshold(
        self, summary, batch_hold
    ):
        config = ServerConfig(max_pending=10, shed_fraction=0.1)
        with ServerThread(summary, config) as handle, batch_hold:
            batch_hold.occupy(handle.port)     # pending=1: at threshold
            client = SummaryClient("127.0.0.1", handle.port, retries=0)
            batch_hold.release_after(0.1)
            try:
                # priority 0 sails through even with shed threshold 1.
                assert client.call("degree", {"v": 0}, priority=0) >= 0
            finally:
                client.close()


class TestDegradedMode:
    def test_degraded_replica_serves_stale_flagged_answers(
        self, summary, truth
    ):
        config = ServerConfig(degraded_enabled=True)
        with ServerThread(summary, config) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            try:
                fresh = client.neighbors(4)       # warm the cache
                handle.server.swap(CompiledSummaryIndex(summary))
                handle.server.set_degraded(True)
                again = client.neighbors(4)
                assert again == fresh == expected_neighbors(truth, 4)
                assert client.stale_served == 1
                assert handle.server.metrics.counter(
                    "stale_served_total"
                ) == 1
                handle.server.set_degraded(False)
                client.neighbors(4)
                assert client.stale_served == 1   # back to live answers
            finally:
                client.close()

    def test_degraded_miss_falls_through_to_live_execution(
        self, summary, truth
    ):
        config = ServerConfig(degraded_enabled=True)
        with ServerThread(summary, config) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            try:
                handle.server.set_degraded(True)
                # Nothing cached: the query executes against the index.
                assert client.neighbors(7) == expected_neighbors(truth, 7)
                assert client.stale_served == 0
            finally:
                client.close()

    def test_stale_answers_during_rolling_swap_with_drain(
        self, cluster, truth
    ):
        client = cluster.client(timeout=5.0)
        try:
            hot = list(range(8))
            for v in hot:                 # warm every replica's cache
                for _ in range(3):
                    client.neighbors(v)
            stop = threading.Event()
            wrong = []

            def query_during_swap():
                while not stop.is_set():
                    for v in hot:
                        got = client.neighbors(v)
                        if got != expected_neighbors(truth, v):
                            wrong.append((v, got))

            worker = threading.Thread(target=query_during_swap)
            worker.start()
            try:
                report = cluster.rolling_swap(truth, drain_seconds=0.15)
            finally:
                stop.set()
                worker.join(timeout=10)
            assert report.ok
            assert report.generations == [1, 1, 1]
            assert wrong == []
            # Degraded replicas served flagged stale answers mid-swap,
            # and every one of them was still correct.
            assert client.stale_served > 0
        finally:
            client.shutdown()


class TestRollingSwapAndRollback:
    def test_swap_advances_every_generation(self, cluster, truth):
        report = cluster.rolling_swap(truth)
        assert report.ok and not report.rolled_back
        assert report.swapped == [0, 1, 2]
        assert cluster.generations() == [1, 1, 1]

    def test_corrupt_file_rejected_before_any_replica_is_touched(
        self, cluster, summary, truth, tmp_path
    ):
        path = tmp_path / "next.ldmeb"
        write_summary_binary(summary, path)
        flip_bit(path)
        report = cluster.rolling_swap(str(path))
        assert not report.ok
        assert not report.rolled_back          # nothing was ever swapped
        assert "load failed" in report.error
        assert cluster.generations() == [0, 0, 0]
        client = cluster.client()
        try:
            assert client.neighbors(2) == expected_neighbors(truth, 2)
        finally:
            client.shutdown()

    def test_healthy_file_swap_succeeds(self, cluster, summary,
                                        tmp_path):
        path = tmp_path / "next.ldmeb"
        write_summary_binary(summary, path)
        report = cluster.rolling_swap(str(path))
        assert report.ok
        assert cluster.generations() == [1, 1, 1]

    def test_failed_verification_rolls_every_replica_back(
        self, cluster, truth
    ):
        calls = []

        def verify(i, handle):
            calls.append(i)
            return i < 2                   # replica 2 "fails" post-swap

        report = cluster.rolling_swap(truth, verify=verify)
        assert not report.ok
        assert report.rolled_back
        assert calls == [0, 1, 2]
        # Replicas 0 and 1 swapped (gen 1) then rolled back (gen 2);
        # what matters: all replicas serve the same index again and
        # none is left degraded.
        client = cluster.client()
        try:
            for v in range(10):
                assert client.neighbors(v) == expected_neighbors(truth, v)
            assert all(not cluster.handle(i).server.degraded
                       for i in range(3))
        finally:
            client.shutdown()

    def test_explicit_rollback_restores_previous_index(self, cluster,
                                                       truth):
        assert cluster.rolling_swap(truth).ok
        report = cluster.rollback()
        assert report.ok
        client = cluster.client()
        try:
            assert client.neighbors(1) == expected_neighbors(truth, 1)
        finally:
            client.shutdown()

    def test_rollback_without_a_swap_reports_failure(self, cluster):
        report = cluster.rollback()
        assert not report.ok
        assert "nothing to roll back" in report.error

    def test_killed_replica_is_skipped_and_catches_up_on_restart(
        self, cluster, truth
    ):
        cluster.kill(1)
        report = cluster.rolling_swap(truth)
        assert report.ok
        assert report.swapped == [0, 2]
        cluster.restart(1)
        # The restarted replica starts on the swapped index.
        direct = SummaryClient("127.0.0.1", cluster.addresses[1][1])
        try:
            assert direct.neighbors(0) == expected_neighbors(truth, 0)
        finally:
            direct.close()


class TestServerThreadLifecycle:
    def test_stop_returns_definitively_after_kill(self, summary):
        handle = ServerThread(summary).start()
        handle.kill()
        # stop() after kill must return (not hang, not raise).
        handle.stop(timeout=5.0)
        assert not handle._thread.is_alive()

    def test_kill_resets_client_connections(self, summary):
        handle = ServerThread(summary).start()
        client = SummaryClient("127.0.0.1", handle.port, timeout=1.0,
                               retries=0)
        try:
            client.ping()
            handle.kill()
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
        finally:
            client.close()

    def test_metrics_http_port_surfaces_on_the_thread_handle(
        self, summary
    ):
        config = ServerConfig(metrics_port=0)
        with ServerThread(summary, config) as handle:
            assert handle.metrics_http_port > 0

    def test_stop_is_idempotent(self, summary):
        handle = ServerThread(summary).start()
        handle.stop()
        handle.stop()                       # second stop is a no-op
