"""Shard-aware serving: routing, scatter-gather, shard-at-a-time swap.

A real 2-shards x 2-replicas cluster is built from a manifest produced
by the sharded summarization driver; every answer is checked against
the stitched global index. The partial-result contract is pinned here:
losing a shard turns multi-shard ops into typed errors (or explicit
:class:`PartialResult` envelopes), never silently short answers.
"""

import pytest

from repro.core.ldme import LDME
from repro.graph.generators import web_host_graph
from repro.queries.compiled import CompiledSummaryIndex
from repro.serve import (
    ClusterClient,
    PartialResult,
    PartialResultError,
    ServerConfig,
    SummaryCluster,
)
from repro.shard import HashRing, save_sharded, summarize_sharded


@pytest.fixture(scope="module")
def graph():
    return web_host_graph(num_hosts=6, host_size=12, seed=42)


@pytest.fixture(scope="module")
def run(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("manifest") / "current"
    result = summarize_sharded(
        graph, shards=2, k=5, iterations=6, seed=0, out_dir=str(out)
    )
    assert result.report.ok
    return result


@pytest.fixture(scope="module")
def truth(run):
    return CompiledSummaryIndex(run.summary)


@pytest.fixture
def cluster(run):
    with SummaryCluster.from_manifest(
        run.manifest, replicas=2,
        config=ServerConfig(degraded_enabled=True),
    ) as cluster:
        yield cluster


def shard_replica_indices(cluster, sid):
    """Flat replica indices serving one shard (shard-major layout)."""
    pos = cluster.shard_ids.index(sid)
    k = cluster.replicas_per_shard
    return list(range(pos * k, pos * k + k))


class TestTopology:
    def test_shards_times_replicas(self, cluster):
        assert cluster.num_shards == 2
        assert cluster.replicas_per_shard == 2
        assert cluster.num_replicas == 4
        assert sorted(cluster.shard_addresses) == cluster.shard_ids
        for addrs in cluster.shard_addresses.values():
            assert len(addrs) == 2

    def test_client_inherits_ring_and_topology(self, cluster):
        client = cluster.client()
        try:
            assert client.shard_ids == cluster.shard_ids
            assert len(client.replicas) == 4
            status = client.status()
            assert sorted(status["shards"]) == cluster.shard_ids
            for i in shard_replica_indices(cluster, cluster.shard_ids[0]):
                assert client.shard_of_replica(i) == cluster.shard_ids[0]
        finally:
            client.shutdown()

    def test_constructor_validation(self, run):
        summaries = {0: run.summaries[0]}
        with pytest.raises(ValueError, match="exactly one"):
            SummaryCluster()
        with pytest.raises(ValueError, match="needs its HashRing"):
            SummaryCluster(shards=summaries)
        with pytest.raises(ValueError, match="ring shards"):
            SummaryCluster(shards=summaries, ring=HashRing(3))

    def test_client_constructor_validation(self, cluster):
        addrs = cluster.shard_addresses
        with pytest.raises(ValueError, match="not both"):
            ClusterClient(cluster.addresses, shards=addrs,
                          ring=cluster.ring)
        with pytest.raises(ValueError, match="needs a HashRing"):
            ClusterClient(shards=addrs)
        with pytest.raises(ValueError, match="per-shard addresses"):
            ClusterClient(cluster.addresses, ring=cluster.ring)
        with pytest.raises(ValueError, match="ring shards"):
            ClusterClient(shards={9: addrs[0]}, ring=cluster.ring)


class TestRouting:
    def test_single_node_ops_match_truth_everywhere(self, cluster,
                                                    graph, truth):
        client = cluster.client()
        try:
            for v in range(graph.num_nodes):
                assert client.neighbors(v) == truth.neighbors(v)
                assert client.degree(v) == truth.degree(v)
            for u in range(0, graph.num_nodes, 5):
                for v in range(0, graph.num_nodes, 7):
                    assert client.has_edge(u, v) == truth.has_edge(u, v)
        finally:
            client.shutdown()

    def test_routed_ops_only_touch_the_owning_shard(self, cluster, run):
        """Replica request counters prove single-node ops never leave
        the owner's replica set."""
        ring = cluster.ring
        sid0, sid1 = cluster.shard_ids
        nodes0 = [v for v in range(40) if ring.shard_of(v) == sid0][:8]
        client = cluster.client()
        try:
            for v in nodes0:
                client.degree(v)
        finally:
            client.shutdown()
        served = {
            sid: sum(
                cluster.handle(i).server.metrics.counter(
                    "queries_degree_total"
                )
                for i in shard_replica_indices(cluster, sid)
            )
            for sid in cluster.shard_ids
        }
        assert served[sid0] == len(nodes0)
        assert served[sid1] == 0

    def test_bfs_scatter_matches_truth(self, cluster, graph, truth):
        client = cluster.client()
        try:
            for source in range(0, graph.num_nodes, 9):
                assert client.bfs(source) == truth.bfs_distances(source)
            assert client.metrics.counter(
                "cluster_scatter_fanout_total"
            ) > 0
        finally:
            client.shutdown()

    def test_bfs_allow_partial_on_healthy_cluster_is_complete(
        self, cluster, truth
    ):
        client = cluster.client()
        try:
            envelope = client.bfs(0, allow_partial=True)
            assert isinstance(envelope, PartialResult)
            assert envelope.complete
            assert envelope.failed_shards == []
            assert envelope.value == truth.bfs_distances(0)
        finally:
            client.shutdown()


class TestShardLoss:
    def _kill_shard(self, cluster, sid):
        for i in shard_replica_indices(cluster, sid):
            cluster.kill(i)

    def _pick_cross_shard_source(self, cluster, truth, dead_sid):
        """A node of a surviving shard whose BFS reaches the dead one."""
        ring = cluster.ring
        for v in range(truth.num_nodes):
            if ring.shard_of(v) == dead_sid:
                continue
            if any(ring.shard_of(u) == dead_sid
                   for u in truth.bfs_distances(v)):
                return v
        pytest.skip("no cross-shard component in this fixture")

    def test_losing_a_shard_makes_bfs_partial(self, cluster, truth):
        dead = cluster.shard_ids[1]
        source = self._pick_cross_shard_source(cluster, truth, dead)
        self._kill_shard(cluster, dead)
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            with pytest.raises(PartialResultError) as excinfo:
                client.bfs(source)
            partial = excinfo.value.partial
            assert not partial.complete
            assert partial.failed_shards == [dead]
            # Everything that was gathered is correct (a prefix of the
            # true distance map).
            full = truth.bfs_distances(source)
            assert all(full[v] == d for v, d in partial.value.items())
            assert client.metrics.counter(
                "cluster_partial_results_total"
            ) == 1
        finally:
            client.shutdown()

    def test_partial_error_is_a_connection_error(self, cluster, truth):
        """The load generator's contract: shard loss counts as an
        error, never as a wrong answer."""
        dead = cluster.shard_ids[1]
        source = self._pick_cross_shard_source(cluster, truth, dead)
        self._kill_shard(cluster, dead)
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            with pytest.raises(ConnectionError):
                client.bfs(source)
        finally:
            client.shutdown()

    def test_allow_partial_returns_the_envelope(self, cluster, truth):
        dead = cluster.shard_ids[1]
        source = self._pick_cross_shard_source(cluster, truth, dead)
        self._kill_shard(cluster, dead)
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            envelope = client.bfs(source, allow_partial=True)
            assert isinstance(envelope, PartialResult)
            assert envelope.failed_shards == [dead]
            assert envelope.value  # the surviving component answered
        finally:
            client.shutdown()

    def test_surviving_shard_keeps_answering_single_node_ops(
        self, cluster, truth
    ):
        alive, dead = cluster.shard_ids
        self._kill_shard(cluster, dead)
        ring = cluster.ring
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            for v in range(truth.num_nodes):
                if ring.shard_of(v) == alive:
                    assert client.degree(v) == truth.degree(v)
            victim = next(v for v in range(truth.num_nodes)
                          if ring.shard_of(v) == dead)
            with pytest.raises(ConnectionError):
                client.degree(victim)
        finally:
            client.shutdown()

    def test_in_shard_failover_hides_a_single_replica_loss(
        self, cluster, truth
    ):
        sid = cluster.shard_ids[0]
        cluster.kill(shard_replica_indices(cluster, sid)[0])
        client = cluster.client(timeout=1.0)
        try:
            for v in range(truth.num_nodes):
                assert client.degree(v) == truth.degree(v)
        finally:
            client.shutdown()


class TestShardSwap:
    def test_manifest_swap_rolls_one_shard_at_a_time(
        self, cluster, run, graph, truth, tmp_path
    ):
        nxt = tmp_path / "next"
        save_sharded(run.summary, run.sharded, nxt)
        generations = []

        def verify(i, handle):
            generations.append(
                (cluster.shard_ids.index(
                    cluster._replica_shard[i]), i)
            )
            return True

        report = cluster.rolling_swap(str(nxt), verify=verify)
        assert report.ok
        assert report.swapped_shards == cluster.shard_ids
        assert report.swapped == [0, 1, 2, 3]
        # Shard-major order: shard 0's replicas fully swapped before
        # shard 1's began.
        assert generations == [(0, 0), (0, 1), (1, 2), (1, 3)]
        assert cluster.generations() == [1, 1, 1, 1]
        assert cluster.shard_generations() == {
            cluster.shard_ids[0]: [1, 1],
            cluster.shard_ids[1]: [1, 1],
        }
        client = cluster.client()
        try:
            for v in range(0, graph.num_nodes, 5):
                assert client.neighbors(v) == truth.neighbors(v)
        finally:
            client.shutdown()

    def test_corrupt_manifest_rejected_before_any_replica(
        self, cluster, run, tmp_path
    ):
        from repro.resilience import flip_bit

        bad = tmp_path / "bad"
        save_sharded(run.summary, run.sharded, bad)
        flip_bit(str(bad / "shard-1.ldmeb"))
        report = cluster.rolling_swap(str(bad))
        assert not report.ok
        assert not report.rolled_back
        assert "load failed" in report.error
        assert cluster.generations() == [0, 0, 0, 0]

    def test_mismatched_ring_rejected(self, cluster, run, graph,
                                      tmp_path):
        other = tmp_path / "other"
        resharded = summarize_sharded(
            graph, shards=3, k=5, iterations=4, out_dir=str(other)
        )
        assert resharded.report.ok
        report = cluster.rolling_swap(str(other))
        assert not report.ok
        assert "load failed" in report.error
        assert cluster.generations() == [0, 0, 0, 0]

    def test_single_summary_target_rejected_on_sharded_cluster(
        self, cluster, run
    ):
        with pytest.raises(ValueError, match="one summary per shard"):
            cluster._resolve_swap_target(run.summary)

    def test_failed_verify_in_second_shard_rolls_back_the_first(
        self, cluster, run, truth
    ):
        target = {
            sid: run.manifest.load_shard(sid)
            for sid in cluster.shard_ids
        }

        def verify(i, handle):
            return i < 3             # last replica (shard 1) fails

        report = cluster.rolling_swap(target, verify=verify)
        assert not report.ok
        assert report.rolled_back
        assert report.swapped_shards == []
        # Cross-shard rollback: shard 0's already-swapped replicas were
        # re-rolled too, so no shard serves the half-applied target.
        client = cluster.client()
        try:
            for v in range(0, truth.num_nodes, 5):
                assert client.neighbors(v) == truth.neighbors(v)
            assert all(
                not cluster.handle(i).server.degraded
                for i in range(cluster.num_replicas)
            )
        finally:
            client.shutdown()

    def test_mapping_swap_and_rollback(self, cluster, run, truth):
        target = {
            sid: run.manifest.load_shard(sid)
            for sid in cluster.shard_ids
        }
        assert cluster.rolling_swap(target).ok
        report = cluster.rollback()
        assert report.ok
        assert report.swapped_shards == cluster.shard_ids
        client = cluster.client()
        try:
            assert client.neighbors(1) == truth.neighbors(1)
        finally:
            client.shutdown()
