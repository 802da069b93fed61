"""Generation cutover on a live cluster (``SummaryCluster`` two-phase
prepare/commit, ring epochs, and client topology refresh).

These are the serve-layer halves of elastic re-sharding: staging a new
generation must be side-effect-free until commit, commit must flip the
whole fleet atomically to the next ring epoch, and a client built
against the old topology must self-heal — either lazily off a
``wrong_shard`` rejection or proactively off the ``ring_epoch`` field
in ping health — without ever returning a wrong answer.
"""

import time

import pytest

from repro.graph.generators import web_host_graph
from repro.queries.compiled import CompiledSummaryIndex
from repro.serve import ServerConfig, SummaryClient, SummaryCluster
from repro.shard import HashRing, summarize_sharded


@pytest.fixture(scope="module")
def graph():
    return web_host_graph(num_hosts=4, host_size=10, seed=3)


@pytest.fixture(scope="module")
def truth(graph, old_manifest):
    return CompiledSummaryIndex(old_manifest.load_global())


@pytest.fixture(scope="module")
def old_manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("cutover") / "old"
    result = summarize_sharded(
        graph, HashRing(2, virtual_nodes=1), iterations=6, seed=0,
        out_dir=str(out),
    )
    return result.manifest


@pytest.fixture(scope="module")
def new_manifest(graph, tmp_path_factory):
    out = tmp_path_factory.mktemp("cutover") / "new"
    result = summarize_sharded(
        graph, HashRing(3, virtual_nodes=1), iterations=6, seed=0,
        out_dir=str(out),
    )
    return result.manifest


@pytest.fixture()
def cluster(old_manifest):
    with SummaryCluster.from_manifest(
        old_manifest, replicas=1,
        config=ServerConfig(),
    ) as cluster:
        yield cluster


class TestGenerationCutover:
    def test_prepare_is_side_effect_free(self, cluster, new_manifest,
                                         truth, graph):
        old_addresses = list(cluster.addresses)
        staged = cluster.prepare_generation(new_manifest)
        assert len(staged) == 3                     # one per new shard
        assert cluster.staged_generation is new_manifest
        # Old generation untouched and still serving.
        assert cluster.epoch == 0
        assert cluster.addresses == old_addresses
        assert sorted(cluster.shard_ids) == [0, 1]
        client = cluster.client(timeout=2.0)
        try:
            for v in range(0, graph.num_nodes, 5):
                assert client.neighbors(v) == truth.neighbors(v)
        finally:
            client.shutdown()
        assert cluster.abort_generation()

    def test_prepare_twice_rejected(self, cluster, new_manifest):
        cluster.prepare_generation(new_manifest)
        with pytest.raises(RuntimeError, match="already staged"):
            cluster.prepare_generation(new_manifest)
        assert cluster.abort_generation()

    def test_commit_without_prepare_rejected(self, cluster):
        with pytest.raises(RuntimeError):
            cluster.commit_generation()

    def test_abort_is_idempotent_and_harmless(self, cluster, new_manifest):
        assert not cluster.abort_generation()       # nothing staged
        cluster.prepare_generation(new_manifest)
        assert cluster.abort_generation()
        assert not cluster.abort_generation()
        assert cluster.epoch == 0
        assert cluster.staged_generation is None

    def test_commit_flips_epoch_and_topology(self, cluster, new_manifest,
                                             truth, graph):
        cluster.prepare_generation(new_manifest)
        assert cluster.commit_generation() == 1
        assert cluster.epoch == 1
        assert sorted(cluster.shard_ids) == [0, 1, 2]
        assert cluster.ring == HashRing(3, virtual_nodes=1)
        # Every serving replica reports the new epoch via ping health.
        for host, port in cluster.addresses:
            probe = SummaryClient(host, port, timeout=2.0)
            try:
                assert probe.ping().get("ring_epoch") == 1
            finally:
                probe.close()
        # A fresh client answers correctly from the new generation.
        client = cluster.client(timeout=2.0)
        try:
            assert client.epoch == 1
            for v in range(0, graph.num_nodes, 5):
                assert client.neighbors(v) == truth.neighbors(v)
        finally:
            client.shutdown()
        assert cluster.retire_old_generation() == 2   # 2 shards x 1 replica

    def test_topology_op_serves_ring_and_addresses(self, cluster):
        host, port = cluster.addresses[0]
        probe = SummaryClient(host, port, timeout=2.0)
        try:
            payload = probe.call("topology")
        finally:
            probe.close()
        assert payload["epoch"] == 0
        assert HashRing.from_dict(payload["ring"]) == cluster.ring
        assert {int(s) for s in payload["shards"]} == set(cluster.shard_ids)

    def test_stale_client_self_heals_on_wrong_shard(self, cluster,
                                                    new_manifest, truth,
                                                    graph):
        # Client built against the OLD topology, before the cutover.
        stale = cluster.client(timeout=2.0)
        try:
            assert stale.neighbors(0) == truth.neighbors(0)
            cluster.prepare_generation(new_manifest)
            cluster.commit_generation()
            # Retired replicas bounce routed queries with wrong_shard;
            # the client must refresh its topology and re-route, never
            # surface the rejection or a stale answer.
            for v in range(0, graph.num_nodes, 3):
                assert stale.neighbors(v) == truth.neighbors(v)
            assert stale.epoch == 1
            assert stale.metrics.counter("cluster_topology_refreshes_total") >= 1
        finally:
            stale.shutdown()
            cluster.retire_old_generation()

    def test_health_checker_refreshes_on_ping_epoch(self, cluster,
                                                    new_manifest):
        client = cluster.client(timeout=2.0)
        try:
            cluster.prepare_generation(new_manifest)
            cluster.commit_generation()
            client.start_health_checks(interval=0.05, probe_timeout=1.0)
            deadline = time.time() + 10
            while time.time() < deadline and client.epoch != 1:
                time.sleep(0.02)
            # The checker saw ring_epoch=1 in ping health and refreshed
            # proactively — no query had to eat a wrong_shard first.
            assert client.epoch == 1
            assert sorted(client.shard_ids) == [0, 1, 2]
        finally:
            client.shutdown()
            cluster.retire_old_generation()

    def test_stop_reaps_staged_and_retired(self, old_manifest, new_manifest):
        cluster = SummaryCluster.from_manifest(
            old_manifest, replicas=1,
            config=ServerConfig(),
        )
        cluster.start()
        cluster.prepare_generation(new_manifest)
        cluster.commit_generation()
        cluster.stop()                       # must reap old fleet too
        assert cluster.staged_generation is None
