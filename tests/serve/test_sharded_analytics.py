"""Sharded scatter-gather analytics ≡ single-node on the stitched summary.

A real 2-shards × 2-replicas cluster serves ``analytics.*`` ops; every
answer is compared against the same estimator run directly on the
stitched global summary. Because the client-side slice merge rebuilds
that summary *exactly* (ownership filtering plus singleton re-derivation
— pinned array-for-array here), even the float-valued estimators must
agree bit-for-bit, not merely within bound. Shard loss follows the
partial-result contract: a typed error (or explicit envelope), never a
silently skewed estimate.
"""

import numpy as np
import pytest

from repro.queries.compiled import CompiledSummaryIndex
from repro.queries.summary_analytics import (
    execute_analytics,
    merge_slices,
    summary_slice,
)
from repro.serve import (
    PartialResult,
    PartialResultError,
    ServerConfig,
    SummaryCluster,
)
from repro.shard import summarize_sharded


@pytest.fixture(scope="module")
def graph():
    from repro.graph.generators import web_host_graph

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


def kill_shard(cluster, sid):
    pos = cluster.shard_ids.index(sid)
    k = cluster.replicas_per_shard
    for i in range(pos * k, pos * k + k):
        cluster.kill(i)


GLOBAL_OPS = (
    "analytics.degree_hist",
    "analytics.pagerank",
    "analytics.triangles",
    "analytics.modularity",
)


class TestSliceMergeIdentity:
    def test_merged_slices_rebuild_the_stitched_summary(
        self, run, truth
    ):
        """The core guarantee, asserted off the wire: merging each
        shard's serving-summary slice under ring ownership yields the
        stitched global summary's compiled arrays exactly."""
        ring = run.manifest.ring
        slices = {
            sid: summary_slice(
                CompiledSummaryIndex(run.manifest.load_shard(sid))
            )
            for sid in run.manifest.shard_ids
        }
        merged = CompiledSummaryIndex(
            merge_slices(slices, ring.shard_of)
        )
        assert np.array_equal(
            merged._member_indptr, truth._member_indptr
        )
        assert np.array_equal(
            merged._member_indices, truth._member_indices
        )
        assert np.array_equal(merged._super_indptr, truth._super_indptr)
        assert np.array_equal(
            merged._super_indices, truth._super_indices
        )
        assert np.array_equal(merged._has_loop, truth._has_loop)
        assert np.array_equal(merged._add_indices, truth._add_indices)
        assert np.array_equal(merged._del_indices, truth._del_indices)


class TestShardedEqualsSingleNode:
    def test_degree_routed_exact(self, cluster, graph, truth):
        client = cluster.client()
        try:
            for v in range(graph.num_nodes):
                answer = client.analytics("degree", {"v": v})
                assert answer["value"] == truth.degree(v)
                assert answer["bound"] == 0.0
        finally:
            client.shutdown()

    @pytest.mark.parametrize("op", GLOBAL_OPS)
    def test_global_ops_equal_stitched_single_node(
        self, cluster, truth, op
    ):
        """Exact equality — including the float estimators — because
        the merged summary is structurally identical to the stitched
        one (the degree/histogram cases are additionally covered by the
        lossless-exactness contract)."""
        client = cluster.client()
        try:
            assert client.analytics(op) == execute_analytics(
                truth, op, {}
            )
        finally:
            client.shutdown()

    def test_pagerank_top_through_the_cluster(self, cluster, truth):
        client = cluster.client()
        try:
            got = client.analytics("pagerank", {"top": 5})
            want = execute_analytics(
                truth, "analytics.pagerank", {"top": 5}
            )
            assert got == want
        finally:
            client.shutdown()

    def test_healthy_cluster_envelope_is_complete(self, cluster, truth):
        client = cluster.client()
        try:
            envelope = client.analytics(
                "triangles", allow_partial=True
            )
            assert isinstance(envelope, PartialResult)
            assert envelope.complete
            assert envelope.failed_shards == []
            assert envelope.value == execute_analytics(
                truth, "analytics.triangles", {}
            )
        finally:
            client.shutdown()


class TestShardLoss:
    def test_global_op_with_dead_shard_is_partial(self, cluster):
        dead = cluster.shard_ids[1]
        kill_shard(cluster, dead)
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            with pytest.raises(PartialResultError) as excinfo:
                client.analytics("pagerank")
            partial = excinfo.value.partial
            assert not partial.complete
            assert partial.failed_shards == [dead]
            # No value: an incomplete summary would skew every
            # estimate, so nothing is synthesized from partial slices.
            assert partial.value is None
            assert client.metrics.counter(
                "cluster_partial_results_total"
            ) == 1
        finally:
            client.shutdown()

    def test_partial_error_is_a_connection_error(self, cluster):
        """Loadgen contract: shard loss is an error, never wrong."""
        kill_shard(cluster, cluster.shard_ids[1])
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            with pytest.raises(ConnectionError):
                client.analytics("modularity")
        finally:
            client.shutdown()

    def test_allow_partial_returns_the_envelope(self, cluster):
        dead = cluster.shard_ids[0]
        kill_shard(cluster, dead)
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            envelope = client.analytics(
                "degree_hist", allow_partial=True
            )
            assert isinstance(envelope, PartialResult)
            assert not envelope.complete
            assert envelope.failed_shards == [dead]
        finally:
            client.shutdown()

    def test_routed_degree_survives_other_shard_loss(
        self, cluster, truth
    ):
        alive, dead = cluster.shard_ids
        kill_shard(cluster, dead)
        ring = cluster.ring
        client = cluster.client(timeout=1.0, breaker_failures=1)
        try:
            for v in range(truth.num_nodes):
                if ring.shard_of(v) == alive:
                    answer = client.analytics("degree", {"v": v})
                    assert answer["value"] == truth.degree(v)
        finally:
            client.shutdown()

    def test_in_shard_failover_hides_a_replica_loss(
        self, cluster, truth
    ):
        sid = cluster.shard_ids[0]
        pos = cluster.shard_ids.index(sid)
        cluster.kill(pos * cluster.replicas_per_shard)
        client = cluster.client(timeout=1.0)
        try:
            assert client.analytics("triangles") == execute_analytics(
                truth, "analytics.triangles", {}
            )
        finally:
            client.shutdown()
