"""End-to-end sharded summarization through the one-call driver."""

import os

import pytest

from repro.core.ldme import LDME
from repro.core.reconstruct import reconstruct
from repro.graph.generators import web_host_graph
from repro.serve import SummaryCluster
from repro.shard import HashRing, load_manifest, summarize_sharded


@pytest.fixture(scope="module")
def graph():
    return web_host_graph(num_hosts=5, host_size=8, seed=9)


class TestSummarizeSharded:
    def test_four_shard_run_is_lossless(self, graph):
        result = summarize_sharded(
            graph, shards=4, k=5, iterations=6, seed=0
        )
        assert result.report.ok, result.report.problems
        assert sorted(result.summaries) == [0, 1, 2, 3]
        assert result.summary.algorithm == "ldme-sharded-4"
        rebuilt = reconstruct(result.summary)
        assert rebuilt.num_edges == graph.num_edges

    def test_num_workers_keyword_is_serial_only(self, graph):
        with pytest.raises(ValueError, match="parallel merge was removed"):
            summarize_sharded(graph, shards=2, iterations=3, num_workers=2)
        explicit = summarize_sharded(
            graph, shards=2, k=4, iterations=3, num_workers=1
        ).summary
        default = summarize_sharded(graph, shards=2, k=4, iterations=3).summary
        assert explicit.objective == default.objective
        assert sorted(explicit.superedges) == sorted(default.superedges)
        assert explicit.corrections == default.corrections
        assert explicit.partition.node2super.tolist() == (
            default.partition.node2super.tolist()
        )

    def test_accepts_prebuilt_ring(self, graph):
        ring = HashRing([0, 2, 5], seed=3)
        result = summarize_sharded(
            graph, shards=ring, k=4, iterations=4
        )
        assert sorted(result.summaries) == [0, 2, 5]
        assert result.sharded.ring is ring

    def test_algo_factory_override_and_per_shard_seeds(self, graph):
        seen = []

        def factory(shard_id):
            seen.append(shard_id)
            return LDME(k=4, iterations=3, seed=100 + shard_id)

        result = summarize_sharded(
            graph, shards=2, algo_factory=factory
        )
        assert seen == [0, 1]
        assert result.report.ok

    def test_checkpoint_dir_gets_per_shard_subdirs(self, graph,
                                                   tmp_path):
        ckpt = tmp_path / "ckpt"
        result = summarize_sharded(
            graph, shards=2, k=4, iterations=4,
            checkpoint_dir=str(ckpt),
        )
        assert result.report.ok
        assert sorted(os.listdir(ckpt)) == ["shard-0", "shard-1"]

    def test_out_dir_persists_a_loadable_manifest(self, graph,
                                                  tmp_path):
        out = tmp_path / "out"
        result = summarize_sharded(
            graph, shards=3, k=4, iterations=4, out_dir=str(out)
        )
        assert result.manifest is not None
        manifest = load_manifest(str(out))
        assert manifest.shard_ids == [0, 1, 2]
        assert manifest.ring == result.sharded.ring
        assert manifest.load_global().num_edges == graph.num_edges

    def test_manifest_boots_a_serving_cluster(self, graph, tmp_path):
        out = tmp_path / "serving"
        summarize_sharded(
            graph, shards=2, k=4, iterations=4, out_dir=str(out)
        )
        with SummaryCluster.from_manifest(str(out), replicas=1) \
                as cluster:
            assert cluster.num_shards == 2
            assert cluster.num_replicas == 2
            client = cluster.client()
            try:
                for v in range(0, graph.num_nodes, 5):
                    got = client.degree(v)
                    want = int(graph.indptr[v + 1] - graph.indptr[v])
                    assert got == want
            finally:
                client.shutdown()
