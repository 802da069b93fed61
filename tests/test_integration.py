"""End-to-end integration tests across subsystems.

These exercise realistic multi-step workflows — the paths a downstream
user strings together — rather than single modules.
"""

import numpy as np
import pytest

import repro
from repro.baselines import SAGS, MoSSo, Randomized, SWeG
from repro.binaryio import read_summary_binary, write_summary_binary
from repro.core.validate import check_summary
from repro.graph.io import read_summary, write_summary
from repro.graph.transform import largest_component, remove_edges
from repro.queries import SummaryIndex


ALGORITHMS = [
    ("LDME5", lambda: repro.LDME(k=5, iterations=6, seed=0)),
    ("LDME20", lambda: repro.LDME(k=20, iterations=6, seed=0)),
    ("SWeG", lambda: SWeG(iterations=4, seed=0)),
    ("MoSSo", lambda: MoSSo(seed=0, sample_size=10)),
    ("SAGS", lambda: SAGS(seed=0, rounds=2)),
    ("Randomized", lambda: Randomized(seed=0, max_passes=2)),
]


@pytest.fixture(scope="module")
def pipeline_graph():
    return repro.web_host_graph(num_hosts=6, host_size=12, seed=21)


class TestEveryAlgorithmFullPipeline:
    @pytest.mark.parametrize("name,factory", ALGORITHMS)
    def test_summarize_validate_store_query(self, tmp_path, pipeline_graph,
                                            name, factory):
        graph = pipeline_graph
        summary = factory().summarize(graph)
        # 1. structural validity + losslessness
        assert check_summary(summary, graph) == [], name
        # 2. text round trip
        text_path = tmp_path / f"{name}.summary"
        write_summary(summary, text_path)
        loaded = read_summary(text_path)
        assert repro.reconstruct(loaded) == graph
        # 3. binary round trip
        bin_path = tmp_path / f"{name}.ldmeb"
        write_summary_binary(summary, bin_path)
        loaded_bin = read_summary_binary(bin_path)
        assert repro.reconstruct(loaded_bin) == graph
        # 4. queries on the loaded summary agree with the graph
        index = SummaryIndex(loaded_bin)
        for v in range(0, graph.num_nodes, 13):
            assert index.neighbors(v) == graph.neighbors(v).tolist()


class TestPreprocessThenSummarize:
    def test_component_extraction_pipeline(self):
        # Disconnect the graph, extract the giant component, summarize it.
        base = repro.web_host_graph(num_hosts=5, host_size=10, seed=8)
        cut = remove_edges(
            base, [e for e in base.edges() if e[0] < 10]
        )
        giant, ids = largest_component(cut)
        summary = repro.LDME(k=5, iterations=5, seed=0).summarize(giant)
        assert repro.reconstruct(summary) == giant
        assert ids.size == giant.num_nodes


class TestLossyToQueries:
    def test_lossy_summary_queries_within_bound(self, pipeline_graph):
        epsilon = 0.3
        summary = repro.LDME(k=5, iterations=6, seed=0,
                             epsilon=epsilon).summarize(pipeline_graph)
        repro.verify_error_bound(pipeline_graph, summary, epsilon)
        index = SummaryIndex(summary)
        # Per-node neighbourhood error stays within ε·|N_v|.
        for v in range(pipeline_graph.num_nodes):
            truth = set(pipeline_graph.neighbors(v).tolist())
            answer = set(index.neighbors(v))
            err = len(truth - answer) + len(answer - truth)
            assert err <= epsilon * len(truth) + 1e-9


class TestDynamicToStatic:
    def test_stream_snapshot_matches_static_run_quality(self):
        graph = repro.web_host_graph(num_hosts=5, host_size=12, seed=4)
        ds = repro.DynamicSummarizer(graph.num_nodes, sample_size=20, seed=0)
        for u, v in graph.edges():
            ds.insert(u, v)
        dynamic = ds.snapshot()
        static = repro.LDME(k=5, iterations=10, seed=0).summarize(graph)
        assert repro.reconstruct(dynamic) == graph
        # Both compress; the static batch algorithm should not be wildly
        # worse than the incremental one.
        assert static.compression > 0
        assert dynamic.compression > 0


class TestDistributedAgreement:
    def test_simulated_and_serial_agree(self, pipeline_graph):
        serial = repro.LDME(k=5, iterations=4, seed=9).summarize(pipeline_graph)
        simulated = repro.run_distributed(
            repro.LDME(k=5, iterations=4, seed=9), pipeline_graph,
            repro.ClusterSpec(num_workers=4),
        )
        assert simulated.summarization.objective == serial.objective


class TestSizeAccounting:
    def test_bit_model_tracks_real_file_size_ordering(self, tmp_path,
                                                      pipeline_graph):
        loose = repro.LDME(k=20, iterations=2, seed=0).summarize(pipeline_graph)
        tight = repro.LDME(k=2, iterations=12, seed=0).summarize(pipeline_graph)
        assert tight.objective <= loose.objective
        loose_bits = repro.size_report(pipeline_graph, loose).summary_bits
        tight_bits = repro.size_report(pipeline_graph, tight).summary_bits
        loose_file = write_summary_binary(loose, tmp_path / "loose.ldmeb")
        tight_file = write_summary_binary(tight, tmp_path / "tight.ldmeb")
        # The bit model and the real serializer must agree on which
        # summary is smaller.
        assert (tight_bits <= loose_bits) == (tight_file <= loose_file)
