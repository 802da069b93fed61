"""I/O round-trip tests: edge lists, adjacency files, summaries, gzip."""

import warnings

import pytest

import repro.graph.io as graph_io
from repro.core.ldme import LDME
from repro.core.reconstruct import reconstruct
from repro.graph.graph import Graph
from repro.graph.io import (
    load_graph,
    read_adjacency,
    read_edge_list,
    read_summary,
    save_graph,
    write_adjacency,
    write_edge_list,
    write_summary,
)

from ..oracles import graph as oracle


class TestEdgeList:
    def test_roundtrip(self, tmp_path, random_graph):
        path = tmp_path / "g.txt"
        write_edge_list(random_graph, path)
        assert read_edge_list(path, num_nodes=random_graph.num_nodes) == random_graph

    def test_gzip_roundtrip(self, tmp_path, two_cliques):
        path = tmp_path / "g.txt.gz"
        write_edge_list(two_cliques, path)
        assert read_edge_list(path) == two_cliques

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n\n% other\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_directed_input_symmetrized(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n2 0\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(path)

    def test_negative_id_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            read_edge_list(path)

    def test_num_nodes_override_keeps_isolated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        assert read_edge_list(path, num_nodes=10).num_nodes == 10

    def test_infers_num_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n5 2\n")
        g = read_edge_list(path)
        assert g.num_nodes == 6
        assert g.num_edges == 2

    def test_dedup_and_symmetrize(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n0 1\n2 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 1
        assert not g.has_edge(2, 2)

    def test_comment_only_file_has_no_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n\n% here\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_edge_list(path).num_nodes == 0

    def test_out_of_range_with_explicit_num_nodes(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 9\n")
        with pytest.raises(ValueError, match="out of range"):
            read_edge_list(path, num_nodes=5)

    def test_web_graph_roundtrip(self, tmp_path, small_web):
        path = tmp_path / "g.txt"
        write_edge_list(small_web, path)
        assert read_edge_list(path, num_nodes=small_web.num_nodes) == small_web

    def test_tiny_blocks_match_one_block(self, tmp_path, small_web,
                                         monkeypatch):
        path = tmp_path / "g.txt"
        write_edge_list(small_web, path)
        whole = read_edge_list(path)
        monkeypatch.setattr(graph_io, "_BLOCK_LINES", 7)
        assert read_edge_list(path) == whole

    def test_messy_input_matches_oracle(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("3 1\n1 3 # back\n0\t2 5\n\n2 0\n4 4\n% x\n1 0\n")
        assert read_edge_list(path) == oracle.read_edge_list(path)


BLOCKS = pytest.mark.parametrize(
    "block_lines", [3, graph_io._BLOCK_LINES], ids=["small-blocks", "one-block"]
)


class TestEdgeListLineNumbers:
    """Errors name the file line, counting comment and blank lines."""

    LINES = ["# header", "", "0 1", "% note", "1 2", "2 3", "# tail", ""]

    def _file(self, tmp_path, bad, at):
        lines = list(self.LINES)
        lines.insert(at, bad)
        path = tmp_path / "g.txt"
        path.write_text("".join(line + "\n" for line in lines))
        return path

    @BLOCKS
    def test_malformed_line_reports_file_line(self, tmp_path, monkeypatch,
                                              block_lines):
        monkeypatch.setattr(graph_io, "_BLOCK_LINES", block_lines)
        path = self._file(tmp_path, "7 # 8", at=6)
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:7: expected 'u v', got '7 # 8'"

    @BLOCKS
    def test_negative_id_reports_file_line(self, tmp_path, monkeypatch,
                                           block_lines):
        monkeypatch.setattr(graph_io, "_BLOCK_LINES", block_lines)
        path = self._file(tmp_path, "4 -1", at=7)
        with pytest.raises(ValueError) as err:
            read_edge_list(path)
        assert str(err.value) == f"{path}:8: negative node id"

    def test_first_bad_line_wins(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_io, "_BLOCK_LINES", 4)
        path = self._file(tmp_path, "-1 0", at=5)
        path.write_text(path.read_text() + "9\n")
        with pytest.raises(ValueError, match=r":6: negative"):
            read_edge_list(path)


class TestAdjacency:
    def test_roundtrip(self, tmp_path, two_cliques):
        path = tmp_path / "g.adj"
        write_adjacency(two_cliques, path)
        assert read_adjacency(path) == two_cliques

    def test_roundtrip_with_isolated(self, tmp_path):
        g = Graph.from_edges(4, [(0, 2)])
        path = tmp_path / "g.adj"
        write_adjacency(g, path)
        assert read_adjacency(path) == g

    def test_missing_separator_raises(self, tmp_path):
        path = tmp_path / "g.adj"
        path.write_text("0 1 2\n")
        with pytest.raises(ValueError, match=":"):
            read_adjacency(path)


class TestDispatch:
    def test_load_save_dispatch_edge_list(self, tmp_path, triangle):
        path = tmp_path / "g.edges"
        save_graph(triangle, path)
        assert load_graph(path) == triangle

    def test_load_save_dispatch_adjacency(self, tmp_path, triangle):
        path = tmp_path / "g.adj"
        save_graph(triangle, path)
        assert load_graph(path) == triangle


class TestSummaryIO:
    def test_summary_roundtrip_reconstructs(self, tmp_path, small_web):
        summary = LDME(k=5, iterations=8, seed=0).summarize(small_web)
        path = tmp_path / "out.summary"
        write_summary(summary, path)
        loaded = read_summary(path)
        assert reconstruct(loaded) == small_web

    def test_summary_roundtrip_preserves_counts(self, tmp_path, small_web):
        summary = LDME(k=5, iterations=8, seed=0).summarize(small_web)
        path = tmp_path / "out.summary"
        write_summary(summary, path)
        loaded = read_summary(path)
        assert loaded.num_supernodes == summary.num_supernodes
        assert loaded.num_superedges == summary.num_superedges
        assert sorted(loaded.corrections.additions) == sorted(
            summary.corrections.additions
        )
        assert sorted(loaded.corrections.deletions) == sorted(
            summary.corrections.deletions
        )

    def test_missing_header_raises(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("S\n0 0\n")
        with pytest.raises(ValueError, match="header"):
            read_summary(path)

    def test_data_before_section_raises(self, tmp_path):
        path = tmp_path / "bad.summary"
        path.write_text("#ldme-summary num_nodes=2\n0 0\n")
        with pytest.raises(ValueError, match="section"):
            read_summary(path)


class TestBinaryGraphFormat:
    def test_roundtrip(self, tmp_path, random_graph):
        from repro.graph.io import read_graph_binary, write_graph_binary

        path = tmp_path / "g.npz"
        write_graph_binary(random_graph, path)
        assert read_graph_binary(path) == random_graph

    def test_dispatch_by_extension(self, tmp_path, two_cliques):
        path = tmp_path / "g.npz"
        save_graph(two_cliques, path)
        assert load_graph(path) == two_cliques

    def test_preserves_isolated_nodes(self, tmp_path):
        from repro.graph.io import read_graph_binary, write_graph_binary

        g = Graph.from_edges(10, [(0, 1)])
        path = tmp_path / "g.npz"
        write_graph_binary(g, path)
        assert read_graph_binary(path).num_nodes == 10

    def test_rejects_foreign_archive(self, tmp_path):
        import numpy as np

        from repro.graph.io import read_graph_binary

        path = tmp_path / "junk.npz"
        np.savez(path, other=np.arange(3))
        with pytest.raises(ValueError, match="CSR"):
            read_graph_binary(path)


class TestPartitionCheckpoint:
    def test_roundtrip(self, tmp_path, small_web):
        from repro.core.ldme import LDME
        from repro.graph.io import read_partition, write_partition

        summary = LDME(k=5, iterations=6, seed=0).summarize(small_web)
        path = tmp_path / "part.ckpt"
        write_partition(summary.partition, path)
        loaded = read_partition(path)
        loaded.validate()
        assert loaded.num_supernodes == summary.num_supernodes
        for sid in summary.partition.supernode_ids():
            assert sorted(loaded.members(sid)) == sorted(
                summary.partition.members(sid)
            )

    def test_resume_from_checkpoint(self, tmp_path, small_web):
        from repro.core.ldme import LDME
        from repro.core.reconstruct import verify_lossless
        from repro.graph.io import read_partition, write_partition

        first = LDME(k=5, iterations=4, seed=0).summarize(small_web)
        path = tmp_path / "part.ckpt"
        write_partition(first.partition, path)
        resumed = LDME(k=5, iterations=4, seed=1).summarize(
            small_web, initial_partition=read_partition(path)
        )
        verify_lossless(small_web, resumed)
        assert resumed.objective <= first.objective

    def test_missing_header_raises(self, tmp_path):
        from repro.graph.io import read_partition

        path = tmp_path / "bad.ckpt"
        path.write_text("0 0 1\n")
        with pytest.raises(ValueError, match="header"):
            read_partition(path)

    def test_malformed_line_raises(self, tmp_path):
        from repro.graph.io import read_partition

        path = tmp_path / "bad.ckpt"
        path.write_text("#ldme-partition num_nodes=2\n0\n")
        with pytest.raises(ValueError, match="expected"):
            read_partition(path)
