"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import web_host_graph
from repro.graph.io import read_summary, write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    graph = web_host_graph(num_hosts=5, host_size=10, seed=1)
    path = tmp_path / "graph.txt"
    write_edge_list(graph, path)
    return path, graph


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_summarize_defaults(self):
        args = build_parser().parse_args(["summarize", "g.txt"])
        assert args.k == 5
        assert args.iterations == 20
        assert args.algorithm == "ldme"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestSummarize:
    def test_prints_metrics(self, graph_file, capsys):
        path, _ = graph_file
        code = main(["summarize", str(path), "-T", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "compression" in out

    def test_writes_summary_file(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out_path = tmp_path / "out.summary"
        code = main(["summarize", str(path), "-T", "3", "-o", str(out_path)])
        assert code == 0
        loaded = read_summary(out_path)
        assert loaded.num_nodes == graph.num_nodes

    def test_sweg_algorithm_option(self, graph_file, capsys):
        path, _ = graph_file
        assert main(["summarize", str(path), "--algorithm", "sweg",
                     "-T", "2"]) == 0

    def test_missing_file_error_code(self, capsys):
        assert main(["summarize", "/nonexistent/file.txt"]) == 1
        assert "error" in capsys.readouterr().err


class TestReconstruct:
    def test_roundtrip(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        summary_path = tmp_path / "out.summary"
        rebuilt_path = tmp_path / "rebuilt.txt"
        main(["summarize", str(path), "-T", "3", "-o", str(summary_path)])
        code = main(["reconstruct", str(summary_path), "-o", str(rebuilt_path)])
        assert code == 0
        from repro.graph.io import read_edge_list

        assert read_edge_list(rebuilt_path,
                              num_nodes=graph.num_nodes) == graph


class TestStats:
    def test_prints_stats(self, graph_file, capsys):
        path, graph = graph_file
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert str(graph.num_edges) in out.replace(",", "")


class TestDatasets:
    def test_lists_table1(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "cnr-2000" in out
        assert "arabic-2005" in out


class TestExperiment:
    def test_runs_named_experiment(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_unknown_experiment_error(self, capsys):
        assert main(["experiment", "bogus"]) == 1
        assert "error" in capsys.readouterr().err


class TestCompare:
    def test_compares_algorithms(self, graph_file, capsys):
        path, _ = graph_file
        code = main(["compare", str(path), "--algorithms", "ldme5", "sweg",
                     "-T", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LDME5" in out
        assert "SWeG" in out
        assert "bit_ratio" in out

    def test_rejects_unknown_algorithm(self, graph_file):
        path, _ = graph_file
        with pytest.raises(SystemExit):
            main(["compare", str(path), "--algorithms", "bogus"])


class TestAnalyze:
    def test_analyzes_text_summary(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        summary_path = tmp_path / "s.summary"
        main(["summarize", str(path), "-T", "3", "-o", str(summary_path)])
        capsys.readouterr()
        assert main(["analyze", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "triangles" in out
        assert "pagerank_winner" in out

    def test_analyzes_binary_summary(self, graph_file, tmp_path, capsys):
        from repro.binaryio import write_summary_binary
        from repro.core.ldme import LDME
        from repro.graph.io import load_graph

        path, _ = graph_file
        summary = LDME(k=5, iterations=3, seed=0).summarize(load_graph(path))
        binary_path = tmp_path / "s.ldmeb"
        write_summary_binary(summary, binary_path)
        assert main(["analyze", str(binary_path)]) == 0
        assert "objective" in capsys.readouterr().out


class TestStream:
    def test_replays_stream(self, tmp_path, capsys):
        from repro.streaming import write_stream

        events = [("+", 0, 1), ("+", 1, 2), ("+", 2, 3), ("-", 0, 1)]
        stream_path = tmp_path / "events.stream"
        write_stream(events, stream_path)
        out_path = tmp_path / "snap.summary"
        code = main(["stream", str(stream_path), "--num-nodes", "4",
                     "-o", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "compression" in out
        from repro.graph.io import read_summary

        snapshot = read_summary(out_path)
        assert snapshot.num_nodes == 4

    def test_requires_num_nodes(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["stream", "whatever.stream"])


class TestIngest:
    def write_events(self, tmp_path, count=40):
        from repro.streaming import write_stream

        events = [("+", i % 7, (i + 1) % 7) for i in range(count)]
        path = tmp_path / "events.stream"
        write_stream(events, path)
        return path, events

    def ingest_args(self, tmp_path, stream, *extra):
        return ["ingest", str(stream), "--wal-dir", str(tmp_path / "wal"),
                "--num-nodes", "7", "--no-fsync", *extra]

    def test_ingests_stream_and_writes_summary(self, tmp_path, capsys):
        stream, events = self.write_events(tmp_path)
        out_path = tmp_path / "final.summary"
        code = main(self.ingest_args(tmp_path, stream, "-o", str(out_path)))
        assert code == 0
        out = capsys.readouterr().out
        assert f"submitted {len(events)} event(s)" in out
        assert f"seq {len(events)}" in out
        from repro.graph.io import read_summary

        assert read_summary(out_path).num_nodes == 7

    def test_rerun_is_idempotent(self, tmp_path, capsys):
        stream, events = self.write_events(tmp_path)
        assert main(self.ingest_args(tmp_path, stream)) == 0
        capsys.readouterr()
        assert main(self.ingest_args(tmp_path, stream)) == 0
        out = capsys.readouterr().out
        assert "submitted 0 event(s)" in out
        assert f"skipped {len(events)} already durable" in out

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        stream, _ = self.write_events(tmp_path)
        assert main(self.ingest_args(tmp_path, stream, "--listen", "0")) == 2
        assert main(["ingest", "--wal-dir", str(tmp_path / "wal"),
                     "--num-nodes", "7"]) == 2

    def test_missing_stream_file_error_code(self, tmp_path, capsys):
        code = main(self.ingest_args(tmp_path, tmp_path / "absent.stream"))
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExperimentFormats:
    def test_csv_output(self, capsys):
        assert main(["experiment", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Graph,")

    def test_json_output(self, capsys):
        import json

        assert main(["experiment", "table1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert len(payload["rows"]) == 8


class TestCheckpointFlags:
    def test_checkpoint_then_resume(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        ckpt = tmp_path / "part.ckpt"
        assert main(["summarize", str(path), "-T", "3",
                     "--checkpoint", str(ckpt)]) == 0
        assert ckpt.exists()
        assert main(["summarize", str(path), "-T", "2",
                     "--resume-from", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "compression" in out

    def test_gzip_edge_list(self, tmp_path, capsys):
        graph = web_host_graph(num_hosts=5, host_size=10, seed=1)
        path = tmp_path / "graph.txt.gz"
        write_edge_list(graph, path)
        assert main(["summarize", str(path), "-T", "2"]) == 0
        out = capsys.readouterr().out
        assert str(graph.num_edges) in out.replace(",", "")


class TestEvaluate:
    def test_scores_against_labels(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        summary_path = tmp_path / "s.summary"
        main(["summarize", str(path), "-T", "3", "-o", str(summary_path)])
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text(
            "\n".join(f"{v} {v % 3}" for v in range(graph.num_nodes))
        )
        capsys.readouterr()
        assert main(["evaluate", str(summary_path), str(labels_path)]) == 0
        out = capsys.readouterr().out
        assert "purity" in out
        assert "nmi" in out

    def test_size_mismatch_errors(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        summary_path = tmp_path / "s.summary"
        main(["summarize", str(path), "-T", "2", "-o", str(summary_path)])
        labels_path = tmp_path / "labels.txt"
        labels_path.write_text("0 0\n1 0\n")
        assert main(["evaluate", str(summary_path), str(labels_path)]) == 1


class TestExperimentOutputDir:
    def test_saves_results_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["experiment", "table1", "--output-dir",
                     str(out_dir)]) == 0
        assert (out_dir / "table1.csv").exists()
        assert "saved" in capsys.readouterr().out


class TestShardSummarize:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["shard-summarize", "g.txt"])
        assert args.shards == 4
        assert args.k == 5
        assert args.virtual_nodes == 64

    def test_writes_manifest(self, graph_file, tmp_path, capsys):
        from repro.shard import load_manifest

        path, graph = graph_file
        out = tmp_path / "manifest"
        code = main(["shard-summarize", str(path), "--shards", "2",
                     "-T", "3", "-o", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ldme-sharded-2" in stdout
        assert "serve-cluster --manifest" in stdout
        manifest = load_manifest(out)
        assert manifest.load_global().num_nodes == graph.num_nodes
        assert manifest.ring.num_shards == 2

    def test_missing_file_error_code(self, capsys):
        assert main(["shard-summarize", "/nonexistent/g.txt",
                     "-T", "2"]) == 1
        assert "error" in capsys.readouterr().err

    def test_query_manifest_requires_cluster(self, capsys):
        assert main(["query", "ping", "--manifest", "m/"]) == 2
        assert "--manifest requires --cluster" in capsys.readouterr().err

    def test_serve_cluster_requires_exactly_one_source(self, capsys):
        assert main(["serve-cluster"]) == 2
        assert main(["serve-cluster", "s.ldmeb",
                     "--manifest", "m/"]) == 2
        err = capsys.readouterr().err
        assert "either a summary file or --manifest" in err


class TestServeQueryParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "s.ldmeb"])
        assert args.host == "127.0.0.1"
        assert args.port == 7421
        assert args.cache_size == 4096
        assert args.allow_reload is False

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "neighbors", "5"])
        assert args.op == "neighbors"
        assert args.args == ["5"]
        assert args.port == 7421

    def test_query_rejects_unknown_op(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "frobnicate"])


class TestQueryCommand:
    @pytest.fixture
    def server(self, graph_file):
        from repro.core.ldme import LDME
        from repro.serve import ServerConfig, ServerThread

        _, graph = graph_file
        summary = LDME(k=5, iterations=3, seed=0).summarize(graph)
        with ServerThread(summary, ServerConfig()) as handle:
            yield handle, summary

    def test_query_neighbors_matches_index(self, server, capsys):
        from repro.queries import SummaryIndex

        handle, summary = server
        code = main(["query", "neighbors", "7", "--port",
                     str(handle.port)])
        assert code == 0
        out = capsys.readouterr().out.split()
        assert [int(x) for x in out] == SummaryIndex(summary).neighbors(7)

    def test_query_stats_is_json(self, server, capsys):
        import json

        handle, _ = server
        assert main(["query", "stats", "--port", str(handle.port)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_nodes"] > 0

    def test_query_ping(self, server, capsys):
        handle, _ = server
        assert main(["query", "ping", "--port", str(handle.port)]) == 0
        assert "pong" in capsys.readouterr().out

    def test_query_bfs_prints_distances(self, server, capsys):
        handle, _ = server
        assert main(["query", "bfs", "0", "--port",
                     str(handle.port)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == ["0", "0"]

    def test_missing_argument_is_exit_2(self, server, capsys):
        handle, _ = server
        assert main(["query", "neighbors", "--port",
                     str(handle.port)]) == 2
        assert "missing" in capsys.readouterr().err

    def test_connection_refused_is_error(self, capsys):
        # port 1: nothing listening; retries exhausted -> exit 1
        assert main(["query", "ping", "--port", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestPythonDashM:
    def test_module_entry_point(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0
        assert "serve" in result.stdout
        assert "query" in result.stdout
