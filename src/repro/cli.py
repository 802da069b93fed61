"""Command-line interface.

``ldme`` (installed via the console script) exposes the library's main
workflows::

    ldme summarize graph.txt --k 5 --iterations 20 -o out.summary
    ldme reconstruct out.summary -o rebuilt.txt
    ldme stats graph.txt
    ldme experiment fig2 fig4
    ldme datasets
    ldme serve out.summary --port 7421
    ldme query neighbors 12 --port 7421
    ldme summarize big.txt --checkpoint-dir ckpts/   # crash-safe resume
    ldme loadgen --port 7421 --chaos
    ldme shard-summarize big.txt --shards 4 -o manifest/
    ldme serve-cluster --manifest manifest/ --replicas 2
    ldme migrate store/ --init --graph big.txt --shards 2
    ldme migrate store/ --graph big.txt --shards 3   # elastic re-shard
    ldme ingest updates.stream --wal-dir wal/ --num-nodes 100000
    ldme ingest --listen 7500 --wal-dir wal/ --num-nodes 100000 --cluster 2

Graphs are plain edge-list files (``u v`` per line, ``#`` comments).
``python -m repro ...`` works identically without the console script.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .baselines.sweg import SWeG
from .core.ldme import LDME
from .core.reconstruct import reconstruct
from .experiments.reporting import format_result, format_table
from .experiments.runner import EXPERIMENTS, run_all
from .graph import datasets
from .graph.io import load_graph, read_summary, save_graph, write_summary
from .graph.stats import graph_stats

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="ldme",
        description="Correction-set graph summarization with weighted LSH.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize a graph file")
    p_sum.add_argument("graph", help="edge-list (or .adj) graph file")
    p_sum.add_argument("--algorithm", choices=("ldme", "sweg"), default="ldme")
    p_sum.add_argument("--k", type=int, default=5, help="DOPH signature length")
    p_sum.add_argument("--iterations", "-T", type=int, default=20)
    p_sum.add_argument("--epsilon", type=float, default=0.0,
                       help="lossy error bound (0 = lossless)")
    p_sum.add_argument("--seed", type=int, default=0)
    p_sum.add_argument("--output", "-o", help="write the summary to this path")
    p_sum.add_argument("--resume-from", metavar="CKPT",
                       help="warm-start from a partition checkpoint")
    p_sum.add_argument("--checkpoint", metavar="CKPT",
                       help="write the final partition checkpoint here")
    p_sum.add_argument("--checkpoint-dir", metavar="DIR",
                       help="checkpoint loop state into DIR every "
                            "--checkpoint-every iterations; an interrupted "
                            "run re-launched with the same flags resumes "
                            "from the last good checkpoint")
    p_sum.add_argument("--checkpoint-every", type=int, default=1,
                       metavar="N",
                       help="iterations between checkpoints (default 1)")
    p_sum.add_argument("--trace", metavar="PATH",
                       help="record a span trace of the run and export it "
                            "as JSONL to PATH")
    p_sum.add_argument("--profile", action="store_true",
                       help="print per-kernel self-time attribution after "
                            "the run")
    p_sum.add_argument("--no-resume", action="store_true",
                       help="ignore existing checkpoints in "
                            "--checkpoint-dir and start fresh")

    p_rec = sub.add_parser("reconstruct", help="rebuild a graph from a summary")
    p_rec.add_argument("summary", help="summary file written by 'summarize'")
    p_rec.add_argument("--output", "-o", required=True,
                       help="edge-list output path")

    p_stats = sub.add_parser("stats", help="print statistics of a graph file")
    p_stats.add_argument("graph")

    p_exp = sub.add_parser("experiment", help="run paper experiments")
    p_exp.add_argument(
        "names",
        nargs="*",
        help=f"experiments to run (default all): {', '.join(EXPERIMENTS)}",
    )
    p_exp.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format for the result rows",
    )
    p_exp.add_argument(
        "--output-dir", metavar="DIR",
        help="also save each result as DIR/<experiment>.csv (or .json)",
    )

    sub.add_parser("datasets", help="list the Table 1 dataset surrogates")

    p_cmp = sub.add_parser(
        "compare", help="run several algorithms on one graph side by side"
    )
    p_cmp.add_argument("graph")
    p_cmp.add_argument(
        "--algorithms",
        nargs="+",
        default=["ldme5", "ldme20", "sweg"],
        choices=["ldme5", "ldme20", "sweg", "mosso", "randomized", "sags"],
    )
    p_cmp.add_argument("--iterations", "-T", type=int, default=10)
    p_cmp.add_argument("--seed", type=int, default=0)

    p_ana = sub.add_parser(
        "analyze", help="run analytics directly on a summary file"
    )
    p_ana.add_argument("summary", help="summary file (text or .ldmeb binary)")
    p_ana.add_argument("--top", type=int, default=5,
                       help="how many top-degree nodes to list")

    p_str = sub.add_parser(
        "stream", help="replay a +/- edge stream and summarize the result"
    )
    p_str.add_argument("stream", help="stream file of '+ u v' / '- u v' lines")
    p_str.add_argument("--num-nodes", type=int, required=True)
    p_str.add_argument("--sample-size", type=int, default=120)
    p_str.add_argument("--seed", type=int, default=0)
    p_str.add_argument("--output", "-o", help="write the snapshot summary")

    p_ing = sub.add_parser(
        "ingest",
        help="durable streaming ingestion: WAL-backed online "
             "summarization with crash recovery (see docs/streaming.md)",
    )
    p_ing.add_argument("stream", nargs="?",
                       help="stream file of '+ u v' / '- u v' lines; omit "
                            "when using --listen")
    p_ing.add_argument("--listen", type=int, metavar="PORT",
                       help="accept live events over TCP on this port "
                            "instead of replaying a stream file "
                            "(0 = ephemeral; replies 'ack <seq>' after "
                            "the event is durable)")
    p_ing.add_argument("--wal-dir", required=True, metavar="DIR",
                       help="write-ahead-log directory; re-running with "
                            "the same DIR recovers (checkpoint + replay) "
                            "and resumes exactly where the log ends")
    p_ing.add_argument("--checkpoint-dir", metavar="DIR",
                       help="snapshot checkpoints (default: "
                            "WAL_DIR/checkpoints)")
    p_ing.add_argument("--num-nodes", type=int, required=True)
    p_ing.add_argument("--snapshot-every", type=int, default=0, metavar="N",
                       help="events between snapshot checkpoints "
                            "(0 = only the final one at shutdown)")
    p_ing.add_argument("--sample-size", type=int, default=120)
    p_ing.add_argument("--seed", type=int, default=0)
    p_ing.add_argument("--segment-bytes", type=int, default=1 << 20,
                       help="WAL segment rotation threshold")
    p_ing.add_argument("--queue-max", type=int, default=4096,
                       help="backpressure bound on accepted-but-unlogged "
                            "events")
    p_ing.add_argument("--no-fsync", action="store_true",
                       help="skip per-batch fsync (forfeits the "
                            "durability guarantee; benchmarks only)")
    p_ing.add_argument("--ack-log", metavar="PATH",
                       help="append every acknowledged seq to PATH "
                            "(flushed per batch; the chaos gate's "
                            "zero-loss evidence)")
    p_ing.add_argument("--cluster", type=int, default=0, metavar="N",
                       help="also serve N replicas and hot-swap them on "
                            "every snapshot (zero downtime)")
    p_ing.add_argument("--port-base", type=int, default=0,
                       help="with --cluster: first replica port "
                            "(0 = ephemeral)")
    p_ing.add_argument("--output", "-o",
                       help="write the final snapshot summary here on "
                            "clean shutdown")

    p_eval = sub.add_parser(
        "evaluate",
        help="score a summary's partition against ground-truth labels",
    )
    p_eval.add_argument("summary", help="summary file (text or .ldmeb)")
    p_eval.add_argument("labels", help="labels file: 'node label' per line")

    p_srv = sub.add_parser(
        "serve", help="serve summary queries over TCP (see docs/serving.md)"
    )
    p_srv.add_argument("summary", help="summary file (text or .ldmeb)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7421,
                       help="listen port (0 = ephemeral)")
    p_srv.add_argument("--max-batch", type=int, default=128)
    p_srv.add_argument("--cache-size", type=int, default=4096,
                       help="LRU result-cache entries (0 disables)")
    p_srv.add_argument("--max-pending", type=int, default=1024,
                       help="admission-control bound on queued queries")
    p_srv.add_argument("--request-timeout", type=float, default=5.0)
    p_srv.add_argument("--log-interval", type=float, default=30.0,
                       help="metrics heartbeat period (0 disables)")
    p_srv.add_argument("--metrics-port", type=int, default=None,
                       help="also serve Prometheus text metrics over HTTP "
                            "on this port (GET /metrics; 0 = ephemeral)")
    p_srv.add_argument("--trace", metavar="PATH",
                       help="record batch-execution spans and export them "
                            "as JSONL to PATH on shutdown")
    p_srv.add_argument("--profile", action="store_true",
                       help="sample the event-loop thread and print a "
                            "profile on shutdown")
    p_srv.add_argument("--allow-reload", action="store_true",
                       help="permit clients to hot-swap via 'reload'")

    p_shs = sub.add_parser(
        "shard-summarize",
        help="partition a graph by consistent hashing, summarize each "
             "shard, stitch, and write a shard manifest "
             "(see docs/sharding.md)",
    )
    p_shs.add_argument("graph", help="edge-list (or .adj) graph file")
    p_shs.add_argument("--shards", type=int, default=4,
                       help="number of shards (hash-ring over 0..K-1)")
    p_shs.add_argument("--k", type=int, default=5,
                       help="DOPH signature length")
    p_shs.add_argument("--iterations", "-T", type=int, default=20)
    p_shs.add_argument("--seed", type=int, default=0)
    p_shs.add_argument("--virtual-nodes", type=int, default=64,
                       help="ring points per shard (balance knob)")
    p_shs.add_argument("--checkpoint-dir", metavar="DIR",
                       help="crash-safe resume; each shard checkpoints "
                            "under DIR/shard-<id>/")
    p_shs.add_argument("--out", "-o", metavar="DIR",
                       help="write the shard manifest directory "
                            "(global + per-shard serving artifacts)")
    p_shs.add_argument("--no-validate", action="store_true",
                       help="skip the stitched-summary losslessness proof")

    p_clu = sub.add_parser(
        "serve-cluster",
        help="serve a replica set with degraded-mode failover "
             "(see docs/serving.md, 'Running a replica set')",
    )
    p_clu.add_argument("summary", nargs="?",
                       help="summary file (text or .ldmeb); omit when "
                            "using --manifest")
    p_clu.add_argument("--manifest", metavar="DIR",
                       help="shard-manifest directory: serve a "
                            "shards x replicas cluster with hash-ring "
                            "routing (see docs/sharding.md)")
    p_clu.add_argument("--replicas", type=int, default=3,
                       help="replicas (per shard, with --manifest)")
    p_clu.add_argument("--host", default="127.0.0.1")
    p_clu.add_argument("--port-base", type=int, default=0,
                       help="first replica port; replica i listens on "
                            "port-base+i (0 = all ephemeral)")
    p_clu.add_argument("--cache-size", type=int, default=4096)
    p_clu.add_argument("--max-pending", type=int, default=1024)
    p_clu.add_argument("--request-timeout", type=float, default=5.0)
    p_clu.add_argument("--shed-fraction", type=float, default=0.9,
                       help="fraction of max-pending at which best-effort "
                            "(priority>=2) queries are shed")
    p_clu.add_argument("--no-degraded", action="store_true",
                       help="disable degraded mode (error instead of "
                            "serving flagged stale cached answers)")

    p_qry = sub.add_parser("query", help="query a running summary server")
    p_qry.add_argument(
        "op",
        choices=("neighbors", "degree", "has_edge", "bfs", "stats",
                 "ping", "reload",
                 "analytics.degree", "analytics.degree_hist",
                 "analytics.pagerank", "analytics.triangles",
                 "analytics.modularity", "analytics.slice"),
    )
    p_qry.add_argument("args", nargs="*",
                       help="node id(s), or a summary path for 'reload'")
    p_qry.add_argument("--top", type=int, default=None,
                       help="analytics.pagerank: print only the top-N "
                            "nodes by rank")
    p_qry.add_argument("--host", default="127.0.0.1")
    p_qry.add_argument("--port", type=int, default=7421)
    p_qry.add_argument("--timeout", type=float, default=10.0)
    p_qry.add_argument("--cluster", metavar="HOST:PORT,...",
                       help="query a replica set through the failover "
                            "client instead of one server")
    p_qry.add_argument("--manifest", metavar="DIR",
                       help="with --cluster: shard-manifest directory; "
                            "routes by its hash ring (addresses are "
                            "shard-major, as serve-cluster prints them)")
    p_qry.add_argument("--deadline", type=float, default=None,
                       help="end-to-end deadline in seconds, propagated "
                            "to the server queue")
    p_qry.add_argument("--priority", type=int, default=None,
                       help="0=critical 1=normal 2+=best-effort "
                            "(shed first under load)")

    p_load = sub.add_parser(
        "loadgen", help="drive a mixed query load at a running server"
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, default=7421)
    p_load.add_argument("--queries", "-n", type=int, default=1000)
    p_load.add_argument("--concurrency", "-c", type=int, default=4)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--skew", type=float, default=2.0,
                        help="node-selection skew exponent (hot-key bias)")
    p_load.add_argument("--timeout", type=float, default=30.0)
    p_load.add_argument("--chaos", action="store_true",
                        help="inject deterministic connection chaos: "
                            "forced reconnects and malformed frames while "
                            "the load runs")
    p_load.add_argument("--chaos-drop-every", type=int, default=25,
                        metavar="N",
                        help="with --chaos: drop the connection every Nth "
                             "query per worker (0 disables)")
    p_load.add_argument("--trace", metavar="PATH",
                        help="record load-run spans and export them as "
                             "JSONL to PATH")
    p_load.add_argument("--profile", action="store_true",
                        help="sample all threads during the run and print "
                             "a profile")
    p_load.add_argument("--chaos-junk-every", type=int, default=50,
                        metavar="N",
                        help="with --chaos: send a garbage frame every Nth "
                             "query per worker (0 disables)")
    p_load.add_argument("--cluster", metavar="HOST:PORT,...",
                        help="drive the load through a shared failover "
                             "client over these replicas")
    p_load.add_argument("--manifest", metavar="DIR",
                        help="with --cluster: shard-manifest directory; "
                             "routes by its hash ring (addresses are "
                             "shard-major, as serve-cluster prints them)")
    p_load.add_argument("--hedge-delay", type=float, default=None,
                        help="with --cluster: hedge queries to a second "
                             "replica after this many seconds")
    p_load.add_argument("--analytics-fraction", type=float, default=0.0,
                        metavar="F",
                        help="blend this fraction of summary-native "
                             "analytics.* ops into the query mix "
                             "(0 disables, 1 = analytics only)")
    p_load.add_argument("--truth", metavar="PATH",
                        help="verify every answer against ground truth — "
                             "a summary file or a shard-manifest "
                             "directory; mismatches count as 'wrong'")
    p_load.add_argument("--during-migration", metavar="STORE",
                        help="label each query with the live migration "
                             "phase read from STORE's journal (a "
                             "generation-store root; see 'migrate'), so "
                             "the report breaks wrong/error counts down "
                             "per phase")

    p_mig = sub.add_parser(
        "migrate",
        help="elastic re-sharding: bootstrap a generation store, then "
             "plan and run crash-safe ring membership changes (see "
             "docs/sharding.md, 'Growing and shrinking the ring')",
    )
    p_mig.add_argument("store", help="generation-store root directory")
    p_mig.add_argument("--graph", metavar="PATH",
                       help="edge-list graph file (the key universe; "
                            "required except with --abort)")
    p_mig.add_argument("--init", action="store_true",
                       help="bootstrap the store: summarize --graph into "
                            "gen-000000 over --shards shards")
    p_mig.add_argument("--shards", type=int, default=None,
                       help="with --init the initial shard count, "
                            "otherwise the target ring size to migrate to")
    p_mig.add_argument("--virtual-nodes", type=int, default=1,
                       help="ring points per shard (1 keeps an expansion's "
                            "targeted rebuild minimal; use the same value "
                            "for every run against one store)")
    p_mig.add_argument("--plan-only", action="store_true",
                       help="print the migration plan and exit without "
                            "building anything")
    p_mig.add_argument("--resume", action="store_true",
                       help="continue whatever migration the journal says "
                            "was in flight")
    p_mig.add_argument("--abort", action="store_true",
                       help="roll the active migration back to the old "
                            "generation")
    p_mig.add_argument("--kill-at-step", metavar="STEP",
                       choices=("plan", "build", "built", "prepare",
                                "commit", "done"),
                       help="fault injection: die (exit code 3) right "
                            "after the named journal step is persisted; "
                            "a later --resume picks up from there")
    p_mig.add_argument("--k", type=int, default=5,
                       help="DOPH signature length")
    p_mig.add_argument("--iterations", "-T", type=int, default=20)
    p_mig.add_argument("--seed", type=int, default=0)
    p_mig.add_argument("--no-validate", action="store_true",
                       help="skip the stitched-summary losslessness proof")
    return parser


def _parse_addresses(spec: str) -> List[tuple]:
    """Parse ``host:port,host:port`` into ``[(host, port), ...]``."""
    addresses = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, _, port = part.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"bad replica address {part!r} "
                             "(expected host:port)")
        addresses.append((host, int(port)))
    if not addresses:
        raise ValueError("no replica addresses given")
    return addresses


def _sharded_client_kwargs(manifest_dir: str, addresses: List[tuple]):
    """``ClusterClient`` kwargs for ring-routed access to a sharded fleet.

    The flat address list must be shard-major with an equal replica
    count per shard — exactly the order ``serve-cluster --manifest``
    binds and prints.
    """
    from .shard import load_manifest

    manifest = load_manifest(manifest_dir, verify=False)
    sids = manifest.shard_ids
    if len(addresses) % len(sids):
        raise ValueError(
            f"{len(addresses)} addresses do not divide over "
            f"{len(sids)} manifest shards"
        )
    per_shard = len(addresses) // len(sids)
    shards = {
        sid: addresses[i * per_shard:(i + 1) * per_shard]
        for i, sid in enumerate(sids)
    }
    return {"shards": shards, "ring": manifest.ring}


def _cmd_summarize(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    if args.algorithm == "ldme":
        algo = LDME(
            k=args.k,
            iterations=args.iterations,
            epsilon=args.epsilon,
            seed=args.seed,
        )
    else:
        algo = SWeG(
            iterations=args.iterations, epsilon=args.epsilon, seed=args.seed
        )
    import contextlib

    from .obs import profile as obs_profile
    from .obs import trace as obs_trace

    tracer = obs_trace.Tracer(seed=args.seed) if args.trace else None
    profiler = obs_profile.KernelProfiler() if args.profile else None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs_trace.use(tracer))
        if profiler is not None:
            stack.enter_context(obs_profile.use(profiler))
        if args.checkpoint_dir:
            if args.resume_from:
                print(
                    "error: --resume-from (partition warm-start) and "
                    "--checkpoint-dir (crash-safe resume) are mutually "
                    "exclusive", file=sys.stderr,
                )
                return 2
            from .resilience import run_resumable

            summary = run_resumable(
                algo,
                graph,
                args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                resume=not args.no_resume,
            )
        else:
            initial = None
            if args.resume_from:
                from .graph.io import read_partition

                initial = read_partition(args.resume_from)
            summary = algo.summarize(graph, initial_partition=initial)
    if tracer is not None:
        written = tracer.export_jsonl(args.trace)
        print(f"trace: {written} spans written to {args.trace}")
    if profiler is not None:
        print(profiler.format_table())
    print(format_table([summary.describe()]))
    if args.output:
        write_summary(summary, args.output)
        print(f"summary written to {args.output}")
    if args.checkpoint:
        from .graph.io import write_partition

        write_partition(summary.partition, args.checkpoint)
        print(f"partition checkpoint written to {args.checkpoint}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    summary = read_summary(args.summary)
    graph = reconstruct(summary)
    save_graph(graph, args.output)
    print(
        f"reconstructed {graph.num_nodes} nodes / {graph.num_edges} edges "
        f"to {args.output}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    print(format_table([graph_stats(graph).as_dict()]))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments.reporting import to_csv, to_json
    from .experiments.runner import save_results

    results = run_all(args.names or None)
    if args.output_dir:
        fmt = "json" if args.format == "json" else "csv"
        for path in save_results(results, args.output_dir, fmt):
            print(f"saved {path}")
    for result in results:
        if args.format == "csv":
            print(to_csv(result), end="")
        elif args.format == "json":
            print(to_json(result))
        else:
            print(format_result(result))
            print()
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = [
        {
            "Graph": name,
            "Abbr": abbrev,
            "Paper nodes": paper_nodes,
            "Paper edges": paper_edges,
            "Surrogate nodes": nodes,
            "Surrogate edges": edges,
        }
        for name, abbrev, paper_nodes, paper_edges, nodes, edges
        in datasets.table1_rows()
    ]
    print(format_table(rows))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .baselines.mosso import MoSSo
    from .baselines.randomized import Randomized
    from .baselines.sags import SAGS
    from .metrics import size_report

    graph = load_graph(args.graph)
    factories = {
        "ldme5": lambda: LDME(k=5, iterations=args.iterations, seed=args.seed),
        "ldme20": lambda: LDME(k=20, iterations=args.iterations,
                               seed=args.seed),
        "sweg": lambda: SWeG(iterations=args.iterations, seed=args.seed),
        "mosso": lambda: MoSSo(seed=args.seed),
        "randomized": lambda: Randomized(seed=args.seed),
        "sags": lambda: SAGS(seed=args.seed),
    }
    rows = []
    for name in args.algorithms:
        import time as _time

        tic = _time.perf_counter()
        summary = factories[name]().summarize(graph)
        elapsed = _time.perf_counter() - tic
        report = size_report(graph, summary)
        rows.append(
            {
                "algorithm": summary.algorithm,
                "seconds": elapsed,
                "compression": summary.compression,
                "supernodes": summary.num_supernodes,
                "objective": summary.objective,
                "bit_ratio": report.bit_ratio,
            }
        )
    print(format_table(rows))
    return 0


def _load_any_summary(path: str):
    if path.endswith(".ldmeb"):
        from .binaryio import read_summary_binary

        return read_summary_binary(path)
    return read_summary(path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .queries import SummaryIndex, pagerank, top_degree_nodes, triangle_count

    summary = _load_any_summary(args.summary)
    index = SummaryIndex(summary)
    ranks = pagerank(index)
    hubs = top_degree_nodes(index, args.top)
    rows = [
        {
            "supernodes": summary.num_supernodes,
            "objective": summary.objective,
            "triangles": triangle_count(index),
            "top_degree": " ".join(map(str, hubs)),
            "pagerank_winner": int(ranks.argmax()) if ranks.size else -1,
        }
    ]
    print(format_table(rows))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .streaming import DynamicSummarizer, read_stream

    ds = DynamicSummarizer(
        num_nodes=args.num_nodes,
        sample_size=args.sample_size,
        seed=args.seed,
    )
    ds.apply(read_stream(args.stream))
    summary = ds.snapshot()
    print(format_table([summary.describe()]))
    if args.output:
        write_summary(summary, args.output)
        print(f"snapshot written to {args.output}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import contextlib
    import logging
    import os
    import time as _time

    from .ingest import IngestListener, IngestService, feed_stream_file

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    if (args.stream is None) == (args.listen is None):
        print("error: pass either a stream file or --listen PORT",
              file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        ack_log = None
        if args.ack_log:
            ack_log = stack.enter_context(
                open(args.ack_log, "a", encoding="utf-8")
            )

        def on_ack(first: int, last: int) -> None:
            # One line per durable seq, fsynced per batch: anything in
            # this file was acknowledged, so the chaos gate can demand
            # every listed seq survive recovery.
            if ack_log is None:
                return
            for seq in range(first, last + 1):
                ack_log.write(f"{seq}\n")
            ack_log.flush()
            os.fsync(ack_log.fileno())

        service, report = IngestService.open(
            args.wal_dir,
            num_nodes=args.num_nodes,
            sample_size=args.sample_size,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            snapshot_every=args.snapshot_every,
            segment_max_bytes=args.segment_bytes,
            queue_max=args.queue_max,
            fsync=not args.no_fsync,
            on_ack=on_ack,
        )
        print(f"recovery: {report.describe()}")
        if args.cluster:
            from .serve import SummaryCluster

            cluster = SummaryCluster(
                service.summarizer.snapshot(),
                replicas=args.cluster,
                port_base=args.port_base,
            )
            cluster.start()
            stack.callback(cluster.stop)
            service.cluster = cluster
            addresses = ",".join(f"{h}:{p}" for h, p in cluster.addresses)
            print(f"serving {args.cluster} replicas on {addresses} "
                  f"(hot-swapped every snapshot)")
        service.start()
        stack.callback(service.stop)
        if args.listen is not None:
            listener = stack.enter_context(
                IngestListener(service, port=args.listen)
            )
            host, port = listener.address
            print(f"ingesting on {host}:{port} — ctrl-c to drain and stop")
            try:
                while True:
                    _time.sleep(3600)
            except KeyboardInterrupt:
                print("draining...")
        else:
            submitted = feed_stream_file(
                service, args.stream, start_index=report.last_seq
            )
            service.drain()
            print(
                f"submitted {submitted} event(s) "
                f"(skipped {report.last_seq} already durable); "
                f"applied through seq {service.wal.last_seq}"
            )
        service.stop()
        status = service.status()
        print(
            f"final: {status['num_edges']} edges in "
            f"{status['num_supernodes']} supernodes, "
            f"seq {status['applied_seq']}, "
            f"{status['wal_segments']} WAL segment(s)"
        )
        if args.output:
            write_summary(service.summarizer.snapshot(), args.output)
            print(f"snapshot written to {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import compare_partitions, read_labels

    summary = _load_any_summary(args.summary)
    labels = read_labels(args.labels)
    if labels.size != summary.num_nodes:
        print(
            f"error: labels cover {labels.size} nodes but summary has "
            f"{summary.num_nodes}", file=sys.stderr,
        )
        return 1
    agreement = compare_partitions(summary.partition, labels)
    print(format_table([agreement.as_dict()]))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import contextlib
    import logging
    import signal

    from .obs import profile as obs_profile
    from .obs import trace as obs_trace
    from .serve import ServerConfig, SummaryServer

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    summary = _load_any_summary(args.summary)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        cache_entries=args.cache_size,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        log_interval=args.log_interval,
        allow_reload=args.allow_reload,
        metrics_port=args.metrics_port,
    )
    server = SummaryServer(summary, config)
    tracer = obs_trace.Tracer() if args.trace else None

    async def _run() -> None:
        await server.start()
        print(
            f"serving {args.summary} ({summary.num_nodes} nodes) "
            f"on {config.host}:{server.port} — ctrl-c to drain and stop"
        )
        if args.metrics_port is not None:
            print(
                "metrics on http://"
                f"{config.host}:{server.metrics_http_port}/metrics"
            )
        loop = asyncio.get_running_loop()
        stop_requested = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_requested.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop_requested.wait()
        print("draining in-flight requests...")
        await server.stop()

    profiler = (
        obs_profile.SamplingProfiler() if args.profile else None
    )
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(obs_trace.use(tracer))
        if profiler is not None:
            # asyncio.run drives the loop on this thread, so sampling
            # the calling thread profiles the event loop.
            stack.enter_context(profiler)
        asyncio.run(_run())
    if tracer is not None:
        written = tracer.export_jsonl(args.trace)
        print(f"trace: {written} spans written to {args.trace}")
    if profiler is not None:
        print(profiler.format_table())
    return 0


def _cmd_shard_summarize(args: argparse.Namespace) -> int:
    from .shard import summarize_sharded

    graph = load_graph(args.graph)
    result = summarize_sharded(
        graph,
        shards=args.shards,
        k=args.k,
        iterations=args.iterations,
        seed=args.seed,
        virtual_nodes=args.virtual_nodes,
        checkpoint_dir=args.checkpoint_dir,
        out_dir=args.out,
        validate=not args.no_validate,
    )
    report = result.report
    sizes = ", ".join(
        f"{s.shard_id}:{s.num_nodes}n/{s.local_graph.num_edges}e"
        for s in result.sharded.shards
    )
    print(f"shards: {sizes}")
    print(
        f"cut edges: {report.num_cut_edges} -> "
        f"{report.cross_superedges} cross superedges, "
        f"{report.cross_additions} C+, {report.cross_deletions} C-"
    )
    print(format_table([result.summary.describe()]))
    if not report.ok:
        for problem in report.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1
    if args.out:
        print(f"shard manifest written to {args.out}")
        print(f"serve with: ldme serve-cluster --manifest {args.out}")
    return 0


def _cmd_serve_cluster(args: argparse.Namespace) -> int:
    import logging
    import time as _time

    from .serve import ServerConfig, SummaryCluster

    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s %(message)s"
    )
    if (args.summary is None) == (args.manifest is None):
        print("error: pass either a summary file or --manifest DIR",
              file=sys.stderr)
        return 2
    template = ServerConfig(
        cache_entries=args.cache_size,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        shed_fraction=args.shed_fraction,
        degraded_enabled=not args.no_degraded,
    )
    if args.manifest is not None:
        cluster = SummaryCluster.from_manifest(
            args.manifest,
            replicas=args.replicas,
            config=template,
            host=args.host,
            port_base=args.port_base,
        )
        served = (
            f"{cluster.num_shards} shards x {args.replicas} replicas "
            f"from {args.manifest}"
        )
    else:
        summary = _load_any_summary(args.summary)
        cluster = SummaryCluster(
            summary,
            replicas=args.replicas,
            config=template,
            host=args.host,
            port_base=args.port_base,
        )
        served = (
            f"{args.replicas} replicas serving {args.summary} "
            f"({summary.num_nodes} nodes)"
        )
    cluster.start()
    addresses = ",".join(f"{h}:{p}" for h, p in cluster.addresses)
    print(f"cluster of {served} on {addresses} — ctrl-c to stop")
    manifest_flag = (
        f" --manifest {args.manifest}" if args.manifest is not None else ""
    )
    print(f"query with: ldme query ping --cluster {addresses}"
          f"{manifest_flag}")
    try:
        while True:
            _time.sleep(3600)
    except KeyboardInterrupt:
        print("stopping replicas...")
    finally:
        cluster.stop()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from .serve import ServerError, SummaryClient

    if args.cluster:
        from .serve import ClusterClient

        addresses = _parse_addresses(args.cluster)
        sharded = (
            _sharded_client_kwargs(args.manifest, addresses)
            if args.manifest else {}
        )
        client = ClusterClient(
            None if sharded else addresses,
            timeout=args.timeout,
            deadline=args.deadline,
            **sharded,
        )
    elif args.manifest:
        print("error: --manifest requires --cluster", file=sys.stderr)
        return 2
    else:
        client = SummaryClient(args.host, args.port, timeout=args.timeout)
    kw = {}
    if args.cluster:
        if args.deadline is not None:
            kw["deadline"] = args.deadline
        if args.priority is not None:
            kw["priority"] = args.priority
    positional = args.args
    try:
        if args.op == "neighbors":
            print(" ".join(map(str,
                               client.neighbors(int(positional[0]), **kw))))
        elif args.op == "degree":
            print(client.degree(int(positional[0]), **kw))
        elif args.op == "has_edge":
            print(client.has_edge(int(positional[0]), int(positional[1]),
                                  **kw))
        elif args.op == "bfs":
            for node, dist in sorted(client.bfs(int(positional[0]),
                                                **kw).items()):
                print(f"{node} {dist}")
        elif args.op == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.op == "ping":
            print("pong" if client.ping() else "no pong")
        elif args.op == "reload":
            if args.cluster:
                print("error: use a rolling swap for replica sets, not "
                      "'reload' (see docs/serving.md)", file=sys.stderr)
                return 2
            print(json.dumps(client.reload(positional[0])))
        elif args.op.startswith("analytics."):
            op_args = {}
            if args.op == "analytics.degree":
                op_args["v"] = int(positional[0])
            elif args.op == "analytics.pagerank" and args.top is not None:
                op_args["top"] = args.top
            print(json.dumps(
                client.analytics(args.op, op_args, **kw), sort_keys=True
            ))
    except IndexError:
        print(f"error: op {args.op!r} is missing an argument",
              file=sys.stderr)
        return 2
    except (ServerError, ConnectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.cluster:
            client.shutdown()
        else:
            client.close()
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    import json as _json

    from .shard import GenerationStore, HashRing, MigrationCoordinator
    from .shard.migrate import CoordinatorKilledError, plan_migration

    modes = sum(1 for m in (args.init, args.resume, args.abort) if m)
    if modes > 1:
        print("error: --init, --resume, and --abort are mutually "
              "exclusive", file=sys.stderr)
        return 2
    store = GenerationStore(args.store)

    if args.abort:
        report = MigrationCoordinator(store).abort()
        print(f"aborted migration to {report.new_generation}; "
              f"serving {store.current()}")
        return 0

    if not args.graph:
        print("error: --graph is required (except with --abort)",
              file=sys.stderr)
        return 2
    graph = load_graph(args.graph)

    if args.init:
        shards = args.shards if args.shards is not None else 2
        manifest = store.bootstrap(
            graph,
            shards,
            virtual_nodes=args.virtual_nodes,
            k=args.k,
            iterations=args.iterations,
            seed=args.seed,
            validate=not args.no_validate,
        )
        print(f"bootstrapped {store.current()}: "
              f"{len(manifest.shard_ids)} shards over "
              f"{graph.num_nodes} nodes / {graph.num_edges} edges")
        return 0

    on_step = None
    if args.kill_at_step:
        from .resilience import MigrationFault, MigrationFaultPlan

        on_step = MigrationFaultPlan(
            [MigrationFault(step=args.kill_at_step)]
        ).on_step
    coordinator = MigrationCoordinator(
        store,
        k=args.k,
        iterations=args.iterations,
        seed=args.seed,
        validate=not args.no_validate,
        on_step=on_step,
    )

    new_ring = None
    if not args.resume:
        if args.shards is None:
            print("error: pass --shards N (target ring size), --init, "
                  "--resume, or --abort", file=sys.stderr)
            return 2
        old_manifest = store.current_manifest(verify=False)
        new_ring = HashRing(args.shards, virtual_nodes=args.virtual_nodes)
        plan = plan_migration(old_manifest.ring, new_ring, graph)
        print("plan:", _json.dumps(plan.summary(), sort_keys=True))
        if args.plan_only:
            return 0

    try:
        if args.resume:
            report = coordinator.resume(graph)
        else:
            report = coordinator.migrate(new_ring, graph)
    except CoordinatorKilledError as exc:
        print(f"killed: {exc}", file=sys.stderr)
        return 3

    if report.committed:
        status = "committed"
    elif report.rolled_back:
        status = "rolled back"
    else:
        status = "incomplete"
    print(f"{status}: {report.old_generation} -> {report.new_generation}")
    print(f"  resummarized shards: {report.resummarized_shards}")
    print(f"  reused shards:       {report.reused_shards}")
    if report.replayed_events:
        print(f"  replayed ingest events: {report.replayed_events}")
    if report.error:
        print(f"  error: {report.error}")
    print(f"  serving: {store.current()}")
    return 0 if report.committed else 1


class _JournalPhaseWatcher:
    """Background poll of a generation store's migration journal.

    Gives ``loadgen --during-migration`` a cheap ``phase_fn``: queries
    read the cached phase instead of hitting the journal file each time.
    """

    def __init__(self, store_root: str, interval: float = 0.05) -> None:
        import threading

        from .shard import GenerationStore

        self._store = GenerationStore(store_root)
        self._interval = interval
        self._phase = "idle"
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="migration-phase-watcher", daemon=True
        )

    def start(self) -> "_JournalPhaseWatcher":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)

    def __call__(self) -> str:
        return self._phase

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                journal = self._store.read_journal()
            except Exception:
                journal = None  # journal unreadable mid-poll: keep going
            else:
                self._phase = journal.step if journal is not None else "idle"
            self._stop.wait(self._interval)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import contextlib

    from .obs import profile as obs_profile
    from .obs import trace as obs_trace
    from .serve import ChaosConfig, run_load, with_analytics

    mix = None
    if args.analytics_fraction:
        mix = with_analytics(fraction=args.analytics_fraction)
    chaos = None
    if args.chaos:
        chaos = ChaosConfig(
            drop_every=args.chaos_drop_every,
            junk_every=args.chaos_junk_every,
        )
    tracer = obs_trace.Tracer(seed=args.seed) if args.trace else None
    profiler = (
        obs_profile.SamplingProfiler(all_threads=True)
        if args.profile else None
    )
    truth = None
    if args.truth:
        import os as _os

        from .queries import CompiledSummaryIndex

        if _os.path.isdir(args.truth):
            from .shard import load_manifest

            truth = CompiledSummaryIndex(
                load_manifest(args.truth, verify=False).load_global()
            )
        else:
            truth = CompiledSummaryIndex(_load_any_summary(args.truth))
    phase_watcher = None
    if args.during_migration:
        phase_watcher = _JournalPhaseWatcher(args.during_migration).start()
    cluster_client = None
    client_factory = None
    host, port = args.host, args.port
    if args.manifest and not args.cluster:
        print("error: --manifest requires --cluster", file=sys.stderr)
        return 2
    if args.cluster:
        from .serve import ClusterClient

        addresses = _parse_addresses(args.cluster)
        sharded = (
            _sharded_client_kwargs(args.manifest, addresses)
            if args.manifest else {}
        )
        cluster_client = ClusterClient(
            None if sharded else addresses,
            timeout=args.timeout,
            hedge_delay=args.hedge_delay,
            **sharded,
        )
        cluster_client.start_health_checks()
        client_factory = lambda: cluster_client  # noqa: E731 - shared
        host, port = addresses[0]
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(obs_trace.use(tracer))
            if profiler is not None:
                stack.enter_context(profiler)
            report = run_load(
                host,
                port,
                num_queries=args.queries,
                concurrency=args.concurrency,
                mix=mix,
                seed=args.seed,
                skew=args.skew,
                client_timeout=args.timeout,
                chaos=chaos,
                client_factory=client_factory,
                truth=truth,
                phase_fn=phase_watcher,
            )
    finally:
        if phase_watcher is not None:
            phase_watcher.stop()
        if cluster_client is not None:
            print("breakers:", cluster_client.breaker_states())
            cluster_client.shutdown()
    if tracer is not None:
        written = tracer.export_jsonl(args.trace)
        print(f"trace: {written} spans written to {args.trace}")
    if profiler is not None:
        print(profiler.format_table())
    print(report.format())
    return 1 if (report.errors or report.wrong) else 0


_COMMANDS = {
    "summarize": _cmd_summarize,
    "reconstruct": _cmd_reconstruct,
    "stats": _cmd_stats,
    "experiment": _cmd_experiment,
    "datasets": _cmd_datasets,
    "compare": _cmd_compare,
    "analyze": _cmd_analyze,
    "stream": _cmd_stream,
    "ingest": _cmd_ingest,
    "evaluate": _cmd_evaluate,
    "serve": _cmd_serve,
    "shard-summarize": _cmd_shard_summarize,
    "serve-cluster": _cmd_serve_cluster,
    "query": _cmd_query,
    "loadgen": _cmd_loadgen,
    "migrate": _cmd_migrate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
