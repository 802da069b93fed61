"""The batch workloads' program process.

Run by the benchmark in a fresh interpreter, pinned to the program CPU,
so that its peak RSS is the program's alone::

    python3 program.py summarize GRAPH OUT_DIR --seed S
    python3 program.py shard GRAPH OUT_DIR --seed S
    python3 program.py prep GRAPH OUT_FILE --seed S

``summarize``/``shard`` print one JSON line once imported, then obey one
command per stdin line, answering each with one JSON line:

* ``load`` -- load the graph once (a set-up sample); report the time;
* ``job`` -- load, summarize, write to ``OUT_DIR/job-<i>``; report the
  time and the summary's size;
* ``trace PREFIX`` -- install the layer wrappers; later jobs are traced
  and ``end`` writes the spans to ``PREFIX.*``;
* ``end`` -- exit.

The benchmark times its speed probe between commands, while this process
waits. ``prep`` summarizes once, untimed, for the serving workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

#: LDME settings of every batch job (the paper's LDME5, T = 20).
K, ITERATIONS, SHARDS = 5, 20, 4


def _summarize_job(graph_path: str, out: str, seed: int) -> dict:
    from repro import binaryio
    from repro.core.ldme import LDME
    from repro.graph import io

    graph = io.load_graph(graph_path)
    summary = LDME(k=K, iterations=ITERATIONS, seed=seed).summarize(graph)
    binaryio.write_summary_binary(summary, out + ".ldmeb")
    return {"objective": summary.objective, "num_edges": graph.num_edges,
            "compression": summary.compression, "problems": []}


def _shard_job(graph_path: str, out: str, seed: int) -> dict:
    from repro.graph import io
    from repro.shard import driver

    graph = io.load_graph(graph_path)
    result = driver.summarize_sharded(
        graph, shards=SHARDS, k=K, iterations=ITERATIONS, seed=seed,
        num_workers=1, out_dir=out,
    )
    summary = result.summary
    return {"objective": summary.objective, "num_edges": graph.num_edges,
            "compression": summary.compression,
            "problems": list(result.report.problems)}


JOBS = {"summarize": _summarize_job, "shard": _shard_job}


def _say(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("job", choices=sorted(JOBS) + ["prep"])
    parser.add_argument("graph")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    if args.job == "prep":
        _say(_summarize_job(args.graph, args.out, args.seed))
        return 0

    from repro.graph import io

    job = JOBS[args.job]
    os.makedirs(args.out, exist_ok=True)
    _say({"ready": True})

    run, tracer, prefix, count = job, None, None, 0
    for line in sys.stdin:
        command, _, argument = line.strip().partition(" ")
        if command == "load":
            tic = time.perf_counter()
            io.load_graph(args.graph)
            _say({"load_s": time.perf_counter() - tic})
        elif command == "job":
            out = os.path.join(args.out, f"job-{count}")
            tic = time.perf_counter()
            info = run(args.graph, out, args.seed)
            info["job_s"] = time.perf_counter() - tic
            count += 1
            _say(info)
        elif command == "trace":
            import tracer as tracing

            tracer, prefix = tracing.Tracer(), argument
            tracing.install(tracer)
            run = tracer.wrap("ledger:job", job)
            _say({"traced": True})
        elif command == "end":
            break
    if tracer is not None:
        tracer.write(prefix)
    _say({"jobs": count})
    return 0


if __name__ == "__main__":
    sys.exit(main())
