"""Part timings of one sharded job, in-process.

Times the steps of ``summarize_sharded(..., out_dir=...)`` one by one on
the perf ledger's ``shard_rmat`` input (R-MAT, edge factor 8, 4 shards,
LDME k=5, T=20) and prints the best of ``--repeats`` runs per part::

    PYTHONPATH=src taskset -c 0 python benchmarks/shard_handoff.py \\
        --scale 12 --seed 1 --repeats 5

The parts: ``partition`` (hash-ring split), ``4xLDME`` (the per-shard
runs), ``stitch`` (lift + cut-edge encode, no validation), ``validate``
(coverage + ``check_summary`` with the graph), ``serving cut`` (every
shard's serving summary) and ``writes`` (``save_sharded``: global,
serving and local files). ``job`` is their sum.
"""

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "ledger"))

import inputs  # noqa: E402  (the ledger's seeded graph family)

from repro.core.ldme import LDME  # noqa: E402
from repro.core.validate import (  # noqa: E402
    check_summary,
    partition_coverage_problems,
)
from repro.shard import HashRing, partition_graph, stitch_shards  # noqa: E402
from repro.shard.manifest import save_sharded  # noqa: E402
from repro.shard.stitch import shard_serving_summary  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=12)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    graph = inputs.rmat_graph(args.seed, args.scale)
    best = {}

    def timed(name, step):
        tic = time.perf_counter()
        out = step()
        best[name] = min(best.get(name, float("inf")),
                         time.perf_counter() - tic)
        return out

    for _ in range(args.repeats):
        ring = HashRing(4, virtual_nodes=64, seed=args.seed)
        sharded = timed("partition", lambda: partition_graph(graph, ring))
        summaries = timed("4xLDME", lambda: {
            shard.shard_id: LDME(k=5, iterations=20,
                                 seed=args.seed + shard.shard_id)
            .summarize(shard.local_graph)
            for shard in sharded.shards
        })
        stitched = timed("stitch", lambda: stitch_shards(
            sharded, summaries, validate=False)).summary
        problems = timed("validate", lambda: partition_coverage_problems(
            stitched.partition, stitched.num_nodes)
            or check_summary(stitched, graph))
        assert not problems, problems
        serving = timed("serving cut", lambda: {
            shard.shard_id: shard_serving_summary(
                stitched, sharded, shard.shard_id)
            for shard in sharded.shards
        })
        with tempfile.TemporaryDirectory() as out:
            timed("writes", lambda: save_sharded(
                stitched, sharded, out, serving=serving,
                local_summaries=summaries))
    for name, seconds in best.items():
        print(f"{name:12s} {seconds * 1000:8.1f} ms")
    print(f"{'job':12s} {sum(best.values()) * 1000:8.1f} ms")


if __name__ == "__main__":
    main()
