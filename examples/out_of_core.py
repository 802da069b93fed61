"""Bounded-memory ingestion and long-run checkpointing.

The workflow for inputs too large to handle casually: load the edge file
with the blocked reader (it parses a fixed number of lines at a time, so
only the parsed ids grow with the file), summarize in stages with
partition checkpoints between them, and store the result in the compact
binary format.

Run with::

    python examples/out_of_core.py
"""

import os
import tempfile

from repro import LDME, verify_lossless, web_host_graph, write_summary_binary
from repro.graph.io import (
    load_graph,
    read_partition,
    write_edge_list,
    write_partition,
)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        # Stand-in for a huge crawl file on disk.
        graph = web_host_graph(num_hosts=40, host_size=30, seed=23)
        edge_file = os.path.join(tmp, "crawl.txt")
        write_edge_list(graph, edge_file)
        size_kb = os.path.getsize(edge_file) / 1024
        print(f"edge file: {size_kb:.0f} KB, {graph.num_edges} edges")

        # Text blocks are parsed with numpy and the CSR is built from one
        # sorted key per edge; .gz files load the same way.
        loaded = load_graph(edge_file)
        assert loaded == graph
        print(f"load OK ({loaded.num_nodes} nodes)")

        # Stage 1: a few iterations, then checkpoint the partition.
        ckpt = os.path.join(tmp, "stage1.ckpt")
        stage1 = LDME(k=5, iterations=5, seed=0).summarize(loaded)
        write_partition(stage1.partition, ckpt)
        print(f"stage 1: compression {stage1.compression:.3f} "
              f"(checkpoint {os.path.getsize(ckpt)/1024:.0f} KB)")

        # Stage 2 (could be another process): resume and keep merging.
        warm = read_partition(ckpt)
        stage2 = LDME(k=5, iterations=10, seed=1).summarize(
            loaded, initial_partition=warm
        )
        verify_lossless(loaded, stage2)
        print(f"stage 2: compression {stage2.compression:.3f} "
              f"(resumed from checkpoint)")
        assert stage2.objective <= stage1.objective

        # Ship the final result compactly.
        out = os.path.join(tmp, "final.ldmeb")
        bytes_written = write_summary_binary(stage2, out)
        print(f"binary summary: {bytes_written/1024:.0f} KB "
              f"vs raw edge file {size_kb:.0f} KB")


if __name__ == "__main__":
    main()
