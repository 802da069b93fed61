"""Distributed LDME on the simulated cluster.

The simulated cluster is the Spark/EMR substitute of Figure 5(b): the
serial driver runs for real, each merge group's measured cost is a task
scheduled over simulated workers, and divide, the W-table build and
encode are charged as data-parallel phases. The summary is the serial
run's; only the wall clock is modelled.

Run with::

    python examples/distributed_summarization.py
"""

from repro import LDME, ClusterSpec, run_distributed, web_host_graph
from repro.core.reconstruct import verify_lossless


def main() -> None:
    graph = web_host_graph(num_hosts=60, host_size=40, seed=17)
    print(f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges\n")

    # Serial reference.
    serial = LDME(k=5, iterations=10, seed=0).summarize(graph)
    print(f"serial LDME5:      {serial.stats.total_seconds:.2f}s "
          f"compression {serial.compression:.3f}")

    # The same run under simulated clusters of growing size.
    for workers in (2, 4, 8):
        run = run_distributed(
            LDME(k=5, iterations=10, seed=0), graph,
            ClusterSpec(num_workers=workers),
        )
        assert run.summarization.objective == serial.objective
        verify_lossless(graph, run.summarization)
        print(f"simulated {workers} workers: "
              f"{run.simulated_seconds:.2f}s simulated "
              f"({run.serial_seconds:.2f}s of serial work, "
              f"{run.speedup:.1f}x modelled speedup)")


if __name__ == "__main__":
    main()
