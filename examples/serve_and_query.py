"""Serve summary queries over TCP: batching, caching, metrics, hot-swap.

End-to-end tour of the ``repro.serve`` subsystem: summarize a graph,
stand up the asyncio query server in-process, query it through the
blocking client (including a pipelined batch), push a load burst, then
hot-swap the live summary from a dynamic edge stream without dropping
the connection.

Run with::

    python examples/serve_and_query.py
"""

import numpy as np

from repro import LDME, DynamicSummarizer, SummaryIndex, web_host_graph
from repro.serve import ServerConfig, ServerThread, SummaryClient, run_load


def main() -> None:
    graph = web_host_graph(num_hosts=40, host_size=30, seed=5)
    summary = LDME(k=5, iterations=15, seed=1).summarize(graph)
    print(f"graph: {graph.num_nodes} nodes / {graph.num_edges} edges, "
          f"compression {summary.compression:.3f}\n")

    config = ServerConfig(port=0, cache_entries=4096,
                          log_interval=0)
    with ServerThread(summary, config) as handle:
        print(f"server listening on 127.0.0.1:{handle.port}")
        client = SummaryClient("127.0.0.1", handle.port)

        # Point queries — answers match the summary index exactly.
        truth = SummaryIndex(summary)
        for v in (0, 7, 123):
            assert client.neighbors(v) == truth.neighbors(v)
            print(f"neighbors({v}): degree {client.degree(v)} [OK]")
        print(f"has_edge(0, 1) = {client.has_edge(0, 1)}")
        print(f"bfs(0) reaches {len(client.bfs(0))} nodes")

        # Pipelined queries coalesce into one vectorized server batch.
        nodes = list(range(100))
        lists = client.neighbors_many(nodes)
        print(f"pipelined {len(nodes)} neighborhoods "
              f"(total {sum(map(len, lists))} edges reported)")

        # A concurrent load burst, then the server's own accounting.
        report = run_load("127.0.0.1", handle.port,
                          num_queries=1000, concurrency=4, seed=0)
        print(report.format())
        stats = client.stats()
        print(f"server: cache_hit_rate={stats['cache']['hit_rate']:.2f} "
              f"batches={stats['metrics']['counters']['batches_total']} "
              f"generation={stats['generation']}")

        # Hot-swap from a dynamic stream — the connection stays open.
        ds = DynamicSummarizer(num_nodes=200, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(2000):
            u, v = rng.integers(200, size=2)
            if u != v:
                ds.insert(int(u), int(v))
        handle.server.swap(ds.snapshot())
        fresh = SummaryIndex(ds.snapshot())
        assert client.neighbors(5) == fresh.neighbors(5)
        print(f"\nhot-swapped to streamed graph "
              f"(generation {client.stats()['generation']}); "
              f"neighbors(5) now has degree {client.degree(5)} [OK]")
        client.close()
    print("server drained and stopped")


if __name__ == "__main__":
    main()
