"""Load-generator benchmark for the query-serving layer.

Stands up a real :class:`repro.serve.SummaryServer` in-process (its own
event-loop thread) and drives a mixed neighbors/degree/has_edge/bfs
workload through blocking clients on worker threads — the full wire
path: framing, batching, cache, admission control, metrics.
"""

from conftest import once

from repro.core.ldme import LDME
from repro.serve import ServerConfig, ServerThread, run_load


def test_serve_load_report(benchmark, dataset_cache):
    graph = dataset_cache("CN")
    summary = LDME(k=5, iterations=10, seed=0).summarize(graph)
    config = ServerConfig(max_batch=256, cache_entries=8192,
                          log_interval=0)

    def measure():
        with ServerThread(summary, config) as handle:
            report = run_load(
                "127.0.0.1", handle.port,
                num_queries=2000, concurrency=8, seed=0,
            )
            from repro.serve import SummaryClient

            client = SummaryClient("127.0.0.1", handle.port)
            stats = client.stats()
            client.close()
        return report, stats

    report, stats = once(benchmark, measure)
    print()
    print(report.format())
    cache = stats["cache"]
    batch = stats["metrics"]["histograms"].get("batch_size", {})
    print(f"server: cache_hit_rate={cache['hit_rate']:.2f} "
          f"batches={stats['metrics']['counters'].get('batches_total', 0)} "
          f"batch_mean={batch.get('mean', 0):.1f} "
          f"batch_max={batch.get('max', 0)}")
    assert report.errors == 0
    assert report.num_queries == 2000
    assert cache["hit_rate"] > 0        # skewed traffic must hit the cache
