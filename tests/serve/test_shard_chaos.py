"""Chaos validation of the sharded cluster: shard faults under load.

The acceptance scenario for sharded serving: a 2-shards x 2-replicas
cluster takes the full mixed workload through one hash-ring-routing
:class:`ClusterClient` while a deterministic :class:`ClusterFaultPlan`
kills one shard's replica mid-run, corrupts one shard artifact of a
pending manifest swap (the manifest CRC check must reject the whole
swap before any replica is touched), restarts the dead replica, and
finally rolls a healthy manifest swap shard-by-shard across the fleet.
Every answer is verified against the stitched global index.

Required outcome: **zero incorrect answers** and an error rate under
1%. The fault schedule keys on the load generator's progress counter,
so the same faults hit the same query indices every run. This is the
test the CI ``shard-chaos`` job runs.
"""

import time

import pytest

from repro.graph.generators import web_host_graph
from repro.queries.compiled import CompiledSummaryIndex
from repro.resilience import ClusterFaultPlan, ReplicaFault
from repro.serve import ServerConfig, SummaryCluster
from repro.serve.loadgen import run_load
from repro.shard import save_sharded, summarize_sharded

SEED = 4321           # fixed: the CI shard-chaos job depends on it


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    graph = web_host_graph(num_hosts=6, host_size=12, seed=42)
    out = tmp_path_factory.mktemp("shard-chaos") / "current"
    result = summarize_sharded(
        graph, shards=2, k=5, iterations=8, seed=0, out_dir=str(out)
    )
    assert result.report.ok
    return result


@pytest.fixture(scope="module")
def truth(run):
    return CompiledSummaryIndex(run.summary)


@pytest.mark.chaos
class TestShardChaos:
    def test_chaos_run_zero_wrong_answers(self, run, truth, tmp_path,
                                          capsys):
        bad = tmp_path / "bad"          # corrupted by the plan
        good = tmp_path / "good"
        save_sharded(run.summary, run.sharded, bad)
        save_sharded(run.summary, run.sharded, good)

        with SummaryCluster.from_manifest(
            run.manifest,
            replicas=2,
            config=ServerConfig(degraded_enabled=True),
        ) as cluster:
            client = cluster.client(
                timeout=2.0,
                hedge_delay=0.25,
                breaker_recovery=0.3,
            )
            client.start_health_checks(interval=0.1, probe_timeout=1.0)
            plan = ClusterFaultPlan(cluster, [
                # Replica 1 = shard 0's second replica: in-shard
                # failover must absorb it.
                ReplicaFault(at_progress=150, replica=1, action="kill"),
                # One damaged shard artifact fails the whole manifest's
                # CRC verification; no replica may be touched.
                ReplicaFault(at_progress=350, action="corrupt_swap",
                             path=str(bad)),
                ReplicaFault(at_progress=550, replica=1,
                             action="restart"),
                # Healthy manifest rolls one shard at a time.
                ReplicaFault(at_progress=750, action="swap",
                             path=str(good)),
            ])
            try:
                report = run_load(
                    "127.0.0.1",
                    cluster.addresses[0][1],
                    num_queries=1200,
                    concurrency=4,
                    seed=SEED,
                    client_factory=lambda: client,
                    truth=truth,
                    on_progress=plan.on_progress,
                )

                assert plan.exhausted
                assert plan.errors == []
                assert [t[1] for t in plan.triggered] == [
                    "kill", "corrupt_swap", "restart", "swap",
                ]

                # Correctness is non-negotiable: every answer that came
                # back — routed, scattered, failed-over, hedged, or
                # stale-flagged — matched the stitched global truth.
                assert report.wrong == 0
                assert report.errors / report.num_queries < 0.01

                # The corrupted manifest was rejected at load time, the
                # fleet untouched; the healthy swap then rolled through
                # shard by shard.
                corrupt_report, swap_report = plan.swap_reports
                assert not corrupt_report.ok
                assert not corrupt_report.rolled_back
                assert "load failed" in corrupt_report.error
                assert swap_report.ok
                assert swap_report.swapped_shards == cluster.shard_ids
                assert cluster.generations() == [1, 1, 1, 1]

                # Recovery: active health checks close every breaker.
                deadline = time.time() + 15
                while time.time() < deadline:
                    if set(client.breaker_states().values()) == \
                            {"closed"}:
                        break
                    time.sleep(0.05)
                assert set(client.breaker_states().values()) == \
                    {"closed"}

                # The recovered sharded fleet answers correctly
                # everywhere, across both shards.
                for v in range(12):
                    assert client.neighbors(v) == truth.neighbors(v)

                # The report is the CI artifact; print it so the job
                # log (and --capture=no runs) always carries the
                # numbers.
                with capsys.disabled():
                    print()
                    print(report.format())
                    print("shard generations:",
                          cluster.shard_generations())
                    print("breakers:", client.breaker_states())
            finally:
                client.shutdown()
