"""Chaos validation of the replica set: faults under live load.

The acceptance scenario for replicated serving: three replicas take a
mixed query workload through one shared :class:`ClusterClient` while a
deterministic :class:`ClusterFaultPlan` kills a replica mid-run,
corrupts another's hot-swap artifact, restarts the dead replica, and
finally rolls a healthy swap across the fleet. Every answer is verified
against the compiled ground-truth index.

Required outcome: **zero incorrect answers**, an error rate under 1%,
and every circuit breaker closed again once the fleet has recovered.
The fault schedule keys on the load generator's progress counter (not
wall-clock), so the same faults hit the same query indices every run.
"""

import time

import numpy as np
import pytest

from repro.binaryio import write_summary_binary
from repro.core.ldme import LDME
from repro.queries.compiled import CompiledSummaryIndex
from repro.resilience import ClusterFaultPlan, ReplicaFault
from repro.serve import ServerConfig, SummaryCluster
from repro.serve.loadgen import run_load, with_analytics

SEED = 1234           # fixed: the CI cluster-chaos job depends on it


@pytest.fixture(scope="module")
def summary():
    from repro.graph.generators import web_host_graph

    graph = web_host_graph(num_hosts=6, host_size=12, seed=42)
    return LDME(k=5, iterations=8, seed=0).summarize(graph)


@pytest.fixture(scope="module")
def truth(summary):
    return CompiledSummaryIndex(summary)


def expected_neighbors(truth, v):
    return [int(x) for x in
            truth.neighbors_batch(np.asarray([v], dtype=np.int64))[0]]


@pytest.mark.chaos
class TestClusterChaos:
    def test_chaos_run_zero_wrong_answers_and_full_recovery(
        self, summary, truth, tmp_path, capsys
    ):
        bad = tmp_path / "bad.ldmeb"
        good = tmp_path / "good.ldmeb"
        write_summary_binary(summary, bad)     # corrupted by the plan
        write_summary_binary(summary, good)

        with SummaryCluster(
            summary,
            replicas=3,
            config=ServerConfig(degraded_enabled=True),
        ) as cluster:
            client = cluster.client(
                timeout=2.0,
                hedge_delay=0.25,
                breaker_recovery=0.3,
            )
            client.start_health_checks(interval=0.1, probe_timeout=1.0)
            plan = ClusterFaultPlan(cluster, [
                ReplicaFault(at_progress=150, replica=1, action="kill"),
                ReplicaFault(at_progress=350, action="corrupt_swap",
                             path=str(bad)),
                ReplicaFault(at_progress=550, replica=1,
                             action="restart"),
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
                    mix=with_analytics(fraction=0.2),
                    on_progress=plan.on_progress,
                )

                # The whole schedule fired, and no fault action blew up.
                assert plan.exhausted
                assert plan.errors == []
                assert [t[1] for t in plan.triggered] == [
                    "kill", "corrupt_swap", "restart", "swap",
                ]

                # Correctness is non-negotiable: every answer that came
                # back — fresh, failed-over, hedged, or stale-flagged —
                # matched ground truth.
                assert report.wrong == 0
                assert report.errors / report.num_queries < 0.01

                # The analytics slice of the mix actually ran — the
                # zero-wrong gate covers bound-checked estimates too.
                analytics_ops = sum(
                    count for op, count in report.op_counts.items()
                    if op.startswith("analytics.")
                )
                assert analytics_ops > 100

                # The corrupted artifact was rejected at load time, the
                # fleet untouched; the healthy swap then rolled through.
                corrupt_report, swap_report = plan.swap_reports
                assert not corrupt_report.ok
                assert not corrupt_report.rolled_back
                assert "load failed" in corrupt_report.error
                assert swap_report.ok
                assert cluster.generations() == [1, 1, 1]

                # Recovery: active health checks close every breaker.
                deadline = time.time() + 15
                while time.time() < deadline:
                    if set(client.breaker_states().values()) == {"closed"}:
                        break
                    time.sleep(0.05)
                assert set(client.breaker_states().values()) == {"closed"}

                # The recovered fleet answers correctly everywhere.
                for v in range(12):
                    assert client.neighbors(v) == \
                        expected_neighbors(truth, v)

                # The report is the CI artifact; print it so the job log
                # (and --capture=no runs) always carries the numbers.
                with capsys.disabled():
                    print()
                    print(report.format())
                    print("breakers:", client.breaker_states())
            finally:
                client.shutdown()
