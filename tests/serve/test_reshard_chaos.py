"""Chaos validation of elastic re-sharding: a 2 -> 3 ring expansion
under live query load while the coordinator is killed at every journal
step and one staged shard artifact is corrupted.

The acceptance scenario for ISSUE 10 and the CI ``reshard-chaos`` job:

* A corrupted new-generation shard file must fail the manifest CRC
  check and roll the migration back all-or-nothing — the serving fleet
  is never touched.
* The coordinator then dies (``CoordinatorKilledError``, the in-process
  stand-in for SIGKILL) immediately after *each* journal step is
  persisted; a fresh coordinator resumes from the journal every time
  and the migration still commits.
* A load generator drives ground-truth-verified queries through one
  shared :class:`ClusterClient` the whole time, labelling each query
  with the migration phase it was issued in. Required outcome: **zero
  wrong answers in every phase** and an error rate under 1%.
* Ingest events acknowledged during the build are replayed onto the
  new generation before commit — zero acked-event loss.
* Afterwards the cluster serves exactly one generation: every replica
  reports the new ring epoch, and the expansion provably rebuilt
  strictly fewer shard artifacts than a from-scratch run.
"""

import threading
import time

import pytest

from repro.graph.generators import web_host_graph
from repro.ingest import IngestService
from repro.queries.compiled import CompiledSummaryIndex
from repro.resilience import MigrationFault, MigrationFaultPlan
from repro.serve import ServerConfig, SummaryClient, SummaryCluster
from repro.serve.loadgen import run_load
from repro.shard import GenerationStore, HashRing, MigrationCoordinator
from repro.shard.migrate import JOURNAL_STEPS, CoordinatorKilledError

SEED = 8765           # fixed: the CI reshard-chaos job depends on it
ITERATIONS = 8


@pytest.fixture()
def graph():
    return web_host_graph(num_hosts=6, host_size=12, seed=42)


@pytest.fixture()
def store(tmp_path, graph):
    store = GenerationStore(tmp_path / "store")
    store.bootstrap(graph, shards=2, iterations=ITERATIONS, seed=0)
    return store


def _coordinator(store, cluster=None, **kwargs):
    return MigrationCoordinator(
        store, cluster=cluster, iterations=ITERATIONS, seed=0, **kwargs
    )


@pytest.mark.chaos
class TestReshardChaos:
    def test_expansion_under_load_with_kills_and_corruption(
        self, store, graph, capsys
    ):
        manifest = store.current_manifest()
        truth = CompiledSummaryIndex(manifest.load_global())
        new_ring = HashRing(3, virtual_nodes=1)

        state = {"coord": None, "kills": [], "rollbacks": 0,
                 "final": None, "error": None}
        load_started = threading.Event()

        def migration_thread():
            try:
                # Overlap with the load: don't start re-sharding until
                # queries are actually flowing.
                load_started.wait(timeout=30)
                # Round 0: corrupt one staged shard artifact. The CRC
                # verification in the prepare step must reject it and
                # roll back all-or-nothing.
                plan = MigrationFaultPlan([
                    MigrationFault(step="prepare", action="corrupt",
                                   path=store.path("gen-000001")),
                ])
                coord = _coordinator(store, cluster, on_step=plan.on_step)
                state["coord"] = coord
                report = coord.migrate(new_ring, graph)
                assert report.rolled_back and not report.committed
                assert cluster.epoch == 0
                state["rollbacks"] += 1

                # Rounds 1..n: die right after each journal step is
                # persisted, then resume with a fresh coordinator.
                for step in JOURNAL_STEPS:
                    plan = MigrationFaultPlan([MigrationFault(step=step)])
                    coord = _coordinator(store, cluster,
                                         on_step=plan.on_step)
                    state["coord"] = coord
                    try:
                        if step == JOURNAL_STEPS[0]:
                            coord.migrate(new_ring, graph)
                        else:
                            coord.resume(graph)
                    except CoordinatorKilledError:
                        state["kills"].append(step)

                # Clean final resume: nothing left but finishing.
                coord = _coordinator(store, cluster)
                state["coord"] = coord
                state["final"] = coord.resume(graph)
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                state["error"] = exc

        with SummaryCluster.from_manifest(
            manifest, replicas=2,
            config=ServerConfig(),
        ) as cluster:
            client = cluster.client(timeout=2.0, breaker_recovery=0.3)
            client.start_health_checks(interval=0.1, probe_timeout=1.0)
            worker = threading.Thread(target=migration_thread)

            def phase_fn():
                coord = state["coord"]
                return (coord.current_step or "idle") if coord else "idle"

            def on_progress(done):
                if done >= 10:
                    load_started.set()

            try:
                worker.start()
                report = run_load(
                    "127.0.0.1",
                    cluster.addresses[0][1],
                    num_queries=1500,
                    concurrency=4,
                    seed=SEED,
                    client_factory=lambda: client,
                    truth=truth,
                    phase_fn=phase_fn,
                    on_progress=on_progress,
                )
                worker.join(timeout=120)
                assert not worker.is_alive()
                if state["error"] is not None:
                    raise state["error"]

                # Fault schedule ran in full: one rollback, then a kill
                # at every journal step.
                assert state["rollbacks"] == 1
                assert state["kills"] == list(JOURNAL_STEPS)
                assert state["final"].committed
                assert not state["final"].rolled_back

                # Correctness is non-negotiable: across rollback, six
                # coordinator deaths, and the live cutover, every
                # answer matched ground truth — in every phase.
                assert report.wrong == 0
                for phase, counts in report.phase_counts.items():
                    assert counts["wrong"] == 0, phase
                assert sum(
                    c["queries"] for c in report.phase_counts.values()
                ) == report.num_queries
                assert report.errors / report.num_queries < 0.01

                # The committed expansion rebuilt strictly fewer shard
                # artifacts than from scratch (the journal records the
                # plan the build executed).
                journal = store.read_journal()
                assert journal.step == "done"
                assert len(journal.rebuild_shards) < len(new_ring.shards)
                assert journal.reused_shards

                # Exactly one generation serving: the store points at
                # the new one, the cluster is on epoch 1 with the new
                # ring, and every live replica reports that epoch.
                assert store.current() == "gen-000001"
                assert cluster.epoch == 1
                assert sorted(cluster.shard_ids) == [0, 1, 2]
                assert cluster.retire_old_generation() == 4
                for host, port in cluster.addresses:
                    probe = SummaryClient(host, port, timeout=2.0)
                    try:
                        assert probe.ping().get("ring_epoch") == 1
                    finally:
                        probe.close()

                # The shared client self-healed onto the new topology.
                deadline = time.time() + 10
                while time.time() < deadline and client.epoch != 1:
                    time.sleep(0.05)
                assert client.epoch == 1
                for v in range(0, graph.num_nodes, 5):
                    assert client.neighbors(v) == truth.neighbors(v)

                # The report is the CI artifact; print it so the job
                # log always carries the numbers.
                with capsys.disabled():
                    print()
                    print(report.format())
                    print("kills:", state["kills"],
                          "rollbacks:", state["rollbacks"])
                    print("rebuilt:", journal.rebuild_shards,
                          "reused:", journal.reused_shards,
                          "epoch:", cluster.epoch)
            finally:
                load_started.set()
                worker.join(timeout=5)
                client.shutdown()

    def test_acked_ingest_events_survive_migration(self, store, graph,
                                                   tmp_path):
        service, _ = IngestService.open(
            tmp_path / "wal", num_nodes=graph.num_nodes
        )
        service.start()
        try:
            # Edges that do not exist yet, acknowledged mid-build.
            new_edges = []
            for u in range(graph.num_nodes):
                for v in range(u + 1, graph.num_nodes):
                    if v not in graph.neighbors(u).tolist():
                        new_edges.append((u, v))
                    if len(new_edges) == 3:
                        break
                if len(new_edges) == 3:
                    break
            assert len(new_edges) == 3

            submitted = {"done": False}

            def on_step(step):
                if step == "built" and not submitted["done"]:
                    submitted["done"] = True
                    acks = service.submit_many(
                        [("+", u, v) for u, v in new_edges]
                    )
                    for ack in acks:
                        ack.wait(10.0)
                    assert service.drain(10.0)

            report = _coordinator(
                store, ingest=service, on_step=on_step
            ).migrate(HashRing(3, virtual_nodes=1), graph)

            # Every acknowledged write made it into the committed
            # generation's artifacts before cutover.
            assert report.committed
            assert submitted["done"]
            assert report.replayed_events == len(new_edges)
            index = CompiledSummaryIndex(
                store.current_manifest().load_global()
            )
            for u, v in new_edges:
                assert index.has_edge(u, v)
            assert service.status()["migration_capturing"] is False
        finally:
            service.stop()

    def test_rollback_keeps_acked_events_durable(self, store, graph,
                                                 tmp_path):
        service, _ = IngestService.open(
            tmp_path / "wal", num_nodes=graph.num_nodes
        )
        service.start()
        try:
            plan = MigrationFaultPlan([MigrationFault(step="prepare")])

            def on_step(step):
                if step == "built":
                    ack = service.submit("+", 0, graph.num_nodes - 1)
                    ack.wait(10.0)
                    assert service.drain(10.0)
                plan.on_step(step)

            with pytest.raises(CoordinatorKilledError):
                _coordinator(
                    store, ingest=service, on_step=on_step
                ).migrate(HashRing(3, virtual_nodes=1), graph)
            # The operator gives up on the dead migration instead of
            # resuming it.
            report = _coordinator(store, ingest=service).abort()

            # The migration rolled back, but the acked event was never
            # tied to it: the WAL still holds it and the summarizer
            # already applied it. Capture mode is off again.
            assert report.rolled_back
            assert service.applied_seq == 1
            assert service.status()["migration_capturing"] is False
            assert service.summarizer.current_graph().has_edge(
                0, graph.num_nodes - 1
            )
        finally:
            service.stop()
