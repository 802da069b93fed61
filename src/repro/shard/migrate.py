"""Elastic re-sharding: live ring membership changes (``repro.shard.migrate``).

The :class:`~repro.shard.hashring.HashRing` remaps only a small fraction
of keys when a shard joins or leaves — this module is where that
property finally pays off. A migration turns a ring membership change
into the *minimal* rebuild plus a crash-safe live cutover:

1. :func:`plan_migration` diffs the per-key assignments of the old and
   new rings and names exactly the remapped vertices, the affected cut
   edges, and the shards whose node sets change. Every other shard's
   local-space summary is reusable verbatim (same node set ⇒ same
   induced subgraph ⇒ same summary).
2. :class:`MigrationCoordinator` re-summarizes only the affected shards
   (checkpointed via :func:`~repro.resilience.run_resumable`), re-stitches,
   and writes a new manifest *generation* side by side with the old one
   under a :class:`GenerationStore` — the old generation keeps serving
   untouched.
3. Cutover is two-phase against :class:`~repro.serve.cluster.SummaryCluster`:
   *prepare* loads and validates the new artifacts on fresh replicas,
   *commit* atomically flips routing to the new ring epoch (propagated to
   clients through the ``ping`` health payload). Any prepare/commit
   failure rolls back all-or-nothing to the old generation.

Every step transition is persisted first to a CRC-checked journal
(``migration.json``), so a coordinator SIGKILLed at *any* point either
resumes forward or rolls back deterministically — the cluster is never
left half-cut-over. :class:`IngestService <repro.ingest.service.IngestService>`
events applied during the build are buffered and replayed onto the new
generation before commit (see :meth:`MigrationCoordinator._catch_up`).

See ``docs/sharding.md`` ("Growing and shrinking the ring") for the
journal state machine and rollback semantics.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CorruptSummaryError
from ..graph.graph import Graph
from ..ioutil import atomic_write
from ..obs import metrics as obs_metrics
from ..obs.metrics import MetricsRegistry
from .driver import AlgoFactory, _default_factory, summarize_sharded
from .hashring import HashRing
from .manifest import ShardManifest, load_manifest, save_sharded
from .partitioner import ShardedGraph, partition_graph
from .stitch import stitch_shards

__all__ = [
    "JOURNAL_STEPS",
    "MIGRATION_PHASES",
    "CoordinatorKilledError",
    "MigrationPlan",
    "plan_migration",
    "MigrationJournal",
    "GenerationStore",
    "MigrationReport",
    "MigrationCoordinator",
]

#: Journal steps in execution order. ``aborted`` is the rollback terminal.
JOURNAL_STEPS = ("plan", "build", "built", "prepare", "commit", "done")
MIGRATION_PHASES = JOURNAL_STEPS + ("aborted",)

_GEN_RE = re.compile(r"^gen-(\d{6})$")
_JOURNAL_NAME = "migration.json"
_CURRENT_NAME = "CURRENT"

PathLike = Union[str, "os.PathLike[str]"]


class CoordinatorKilledError(RuntimeError):
    """Raised by a fault hook to simulate the coordinator dying mid-step.

    The coordinator never catches it — it propagates like a SIGKILL
    would, leaving whatever the journal last recorded. A later
    :meth:`MigrationCoordinator.resume` picks up from there.
    """


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass
class MigrationPlan:
    """What a ring membership change actually invalidates."""

    old_ring: HashRing
    new_ring: HashRing
    num_nodes: int
    remapped: np.ndarray              # vertex ids whose owner changed
    rebuild_shards: List[int]         # new-ring shards that must re-summarize
    reused_shards: List[int]          # new-ring shards reusable verbatim
    added_shards: List[int]
    removed_shards: List[int]
    affected_cut_edges: Optional[int] = None  # edges w/ a remapped endpoint

    @property
    def num_remapped(self) -> int:
        return int(self.remapped.size)

    @property
    def is_empty(self) -> bool:
        """True when nothing moved (e.g. add-then-remove round trip)."""
        return self.num_remapped == 0 and (
            set(self.old_ring.shards) == set(self.new_ring.shards)
        )

    @property
    def fraction_remapped(self) -> float:
        return self.num_remapped / self.num_nodes if self.num_nodes else 0.0

    def summary(self) -> Dict[str, object]:
        """JSON-safe digest (what the journal and CLI print)."""
        return {
            "num_nodes": self.num_nodes,
            "num_remapped": self.num_remapped,
            "fraction_remapped": self.fraction_remapped,
            "rebuild_shards": list(self.rebuild_shards),
            "reused_shards": list(self.reused_shards),
            "added_shards": list(self.added_shards),
            "removed_shards": list(self.removed_shards),
            "affected_cut_edges": self.affected_cut_edges,
        }


def plan_migration(
    old_ring: HashRing,
    new_ring: HashRing,
    partition: Union[int, Graph, ShardedGraph],
) -> MigrationPlan:
    """Diff two rings over a key universe into a minimal rebuild plan.

    ``partition`` is the key universe: a node count, a :class:`Graph`
    (also yields the affected cut-edge count), or an existing
    :class:`ShardedGraph`. A shard must rebuild iff its node set changes
    — it gained a remapped vertex or lost one; every other shard of the
    new ring keeps an identical induced subgraph, so its local-space
    summary is reusable verbatim.
    """
    graph: Optional[Graph] = None
    if isinstance(partition, ShardedGraph):
        num_nodes = partition.num_nodes
    elif isinstance(partition, Graph):
        num_nodes = partition.num_nodes
        graph = partition
    else:
        num_nodes = int(partition)
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")

    old_assign = old_ring.assign_range(num_nodes)
    new_assign = new_ring.assign_range(num_nodes)
    moved = old_assign != new_assign
    remapped = np.flatnonzero(moved).astype(np.int64)

    new_shards = set(new_ring.shards)
    donors = set(np.unique(old_assign[remapped]).tolist())
    receivers = set(np.unique(new_assign[remapped]).tolist())
    rebuild = sorted((donors | receivers) & new_shards)
    reused = [s for s in new_ring.shards if s not in rebuild]

    affected_cut_edges: Optional[int] = None
    if graph is not None and graph.num_edges:
        src, dst = graph.edge_arrays()
        affected_cut_edges = int((moved[src] | moved[dst]).sum())
    elif graph is not None:
        affected_cut_edges = 0

    return MigrationPlan(
        old_ring=old_ring,
        new_ring=new_ring,
        num_nodes=num_nodes,
        remapped=remapped,
        rebuild_shards=rebuild,
        reused_shards=reused,
        added_shards=sorted(new_shards - set(old_ring.shards)),
        removed_shards=sorted(set(old_ring.shards) - new_shards),
        affected_cut_edges=affected_cut_edges,
    )


# ----------------------------------------------------------------------
# journal
# ----------------------------------------------------------------------
@dataclass
class MigrationJournal:
    """One migration's durable state, persisted CRC-checked + atomic.

    The invariant the coordinator maintains: ``step`` is written (fsync +
    rename) *before* that step's side effects begin, so a crash leaves a
    journal naming exactly the step in flight. Every step's work is
    idempotent, which makes replaying it on resume safe.
    """

    step: str
    old_generation: str
    new_generation: str
    old_ring: Dict[str, object]
    new_ring: Dict[str, object]
    num_remapped: int = 0
    rebuild_shards: List[int] = field(default_factory=list)
    reused_shards: List[int] = field(default_factory=list)
    error: str = ""

    @property
    def active(self) -> bool:
        return self.step not in ("done", "aborted")

    def to_dict(self) -> Dict[str, object]:
        """Return the journal as a JSON-serializable dict."""
        return {
            "step": self.step,
            "old_generation": self.old_generation,
            "new_generation": self.new_generation,
            "old_ring": self.old_ring,
            "new_ring": self.new_ring,
            "num_remapped": self.num_remapped,
            "rebuild_shards": list(self.rebuild_shards),
            "reused_shards": list(self.reused_shards),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MigrationJournal":
        return cls(
            step=str(data["step"]),
            old_generation=str(data["old_generation"]),
            new_generation=str(data["new_generation"]),
            old_ring=dict(data["old_ring"]),
            new_ring=dict(data["new_ring"]),
            num_remapped=int(data.get("num_remapped", 0)),
            rebuild_shards=[int(s) for s in data.get("rebuild_shards", [])],
            reused_shards=[int(s) for s in data.get("reused_shards", [])],
            error=str(data.get("error", "")),
        )


def _journal_payload_crc(payload: Dict[str, object]) -> int:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# generation store
# ----------------------------------------------------------------------
class GenerationStore:
    """Side-by-side manifest generations plus the migration journal.

    Layout under ``root``::

        gen-000000/          a full manifest directory (v2, with locals)
        gen-000001/          the next generation, built during migration
        CURRENT              name of the serving generation (atomic write)
        migration.json       CRC-checked migration journal
        checkpoints/         per-generation shard checkpoint trees

    The ``CURRENT`` pointer is the durable commit point: flipping it is
    one atomic rename, so readers see the old generation or the new one,
    never a mix.
    """

    def __init__(self, root: PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- generations ---------------------------------------------------
    def path(self, generation: str) -> str:
        """Absolute path of ``generation``'s manifest directory."""
        return os.path.join(self.root, generation)

    def generations(self) -> List[str]:
        """Sorted names of every generation directory on disk."""
        names = []
        for name in os.listdir(self.root):
            if _GEN_RE.match(name) and os.path.isdir(self.path(name)):
                names.append(name)
        return sorted(names)

    def next_generation(self) -> str:
        """Name of the next unused generation (``gen-%06d``)."""
        indices = [int(_GEN_RE.match(g).group(1)) for g in self.generations()]
        return f"gen-{(max(indices) + 1 if indices else 0):06d}"

    def current(self) -> Optional[str]:
        """Name of the serving generation, or ``None`` before bootstrap."""
        path = os.path.join(self.root, _CURRENT_NAME)
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            name = fh.read().strip()
        return name or None

    def current_dir(self) -> str:
        """Manifest directory of the serving generation (raises if none)."""
        current = self.current()
        if current is None:
            raise RuntimeError(f"generation store {self.root} has no CURRENT")
        return self.path(current)

    def current_manifest(self, *, verify: bool = True) -> ShardManifest:
        """Load the serving generation's :class:`ShardManifest`."""
        return load_manifest(self.current_dir(), verify=verify)

    def set_current(self, generation: str) -> None:
        """Atomically flip the serving pointer to ``generation``."""
        manifest_path = os.path.join(self.path(generation), "manifest.json")
        if not os.path.exists(manifest_path):
            raise ValueError(f"{generation} has no manifest; refusing to flip")
        dest = os.path.join(self.root, _CURRENT_NAME)
        with atomic_write(dest, "w", encoding="utf-8") as fh:
            fh.write(generation + "\n")

    def remove_generation(self, generation: str) -> None:
        """Delete a non-serving generation directory (and its checkpoints)."""
        if generation == self.current():
            raise ValueError(f"refusing to remove serving generation {generation}")
        shutil.rmtree(self.path(generation), ignore_errors=True)

    def checkpoint_dir(self, generation: str) -> str:
        """Per-generation shard checkpoint tree (for warm-started rebuilds)."""
        return os.path.join(self.root, "checkpoints", generation)

    def bootstrap(
        self,
        graph: Graph,
        shards: Union[int, HashRing] = 2,
        *,
        virtual_nodes: int = 1,
        **kwargs: Any,
    ) -> ShardManifest:
        """Summarize ``graph`` into ``gen-000000`` and point CURRENT at it.

        Defaults to one virtual node per shard: a single ring point per
        shard means a later expansion splits exactly one arc, keeping the
        targeted rebuild minimal. Pass a prebuilt ring to override.
        """
        if self.current() is not None:
            raise RuntimeError(f"store {self.root} already bootstrapped")
        generation = self.next_generation()
        result = summarize_sharded(
            graph, shards,
            virtual_nodes=virtual_nodes,
            out_dir=self.path(generation),
            **kwargs,
        )
        self.set_current(generation)
        return result.manifest

    # -- journal -------------------------------------------------------
    @property
    def journal_path(self) -> str:
        return os.path.join(self.root, _JOURNAL_NAME)

    def write_journal(self, journal: MigrationJournal) -> None:
        """Atomically persist the journal in its CRC32 envelope."""
        payload = journal.to_dict()
        doc = {"crc32": _journal_payload_crc(payload), "journal": payload}
        with atomic_write(self.journal_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def read_journal(self) -> Optional[MigrationJournal]:
        """Load and CRC-verify the journal; ``None`` when none exists."""
        path = self.journal_path
        if not os.path.exists(path):
            return None
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        payload = doc.get("journal")
        if payload is None or "crc32" not in doc:
            raise CorruptSummaryError(path, "journal missing crc32 envelope")
        actual = _journal_payload_crc(payload)
        expected = int(doc["crc32"])
        if actual != expected:
            raise CorruptSummaryError(
                path,
                f"journal CRC mismatch (stored {expected:#010x}, "
                f"computed {actual:#010x})",
            )
        return MigrationJournal.from_dict(payload)


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class MigrationReport:
    """What one :class:`MigrationCoordinator` run did."""

    old_generation: Optional[str] = None
    new_generation: Optional[str] = None
    plan: Optional[MigrationPlan] = None
    resummarized_shards: List[int] = field(default_factory=list)
    reused_shards: List[int] = field(default_factory=list)
    replayed_events: int = 0
    committed: bool = False
    rolled_back: bool = False
    error: str = ""


class MigrationCoordinator:
    """Drives one ring membership change end to end, journal first.

    Parameters
    ----------
    store:
        The :class:`GenerationStore` holding the serving generation.
    cluster:
        Optional live :class:`~repro.serve.cluster.SummaryCluster` to cut
        over (prepare → commit with all-or-nothing rollback). Without a
        cluster the migration is storage-only: the ``CURRENT`` pointer
        flip is still the durable commit.
    ingest:
        Optional :class:`~repro.ingest.service.IngestService`. Its
        migration buffer is opened for the duration of the run and
        replayed onto the new generation before commit.
    on_step:
        Fault hook called with each journal step right after it is
        persisted and before its side effects run. Raising
        :class:`CoordinatorKilledError` simulates a SIGKILL at exactly
        that point (see :class:`~repro.resilience.faults.MigrationFault`).
    """

    def __init__(
        self,
        store: GenerationStore,
        *,
        cluster: Optional[Any] = None,
        ingest: Optional[Any] = None,
        k: int = 5,
        iterations: int = 20,
        seed: int = 0,
        algo_factory: Optional[AlgoFactory] = None,
        validate: bool = True,
        on_step: Optional[Callable[[str], None]] = None,
        registry: Optional[MetricsRegistry] = None,
        catch_up_rounds: int = 5,
    ) -> None:
        self.store = store
        self.cluster = cluster
        self.ingest = ingest
        self.validate = validate
        self.on_step = on_step
        self.catch_up_rounds = catch_up_rounds
        self.algo_factory = algo_factory or _default_factory(
            k, iterations, seed
        )
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.current_step: str = ""   # live view for loadgen phase bucketing
        # Zero-register every row so dashboards see series before the
        # first migration ever runs (same pattern as IngestService).
        for phase in MIGRATION_PHASES:
            self._set_gauge("migration_state", 0, phase=phase)
        self._set_gauge("migration_remapped_vertices", 0)
        self._set_gauge("cluster_ring_epoch", 0)
        self._inc("migration_rollback_total", 0)

    # -- metrics plumbing ----------------------------------------------
    def _inc(self, name: str, amount: float = 1) -> None:
        self.metrics.inc(name, amount)
        obs_metrics.inc(name, amount)

    def _set_gauge(
        self, name: str, value: float, *, phase: Optional[str] = None,
    ) -> None:
        labels = {"phase": phase} if phase is not None else None
        self.metrics.set_gauge(name, value, labels=labels)
        obs_metrics.set_gauge(name, value, labels=labels)

    def _set_phase(self, step: str) -> None:
        self.current_step = step
        for phase in MIGRATION_PHASES:
            self._set_gauge(
                "migration_state", 1 if phase == step else 0, phase=phase
            )

    # -- journal transitions -------------------------------------------
    def _advance(self, journal: MigrationJournal, step: str) -> None:
        """Persist the transition, then expose the kill window."""
        journal.step = step
        self.store.write_journal(journal)
        self._set_phase(step)
        if self.on_step is not None:
            self.on_step(step)

    # -- public entry points -------------------------------------------
    def migrate(self, new_ring: HashRing, graph: Graph) -> MigrationReport:
        """Run a fresh migration of the store onto ``new_ring``."""
        existing = self.store.read_journal()
        if existing is not None and existing.active:
            raise RuntimeError(
                f"migration already in progress (step {existing.step!r}); "
                "resume() or abort() it first"
            )
        old_generation = self.store.current()
        if old_generation is None:
            raise RuntimeError("generation store has no serving generation")
        old_manifest = self.store.current_manifest(verify=False)
        plan = plan_migration(old_manifest.ring, new_ring, graph)
        self._set_gauge("migration_remapped_vertices", plan.num_remapped)
        if plan.is_empty:
            return MigrationReport(
                old_generation=old_generation,
                plan=plan,
                reused_shards=list(plan.reused_shards),
                committed=True,
            )
        journal = MigrationJournal(
            step="plan",
            old_generation=old_generation,
            new_generation=self.store.next_generation(),
            old_ring=old_manifest.ring.to_dict(),
            new_ring=new_ring.to_dict(),
            num_remapped=plan.num_remapped,
            rebuild_shards=list(plan.rebuild_shards),
            reused_shards=list(plan.reused_shards),
        )
        if self.ingest is not None:
            self.ingest.begin_migration()
        self._advance(journal, "plan")
        return self._run(journal, plan, graph)

    def resume(self, graph: Graph) -> MigrationReport:
        """Continue (or finish) whatever the journal says was in flight."""
        journal = self.store.read_journal()
        if journal is None:
            raise RuntimeError("no migration journal to resume from")
        if not journal.active:
            # Killed after the terminal transition: nothing left to do.
            return MigrationReport(
                old_generation=journal.old_generation,
                new_generation=journal.new_generation,
                committed=journal.step == "done",
                rolled_back=journal.step == "aborted",
                error=journal.error,
            )
        old_ring = HashRing.from_dict(journal.old_ring)
        new_ring = HashRing.from_dict(journal.new_ring)
        plan = plan_migration(old_ring, new_ring, graph)
        self._set_gauge("migration_remapped_vertices", plan.num_remapped)
        if self.ingest is not None:
            self.ingest.begin_migration()

        if (
            journal.step == "commit"
            and self.store.current() == journal.new_generation
        ):
            # The durable commit already happened; only finalization is
            # missing. _run's commit step is idempotent and will detect
            # this, so just fall through.
            pass
        elif journal.step in ("built", "prepare", "commit"):
            # Artifacts were supposedly complete — trust but verify. A
            # torn build (or corrupted file) sends us back to "build".
            try:
                load_manifest(
                    self.store.path(journal.new_generation), verify=True
                )
            except (OSError, CorruptSummaryError, ValueError):
                journal.step = "build"
                self.store.write_journal(journal)
        self._set_phase(journal.step)
        return self._run(journal, plan, graph)

    def abort(self) -> MigrationReport:
        """Roll the active migration back to the old generation."""
        journal = self.store.read_journal()
        if journal is None or not journal.active:
            raise RuntimeError("no active migration to abort")
        report = MigrationReport(
            old_generation=journal.old_generation,
            new_generation=journal.new_generation,
        )
        return self._rollback(journal, report, RuntimeError("aborted by operator"))

    # -- the state machine ---------------------------------------------
    def _run(
        self,
        journal: MigrationJournal,
        plan: MigrationPlan,
        graph: Graph,
    ) -> MigrationReport:
        report = MigrationReport(
            old_generation=journal.old_generation,
            new_generation=journal.new_generation,
            plan=plan,
        )
        if journal.step == "plan":
            self._advance(journal, "build")
        if journal.step == "build":
            self._build(journal, plan, graph, report)
            self._advance(journal, "built")
        if journal.step == "built":
            self._advance(journal, "prepare")
        if journal.step == "prepare":
            try:
                graph = self._prepare(journal, plan, graph, report)
            except CoordinatorKilledError:
                raise
            except Exception as exc:
                return self._rollback(journal, report, exc)
            self._advance(journal, "commit")
        if journal.step == "commit":
            try:
                self._commit(journal)
            except CoordinatorKilledError:
                raise
            except Exception as exc:
                return self._rollback(journal, report, exc)
            self._advance(journal, "done")
        report.committed = True
        if self.ingest is not None:
            self.ingest.end_migration()
        shutil.rmtree(
            self.store.checkpoint_dir(journal.new_generation),
            ignore_errors=True,
        )
        return report

    def _build(
        self,
        journal: MigrationJournal,
        plan: MigrationPlan,
        graph: Graph,
        report: MigrationReport,
    ) -> None:
        """Targeted rebuild: re-summarize only the shards the plan names."""
        old_manifest = load_manifest(
            self.store.path(journal.old_generation), verify=False
        )
        new_ring = HashRing.from_dict(journal.new_ring)
        sharded = partition_graph(graph, new_ring)
        reusable = set(plan.reused_shards) if old_manifest.has_locals else set()
        summaries, resummarized, reused = self._summarize_shards(
            journal, sharded, reusable, old_manifest
        )
        report.resummarized_shards = resummarized
        report.reused_shards = reused
        self._save_generation(journal, sharded, summaries, graph)

    def _summarize_shards(
        self,
        journal: MigrationJournal,
        sharded: ShardedGraph,
        reusable: set,
        source_manifest: Optional[ShardManifest],
    ) -> Tuple[Dict[int, Any], List[int], List[int]]:
        from ..resilience import run_resumable

        summaries: Dict[int, Any] = {}
        resummarized: List[int] = []
        reused: List[int] = []
        for shard in sharded.shards:
            sid = shard.shard_id
            if sid in reusable and source_manifest is not None:
                candidate = source_manifest.load_local(sid)
                if candidate.num_nodes == shard.num_nodes:
                    summaries[sid] = candidate
                    reused.append(sid)
                    continue
                # Defensive: the plan said this shard was untouched but
                # its node count changed — fall through and rebuild.
            algo = self.algo_factory(sid)
            checkpoint = os.path.join(
                self.store.checkpoint_dir(journal.new_generation),
                f"shard-{sid}",
            )
            summaries[sid] = run_resumable(algo, shard.local_graph, checkpoint)
            resummarized.append(sid)
        return summaries, resummarized, reused

    def _save_generation(
        self,
        journal: MigrationJournal,
        sharded: ShardedGraph,
        summaries: Dict[int, Any],
        graph: Graph,
    ) -> ShardManifest:
        stitch = stitch_shards(
            sharded, summaries,
            graph=graph if self.validate else None,
            validate=self.validate,
        )
        return save_sharded(
            stitch.summary, sharded,
            self.store.path(journal.new_generation),
            local_summaries=summaries,
        )

    def _prepare(
        self,
        journal: MigrationJournal,
        plan: MigrationPlan,
        graph: Graph,
        report: MigrationReport,
    ) -> Graph:
        graph = self._catch_up(journal, graph, report)
        manifest = load_manifest(
            self.store.path(journal.new_generation), verify=True
        )
        if self.cluster is not None and self.cluster.ring != manifest.ring:
            self.cluster.prepare_generation(manifest)
        return graph

    def _catch_up(
        self,
        journal: MigrationJournal,
        graph: Graph,
        report: MigrationReport,
    ) -> Graph:
        """Replay ingest events buffered during the build onto the new
        generation, so acknowledged writes are in the artifacts we cut
        over to. Events that land after the last round stay in the WAL
        and reach serving through the normal hot-swap path post-commit.
        """
        if self.ingest is None:
            return graph
        new_ring = HashRing.from_dict(journal.new_ring)
        for _ in range(self.catch_up_rounds):
            events = self.ingest.take_migration_events()
            if not events:
                break
            applied, graph = _apply_events(graph, events)
            report.replayed_events += applied
            if not applied:
                continue
            touched = set()
            for _seq, _op, u, v in events:
                if 0 <= u < graph.num_nodes:
                    touched.add(new_ring.shard_of(u))
                if 0 <= v < graph.num_nodes:
                    touched.add(new_ring.shard_of(v))
            sharded = partition_graph(graph, new_ring)
            manifest = load_manifest(
                self.store.path(journal.new_generation), verify=False
            )
            reusable = {
                s.shard_id for s in sharded.shards
                if s.shard_id not in touched
            }
            summaries, resummarized, _ = self._summarize_shards(
                journal, sharded, reusable, manifest
            )
            report.resummarized_shards = sorted(
                set(report.resummarized_shards) | set(resummarized)
            )
            report.reused_shards = [
                s for s in report.reused_shards if s not in set(resummarized)
            ]
            self._save_generation(journal, sharded, summaries, graph)
        return graph

    def _commit(self, journal: MigrationJournal) -> None:
        if self.cluster is not None and self.cluster.staged_generation is not None:
            self.cluster.commit_generation()
        if self.cluster is not None:
            self._set_gauge("cluster_ring_epoch", self.cluster.epoch)
        if self.store.current() != journal.new_generation:
            self.store.set_current(journal.new_generation)

    def _rollback(
        self,
        journal: MigrationJournal,
        report: MigrationReport,
        exc: Exception,
    ) -> MigrationReport:
        """All-or-nothing: tear down anything staged, keep the old
        generation serving, record the abort durably."""
        if self.cluster is not None:
            self.cluster.abort_generation()
        if self.ingest is not None:
            self.ingest.end_migration()
        if self.store.current() != journal.new_generation:
            self.store.remove_generation(journal.new_generation)
            shutil.rmtree(
                self.store.checkpoint_dir(journal.new_generation),
                ignore_errors=True,
            )
        journal.error = f"{type(exc).__name__}: {exc}"
        journal.step = "aborted"
        self.store.write_journal(journal)
        self._set_phase("aborted")
        self._inc("migration_rollback_total")
        report.rolled_back = True
        report.error = journal.error
        return report


def _apply_events(
    graph: Graph, events: Sequence[Tuple[int, str, int, int]],
) -> Tuple[int, Graph]:
    """Apply buffered ingest events to a graph; returns (applied, graph)."""
    edges = {(u, v) if u < v else (v, u) for u, v in graph.edges()}
    applied = 0
    for _seq, op, u, v in events:
        if u == v or not (0 <= u < graph.num_nodes) or not (0 <= v < graph.num_nodes):
            continue
        pair = (u, v) if u < v else (v, u)
        if op in ("+", "insert") and pair not in edges:
            edges.add(pair)
            applied += 1
        elif op in ("-", "delete") and pair in edges:
            edges.discard(pair)
            applied += 1
    if not applied:
        return 0, graph
    return applied, Graph.from_edges(graph.num_nodes, sorted(edges))
