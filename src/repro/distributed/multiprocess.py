"""Process-parallel LDME merge (the paper's parallel implementation).

The paper notes every phase of LDME parallelizes: signatures per supernode,
merge per group, encode per supernode. :class:`MultiprocessLDME` runs the
merge phase on a process pool for real: each worker receives a batch of
groups plus a frozen snapshot of the iteration-start partition, *plans* the
merges for its groups (groups are disjoint, so plans never conflict), and
the parent applies all plans. Out-of-group supernode sizes are read from
the snapshot — the same staleness semantics as the paper's Spark version,
where each executor works against the broadcast partition state.

Transport: fork copy-on-write. The pool is created with the ``fork``
start method right after the parent publishes the CSR graph and the
partition snapshot in a module global, so every worker inherits them
without a copy or a pickle; only each batch's member lists (in the parent
partition's order) and a few scalars are pickled per task. On platforms
without ``fork`` (or with ``num_workers=1``) the class runs the serial
loop in-process.

The pool runs under a :class:`~repro.resilience.supervisor.BatchSupervisor`:
a crashed or hung worker batch is detected via a per-batch deadline,
retried on a fresh pool with the *same* derived seed (planning is a pure
function, so the retry's plan is identical), and after ``max_batch_retries``
rounds the remaining batches are planned serially in the parent. A dying
pool therefore costs throughput, never correctness. Supervision counters
land on :class:`~repro.core.summary.RunStats`.

Only :meth:`~repro.core.base.BaseSummarizer._merge_phase` is overridden, so
the class inherits the shared driver — including checkpoint/resume via
:func:`repro.resilience.run_resumable`, early stopping, compression
tracking, and lossy dropping.

On the scaled surrogate graphs in this repo the process-pool overhead often
exceeds the merge work — this class exists for API completeness and for
larger inputs, and its tests assert *correctness* (lossless output,
valid partitions), not speedups.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ldme import LDME
from ..core.merge import MergeStats, merge_group_exact
from ..core.partition import SupernodePartition
from ..core.summary import RunStats
from ..graph.graph import Graph
from ..obs import trace as obs_trace
from ..obs.trace import Tracer
from ..resilience.faults import FaultInjector
from ..resilience.supervisor import BatchSupervisor, SupervisionPolicy

__all__ = ["MultiprocessLDME", "plan_group_merges"]

# Shared state inherited by forked workers (set immediately before the pool
# is created; read-only in children).
_SHARED: dict = {}


class _SnapshotPartition:
    """Partition view a worker plans merges against.

    Group members are local and mutable (in-group merges update them);
    everything else reads the frozen iteration-start snapshot. The merge
    log records (a, b) pairs in order so the parent can replay them on the
    real partition with identical survivor decisions.
    """

    def __init__(
        self,
        node2super: np.ndarray,
        sizes: np.ndarray,
        group_members: Dict[int, List[int]],
    ) -> None:
        self._node2super = node2super
        self._sizes = sizes
        self._members = {sid: list(mem) for sid, mem in group_members.items()}
        self.merge_log: List[Tuple[int, int]] = []

    @property
    def node2super(self) -> np.ndarray:
        return self._node2super

    def members(self, sid: int) -> List[int]:
        return self._members[sid]

    def size(self, sid: int) -> int:
        local = self._members.get(sid)
        if local is not None:
            return len(local)
        return int(self._sizes[sid])

    def merge(self, a: int, b: int) -> Tuple[int, int]:
        if a == b:
            raise ValueError("cannot merge a supernode with itself")
        self.merge_log.append((a, b))
        mem_a, mem_b = self._members[a], self._members[b]
        if len(mem_b) > len(mem_a):
            survivor, absorbed = b, a
            mem_s, mem_x = mem_b, mem_a
        else:
            survivor, absorbed = a, b
            mem_s, mem_x = mem_a, mem_b
        mem_s.extend(mem_x)
        del self._members[absorbed]
        return survivor, absorbed


def plan_group_merges(
    graph: Graph,
    node2super: np.ndarray,
    sizes: np.ndarray,
    group_members: Dict[int, List[int]],
    threshold: float,
    seed: int,
    cost_model: str = "exact",
    kernels: str = "python",
) -> Tuple[List[Tuple[int, int]], int]:
    """Plan the merges for one group against a partition snapshot.

    Returns the ordered (a, b) merge pairs plus the candidate-scoring count.
    Pure function of its inputs — usable directly (tests), from workers,
    and as the serial fallback when the pool dies (a retried or
    fallen-back batch reproduces the exact plan a healthy worker would
    have returned).
    """
    snapshot = _SnapshotPartition(node2super, sizes, group_members)
    stats = merge_group_exact(
        graph,
        snapshot,
        list(group_members),
        threshold,
        seed=np.random.default_rng(seed),
        cost_model=cost_model,
        kernels=kernels,
    )
    return snapshot.merge_log, stats.candidates_scored


def _plan_batch(
    graph: Graph,
    node2super: np.ndarray,
    sizes: np.ndarray,
    batch: Sequence[Dict[int, List[int]]],
    threshold: float,
    seed: int,
    cost_model: str,
    kernels: str = "python",
) -> Tuple[List[Tuple[int, int]], int]:
    """Plan one batch of groups (seeded ``seed + offset`` per group)."""
    log: List[Tuple[int, int]] = []
    scored = 0
    for offset, group_members in enumerate(batch):
        merges, count = plan_group_merges(
            graph, node2super, sizes, group_members,
            threshold, seed + offset, cost_model, kernels,
        )
        log.extend(merges)
        scored += count
    return log, scored


def _worker(task) -> Tuple[List[Tuple[int, int]], int, List[dict]]:
    """Pool worker: plan merges for one batch of groups.

    The fault hook fires before any planning so an injected crash models
    a worker dying mid-iteration with no partial results delivered.

    When the parent propagates a trace context, the worker rebuilds a
    child tracer from it, wraps its planning in a ``group_batch`` span
    parented at the parent's ``merge`` span, and ships the serialized
    span records back with the plan. Span ids are deterministic, so a
    retried batch re-emits the *same* span and the stitched tree is
    identical to a single-process run's.
    """
    (batch, threshold, seed, cost_model, kernels,
     iteration, batch_index, attempt, trace_ctx) = task
    faults: Optional[FaultInjector] = _SHARED.get("faults")
    if faults is not None:
        faults.on_worker_batch(iteration, batch_index, attempt)
    if trace_ctx is None:
        log, scored = _plan_batch(
            _SHARED["graph"], _SHARED["node2super"], _SHARED["sizes"],
            batch, threshold, seed, cost_model, kernels,
        )
        return log, scored, []
    tracer = Tracer.from_context(trace_ctx)
    with tracer.span(
        "group_batch", key=batch_index, groups=len(batch)
    ) as batch_span:
        log, scored = _plan_batch(
            _SHARED["graph"], _SHARED["node2super"], _SHARED["sizes"],
            batch, threshold, seed, cost_model, kernels,
        )
        batch_span.set_attribute("merges", len(log))
        batch_span.set_attribute("candidates_scored", scored)
    return log, scored, tracer.records()


class MultiprocessLDME(LDME):
    """LDME with a supervised process-parallel merge phase.

    Parameters are those of :class:`~repro.core.ldme.LDME` plus:

    num_workers:
        Pool size (defaults to the CPU count, capped at 8). ``1`` runs
        the serial merge loop in-process.
    batch_timeout:
        Per-batch result deadline in seconds (also the crash-detection
        latency); ``None`` disables supervision timeouts.
    max_batch_retries:
        Fresh-pool retry rounds for failed batches before the parent
        plans them serially.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` consulted by
        workers — test/chaos hook, never needed in production.
    """

    def __init__(
        self,
        num_workers: Optional[int] = None,
        batch_timeout: Optional[float] = 300.0,
        max_batch_retries: int = 2,
        fault_injector: Optional[FaultInjector] = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if num_workers is not None and num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers or min(8, multiprocessing.cpu_count())
        self.batch_timeout = batch_timeout
        self.max_batch_retries = max_batch_retries
        self.fault_injector = fault_injector
        self.name = f"{self.name}-mp{self.num_workers}"

    def _merge_phase(
        self,
        graph: Graph,
        partition: SupernodePartition,
        groups: List[List[int]],
        threshold: float,
        rng: np.random.Generator,
        iteration: int,
        run_stats: RunStats,
    ) -> MergeStats:
        """Fan groups out over a supervised fork pool and apply the plans.

        Seeds are derived from (self.seed, iteration, batch index), never
        drawn from ``rng``, so the parallel run is deterministic and a
        retried batch replays identically. The parent ``rng`` is consumed
        only by the divide phase, exactly as in the serial driver.
        """
        if self.num_workers == 1 or not _fork_available():
            return super()._merge_phase(
                graph, partition, groups, threshold, rng, iteration, run_stats
            )
        if not groups:
            return MergeStats()
        merge_stats = MergeStats()
        node2super = partition.node2super.copy()
        sizes = np.bincount(node2super, minlength=graph.num_nodes).astype(
            np.int64
        )
        batches: List[List[Dict[int, List[int]]]] = [
            [] for _ in range(self.num_workers)
        ]
        for i, group in enumerate(groups):
            batches[i % self.num_workers].append(
                {sid: list(partition.members(sid)) for sid in group}
            )
        base_seed = self.seed * 100_003 + iteration
        # (batch index, batch, derived seed) descriptors; round-robin
        # filling means the non-empty batches form a prefix, so the index
        # equals the original worker slot (stable fault coordinates and
        # seeds across retries).
        descriptors = [
            (w, batch, base_seed + 10_000 * w)
            for w, batch in enumerate(batches)
            if batch
        ]

        trace_ctx = obs_trace.context()   # None when tracing is off

        def build_task(descriptor, attempt):
            batch_index, batch, seed = descriptor
            return (
                batch, threshold, seed, self.cost_model, self.kernels,
                iteration, batch_index, attempt, trace_ctx,
            )

        def plan_serially(descriptor):
            # In-process fallback: bypasses _SHARED and the fault
            # injector entirely — degraded mode must be fault-free. It
            # runs under the parent's live merge span, so its
            # group_batch span (same deterministic id the worker would
            # have produced) lands directly on the active tracer.
            batch_index, batch, seed = descriptor
            with obs_trace.span(
                "group_batch", key=batch_index, groups=len(batch)
            ) as batch_span:
                log, scored = _plan_batch(
                    graph, node2super, sizes, batch,
                    threshold, seed, self.cost_model, self.kernels,
                )
                batch_span.set_attribute("merges", len(log))
                batch_span.set_attribute("candidates_scored", scored)
            return log, scored, []

        def make_pool(num_tasks):
            ctx = multiprocessing.get_context("fork")
            return ctx.Pool(processes=min(self.num_workers, num_tasks))

        supervisor = BatchSupervisor(
            worker_fn=_worker,
            task_builder=build_task,
            serial_fn=plan_serially,
            pool_factory=make_pool,
            policy=SupervisionPolicy(
                batch_timeout=self.batch_timeout,
                max_retries=self.max_batch_retries,
            ),
        )
        _SHARED["graph"] = graph
        _SHARED["node2super"] = node2super
        _SHARED["sizes"] = sizes
        if self.fault_injector is not None:
            _SHARED["faults"] = self.fault_injector
        try:
            plans, report = supervisor.run(descriptors)
        finally:
            _SHARED.clear()
        report.merge_into(run_stats)
        tracer = obs_trace.active()
        for log, scored, span_records in plans:
            if tracer is not None and span_records:
                tracer.ingest(span_records)
            merge_stats.candidates_scored += scored
            for a, b in log:
                partition.merge(a, b)
                merge_stats.merges += 1
        return merge_stats


def _fork_available() -> bool:
    """True when the 'fork' start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()
