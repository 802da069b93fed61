"""Shared driver scaffolding for all correction-set summarizers.

Every algorithm in this package (LDME, SWeG, RANDOMIZED, SAGS) follows the
same outer loop: initialize singleton supernodes, run ``T`` divide+merge
rounds, encode once, optionally drop for the lossy case. ``BaseSummarizer``
owns that loop plus the phase timing instrumentation the paper's figures
need; subclasses provide the divide and merge policies.
"""

from __future__ import annotations

import dataclasses
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..graph.graph import Graph
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .divide import DivideStats
from .drop import drop_edges
from .encode import encode_per_supernode, encode_sorted
from .merge import MergeStats, merge_threshold
from .partition import SupernodePartition
from .summary import IterationStats, RunStats, Summarization

__all__ = ["BaseSummarizer", "ResumeState"]


@dataclass
class ResumeState:
    """Everything needed to restart the driver loop at an iteration boundary.

    ``partition``, ``rng_state`` and ``stalled`` capture the loop state
    *after* iteration :attr:`iteration` completed; feeding this back via
    ``summarize(..., resume_state=...)`` continues the run bit-identically
    to one that was never interrupted (same seed, same remaining
    iterations, same merges).

    Instances handed to an ``iteration_hook`` reference the driver's
    *live* partition and stats — hooks must treat them as read-only and
    serialize synchronously (see :mod:`repro.resilience.checkpoint`).
    """

    iteration: int                       # completed iterations so far
    partition: SupernodePartition
    rng_state: Optional[dict] = None     # np bit-generator state dict
    stalled: int = 0                     # consecutive zero-merge rounds
    stats: Optional[RunStats] = None


#: Called after every completed iteration with the live loop state.
IterationHook = Callable[[ResumeState], None]


class BaseSummarizer(ABC):
    """Template for divide/merge/encode summarizers.

    Subclasses implement :meth:`divide` and :meth:`merge_one_group` and set
    :attr:`name`; everything else (loop, timing, encoding, dropping,
    result assembly) is shared so timing comparisons across algorithms are
    apples to apples.
    """

    #: Human-readable algorithm name recorded on results.
    name: str = "base"

    def __init__(
        self,
        iterations: int = 20,
        epsilon: float = 0.0,
        seed: int = 0,
        encoder: str = "sorted",
        cost_model: str = "exact",
        early_stop_rounds: int = 0,
        track_compression: bool = False,
        kernels: str = "numpy",
    ) -> None:
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if encoder not in ("sorted", "per-supernode"):
            raise ValueError("encoder must be 'sorted' or 'per-supernode'")
        if early_stop_rounds < 0:
            raise ValueError("early_stop_rounds must be non-negative")
        if kernels not in ("python", "numpy"):
            raise ValueError("kernels must be 'python' or 'numpy'")
        self.iterations = iterations
        self.epsilon = epsilon
        self.seed = seed
        self.encoder = encoder
        self.cost_model = cost_model
        # Hot-path backend for W construction, bulk DOPH and the sorted
        # encode; "python" keeps the differential-testing reference.
        self.kernels = kernels
        # Extension beyond the paper: stop once this many consecutive
        # iterations produced zero merges (0 disables the check).
        self.early_stop_rounds = early_stop_rounds
        # Encode after every iteration and record the objective on the
        # IterationStats (one run yields the whole per-T curve of Fig. 2).
        self.track_compression = track_compression

    # ------------------------------------------------------------------
    # policy hooks
    # ------------------------------------------------------------------
    @abstractmethod
    def divide(
        self,
        graph: Graph,
        partition: SupernodePartition,
        rng: np.random.Generator,
    ) -> Tuple[List[List[int]], DivideStats]:
        """Split supernodes into merge groups for this iteration."""

    @abstractmethod
    def merge_one_group(
        self,
        graph: Graph,
        partition: SupernodePartition,
        group: List[int],
        threshold: float,
        rng: np.random.Generator,
    ) -> MergeStats:
        """Run the merge loop on one group (mutating ``partition``)."""

    def merge_context(
        self,
        graph: Graph,
        partition: SupernodePartition,
        groups: List[List[int]],
    ) -> Dict[str, Any]:
        """Keyword arguments shared by one iteration's ``merge_one_group``
        calls, built against the iteration-start partition (none here)."""
        return {}

    # ------------------------------------------------------------------
    # shared driver
    # ------------------------------------------------------------------
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
        """Execute one iteration's merge phase (mutating ``partition``).

        The default is the serial group loop; parallel subclasses
        (:class:`repro.distributed.MultiprocessLDME`) override this to fan
        groups out to workers, recording supervision counters on
        ``run_stats``.
        """
        merge_stats = MergeStats()
        # One batch span for the whole serial pass keeps the span tree
        # shape-compatible with the multiprocess driver (which emits one
        # group_batch per worker batch).
        with obs_trace.span(
            "group_batch", key=0, groups=len(groups)
        ) as batch_span:
            context = self.merge_context(graph, partition, groups)
            for group in groups:
                merge_stats += self.merge_one_group(
                    graph, partition, group, threshold, rng, **context
                )
            batch_span.set_attribute("merges", merge_stats.merges)
            batch_span.set_attribute(
                "candidates_scored", merge_stats.candidates_scored
            )
        return merge_stats

    def summarize(
        self,
        graph: Graph,
        initial_partition: SupernodePartition = None,
        *,
        resume_state: Optional[ResumeState] = None,
        iteration_hook: Optional[IterationHook] = None,
    ) -> Summarization:
        """Run the full pipeline on ``graph`` and return the summarization.

        ``initial_partition`` warm-starts from an existing supernode
        assignment (e.g. a previous run's partition); the default is the
        paper's all-singleton initialization. The provided partition is
        not mutated.

        ``resume_state`` restarts an interrupted run at an iteration
        boundary (partition + RNG state + counters); the remainder of the
        run is bit-identical to the uninterrupted one. ``iteration_hook``
        is called after every completed iteration with the live loop state
        — the checkpointing seam used by
        :func:`repro.resilience.run_resumable`.
        """
        rng = np.random.default_rng(self.seed)
        stats = RunStats()
        stalled = 0
        start_iteration = 1
        if resume_state is not None:
            if initial_partition is not None:
                raise ValueError(
                    "pass either initial_partition or resume_state, not both"
                )
            if resume_state.partition.num_nodes != graph.num_nodes:
                raise ValueError(
                    "resume_state covers a different node universe"
                )
            partition = resume_state.partition.copy()
            if resume_state.rng_state is not None:
                rng.bit_generator.state = resume_state.rng_state
            if resume_state.stats is not None:
                stats = dataclasses.replace(
                    resume_state.stats,
                    iterations=list(resume_state.stats.iterations),
                )
            stalled = resume_state.stalled
            start_iteration = resume_state.iteration + 1
            if self.early_stop_rounds and stalled >= self.early_stop_rounds:
                # The interrupted run had already early-stopped; resume
                # must go straight to the encode, not iterate further.
                start_iteration = self.iterations + 1
        elif initial_partition is None:
            partition = SupernodePartition(graph.num_nodes)
        else:
            if initial_partition.num_nodes != graph.num_nodes:
                raise ValueError(
                    "initial_partition covers a different node universe"
                )
            partition = initial_partition.copy()
        # Span ids derive from (seed, algorithm) and structural keys, so
        # a resumed run re-creates the run span (same id) and emits
        # exactly the post-checkpoint spans the uninterrupted run would
        # have — the property pinned by tests/obs/test_golden_trace.py.
        # The attributes here are deliberately resume-invariant.
        with obs_trace.span(
            "run",
            key=f"{self.name}/{self.seed}",
            algorithm=self.name,
            seed=self.seed,
            kernels=self.kernels,
            iterations=self.iterations,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
        ) as run_span:
            for t in range(start_iteration, self.iterations + 1):
                with obs_trace.span("iteration", key=t) as iter_span:
                    with obs_trace.span(
                        "divide", key=t, backend=self.kernels
                    ) as divide_span:
                        tic = time.perf_counter()
                        groups, divide_stats = self.divide(
                            graph, partition, rng
                        )
                        divide_seconds = time.perf_counter() - tic
                        divide_span.set_attribute(
                            "num_groups", divide_stats.num_groups
                        )
                        divide_span.set_attribute(
                            "num_mergeable", divide_stats.num_mergeable
                        )
                        divide_span.set_attribute(
                            "max_group_size", divide_stats.max_group_size
                        )

                    with obs_trace.span("merge", key=t) as merge_span:
                        tic = time.perf_counter()
                        threshold = merge_threshold(t)
                        merge_stats = self._merge_phase(
                            graph, partition, groups, threshold, rng, t,
                            stats,
                        )
                        merge_seconds = time.perf_counter() - tic
                        merge_span.set_attribute(
                            "merges", merge_stats.merges
                        )
                        merge_span.set_attribute(
                            "candidates_scored",
                            merge_stats.candidates_scored,
                        )

                    obs_metrics.inc(
                        "ldme_merges_accepted_total", merge_stats.merges
                    )
                    obs_metrics.inc(
                        "ldme_merge_candidates_scored_total",
                        merge_stats.candidates_scored,
                    )
                    obs_metrics.observe(
                        "ldme_divide_seconds", divide_seconds,
                        labels={"backend": self.kernels},
                    )
                    obs_metrics.observe(
                        "ldme_merge_seconds", merge_seconds,
                        labels={"backend": self.kernels},
                    )

                    stats.divide_seconds += divide_seconds
                    stats.merge_seconds += merge_seconds
                    record = IterationStats(
                        iteration=t,
                        divide_seconds=divide_seconds,
                        merge_seconds=merge_seconds,
                        num_groups=divide_stats.num_groups,
                        max_group_size=divide_stats.max_group_size,
                        num_supernodes=partition.num_supernodes,
                        merges=merge_stats.merges,
                    )
                    if self.track_compression:
                        with obs_trace.span("encode", key=t):
                            tic = time.perf_counter()
                            snapshot = (
                                encode_sorted(
                                    graph, partition, backend=self.kernels
                                )
                                if self.encoder == "sorted"
                                else encode_per_supernode(graph, partition)
                            )
                            record.encode_seconds = (
                                time.perf_counter() - tic
                            )
                        tracked = Summarization(
                            num_nodes=graph.num_nodes,
                            num_edges=graph.num_edges,
                            partition=partition,
                            superedges=snapshot.superedges,
                            corrections=snapshot.corrections,
                        )
                        record.objective = tracked.objective
                        record.compression = tracked.compression
                    stats.iterations.append(record)
                    iter_span.set_attribute(
                        "num_supernodes", partition.num_supernodes
                    )
                    iter_span.set_attribute("merges", merge_stats.merges)
                    if self.early_stop_rounds:
                        stalled = 0 if merge_stats.merges else stalled + 1
                    if iteration_hook is not None:
                        iteration_hook(
                            ResumeState(
                                iteration=t,
                                partition=partition,
                                rng_state=rng.bit_generator.state,
                                stalled=stalled,
                                stats=stats,
                            )
                        )
                if self.early_stop_rounds and stalled >= self.early_stop_rounds:
                    break
            with obs_trace.span(
                "encode", key="final", backend=self.kernels,
                encoder=self.encoder,
            ) as encode_span:
                tic = time.perf_counter()
                if self.encoder == "sorted":
                    encoded = encode_sorted(
                        graph, partition, backend=self.kernels
                    )
                else:
                    encoded = encode_per_supernode(graph, partition)
                stats.encode_seconds = time.perf_counter() - tic
                encode_span.set_attribute(
                    "superedges", len(encoded.superedges)
                )
                encode_span.set_attribute(
                    "additions", len(encoded.corrections.additions)
                )
                encode_span.set_attribute(
                    "deletions", len(encoded.corrections.deletions)
                )
            obs_metrics.inc(
                "ldme_superedges_total", len(encoded.superedges)
            )
            obs_metrics.inc(
                "ldme_correction_additions_total",
                len(encoded.corrections.additions),
            )
            obs_metrics.inc(
                "ldme_correction_deletions_total",
                len(encoded.corrections.deletions),
            )
            obs_metrics.observe(
                "ldme_encode_seconds", stats.encode_seconds,
                labels={"backend": self.kernels},
            )

            result = Summarization(
                num_nodes=graph.num_nodes,
                num_edges=graph.num_edges,
                partition=partition,
                superedges=encoded.superedges,
                corrections=encoded.corrections,
                stats=stats,
                algorithm=self.name,
            )
            if self.epsilon > 0:
                with obs_trace.span("drop", epsilon=self.epsilon):
                    tic = time.perf_counter()
                    result = drop_edges(graph, result, self.epsilon)
                    result.stats.drop_seconds = time.perf_counter() - tic
            run_span.set_attribute(
                "num_supernodes", result.num_supernodes
            )
            run_span.set_attribute("objective", result.objective)
        return result
