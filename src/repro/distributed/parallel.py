"""Distributed execution of divide/merge/encode summarizers.

:func:`run_distributed` runs any :class:`~repro.core.base.BaseSummarizer`
through its own driver (:meth:`~repro.core.base.BaseSummarizer.summarize`)
and charges the measured work to the simulated cluster of
:mod:`repro.distributed.runtime`: each merge group is an independent task
(line 5 of Algorithm 1 — "each group is processed in parallel") whose
round also spreads the iteration's merge context build (LDME's W table)
evenly over the workers, and divide, encode and drop are data-parallel
phases. The computation is the serial run itself, so the output
summarization is identical to it; only wall-clock attribution is
simulated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Tuple

from ..core.base import BaseSummarizer, ResumeState
from ..core.summary import Summarization
from ..graph.graph import Graph
from .runtime import ClusterSpec, SimulatedCluster

__all__ = ["DistributedResult", "run_distributed"]


@dataclass
class DistributedResult:
    """Summarization plus the simulated cluster's accounting."""

    summarization: Summarization
    simulated_seconds: float
    serial_seconds: float
    num_workers: int

    @property
    def speedup(self) -> float:
        """Serial / simulated wall-clock ratio."""
        if self.simulated_seconds == 0:
            return 1.0
        return self.serial_seconds / self.simulated_seconds


def run_distributed(
    summarizer: BaseSummarizer,
    graph: Graph,
    cluster: ClusterSpec = ClusterSpec(),
) -> DistributedResult:
    """Execute ``summarizer`` on ``graph`` under a simulated cluster.

    ``merge_one_group`` is timed on the instance for the duration of the
    run; after each iteration its group costs are scheduled as one round,
    together with the rest of the iteration's merge phase (the
    ``merge_context`` build) charged as data-parallel work. The returned
    stats carry the simulated phase times.
    """
    sim = SimulatedCluster(cluster)
    group_costs: List[float] = []
    charged: List[Tuple[float, float]] = []   # (divide, merge) per iteration
    merge_one_group = summarizer.merge_one_group

    def timed_merge_one_group(*args, **kwargs):
        tic = time.perf_counter()
        merge_stats = merge_one_group(*args, **kwargs)
        group_costs.append(time.perf_counter() - tic)
        return merge_stats

    def charge_iteration(state: ResumeState) -> None:
        record = state.stats.iterations[-1]
        # The merge phase's time outside the groups is the merge_context
        # build (LDME's W table, batched over every group by the serial
        # driver); in the round it is split evenly across the workers.
        workers = cluster.num_workers
        context_share = max(
            0.0, record.merge_seconds - sum(group_costs)
        ) / workers
        charged.append((
            sim.run_data_parallel(record.divide_seconds),
            sim.run_round(group_costs + [context_share] * workers),
        ))
        group_costs.clear()

    summarizer.merge_one_group = timed_merge_one_group
    try:
        summarization = summarizer.summarize(
            graph, iteration_hook=charge_iteration
        )
    finally:
        del summarizer.merge_one_group

    stats = summarization.stats
    for record, (divide_sim, merge_sim) in zip(stats.iterations, charged):
        record.divide_seconds = divide_sim
        record.merge_seconds = merge_sim
    stats.divide_seconds = sum(divide for divide, _ in charged)
    stats.merge_seconds = sum(merge for _, merge in charged)
    stats.encode_seconds = sim.run_data_parallel(stats.encode_seconds)
    if summarizer.epsilon > 0:
        stats.drop_seconds = sim.run_data_parallel(stats.drop_seconds)
    summarization.algorithm = f"{summarizer.name}-distributed"
    return DistributedResult(
        summarization=summarization,
        simulated_seconds=sim.simulated_seconds,
        serial_seconds=sim.serial_seconds,
        num_workers=cluster.num_workers,
    )
