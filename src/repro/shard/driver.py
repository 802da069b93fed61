"""Per-shard summarization driver: partition → K×LDME → stitch → save.

:func:`summarize_sharded` is the one-call pipeline behind the
``shard-summarize`` CLI command. It reuses the existing single-graph
machinery unchanged per shard:

* the plain :class:`~repro.core.ldme.LDME` driver (or the supervised
  :class:`~repro.distributed.MultiprocessLDME` worker pool when
  ``num_workers > 1``), honouring the ``kernels=`` backend knob;
* :func:`repro.resilience.run_resumable` checkpointing when a
  ``checkpoint_dir`` is given — each shard checkpoints into its own
  subdirectory, so a crash resumes mid-shard, not from shard 0;
* :mod:`repro.obs` spans (``shard_run`` parent, one ``shard_summarize``
  child per shard keyed by shard id — deterministic, so the golden-trace
  machinery applies).

Shard ``s`` runs with ``seed + s`` so shards decorrelate but the whole
run stays reproducible from one seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from ..core.base import BaseSummarizer
from ..core.ldme import LDME
from ..core.summary import Summarization
from ..graph.graph import Graph
from ..obs import trace as obs_trace
from .hashring import HashRing
from .manifest import ShardManifest, save_sharded
from .partitioner import ShardedGraph, partition_graph
from .stitch import StitchReport, stitch_shards

__all__ = ["ShardSummaryResult", "summarize_sharded"]

AlgoFactory = Callable[[int], BaseSummarizer]


@dataclass
class ShardSummaryResult:
    """Everything one sharded run produces."""

    sharded: ShardedGraph
    summaries: Dict[int, Summarization]   # shard id -> local-space summary
    report: StitchReport                  # stitched global summary + audit
    manifest: Optional[ShardManifest] = None

    @property
    def summary(self) -> Summarization:
        """The stitched global summary."""
        return self.report.summary


def _default_factory(
    k: int,
    iterations: int,
    seed: int,
    kernels: str,
    num_workers: int,
) -> AlgoFactory:
    def make(shard_id: int) -> BaseSummarizer:
        if num_workers > 1:
            from ..distributed import MultiprocessLDME

            return MultiprocessLDME(
                num_workers=num_workers,
                k=k, iterations=iterations,
                seed=seed + shard_id, kernels=kernels,
            )
        return LDME(
            k=k, iterations=iterations,
            seed=seed + shard_id, kernels=kernels,
        )

    return make


def summarize_sharded(
    graph: Graph,
    shards: Union[int, HashRing] = 4,
    *,
    k: int = 5,
    iterations: int = 20,
    seed: int = 0,
    kernels: str = "numpy",
    num_workers: int = 1,
    virtual_nodes: int = 64,
    algo_factory: Optional[AlgoFactory] = None,
    checkpoint_dir: Optional[str] = None,
    out_dir: Optional[str] = None,
    validate: bool = True,
) -> ShardSummaryResult:
    """Summarize ``graph`` as K independent shards and stitch the result.

    Parameters
    ----------
    shards:
        Shard count (ring over ``0..K-1``) or a prebuilt
        :class:`HashRing` (e.g. from a manifest, for re-shard runs).
    algo_factory:
        ``shard_id -> BaseSummarizer`` override; the default builds
        :class:`LDME` (or :class:`MultiprocessLDME` when
        ``num_workers > 1``) with ``seed + shard_id``.
    checkpoint_dir:
        Enables :func:`~repro.resilience.run_resumable` per shard, each
        shard under ``<dir>/shard-<id>/``.
    out_dir:
        When given, persist the manifest directory (global + per-shard
        serving artifacts) via :func:`~repro.shard.manifest.save_sharded`.
    validate:
        Run partition-coverage checks and the full losslessness proof on
        the stitched summary (cheap relative to summarization; leave on).
    """
    ring = shards if isinstance(shards, HashRing) else HashRing(
        shards, virtual_nodes=virtual_nodes, seed=seed
    )
    factory = algo_factory or _default_factory(
        k, iterations, seed, kernels, num_workers
    )

    with obs_trace.span(
        "shard_run", key=ring.num_shards,
        shards=ring.num_shards, nodes=graph.num_nodes,
        edges=graph.num_edges,
    ):
        sharded = partition_graph(graph, ring)
        summaries: Dict[int, Summarization] = {}
        for shard in sharded.shards:
            algo = factory(shard.shard_id)
            with obs_trace.span(
                "shard_summarize", key=shard.shard_id,
                shard=shard.shard_id,
                nodes=shard.num_nodes,
                edges=shard.local_graph.num_edges,
            ):
                if checkpoint_dir is not None:
                    from ..resilience import run_resumable

                    summaries[shard.shard_id] = run_resumable(
                        algo,
                        shard.local_graph,
                        os.path.join(
                            checkpoint_dir, f"shard-{shard.shard_id}"
                        ),
                    )
                else:
                    summaries[shard.shard_id] = algo.summarize(
                        shard.local_graph
                    )

        report = stitch_shards(
            sharded, summaries,
            graph=graph if validate else None,
            validate=validate,
        )

    manifest = None
    if out_dir is not None:
        # Persist the local-space summaries too (manifest v2), so the
        # directory can seed a targeted re-shard via repro.shard.migrate.
        manifest = save_sharded(
            report.summary, sharded, out_dir, local_summaries=summaries
        )
    return ShardSummaryResult(
        sharded=sharded,
        summaries=summaries,
        report=report,
        manifest=manifest,
    )
