"""Sharded summarization (``repro.shard``).

The billion-scale pitch of the paper made concrete: the graph is split
into K shards by consistent hashing on node id, each shard is summarized
independently (reusing the serial LDME driver),
and a stitching coordinator merges the per-shard outputs into one
lossless global summary plus per-shard *serving* artifacts that a
shards × replicas :class:`~repro.serve.cluster.SummaryCluster` loads.

Modules
-------
* :mod:`~repro.shard.hashring` — consistent-hash ring with virtual
  nodes; the single source of node → shard truth, shared by the
  partitioner and by :class:`~repro.serve.cluster.ClusterClient`
  routing.
* :mod:`~repro.shard.partitioner` — splits a CSR graph into per-shard
  induced subgraphs (intra-shard edges stay local) and routes every cut
  edge to a deterministic owner shard.
* :mod:`~repro.shard.driver` — runs LDME per shard, checkpointing via
  :func:`repro.resilience.run_resumable`, and :mod:`repro.obs` spans.
* :mod:`~repro.shard.stitch` — merges per-shard summaries into a global
  :class:`~repro.core.summary.Summarization` (cross-shard superedges
  with corrections, encoded by the paper's own cost rule) and derives
  the per-shard serving summaries.
* :mod:`~repro.shard.manifest` — the CRC-checked shard manifest plus
  per-shard CRC-footer ``.ldmeb`` artifacts on disk.

See ``docs/sharding.md`` for the end-to-end topology and swap
semantics.
"""

from .driver import ShardSummaryResult, summarize_sharded
from .hashring import HashRing
from .manifest import (
    ShardEntry,
    ShardManifest,
    load_manifest,
    load_serving_summaries,
    save_sharded,
)
from .migrate import (
    CoordinatorKilledError,
    GenerationStore,
    MigrationCoordinator,
    MigrationJournal,
    MigrationPlan,
    MigrationReport,
    plan_migration,
)
from .partitioner import GraphShard, ShardedGraph, partition_graph
from .stitch import StitchReport, shard_serving_summary, stitch_shards

__all__ = [
    "HashRing",
    "GraphShard",
    "ShardedGraph",
    "partition_graph",
    "ShardSummaryResult",
    "summarize_sharded",
    "StitchReport",
    "stitch_shards",
    "shard_serving_summary",
    "ShardManifest",
    "ShardEntry",
    "save_sharded",
    "load_manifest",
    "load_serving_summaries",
    "plan_migration",
    "MigrationPlan",
    "MigrationJournal",
    "MigrationReport",
    "MigrationCoordinator",
    "GenerationStore",
    "CoordinatorKilledError",
]
