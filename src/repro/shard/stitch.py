"""The stitching coordinator: per-shard summaries → one global summary.

Per-shard LDME runs see only intra-shard edges, in a local id space.
:func:`stitch_shards` lifts each shard's partition, superedges, and
corrections back to global node ids, unions the partitions (shards are
disjoint by construction, so the union is a valid partition of the full
universe), and then encodes every **cut edge** with the paper's own
superedge cost rule: a cross-shard supernode pair ``(A, B)`` whose cut
edges cover more than half of ``|A|·|B|`` becomes a cross-shard
superedge plus ``C-`` deletions; sparser pairs put their edges in
``C+``. The cut edges go through
:func:`repro.kernels.encode.encode_edge_arrays` — the same kernel the
serial encoder runs over a whole graph — so a stitched summary prices
cross-shard structure exactly like a whole-graph run would. Lifting,
encoding and the serving cut below are array operations; no step walks
the edges one by one.

The result is **lossless by construction**: intra-shard edges are
reproduced by the shard summaries, cut edges by the cross-shard
encoding, and nothing else exists. ``validate=True`` re-checks this
with the shared partition-coverage helper
(:func:`repro.core.validate.partition_coverage_problems`) plus, when
the input graph is supplied, a full
:func:`~repro.core.validate.check_summary` reconstruction proof.

:func:`shard_serving_summary` derives the per-shard artifact a serving
replica loads: the shard's own supernodes, *ghost* copies of
cross-superedge peer supernodes, singletons for every other node, and
exactly the superedges/corrections incident to the shard — enough to
answer any single-node query about the shard's nodes with global
accuracy, at a fraction of the full index's superedge/correction state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.pairs import edge_array, edge_list
from ..core.partition import SupernodePartition
from ..core.summary import CorrectionSet, RunStats, Summarization
from ..core.validate import check_summary, partition_coverage_problems
from ..graph.graph import Graph
from ..kernels.encode import encode_edge_arrays
from ..obs import trace as obs_trace
from .partitioner import ShardedGraph

__all__ = ["StitchReport", "stitch_shards", "shard_serving_summary"]


@dataclass
class StitchReport:
    """Outcome of one stitch: the global summary plus accounting."""

    summary: Summarization
    num_shards: int
    num_cut_edges: int
    cross_superedges: int             # cut-edge pairs encoded as superedges
    cross_additions: int              # cut edges landing in C+
    cross_deletions: int              # C- emitted under cross superedges
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _lift_summaries(
    sharded: ShardedGraph,
    summaries: Mapping[int, Summarization],
) -> Tuple[Dict[int, List[int]], np.ndarray, np.ndarray, np.ndarray]:
    """Map every shard summary into global ids.

    Returns (members, superedges, additions, deletions), all global; the
    pairs as ``(m, 2)`` arrays. A local supernode id is a local node id,
    so its global supernode id is that node's global id — the same
    "supernode id is a member's node id" invariant the serial pipeline
    keeps.
    """
    members: Dict[int, List[int]] = {}
    superedges, additions, deletions = [], [], []
    for shard in sharded.shards:
        summary = summaries[shard.shard_id]
        if summary.num_nodes != shard.num_nodes:
            raise ValueError(
                f"shard {shard.shard_id} summary covers "
                f"{summary.num_nodes} nodes, expected {shard.num_nodes}"
            )
        gids = shard.global_ids
        local = summary.partition.members_map()
        counts = np.fromiter(map(len, local.values()), dtype=np.int64,
                             count=len(local))
        flat = gids[np.fromiter(chain.from_iterable(local.values()),
                                dtype=np.int64,
                                count=int(counts.sum()))].tolist()
        sids = gids[np.fromiter(local, dtype=np.int64, count=len(local))]
        for sid, end, size in zip(sids.tolist(), np.cumsum(counts).tolist(),
                                  counts.tolist()):
            members[sid] = flat[end - size:end]
        superedges.append(gids[edge_array(summary.superedges)])
        additions.append(gids[edge_array(summary.corrections.additions)])
        deletions.append(gids[edge_array(summary.corrections.deletions)])
    return (members, np.concatenate(superedges), np.concatenate(additions),
            np.concatenate(deletions))


def stitch_shards(
    sharded: ShardedGraph,
    summaries: Mapping[int, Summarization],
    *,
    graph: Optional[Graph] = None,
    validate: bool = True,
) -> StitchReport:
    """Merge per-shard summaries and cut edges into one global summary.

    ``summaries`` maps shard id → that shard's (local-space)
    :class:`~repro.core.summary.Summarization`. With ``graph`` supplied
    and ``validate=True`` the stitched output is proven lossless via
    full reconstruction; without it, structural checks still run.
    """
    missing = [s.shard_id for s in sharded.shards
               if s.shard_id not in summaries]
    if missing:
        raise ValueError(f"missing summaries for shards {missing}")

    with obs_trace.span(
        "stitch", key=sharded.num_shards,
        shards=sharded.num_shards, cut_edges=sharded.num_cut_edges,
    ) as span:
        members, superedges, additions, deletions = _lift_summaries(
            sharded, summaries
        )
        partition = SupernodePartition.from_members(
            sharded.num_nodes, members
        )

        # Cut edges, encoded with the serial encoder's own decision rule.
        cut = sharded.all_cut_edges()
        cross_superedges, cross_additions, cross_deletions = \
            encode_edge_arrays(cut[:, 0], cut[:, 1], sharded.num_nodes,
                               partition)

        stats = RunStats()
        for summary in summaries.values():
            stats.divide_seconds += summary.stats.divide_seconds
            stats.merge_seconds += summary.stats.merge_seconds
            stats.encode_seconds += summary.stats.encode_seconds
            stats.drop_seconds += summary.stats.drop_seconds
        stitched = Summarization(
            num_nodes=sharded.num_nodes,
            num_edges=sharded.num_edges,
            partition=partition,
            superedges=edge_list(
                np.concatenate([superedges, cross_superedges])),
            corrections=CorrectionSet(
                additions=edge_list(
                    np.concatenate([additions, cross_additions])),
                deletions=edge_list(
                    np.concatenate([deletions, cross_deletions])),
            ),
            stats=stats,
            algorithm=f"ldme-sharded-{sharded.num_shards}",
        )

        problems: List[str] = []
        if validate:
            problems = partition_coverage_problems(
                stitched.partition, stitched.num_nodes
            )
            if not problems:
                problems = check_summary(stitched, graph)
        span.set_attribute("cross_superedges", len(cross_superedges))
        span.set_attribute("problems", len(problems))

    return StitchReport(
        summary=stitched,
        num_shards=sharded.num_shards,
        num_cut_edges=sharded.num_cut_edges,
        cross_superedges=len(cross_superedges),
        cross_additions=len(cross_additions),
        cross_deletions=len(cross_deletions),
        problems=problems,
    )


def shard_serving_summary(
    stitched: Summarization,
    sharded: ShardedGraph,
    shard_id: int,
) -> Summarization:
    """The summary one shard's replicas serve (global node space).

    Contains the shard's own supernodes, ghost copies of supernodes
    reachable through a cross-shard superedge, singleton supernodes for
    every remaining node, and only the superedges / correction edges
    incident to the shard. Single-node queries (``neighbors`` /
    ``degree`` / ``has_edge``) about *this shard's nodes* answer
    identically to the full stitched index — pinned by
    ``tests/shard/test_stitch.py`` — which is why hash-ring routing must
    send each node's queries to its owning shard.
    """
    partition = stitched.partition
    node2super = partition.node2super
    mine = sharded.assignment == shard_id
    if not mine.any() and shard_id not in sharded.ring.shards:
        raise KeyError(f"no shard {shard_id}")
    # Supernodes owned by this shard (every member lives here — shards
    # never split a supernode, by construction).
    owned = np.zeros(stitched.num_nodes, dtype=bool)
    owned[node2super[mine]] = True

    # Superedges incident to an owned supernode; peers become ghosts.
    superedges = edge_array(stitched.superedges)
    superedges = superedges[owned[superedges].any(axis=1)]
    kept = owned.copy()
    kept[superedges] = True

    members: Dict[int, List[int]] = {
        sid: partition.members(sid)
        for sid in np.flatnonzero(kept).tolist()
    }
    for v in np.flatnonzero(~kept[node2super]).tolist():
        members[v] = [v]

    additions = edge_array(stitched.corrections.additions)
    deletions = edge_array(stitched.corrections.deletions)
    return Summarization(
        num_nodes=stitched.num_nodes,
        num_edges=stitched.num_edges,
        partition=SupernodePartition.from_members(
            stitched.num_nodes, members
        ),
        superedges=edge_list(superedges),
        corrections=CorrectionSet(
            additions=edge_list(additions[mine[additions].any(axis=1)]),
            deletions=edge_list(deletions[mine[deletions].any(axis=1)]),
        ),
        algorithm=f"{stitched.algorithm}/shard-{shard_id}",
    )
