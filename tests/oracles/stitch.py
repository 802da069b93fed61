"""The shard stitch and serving cut, tuple by tuple and bundle by bundle."""

from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.core.encode import _encode_pair
from repro.core.partition import SupernodePartition
from repro.core.summary import CorrectionSet, Summarization
from repro.shard.partitioner import ShardedGraph

Edge = Tuple[int, int]


def stitch(sharded: ShardedGraph,
           summaries: Mapping[int, Summarization]) -> Summarization:
    """Lift every shard summary to global ids, then price the cut edges
    per supernode pair with the scalar encoder's ``_encode_pair``."""
    members: Dict[int, List[int]] = {}
    superedges: List[Edge] = []
    additions: List[Edge] = []
    deletions: List[Edge] = []
    for shard in sharded.shards:
        summary = summaries[shard.shard_id]
        gids = shard.global_ids
        for sid in summary.partition.supernode_ids():
            members[int(gids[sid])] = [
                int(gids[v]) for v in summary.partition.members(sid)
            ]
        superedges.extend(
            (int(gids[a]), int(gids[b])) for a, b in summary.superedges
        )
        additions.extend(
            (int(gids[u]), int(gids[v]))
            for u, v in summary.corrections.additions
        )
        deletions.extend(
            (int(gids[u]), int(gids[v]))
            for u, v in summary.corrections.deletions
        )
    partition = SupernodePartition.from_members(sharded.num_nodes, members)
    node2super = partition.node2super
    bundles: Dict[Edge, List[Edge]] = {}
    for u, v in sharded.all_cut_edges().tolist():
        a, b = int(node2super[u]), int(node2super[v])
        key = (a, b) if a < b else (b, a)
        bundles.setdefault(key, []).append((int(u), int(v)))
    for (a, b), edges in sorted(bundles.items()):
        _encode_pair(a, b, edges, partition, superedges, additions, deletions)
    return Summarization(
        num_nodes=sharded.num_nodes,
        num_edges=sharded.num_edges,
        partition=partition,
        superedges=superedges,
        corrections=CorrectionSet(additions=additions, deletions=deletions),
    )


def serving_summary(stitched: Summarization, sharded: ShardedGraph,
                    shard_id: int) -> Summarization:
    partition = stitched.partition
    mine = np.flatnonzero(sharded.assignment == shard_id)
    my_nodes = set(int(v) for v in mine)
    own_sids = {int(partition.node2super[v]) for v in mine}
    ghost_sids = set()
    superedges: List[Edge] = []
    for a, b in stitched.superedges:
        if a in own_sids or b in own_sids:
            superedges.append((a, b))
            for sid in (a, b):
                if sid not in own_sids:
                    ghost_sids.add(sid)
    members: Dict[int, List[int]] = {}
    covered = np.zeros(stitched.num_nodes, dtype=bool)
    for sid in sorted(own_sids | ghost_sids):
        mem = [int(v) for v in partition.members(sid)]
        members[sid] = mem
        covered[mem] = True
    for v in np.flatnonzero(~covered).tolist():
        members[int(v)] = [int(v)]
    return Summarization(
        num_nodes=stitched.num_nodes,
        num_edges=stitched.num_edges,
        partition=SupernodePartition.from_members(stitched.num_nodes, members),
        superedges=superedges,
        corrections=CorrectionSet(
            additions=[(u, v) for u, v in stitched.corrections.additions
                       if u in my_nodes or v in my_nodes],
            deletions=[(u, v) for u, v in stitched.corrections.deletions
                       if u in my_nodes or v in my_nodes],
        ),
    )
