"""Merge phase: per-group randomized supernode merging.

For each group produced by the divide step, the merge loop (Section 2 of
the paper) repeatedly removes a random supernode ``A`` from the working set,
finds its best partner ``B``, and merges when the Saving clears the
iteration-dependent threshold ``θ(t) = 1/(1+t)``. LDME scores candidates by
*exact* Saving through the group's ``W`` structure (Algorithm 4); SWeG
scores by SuperJaccard and checks Saving only once — both policies are
implemented here so the baselines share one audited merge loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..graph.graph import Graph
from ..kernels import wtable
from ..lsh.weighted import weighted_jaccard
from .partition import SupernodePartition
from .saving import GroupAdjacency

__all__ = [
    "merge_threshold",
    "MergeStats",
    "merge_group_exact",
    "merge_group_superjaccard",
    "super_jaccard",
]

SeedLike = Union[int, np.random.Generator, None]


def merge_threshold(t: int) -> float:
    """``θ(t) = 1 / (1 + t)``: looser in later iterations (t is 1-based)."""
    if t < 1:
        raise ValueError("iteration number t must be >= 1")
    return 1.0 / (1.0 + t)


@dataclass
class MergeStats:
    """Bookkeeping for one merge phase (summed across groups)."""

    merges: int = 0
    candidates_scored: int = 0

    def __iadd__(self, other: "MergeStats") -> "MergeStats":
        self.merges += other.merges
        self.candidates_scored += other.candidates_scored
        return self


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def merge_group_exact(
    graph: Graph,
    partition: SupernodePartition,
    group: List[int],
    threshold: float,
    seed: SeedLike = None,
    cost_model: str = "exact",
    kernels: str = "python",
    table: Optional[wtable.WTable] = None,
) -> MergeStats:
    """LDME merge loop: candidates scored by exact Saving via ``W``.

    Mutates ``partition`` in place and returns merge statistics.
    ``kernels`` picks the ``W``-construction backend (see
    :class:`~repro.core.saving.GroupAdjacency`); the merge decisions are
    identical under either backend. ``table`` is an iteration-wide ``W``
    table holding this group's rows (numpy backend only).
    """
    rng = _rng(seed)
    stats = MergeStats()
    if len(group) < 2:
        return stats
    adjacency = GroupAdjacency(
        graph, partition, group, cost_model=cost_model, kernels=kernels,
        table=table,
    )
    temp = list(group)
    while temp:
        pick = int(rng.integers(len(temp)))
        temp[pick], temp[-1] = temp[-1], temp[pick]
        a = temp.pop()
        if not temp:
            break
        best, best_saving = adjacency.best_candidate(a, temp)
        stats.candidates_scored += len(temp)
        if best is not None and best_saving >= threshold:
            survivor, absorbed = partition.merge(a, best)
            adjacency.apply_merge(survivor, absorbed)
            # "Replace B in temp with the merged result."
            temp[temp.index(best)] = survivor
            stats.merges += 1
    return stats


def super_jaccard(
    vec_a: Dict[int, int], vec_b: Dict[int, int]
) -> float:
    """SuperJaccard similarity (Eq. 3) of two supervectors.

    Identical to weighted Jaccard on the ``w(A, ·)`` vectors — the identity
    LDME's divide step is built on.
    """
    return weighted_jaccard(vec_a, vec_b)


def merge_group_superjaccard(
    graph: Graph,
    partition: SupernodePartition,
    group: List[int],
    threshold: float,
    seed: SeedLike = None,
    cost_model: str = "exact",
    kernels: str = "python",
) -> MergeStats:
    """SWeG merge loop: candidates ranked by SuperJaccard, Saving checked once.

    This is the baseline policy the paper attributes SWeG's merge cost to:
    every candidate comparison walks node-level supervectors (O(|N_A| +
    |N_B|)), and the selected pair still needs one Saving evaluation.
    """
    rng = _rng(seed)
    stats = MergeStats()
    if len(group) < 2:
        return stats
    adjacency = GroupAdjacency(
        graph, partition, group, cost_model=cost_model, kernels=kernels
    )
    vectors: Dict[int, Dict[int, int]] = {
        sid: partition.supervector(graph, sid) for sid in group
    }
    temp = list(group)
    while temp:
        pick = int(rng.integers(len(temp)))
        temp[pick], temp[-1] = temp[-1], temp[pick]
        a = temp.pop()
        if not temp:
            break
        best: Optional[int] = None
        best_sim = -1.0
        for b in temp:
            sim = super_jaccard(vectors[a], vectors[b])
            if sim > best_sim:
                best, best_sim = b, sim
        stats.candidates_scored += len(temp)
        if best is None:
            continue
        if adjacency.saving(a, best) >= threshold:
            survivor, absorbed = partition.merge(a, best)
            adjacency.apply_merge(survivor, absorbed)
            merged_vec = vectors.pop(absorbed)
            base_vec = vectors.pop(survivor)
            for key, weight in merged_vec.items():
                base_vec[key] = base_vec.get(key, 0) + weight
            vectors[survivor] = base_vec
            temp[temp.index(best)] = survivor
            stats.merges += 1
    return stats
