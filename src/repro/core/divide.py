"""Divide step: split the supernodes into merge groups.

Two strategies, matching the paper:

* :func:`lsh_divide` — LDME's weighted-LSH divide (Algorithm 3). Each
  supernode's binarized supervector (= its neighbour set ``N_A``) is hashed
  with DOPH; supernodes sharing the length-``k`` signature form a group.
  Larger ``k`` → more, smaller groups → faster merging, slightly weaker
  compression (the tuning knob of Figure 4).
* :func:`shingle_divide` — SWeG's divide: one random shingle per supernode.

Both return only groups with at least two members (singletons cannot merge)
plus divide statistics for Figure 4 style reporting. Isolated supernodes
(empty neighbourhood) are never grouped: their signature is the all-EMPTY
sentinel and merging them cannot change the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from ..graph.graph import Graph
from ..lsh.doph import doph_signatures_bulk
from ..lsh.permutation import random_permutation
from ..lsh.shingle import node_shingles
from ..obs import trace as obs_trace
from .partition import SupernodePartition

__all__ = ["DivideStats", "lsh_divide", "shingle_divide"]

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class DivideStats:
    """Shape of one divide: the quantities plotted in Figure 4.

    ``num_groups`` counts every bucket the divide produces (the paper's
    count — its combinatorial argument enumerates possible signatures, so a
    singleton bucket is still a group); ``num_mergeable`` counts only the
    buckets with at least two supernodes, which are the ones the merge
    phase visits.
    """

    num_groups: int          # all signature buckets (the paper's count)
    num_mergeable: int       # buckets with >= 2 supernodes
    max_group_size: int      # size of the largest bucket
    num_singletons: int      # supernodes alone in their bucket
    num_isolated: int        # supernodes with empty neighbourhoods


def lsh_divide(
    graph: Graph,
    partition: SupernodePartition,
    k: int,
    seed: SeedLike = None,
    weights: str = "binary",
    weight_cap: int = 4,
) -> Tuple[List[List[int]], DivideStats]:
    """Weighted-LSH divide (Algorithm 3), fully vectorized.

    Every supernode's binarized supervector is the multiset of its members'
    neighbours, which the CSR exposes directly: one scatter-minimum computes
    all DOPH signatures at once (see
    :func:`repro.lsh.doph.doph_signatures_bulk`). Returns ``(groups,
    stats)`` where each group is a list of supernode ids sharing a
    signature; size-one buckets are counted as singletons.

    No edge-sized array is sorted. The live supernodes (those with a
    neighbour) are numbered by a boolean mask over supernode ids, which
    are always member node ids and so ``< n``; its ``cumsum`` gives each
    one its signature row in ascending id order. The rows are grouped by
    one stable ``lexsort`` over the ``k`` signature columns, with bucket
    starts where consecutive sorted rows differ. Groups come out in the
    order of their smallest supernode id, each in ascending id order,
    and only buckets with at least two supernodes become Python lists.

    ``weights`` selects the vector the LSH sees: ``"binary"`` (the paper's
    binarized supervector) or ``"expanded"`` (the Shrivastava 2016
    weight-expansion — true ``w(A, ·)`` weights up to ``weight_cap``; see
    :mod:`repro.lsh.weighted_doph`).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights not in ("binary", "expanded"):
        raise ValueError("weights must be 'binary' or 'expanded'")
    rng = _rng(seed)
    n = graph.num_nodes
    directions = rng.integers(0, 2, size=k).astype(np.int64)
    degree = np.diff(graph.indptr)
    node2super = partition.node2super
    live = np.zeros(n, dtype=bool)
    live[node2super[degree > 0]] = True
    sids = np.flatnonzero(live)
    dense = np.cumsum(live, dtype=np.int64) - 1
    rows = np.repeat(dense[node2super], degree)
    with obs_trace.span(
        "signatures", key="sig", weights=weights
    ) as sig_span:
        if weights == "binary":
            perm = random_permutation(max(1, n), rng)
            signatures = doph_signatures_bulk(
                rows, graph.indices, sids.size, perm, k, directions
            )
        else:
            from ..lsh.weighted_doph import weighted_doph_signatures_bulk

            # Aggregate duplicate (supernode, neighbour) pairs into weights.
            key = rows * np.int64(max(1, n)) + graph.indices
            unique_key, counts = np.unique(key, return_counts=True)
            agg_rows = unique_key // max(1, n)
            agg_items = unique_key % max(1, n)
            perm = random_permutation(max(1, n) * weight_cap, rng)
            signatures = weighted_doph_signatures_bulk(
                agg_rows, agg_items, counts, sids.size,
                max(1, n), k, weight_cap, perm, directions,
            )
        sig_span.set_attribute("rows", int(sids.size))
        sig_span.set_attribute("nnz", int(graph.indices.size))
    groups, sizes = _signature_buckets(signatures, sids)
    stats = DivideStats(
        num_groups=int(sizes.size),
        num_mergeable=len(groups),
        max_group_size=max(map(len, groups), default=0),
        num_singletons=int(np.count_nonzero(sizes == 1)),
        num_isolated=partition.num_supernodes - int(sids.size),
    )
    return groups, stats


def _signature_buckets(
    signatures: np.ndarray, sids: np.ndarray
) -> Tuple[List[List[int]], np.ndarray]:
    """Group ``sids`` by equal signature rows.

    Returns the buckets of at least two supernodes, ordered by their
    first row and each in row order (what a dict filled in row order
    yields), and the size of every bucket.
    """
    m = int(sids.size)
    # lexsort is stable, so each bucket's rows stay ascending.
    order = np.lexsort(signatures.T)
    ordered = signatures[order]
    starts = np.ones(m, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = np.flatnonzero(starts)
    sizes = np.diff(starts, append=m)
    mergeable = sizes >= 2
    picked = sids[order[np.repeat(mergeable, sizes)]].tolist()
    bounds = np.concatenate(([0], np.cumsum(sizes[mergeable]))).tolist()
    by_first = np.argsort(order[starts[mergeable]]).tolist()
    groups = [picked[bounds[b]:bounds[b + 1]] for b in by_first]
    return groups, sizes


def shingle_divide(
    graph: Graph,
    partition: SupernodePartition,
    seed: SeedLike = None,
    max_group_size: int = 0,
) -> Tuple[List[List[int]], DivideStats]:
    """SWeG's single-shingle divide.

    ``F(A) = min over members v of min over closed neighbourhood of h(u)``
    for one random bijection ``h``. Supernodes with equal shingle form a
    group. When ``max_group_size > 0``, oversized groups are recursively
    re-split with fresh shingles (SWeG's practical refinement); the paper's
    experiments attribute SWeG's slowness to groups staying large, so the
    default (0) performs no re-splitting.
    """
    rng = _rng(seed)
    perm = random_permutation(graph.num_nodes, rng)
    shingles = node_shingles(graph, perm)
    buckets: Dict[int, List[int]] = {}
    isolated = 0
    for sid in partition.supernode_ids():
        mem = partition.members(sid)
        # Isolated supernodes shingle to their own h(v); exclude them from
        # merge groups only when the whole supernode has no neighbours.
        if all(graph.degree(v) == 0 for v in mem):
            isolated += 1
            continue
        key = int(min(shingles[v] for v in mem))
        buckets.setdefault(key, []).append(sid)
    groups = [bucket for bucket in buckets.values() if len(bucket) >= 2]
    if max_group_size > 0:
        groups = _resplit(graph, partition, groups, max_group_size, rng)
    singletons = sum(1 for bucket in buckets.values() if len(bucket) == 1)
    stats = DivideStats(
        num_groups=singletons + len(groups),
        num_mergeable=len(groups),
        max_group_size=max((len(g) for g in groups), default=0),
        num_singletons=singletons,
        num_isolated=isolated,
    )
    return groups, stats


def _resplit(
    graph: Graph,
    partition: SupernodePartition,
    groups: List[List[int]],
    max_group_size: int,
    rng: np.random.Generator,
    depth: int = 8,
) -> List[List[int]]:
    """Recursively re-shingle oversized groups (bounded depth)."""
    result: List[List[int]] = []
    pending = [(g, depth) for g in groups]
    while pending:
        group, budget = pending.pop()
        if len(group) <= max_group_size or budget == 0:
            result.append(group)
            continue
        perm = random_permutation(graph.num_nodes, rng)
        shingles = node_shingles(graph, perm)
        sub: Dict[int, List[int]] = {}
        for sid in group:
            key = int(min(shingles[v] for v in partition.members(sid)))
            sub.setdefault(key, []).append(sid)
        if len(sub) == 1:
            # Shingling cannot separate these supernodes; keep as is.
            result.append(group)
            continue
        for bucket in sub.values():
            if len(bucket) >= 2:
                pending.append((bucket, budget - 1))
    return result
