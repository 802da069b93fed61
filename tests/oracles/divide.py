"""Reference LDME divide: ``np.unique`` numbering and dict grouping.

:func:`lsh_divide` numbers the live supernodes by sorting every head
label of the CSR with ``np.unique(return_inverse=True)`` and groups the
signature rows with ``np.unique(axis=0)`` plus a dict keyed by bucket in
first-appearance order. ``repro.core.divide.lsh_divide`` computes the
same groups, statistics and RNG draws without sorting an edge-sized
array; ``test_divide_differential.py`` holds it to this version.
"""

from typing import Dict, List

import numpy as np

from repro.core.divide import DivideStats, _rng
from repro.lsh.doph import doph_signatures_bulk
from repro.lsh.permutation import random_permutation
from repro.lsh.weighted_doph import weighted_doph_signatures_bulk


def lsh_divide(graph, partition, k, seed=None, weights="binary",
               weight_cap=4):
    """Weighted-LSH divide (Algorithm 3) over ``np.unique`` numbering."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if weights not in ("binary", "expanded"):
        raise ValueError("weights must be 'binary' or 'expanded'")
    rng = _rng(seed)
    n = graph.num_nodes
    directions = rng.integers(0, 2, size=k).astype(np.int64)
    heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    head_supers = partition.node2super[heads]
    sids, rows = np.unique(head_supers, return_inverse=True)
    if weights == "binary":
        perm = random_permutation(max(1, n), rng)
        signatures = doph_signatures_bulk(
            rows, graph.indices, sids.size, perm, k, directions
        )
    else:
        key = rows * np.int64(max(1, n)) + graph.indices
        unique_key, counts = np.unique(key, return_counts=True)
        perm = random_permutation(max(1, n) * weight_cap, rng)
        signatures = weighted_doph_signatures_bulk(
            unique_key // max(1, n), unique_key % max(1, n), counts,
            sids.size, max(1, n), k, weight_cap, perm, directions,
        )
    isolated = partition.num_supernodes - int(sids.size)
    _, bucket_of = np.unique(signatures, axis=0, return_inverse=True)
    buckets: Dict[int, List[int]] = {}
    for sid, bucket in zip(sids.tolist(), bucket_of.tolist()):
        buckets.setdefault(bucket, []).append(sid)
    groups = [bucket for bucket in buckets.values() if len(bucket) >= 2]
    singletons = sum(1 for bucket in buckets.values() if len(bucket) == 1)
    stats = DivideStats(
        num_groups=len(buckets),
        num_mergeable=len(groups),
        max_group_size=max((len(g) for g in groups), default=0),
        num_singletons=singletons,
        num_isolated=isolated,
    )
    return groups, stats
