"""Vectorized ``W`` construction (Algorithm 4's hashtable).

:func:`build_w_table` builds the ``W`` rows of *many* groups at once, in
three array passes:

1. gather all member rows out of the CSR in one shot (repeat/arange
   slicing — no per-node ``tolist`` round-trips),
2. map the gathered neighbour ids to supernode ids with one fancy-index,
3. aggregate ``(row supernode, neighbour supernode)`` keys with one
   ``np.unique`` (equivalent to a ``bincount`` over factorized keys).

Serial LDME builds one table per iteration over every mergeable group;
each group then materializes its rows as dicts with
:meth:`WTable.group_w` when its merge loop starts. Callers without a
table (the SuperJaccard policy, SWeG, RANDOMIZED, ``saving_of_pair``)
build a one-group table, so every ``W`` comes from this one path. The
dict rows equal the per-node dict loop in ``tests/oracles/kernels.py``
(the internal self-entry is halved exactly like it is there), which the
post-merge fold update (:meth:`GroupAdjacency.apply_merge`) relies on.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..obs import profile

__all__ = ["WTable", "build_w_table", "gather_rows"]


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray
) -> tuple:
    """Concatenate CSR rows for ``nodes`` without a Python loop.

    Returns ``(values, lengths)``: the concatenated neighbour ids of each
    requested row (in row order) and each row's length.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    starts = indptr[nodes]
    lengths = indptr[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), lengths
    # offsets[i] = position where row i starts in the output
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    gather = np.repeat(starts - offsets, lengths) + np.arange(
        total, dtype=np.int64
    )
    return indices[gather], lengths


class WTable:
    """Aggregated ``W`` rows of several disjoint merge groups.

    Built against one partition state; ``cols[bounds[r]:bounds[r+1]]``
    holds the sorted neighbour-supernode ids of row ``r`` (the ``r``-th
    supernode of the concatenated groups) and ``counts`` the matching
    edge counts, internal edges still counted from both endpoints.
    """

    def __init__(
        self, sids: List[int], bounds: List[int],
        cols: np.ndarray, counts: np.ndarray,
    ) -> None:
        self._sids = sids
        self._row = {sid: r for r, sid in enumerate(sids)}
        self._bounds = bounds
        self._cols = cols
        self._counts = counts

    def group_w(
        self, partition, group_ids: Sequence[int]
    ) -> Dict[int, Dict[int, int]]:
        """Materialize one group's ``W`` rows against ``partition`` now.

        ``group_ids`` must be one of the groups the table was built from,
        in the same order. Columns that a merge since the build has
        absorbed are re-keyed to ``node2super[c]`` and their counts
        summed: a supernode id is always one of its own members, so
        ``node2super[c]`` is the supernode that absorbed ``c``. Rows of
        this group are never stale, because merges stay inside a group.
        """
        if not group_ids:
            return {}
        first = self._row[group_ids[0]]
        last = first + len(group_ids)
        sids = self._sids
        if sids[first:last] != list(group_ids):
            raise ValueError("group_ids is not a group of this table")
        bounds = self._bounds
        lo, hi = bounds[first], bounds[last]
        stored = self._cols[lo:hi]
        cols = partition.node2super[stored].tolist()
        rekey = cols != stored.tolist()
        counts = self._counts[lo:hi].tolist()
        w: Dict[int, Dict[int, int]] = {}
        for r in range(first, last):
            a, b = bounds[r] - lo, bounds[r + 1] - lo
            if rekey:
                row: Dict[int, int] = {}
                for c, n in zip(cols[a:b], counts[a:b]):
                    row[c] = row.get(c, 0) + n
            else:
                row = dict(zip(cols[a:b], counts[a:b]))
            sid = sids[r]
            internal = row.pop(sid, 0)
            if internal:
                # Each internal undirected edge was seen from both endpoints.
                row[sid] = internal // 2
            w[sid] = row
        return w


@profile.profiled("wtable")
def build_w_table(
    graph, partition, groups: Iterable[Sequence[int]]
) -> WTable:
    """One CSR gather and one ``np.unique`` over every group's rows.

    ``W[A][C]`` counts original edges between supernodes A and C.
    ``partition`` only needs ``members(sid)`` and ``node2super``.
    """
    sids: List[int] = [int(s) for group in groups for s in group]
    node2super = partition.node2super
    member_lists = [partition.members(sid) for sid in sids]
    member_counts = np.fromiter(
        map(len, member_lists), dtype=np.int64, count=len(sids)
    )
    all_members = np.fromiter(
        chain.from_iterable(member_lists), dtype=np.int64,
        count=int(member_counts.sum()),
    )
    neighbours, row_lengths = gather_rows(
        graph.indptr, graph.indices, all_members
    )
    # key = row index (position of the sid in ``sids``) * n + neighbour
    # supernode, for every gathered entry; built in place to hold one
    # edge-sized array less at peak.
    keys = np.repeat(
        np.repeat(np.arange(len(sids), dtype=np.int64), member_counts),
        row_lengths,
    )
    n = np.int64(max(1, int(node2super.size)))
    keys *= n
    keys += node2super[neighbours]
    del neighbours
    keys, counts = np.unique(keys, return_counts=True)
    # np.unique returns keys sorted, so rows form sorted runs.
    bounds = np.searchsorted(keys // n, np.arange(len(sids) + 1))
    return WTable(sids, bounds.tolist(), keys % n, counts)
