"""Array-native sort-based encode (Algorithm 5).

The decision rule stays in arrays end to end:

* one stable ``argsort`` of the packed candidate-superedge key
  ``lo·n + hi`` groups the edges into runs, one per supernode pair,
* one pass computes every run's edge count, supernode sizes and the
  superedge decision (``2·|E_AB| > |A||B|``, resp. the superloop rule),
* ``C+`` additions are a single boolean mask over the sorted edge arrays,
* ``C−`` is one segmented cross product over the runs that won a
  superedge but are incomplete blocks: a members CSR over their
  supernodes expands each run's ``|A|·|B|`` member pairs with
  ``repeat``/``cumsum`` (superloops keep only ``i < j``), and one
  :func:`~repro.core.pairs.isin_sorted` against the edge keys drops the
  pairs that are present. A winning run has more than half of its block
  present, so the candidates number ``O(|E|)``.

The output order is fixed: runs ascend by ``(lo, hi)``, additions keep
the input edge order within a run (the sort is stable) and deletions
follow the nested member loops ``members(A) × members(B)`` (for a
superloop, ``members[i] × members[i+1:]``) in ``partition.members``
order. ``tests/oracles/kernels.py`` holds the per-run scalar scan this
order is checked against.
"""

from __future__ import annotations

from itertools import chain
from typing import Tuple

import numpy as np

from ..core.pairs import isin_sorted

__all__ = ["encode_edge_arrays"]

_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def encode_edge_arrays(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, partition
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 5 over edge arrays (``src < dst`` per edge, no repeats).

    Returns ``(superedges, additions, deletions)`` as ``(m, 2)`` int64
    arrays, in the order the module docstring documents.
    """
    if src.size == 0:
        return _NO_PAIRS, _NO_PAIRS, _NO_PAIRS
    n = np.int64(num_nodes)
    node2super = partition.node2super
    sa = node2super[src]
    sb = node2super[dst]
    key = np.minimum(sa, sb) * n + np.maximum(sa, sb)
    order = np.argsort(key, kind="stable")
    key, src, dst = key[order], src[order], dst[order]
    starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
    run_len = np.diff(np.append(starts, key.size))
    run_lo, run_hi = np.divmod(key[starts], n)
    sizes = np.bincount(node2super, minlength=num_nodes).astype(np.int64)
    size_a = sizes[run_lo]
    size_b = sizes[run_hi]
    is_loop = run_lo == run_hi
    # Decision rule per run: superedge iff strictly more than half of the
    # potential block is present (|F_AB| = |A||B|, |F_AA| = |A|(|A|-1)/2).
    potential = np.where(
        is_loop, size_a * (size_a - 1) // 2, size_a * size_b
    )
    wins = 2 * run_len > potential
    # C+ — all edges of losing runs, in sorted-edge order.
    add_mask = ~np.repeat(wins, run_len)
    additions = np.column_stack([src[add_mask], dst[add_mask]])
    # P — winning runs in run order.
    superedges = np.column_stack([run_lo[wins], run_hi[wins]])
    incomplete = wins & (run_len < potential)
    if not incomplete.any():
        return superedges, additions, _NO_PAIRS
    in_block = np.repeat(incomplete, run_len)
    present = np.sort(src[in_block] * n + dst[in_block])
    return superedges, additions, _missing_pairs(
        run_lo[incomplete], run_hi[incomplete], partition, present, n
    )


def _missing_pairs(
    run_lo: np.ndarray, run_hi: np.ndarray, partition,
    present: np.ndarray, n: np.int64,
) -> np.ndarray:
    """``C−`` of the given winning runs: the block pairs not ``present``.

    One segmented cross product over all runs; ``present`` holds the
    ascending ``lo·n + hi`` keys of every edge in those runs.
    """
    sids, slot = np.unique(
        np.concatenate([run_lo, run_hi]), return_inverse=True
    )
    member_lists = [partition.members(sid) for sid in sids.tolist()]
    counts = np.fromiter(
        map(len, member_lists), dtype=np.int64, count=len(member_lists)
    )
    members = np.fromiter(
        chain.from_iterable(member_lists), dtype=np.int64,
        count=int(counts.sum()),
    )
    offsets = np.cumsum(counts) - counts
    runs = run_lo.size
    a_slot, b_slot = slot[:runs], slot[runs:]
    width = counts[b_slot]
    block = counts[a_slot] * width
    run_of = np.repeat(np.arange(runs), block)
    # Position within the run's block, row-major over (i, j).
    local = np.arange(run_of.size, dtype=np.int64) - np.repeat(
        np.cumsum(block) - block, block
    )
    i, j = np.divmod(local, width[run_of])
    keep = (i < j) | (run_lo != run_hi)[run_of]
    run_of, i, j = run_of[keep], i[keep], j[keep]
    u = members[offsets[a_slot][run_of] + i]
    v = members[offsets[b_slot][run_of] + j]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    missing = ~isin_sorted(lo * n + hi, present)
    return np.column_stack([lo[missing], hi[missing]])
