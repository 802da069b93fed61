"""Array-native sort-based encode (Algorithm 5).

The reference :func:`repro.core.encode.encode_sorted` lexsorts the edge
list once but still materializes a Python tuple for *every* edge and walks
every group run through ``_encode_pair``. This kernel keeps the whole
decision rule in arrays:

* one pass computes every run's edge count, supernode sizes and the
  superedge decision (``2·|E_AB| > |A||B|``, resp. the superloop rule),
* ``C+`` additions are a single boolean mask over the sorted edge arrays
  (no per-run bundles),
* only runs that won a superedge *and* are incomplete blocks enumerate
  their missing pairs — and each such run does so with a vectorized
  member cross-product plus one ``np.isin``.

The output lists (superedges, additions, deletions) are element- and
order-identical to the reference: runs are visited in the same lexsort
order, additions keep the reference's stable within-run edge order and
deletions keep the reference's nested member-loop order.

:func:`encode_edge_arrays` is the same rule over any edge arrays, with
arrays out: the shard stitch encodes its cut edges with it.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.encode import EncodeResult
from ..core.pairs import edge_list
from ..core.summary import CorrectionSet
from ..obs import profile

__all__ = ["encode_sorted_numpy", "encode_edge_arrays"]

_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


@profile.profiled("encode_sorted")
def encode_sorted_numpy(graph, partition) -> EncodeResult:
    """Vectorized Algorithm 5; bit-identical to the pure-Python reference."""
    src, dst = graph.edge_arrays()
    superedges, additions, deletions = encode_edge_arrays(
        src, dst, graph.num_nodes, partition
    )
    return EncodeResult(
        edge_list(superedges),
        CorrectionSet(edge_list(additions), edge_list(deletions)),
    )


def encode_edge_arrays(
    src: np.ndarray, dst: np.ndarray, num_nodes: int, partition
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 5 over edge arrays (``src < dst`` per edge, no repeats).

    Returns ``(superedges, additions, deletions)`` as ``(m, 2)`` int64
    arrays, in the order :func:`encode_sorted_numpy` documents.
    """
    if src.size == 0:
        return _NO_PAIRS, _NO_PAIRS, _NO_PAIRS
    n = np.int64(num_nodes)
    node2super = partition.node2super
    sa = node2super[src]
    sb = node2super[dst]
    lo = np.minimum(sa, sb)
    hi = np.maximum(sa, sb)
    order = np.lexsort((hi, lo))
    lo, hi, src, dst = lo[order], hi[order], src[order], dst[order]
    change = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [lo.size]])
    run_lo = lo[starts]
    run_hi = hi[starts]
    run_len = ends - starts
    sizes = np.bincount(node2super, minlength=num_nodes).astype(np.int64)
    size_a = sizes[run_lo]
    size_b = sizes[run_hi]
    is_loop = run_lo == run_hi
    # Decision rule per run: superedge iff strictly more than half of the
    # potential block is present (|F_AB| = |A||B|, |F_AA| = |A|(|A|-1)/2).
    potential = np.where(
        is_loop, size_a * (size_a - 1) // 2, size_a * size_b
    )
    wins = np.where(
        is_loop, 4 * run_len > size_a * (size_a - 1), 2 * run_len > size_a * size_b
    )
    # C+ — all edges of losing runs, in sorted-edge order.
    add_mask = ~np.repeat(wins, run_len)
    additions = np.column_stack([src[add_mask], dst[add_mask]])
    # P — winning runs in run order.
    superedges = np.column_stack([run_lo[wins], run_hi[wins]])
    # C- — winning runs that are not complete blocks enumerate the missing
    # member pairs (reference nested-loop order: members(a) × members(b)).
    edge_keys = src * n + dst
    deletions = [_NO_PAIRS]
    for r in np.flatnonzero(wins & (run_len < potential)).tolist():
        a = int(run_lo[r])
        b = int(run_hi[r])
        if a != b:
            mem_a = np.asarray(partition.members(a), dtype=np.int64)
            mem_b = np.asarray(partition.members(b), dtype=np.int64)
            uu = np.repeat(mem_a, mem_b.size)
            vv = np.tile(mem_b, mem_a.size)
        else:
            mem = np.asarray(partition.members(a), dtype=np.int64)
            iu, iv = np.triu_indices(mem.size, k=1)
            uu = mem[iu]
            vv = mem[iv]
        key_lo = np.minimum(uu, vv)
        key_hi = np.maximum(uu, vv)
        present = edge_keys[starts[r]:ends[r]]
        missing = ~np.isin(key_lo * n + key_hi, present)
        deletions.append(np.column_stack([key_lo[missing], key_hi[missing]]))
    return superedges, additions, np.concatenate(deletions)
