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
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.encode import EncodeResult
from ..core.summary import CorrectionSet
from ..obs import profile

__all__ = ["encode_sorted_numpy"]

Edge = Tuple[int, int]


@profile.profiled("encode_sorted")
def encode_sorted_numpy(graph, partition) -> EncodeResult:
    """Vectorized Algorithm 5; bit-identical to the pure-Python reference."""
    superedges: List[Edge] = []
    additions: List[Edge] = []
    deletions: List[Edge] = []
    src, dst = graph.edge_arrays()
    if src.size == 0:
        return EncodeResult(superedges, CorrectionSet(additions, deletions))
    n = np.int64(graph.num_nodes)
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
    sizes = np.bincount(node2super, minlength=graph.num_nodes).astype(np.int64)
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
    additions.extend(
        zip(src[add_mask].tolist(), dst[add_mask].tolist())
    )
    # P — winning runs in run order.
    superedges.extend(
        zip(run_lo[wins].tolist(), run_hi[wins].tolist())
    )
    # C- — winning runs that are not complete blocks enumerate the missing
    # member pairs (reference nested-loop order: members(a) × members(b)).
    edge_keys = src * n + dst
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
        deletions.extend(
            zip(key_lo[missing].tolist(), key_hi[missing].tolist())
        )
    return EncodeResult(superedges, CorrectionSet(additions, deletions))
