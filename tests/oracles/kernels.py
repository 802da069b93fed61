"""Plain-Python references for LDME's three hot-path kernels.

* :func:`group_w` — the per-node dict loop that builds one merge group's
  ``W`` rows (Algorithm 4), against
  :meth:`repro.kernels.wtable.WTable.group_w`;
* :func:`doph_signatures_bulk` — one scalar
  :func:`repro.lsh.doph.doph_signature` per row, against the bulk
  scatter kernel of the same name;
* :func:`encode_sorted` — lexsort, then one ``_encode_pair`` call per
  supernode-pair run (Algorithm 5), against
  :func:`repro.core.encode.encode_sorted` and
  :func:`repro.kernels.encode.encode_edge_arrays`.

:func:`oracle_kernels` swaps all three into the LDME pipeline, so a whole
run (its summary, spans and counters) can be compared with a production
run.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List
from unittest import mock

import numpy as np

from repro.core import base, divide
from repro.core.encode import EncodeResult, _encode_pair
from repro.core.saving import GroupAdjacency
from repro.core.summary import CorrectionSet
from repro.lsh.doph import EMPTY, doph_signature


def group_w(
    graph, partition, group_ids: Iterable[int]
) -> Dict[int, Dict[int, int]]:
    """``W[A][C]`` for every ``A`` in the group, one member row at a time."""
    w: Dict[int, Dict[int, int]] = {}
    node2super = partition.node2super
    for sid in group_ids:
        counts: Dict[int, int] = {}
        for v in partition.members(sid):
            for c in node2super[graph.neighbors(v)].tolist():
                counts[c] = counts.get(c, 0) + 1
        internal = counts.pop(sid, 0)
        if internal:
            # Each internal undirected edge was seen from both endpoints.
            counts[sid] = internal // 2
        w[sid] = counts
    return w


def doph_signatures_bulk(row_ids, item_ids, num_rows, perm, k, directions):
    """One scalar :func:`doph_signature` per row; empty rows stay EMPTY."""
    row_ids = np.asarray(row_ids, dtype=np.int64)
    item_ids = np.asarray(item_ids, dtype=np.int64)
    sig = np.full((num_rows, k), EMPTY, dtype=np.int64)
    order = np.argsort(row_ids, kind="stable")
    items = item_ids[order]
    bounds = np.searchsorted(row_ids[order], np.arange(num_rows + 1))
    for r in range(num_rows):
        lo, hi = int(bounds[r]), int(bounds[r + 1])
        if lo < hi:
            sig[r] = doph_signature(items[lo:hi], perm, k, directions)
    return sig


def encode_sorted(graph, partition) -> EncodeResult:
    """Algorithm 5 as a scan: lexsort the edges, encode run by run."""
    superedges: List = []
    additions: List = []
    deletions: List = []
    src, dst = graph.edge_arrays()
    if src.size:
        node2super = partition.node2super
        sa = node2super[src]
        sb = node2super[dst]
        lo = np.minimum(sa, sb)
        hi = np.maximum(sa, sb)
        order = np.lexsort((hi, lo))
        lo, hi, src, dst = lo[order], hi[order], src[order], dst[order]
        # Run boundaries: positions where the candidate superedge changes.
        change = np.flatnonzero((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])) + 1
        starts = np.concatenate([[0], change]).tolist()
        ends = np.concatenate([change, [lo.size]]).tolist()
        src_list = src.tolist()
        dst_list = dst.tolist()
        for start, end in zip(starts, ends):
            bundle = list(zip(src_list[start:end], dst_list[start:end]))
            _encode_pair(int(lo[start]), int(hi[start]), bundle, partition,
                         superedges, additions, deletions)
    return EncodeResult(superedges, CorrectionSet(additions, deletions))


@contextlib.contextmanager
def oracle_kernels():
    """Run LDME's divide, ``W`` build and encode on the oracles above.

    ``GroupAdjacency`` still builds its table, then has its rows replaced
    by :func:`group_w`, so every merge decision reads the oracle's ``W``.
    """
    real_init = GroupAdjacency.__init__

    def init(self, graph, partition, group_ids, *args, **kwargs):
        group_ids = list(group_ids)
        real_init(self, graph, partition, group_ids, *args, **kwargs)
        self.w = group_w(graph, partition, group_ids)

    with mock.patch.object(GroupAdjacency, "__init__", init), \
            mock.patch.object(divide, "doph_signatures_bulk",
                              doph_signatures_bulk), \
            mock.patch.object(base, "encode_sorted", encode_sorted):
        yield


#: Test parameter -> context to run LDME in: ``numpy`` runs the
#: production kernels, ``python`` the oracles above.
KERNELS = {"python": oracle_kernels, "numpy": contextlib.nullcontext}
