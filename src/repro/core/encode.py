"""Encoding step: original edges → superedges + correction sets.

Two encoders share the same decision rule (Section 2):

* For ``A != B`` with ``E_AB`` edges between them: encode a superedge iff
  ``|E_AB| > |A||B| / 2``; otherwise put ``E_AB`` in ``C+``. A superedge
  adds ``F_AB \\ E_AB`` to ``C-``.
* For ``A == B``: encode a superloop iff ``|E_AA| > |A|(|A|-1)/4``.

:func:`encode_sorted` is LDME's Algorithm 5 — tag every edge with its
candidate superedge, sort once, and decide every group run with array
operations. Work is ``O(|E| log |E|)`` regardless of ``|S|``.

:func:`encode_per_supernode` is the "more careful implementation" of SWeG's
encoder the paper describes: iterate supernodes, build a per-supernode
lookup of incident edges bucketed by partner supernode, then encode. The
per-supernode hashtable churn is the overhead that makes it slow on summary
graphs with many supernodes — kept faithfully for the Figure 2 encode-time
comparison.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..graph.graph import Graph
from ..kernels.encode import encode_edge_arrays
from ..obs import profile
from .pairs import edge_list
from .partition import SupernodePartition
from .summary import CorrectionSet

__all__ = [
    "EncodeResult",
    "encode_sorted",
    "encode_per_supernode",
    "encode_all_pairs",
]

Edge = Tuple[int, int]


class EncodeResult:
    """Superedges plus correction sets produced by an encoder."""

    __slots__ = ("superedges", "corrections")

    def __init__(
        self,
        superedges: List[Edge],
        corrections: CorrectionSet,
    ) -> None:
        self.superedges = superedges
        self.corrections = corrections


def _encode_pair(
    a: int,
    b: int,
    edges: List[Edge],
    partition: SupernodePartition,
    superedges: List[Edge],
    additions: List[Edge],
    deletions: List[Edge],
) -> None:
    """Apply the decision rule to one supernode pair's edge bundle."""
    size_a = partition.size(a)
    size_b = partition.size(b)
    if a != b:
        if len(edges) * 2 <= size_a * size_b:
            additions.extend(edges)
            return
        superedges.append((a, b) if a < b else (b, a))
        if len(edges) == size_a * size_b:
            return  # complete bipartite block: no deletions
        present = {(u, v) if u < v else (v, u) for u, v in edges}
        for u in partition.members(a):
            for v in partition.members(b):
                key = (u, v) if u < v else (v, u)
                if key not in present:
                    deletions.append(key)
        return
    # Superloop case: F_AA = |A|(|A|-1)/2 and the threshold is F_AA / 2.
    pairs = size_a * (size_a - 1) // 2
    if len(edges) * 4 <= size_a * (size_a - 1):
        additions.extend(edges)
        return
    superedges.append((a, a))
    if len(edges) == pairs:
        return
    present = {(u, v) if u < v else (v, u) for u, v in edges}
    members = partition.members(a)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            key = (u, v) if u < v else (v, u)
            if key not in present:
                deletions.append(key)


@profile.profiled("encode_sorted")
def encode_sorted(graph: Graph, partition: SupernodePartition) -> EncodeResult:
    """LDME's sort-based encoder (Algorithm 5).

    Tags every edge with its candidate superedge, sorts once and decides
    every group run with array operations
    (:func:`repro.kernels.encode.encode_edge_arrays`) — no per-supernode
    adjacency materialization and no per-edge Python tuples until the
    result lists are built.
    """
    src, dst = graph.edge_arrays()
    superedges, additions, deletions = encode_edge_arrays(
        src, dst, graph.num_nodes, partition
    )
    return EncodeResult(
        edge_list(superedges),
        CorrectionSet(edge_list(additions), edge_list(deletions)),
    )


def encode_per_supernode(
    graph: Graph, partition: SupernodePartition
) -> EncodeResult:
    """SWeG-style per-supernode encoder (baseline contrast).

    For each supernode A (in id order), gathers all incident edges whose
    *lower* endpoint supernode is A into a per-partner hashtable, then
    encodes each bundle. Equivalent output to :func:`encode_sorted`; higher
    constant overhead that grows with the number of supernodes.
    """
    superedges: List[Edge] = []
    additions: List[Edge] = []
    deletions: List[Edge] = []
    node2super = partition.node2super
    for a in sorted(partition.supernode_ids()):
        # Preprocessing pass per the paper: record incident edges bucketed by
        # partner supernode, visiting each undirected edge from its
        # smaller-supernode endpoint only.
        buckets: Dict[int, List[Edge]] = {}
        for u in partition.members(a):
            for v in graph.neighbors(u).tolist():
                b = int(node2super[v])
                if b < a:
                    continue
                if b == a and v < u:
                    continue  # count internal edges once
                buckets.setdefault(b, []).append((u, v))
        for b in sorted(buckets):
            _encode_pair(
                a, b, buckets[b], partition, superedges, additions, deletions
            )
    return EncodeResult(superedges, CorrectionSet(additions, deletions))


def encode_all_pairs(graph: Graph, partition: SupernodePartition) -> EncodeResult:
    """The paper's "simple implementation": check **every** supernode pair.

    Quadratic in ``|S|`` — the encode-step behaviour that made SWeG unable
    to finish the largest graphs. Provided purely for the encode-scaling
    ablation benchmark; do not use it for real workloads.
    """
    superedges: List[Edge] = []
    additions: List[Edge] = []
    deletions: List[Edge] = []
    ids = sorted(partition.supernode_ids())
    neighbor_sets = {
        a: {v: set(graph.neighbors(v).tolist()) for v in partition.members(a)}
        for a in ids
    }
    for i, a in enumerate(ids):
        for b in ids[i:]:
            edges: List[Edge] = []
            for u, nbrs in neighbor_sets[a].items():
                for v in partition.members(b):
                    if v in nbrs:
                        if a == b and v <= u:
                            continue
                        edges.append((u, v))
            if edges:
                _encode_pair(
                    a, b, edges, partition, superedges, additions, deletions
                )
    return EncodeResult(superedges, CorrectionSet(additions, deletions))
