"""Reconstruction: rebuild ``Ĝ`` from a summary + correction sets.

Follows the problem definition exactly: expand every superedge ``(A, B)``
into all member pairs, add ``C+``, remove ``C-``. For a lossless
summarization ``Ĝ == G``; :func:`verify_lossless` asserts that end to end
(this is the invariant every algorithm's tests lean on).

Everything runs over packed ``lo·n + hi`` int64 edge keys (exact while
``n`` is below about 3·10^9): the superedges expand in one segmented
cross product over a members CSR, then ``C+`` is a sorted union and
``C-`` a mask.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..graph.graph import Graph
from .pairs import edge_array, edge_list, isin_sorted, sorted_unique
from .summary import Summarization

__all__ = ["reconstruct", "verify_lossless", "reconstruction_error"]

Edge = Tuple[int, int]


def _reconstructed_keys(summarization: Summarization,
                        base: int) -> np.ndarray:
    """Ĝ's edges as sorted, distinct ``lo·base + hi`` keys, ``lo < hi``.

    ``base`` must be at least ``num_nodes``.
    """
    n = summarization.num_nodes
    base = np.int64(base)
    node2super = summarization.partition.node2super
    # Members CSR: node ids grouped by supernode id.
    grouped = np.argsort(node2super)
    counts = np.bincount(node2super)
    starts = np.cumsum(counts) - counts
    se = edge_array(summarization.superedges)
    known = (se >= 0) & (se < counts.size)
    size = np.zeros(se.shape, dtype=np.int64)
    size[known] = counts[se[known]]
    if np.any(size == 0):
        dead = se.ravel()[np.flatnonzero(size.ravel() == 0)[0]]
        raise KeyError(int(dead))
    first = starts[se]
    # Step 1: each superedge's |A|·|B| member pairs, one segmented cross
    # product for all of them (a superloop's self pairs drop out below).
    block = size[:, 0] * size[:, 1]
    owner = np.repeat(np.arange(se.shape[0]), block)
    k = np.arange(int(block.sum())) - np.repeat(np.cumsum(block) - block,
                                                block)
    i, j = np.divmod(k, size[owner, 1])
    u = grouped[first[owner, 0] + i]
    v = grouped[first[owner, 1] + j]
    # Step 2: add C+ (the graph constructor's rules: in range, no loops).
    add = edge_array(summarization.corrections.additions)
    if add.size and (add.min() < 0 or add.max() >= n):
        raise ValueError("edge endpoints out of range")
    u = np.concatenate([u, add[:, 0]])
    v = np.concatenate([v, add[:, 1]])
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = sorted_unique((lo * base + hi)[lo != hi])
    # Step 3: remove C-.
    dele = edge_array(summarization.corrections.deletions)
    dele = dele[((dele >= 0) & (dele < n)).all(axis=1)]
    gone = sorted_unique(np.min(dele, axis=1) * base + np.max(dele, axis=1))
    return keys[~isin_sorted(keys, gone)]


def reconstruct(summarization: Summarization) -> Graph:
    """Build the reconstructed graph ``Ĝ = (V, Ê)``."""
    n = max(summarization.num_nodes, 1)
    lo, hi = np.divmod(_reconstructed_keys(summarization, n), n)
    return Graph.from_edge_arrays(summarization.num_nodes, lo, hi)


def verify_lossless(graph: Graph, summarization: Summarization) -> None:
    """Raise ``AssertionError`` unless the summarization reproduces ``graph``."""
    rebuilt = reconstruct(summarization)
    if rebuilt != graph:
        missing, spurious = reconstruction_error(graph, summarization)
        raise AssertionError(
            f"reconstruction mismatch: {len(missing)} missing edges, "
            f"{len(spurious)} spurious edges (e.g. missing={missing[:5]}, "
            f"spurious={spurious[:5]})"
        )


def reconstruction_error(
    graph: Graph, summarization: Summarization
) -> Tuple[List[Edge], List[Edge]]:
    """Edges lost and edges invented by the reconstruction.

    Returns ``(missing, spurious)``, each sorted; both empty iff
    lossless. Used to validate the lossy dropping step against the Eq. 2
    error bound.
    """
    base = max(graph.num_nodes, summarization.num_nodes, 1)
    src, dst = graph.edge_arrays()
    original = np.sort(src * np.int64(base) + dst)
    rebuilt = _reconstructed_keys(summarization, base)
    return (
        _pairs(original[~isin_sorted(original, rebuilt)], base),
        _pairs(rebuilt[~isin_sorted(rebuilt, original)], base),
    )


def _pairs(keys: np.ndarray, base: int) -> List[Edge]:
    return edge_list(np.column_stack(np.divmod(keys, base)))
