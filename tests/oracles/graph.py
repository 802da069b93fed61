"""Per-line and per-edge references for the graph substrate.

* :func:`from_edge_arrays` — ``np.unique(return_index=True)`` dedupe and
  a two-key ``lexsort``, against
  :meth:`repro.graph.graph.Graph.from_edge_arrays` (one packed key);
* :func:`read_edge_list` — one ``str.split`` per line into Python lists,
  against the blocked ``np.loadtxt`` reader
  :func:`repro.graph.io.read_edge_list`;
* :func:`apply_events` — the whole edge set as a Python set, against
  :func:`repro.shard.migrate._apply_events`.
"""

from __future__ import annotations

import gzip
import io
import os
from typing import List, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph


def from_edge_arrays(num_nodes: int, src, dst) -> Graph:
    """The CSR of the simple undirected graph on ``(src, dst)``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have equal length")
    if src.size and (min(src.min(), dst.min()) < 0
                     or max(src.max(), dst.max()) >= num_nodes):
        raise ValueError("edge endpoints out of range")
    keep = src != dst  # drop self loops
    src, dst = src[keep], dst[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    if lo.size:
        key = lo * np.int64(num_nodes) + hi
        _, first = np.unique(key, return_index=True)
        lo, hi = lo[first], hi[first]
    heads = np.concatenate([lo, hi])
    tails = np.concatenate([hi, lo])
    counts = np.bincount(heads, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    order = np.lexsort((tails, heads))
    return Graph(indptr, tails[order])


def read_edge_list(path, num_nodes: int = None) -> Graph:
    """Parse ``path`` (text or ``.gz``) one line at a time."""
    path = os.fspath(path)
    opener = (
        (lambda: io.TextIOWrapper(gzip.open(path, "rb")))
        if path.endswith(".gz") else (lambda: open(path, encoding="utf-8"))
    )
    src: List[int] = []
    dst: List[int] = []
    max_node = -1
    with opener() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line[0] in "#%":
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{lineno}: negative node id")
            src.append(u)
            dst.append(v)
            max_node = max(max_node, u, v)
    n = max_node + 1 if num_nodes is None else num_nodes
    return from_edge_arrays(n, src, dst)


def apply_events(
    graph: Graph, events: Sequence[Tuple[int, str, int, int]],
) -> Tuple[int, Graph]:
    """Replay ``(seq, op, u, v)`` events onto a set of every edge."""
    edges = {(u, v) if u < v else (v, u) for u, v in graph.edges()}
    applied = 0
    for _seq, op, u, v in events:
        if u == v or not (0 <= u < graph.num_nodes) or not (0 <= v < graph.num_nodes):
            continue
        pair = (u, v) if u < v else (v, u)
        if op in ("+", "insert") and pair not in edges:
            edges.add(pair)
            applied += 1
        elif op in ("-", "delete") and pair in edges:
            edges.discard(pair)
            applied += 1
    if not applied:
        return 0, graph
    return applied, Graph.from_edges(graph.num_nodes, sorted(edges))
