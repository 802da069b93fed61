"""Immutable undirected graph stored in Compressed Sparse Row (CSR) form.

Every algorithm in this package operates on :class:`Graph`. Nodes are dense
integers ``0 .. num_nodes - 1``; edges are unordered pairs of distinct nodes
(self loops are rejected, parallel edges collapse). The structure is
append-free by design — summarization never mutates the input graph — which
lets us share one CSR across baselines, benchmarks and property tests.

The CSR layout stores each undirected edge twice (once per endpoint), with
each adjacency row sorted ascending. ``num_edges`` counts *undirected* edges,
matching the ``|E|`` of the paper's objective and compression metric.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

import numpy as np

__all__ = ["Graph"]


class Graph:
    """A simple undirected graph over nodes ``0 .. n-1`` in CSR form.

    Parameters
    ----------
    indptr:
        int64 array of length ``n + 1``; row ``v`` occupies
        ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        int64 array of neighbour ids, sorted ascending within each row.
        Each undirected edge appears in both endpoint rows.

    Use :meth:`from_edges` (or :class:`repro.graph.builder.GraphBuilder`)
    rather than the raw constructor unless you already hold a valid CSR.
    """

    __slots__ = ("_indptr", "_indices", "_num_edges")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if indptr.size == 0:
            raise ValueError("indptr must have length num_nodes + 1 (>= 1)")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indices.size and (indices.min() < 0 or indices.max() >= indptr.size - 1):
            raise ValueError("indices contain out-of-range node ids")
        self._indptr = indptr
        self._indices = indices
        self._indptr.setflags(write=False)
        self._indices.setflags(write=False)
        self._num_edges = int(indices.size) // 2

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: Iterable[Tuple[int, int]],
    ) -> "Graph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Edges are symmetrized and de-duplicated; self loops are dropped
        (the paper's input graphs are simple). ``num_nodes`` may exceed the
        largest endpoint to allow isolated nodes.
        """
        edge_list = list(edges)
        if num_nodes < 0:
            raise ValueError("num_nodes must be non-negative")
        if not edge_list:
            indptr = np.zeros(num_nodes + 1, dtype=np.int64)
            return cls(indptr, np.empty(0, dtype=np.int64))
        arr = np.asarray(edge_list, dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        return cls.from_edge_arrays(num_nodes, arr[:, 0], arr[:, 1])

    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> "Graph":
        """Build a graph from parallel endpoint arrays (vectorized path).

        Each edge packs into one int64 key: the canonical ``lo·n + hi``
        is sorted in place and deduplicated, then both directions'
        ``head·n + tail`` keys are sorted once, which is row-major CSR
        order. ``indptr`` is where each row's keys start.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape:
            raise ValueError("src and dst must have equal length")
        if src.size and (min(src.min(), dst.min()) < 0
                         or max(src.max(), dst.max()) >= num_nodes):
            raise ValueError("edge endpoints out of range")
        n = np.int64(num_nodes)
        key = np.minimum(src, dst)
        key *= n
        key += np.maximum(src, dst)
        key = key[src != dst]  # drop self loops
        key.sort()
        fresh = np.empty(key.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
        directed = np.empty(2 * key.size, dtype=np.int64)
        directed[:key.size] = key
        reverse = directed[key.size:]
        np.remainder(key, n, out=reverse)
        reverse *= n
        reverse += key // n
        directed.sort()
        indptr = np.searchsorted(directed, np.arange(num_nodes + 1) * n)
        np.remainder(directed, n, out=directed)
        return cls(indptr, directed)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes (including isolated ones)."""
        return self._indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """Read-only CSR row pointer array."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Read-only CSR column index array."""
        return self._indices

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour ids of ``v`` (a zero-copy CSR slice)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an int64 array."""
        return np.diff(self._indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff ``{u, v}`` is an edge (binary search on the row)."""
        if u == v:
            return False
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.size and int(row[pos]) == v

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        src, dst = self.edge_arrays()
        for u, v in zip(src.tolist(), dst.tolist()):
            yield u, v

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays ``(src, dst)`` with ``src < dst``, each edge once.

        This is the vectorized workhorse behind the sort-based encoder
        (Algorithm 5): it exposes the edge list without Python-level loops.
        """
        heads = np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self._indptr)
        )
        mask = heads < self._indices
        return heads[mask], self._indices[mask]

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------
    # comparison / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self.num_nodes, self.num_edges,
                     self._indices[:64].tobytes()))

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges})"

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Induced subgraph on ``nodes``, relabelled to ``0 .. len(nodes)-1``.

        The relabelling follows the order of ``nodes``.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size != np.unique(nodes).size:
            raise ValueError("subgraph nodes must be distinct")
        remap = np.full(self.num_nodes, -1, dtype=np.int64)
        remap[nodes] = np.arange(nodes.size, dtype=np.int64)
        src, dst = self.edge_arrays()
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        return Graph.from_edge_arrays(
            int(nodes.size), remap[src[keep]], remap[dst[keep]]
        )

    def neighbor_sets(self) -> list:
        """Adjacency as a list of Python ``set`` objects.

        Convenience for baselines (MoSSo, VoG) whose inner loops are
        membership-heavy; the CSR remains the source of truth.
        """
        return [set(self.neighbors(v).tolist()) for v in range(self.num_nodes)]
