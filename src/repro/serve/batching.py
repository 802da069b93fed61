"""Batch execution of coalesced queries against a compiled index.

The server hands every query queued while the previous batch ran (up to
``max_batch``) to :func:`execute_batch` as a single list. The executor:

* answers what it can from the :class:`~repro.serve.cache.LRUCache`
  (``degree`` and ``neighbors`` share one cache entry);
* runs the remaining neighborhood expansions through
  :meth:`~repro.queries.compiled.CompiledSummaryIndex.neighbors_batch`,
  one vectorized pass that deduplicates repeated nodes and shares
  supernode expansions across the batch;
* resolves edge-membership and BFS queries individually (both are cached);
* returns one outcome per query — a failure (an out-of-range node, say)
  is per-item and never poisons the rest of the batch.

This module is asyncio-free on purpose: the server calls it from a worker
thread, and tests drive it synchronously.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..queries.summary_analytics import (
    ANALYTICS_OPS,
    PAGERANK_DEFAULTS,
    execute_analytics,
)
from .cache import LRUCache
from .metrics import MetricsRegistry
from .protocol import ErrorCode

__all__ = ["Outcome", "execute_batch", "cache_key", "from_cached"]

#: ``("ok", result)`` or ``("error", code, message)`` per query.
Outcome = Tuple[Any, ...]

Query = Tuple[str, Dict[str, Any]]


def cache_key(op: str, args: Dict[str, Any]) -> Optional[Tuple[Any, ...]]:
    """Canonical cache key for a query, or ``None`` for uncacheable ops.

    Shared by the batch executor (population) and the server's degraded
    mode (stale lookup) so both agree on aliasing: ``degree`` reads the
    ``neighbors`` entry, ``has_edge`` is symmetric in ``(u, v)``.
    """
    if op in ("neighbors", "degree"):
        return ("neighbors", args["v"])
    if op == "has_edge":
        u, v = args["u"], args["v"]
        return ("edge", min(u, v), max(u, v))
    if op == "bfs":
        return ("bfs", args["source"])
    if op == "analytics.degree":
        return ("analytics.degree", args["v"])
    if op == "analytics.pagerank":
        # Canonicalize so explicit defaults alias the bare request.
        return (
            "analytics.pagerank",
            float(args.get("damping", PAGERANK_DEFAULTS[0])),
            int(args.get("max_iterations", PAGERANK_DEFAULTS[1])),
            float(args.get("tolerance", PAGERANK_DEFAULTS[2])),
            None if args.get("top") is None else int(args["top"]),
        )
    if op in ("analytics.degree_hist", "analytics.triangles",
              "analytics.modularity", "analytics.slice"):
        return (op,)
    return None


def from_cached(op: str, value: Any) -> Any:
    """Project a cached value onto a query result (``degree`` = len)."""
    return len(value) if op == "degree" else value


def _ok(result: Any) -> Outcome:
    return ("ok", result)


def _err(code: str, message: str) -> Outcome:
    return ("error", code, message)


def _out_of_range(v: Any) -> Outcome:
    return _err(ErrorCode.OUT_OF_RANGE, f"node {v} out of range")


def execute_batch(
    index: Any,
    cache: LRUCache,
    metrics: MetricsRegistry,
    queries: Sequence[Query],
) -> List[Outcome]:
    """Execute ``queries`` as one pass; returns one outcome per query."""
    results: List[Outcome] = [None] * len(queries)  # type: ignore[list-item]
    num_nodes = index.num_nodes

    # Pass 1: serve cache hits, classify misses.
    neighbor_slots: List[Tuple[int, int]] = []   # (query position, node)
    for pos, (op, args) in enumerate(queries):
        metrics.inc(f"queries_{op}_total")
        if op in ("neighbors", "degree"):
            v = args["v"]
            if not 0 <= v < num_nodes:
                results[pos] = _out_of_range(v)
                continue
            hit, value = cache.get(("neighbors", v))
            if hit:
                results[pos] = _ok(len(value) if op == "degree" else value)
            else:
                neighbor_slots.append((pos, v))
        elif op == "has_edge":
            u, v = args["u"], args["v"]
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                results[pos] = _out_of_range(u if not 0 <= u < num_nodes
                                             else v)
                continue
            key = ("edge", min(u, v), max(u, v))
            hit, value = cache.get(key)
            if not hit:
                value = bool(index.has_edge(u, v))
                cache.put(key, value)
            results[pos] = _ok(value)
        elif op == "bfs":
            source = args["source"]
            if not 0 <= source < num_nodes:
                results[pos] = _out_of_range(source)
                continue
            hit, value = cache.get(("bfs", source))
            if not hit:
                distances = index.bfs_distances(source)
                value = sorted(distances.items())
                cache.put(("bfs", source), value)
            results[pos] = _ok(value)
        elif op in ANALYTICS_OPS:
            key = cache_key(op, args)
            hit, value = cache.get(key)
            if not hit:
                started = time.perf_counter()
                try:
                    value = execute_analytics(index, op, args)
                except IndexError as exc:
                    results[pos] = _err(ErrorCode.OUT_OF_RANGE, str(exc))
                    continue
                except (KeyError, TypeError, ValueError) as exc:
                    results[pos] = _err(ErrorCode.BAD_REQUEST, str(exc))
                    continue
                metrics.observe(
                    "analytics_op_seconds",
                    time.perf_counter() - started,
                    labels={"op": op},
                )
                cache.put(key, value)
            results[pos] = _ok(value)
        else:  # pragma: no cover - validated before enqueue
            results[pos] = _err(ErrorCode.INTERNAL, f"unbatchable op {op!r}")

    # Pass 2: one vectorized expansion for every uncached neighborhood.
    if neighbor_slots:
        unique = sorted({v for _, v in neighbor_slots})
        lists = index.neighbors_batch(np.asarray(unique, dtype=np.int64))
        by_node = dict(zip(unique, lists))
        for v, neigh in by_node.items():
            cache.put(("neighbors", v), neigh)
        for pos, v in neighbor_slots:
            op = queries[pos][0]
            neigh = by_node[v]
            results[pos] = _ok(len(neigh) if op == "degree" else neigh)
        metrics.inc("neighbor_expansions_total", len(unique))

    metrics.inc("batches_total")
    metrics.inc("batched_queries_total", len(queries))
    metrics.observe("batch_size", len(queries))
    hit_rate = cache.hit_rate
    if hit_rate is not None:
        metrics.set_gauge("cache_hit_rate", hit_rate)
    return results
