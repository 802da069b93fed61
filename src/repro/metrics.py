"""Output-size metrics and the kernel phase-timer hook.

The paper's objective (Eq. 1) counts superedges + correction edges. For a
storage-oriented view this module adds a bit-level size model: node and
supernode ids cost ``ceil(log2 n)`` bits, and edge lists can alternatively
be priced with delta-varint coding (the standard trick in graph storage
systems like WebGraph). These metrics power the ``ldme compare`` command
and the size-accounting tests; they do not affect the algorithms.

This module also owns :class:`PhaseTimer`, the wall-clock recorder behind
``BENCH_kernels.json`` (see ``benchmarks/test_kernels_regression.py`` and
``docs/performance.md``): every timed phase lands as one labelled record,
and :func:`write_bench` emits the machine-readable perf trajectory that
future PRs regress against.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .core.summary import Summarization
from .graph.graph import Graph
from .obs import metrics as obs_metrics

__all__ = [
    "SizeReport",
    "graph_size_bits",
    "summary_size_bits",
    "size_report",
    "varint_bits",
    "delta_encoded_bits",
    "PhaseTimer",
    "write_bench",
]

Edge = Tuple[int, int]


class PhaseTimer:
    """Accumulates labelled wall-clock phase timings for benchmark output.

    Usage::

        timer = PhaseTimer()
        with timer.phase("w_build", graph="1e5"):
            GroupAdjacency(graph, partition, group)
        timer.records  # [{"phase": "w_build", "seconds": ..., ...}]

    Records are plain dicts so they serialize straight into
    ``BENCH_kernels.json`` via :func:`write_bench`. ``best_seconds`` picks
    the fastest repeat of a labelled phase — benchmark files time each
    kernel several times and report the minimum, the usual defence against
    scheduler noise.

    Every record is also forwarded to the process's active unified
    registry (:func:`repro.obs.metrics.observe`, metric
    ``phase_seconds`` labelled by phase name) — so when a run installs a
    :class:`~repro.obs.metrics.MetricsRegistry`, benchmark phase timings
    show up in the same Prometheus exposition as the serving and
    summarization counters. Without an active registry the forward is a
    no-op.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    @contextmanager
    def phase(self, name: str, **labels: object):
        """Time one ``with`` block and append a record for it."""
        tic = time.perf_counter()
        try:
            yield self
        finally:
            self.add(name, time.perf_counter() - tic, **labels)

    def add(self, name: str, seconds: float, **labels: object) -> None:
        """Append an externally measured timing (e.g. from ``RunStats``)."""
        self.records.append({"phase": name, "seconds": seconds, **labels})
        obs_metrics.observe(
            "phase_seconds", seconds, labels={"phase": name}
        )

    def best_seconds(self, name: str, **labels: object) -> Optional[float]:
        """Fastest recorded time for a phase matching all given labels."""
        times = [
            float(r["seconds"])
            for r in self.records
            if r["phase"] == name
            and all(r.get(key) == val for key, val in labels.items())
        ]
        return min(times) if times else None


def write_bench(
    path: str,
    timer: PhaseTimer,
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Write a ``BENCH_*.json`` file from a timer's records.

    The layout is intentionally flat — ``{"meta": ..., "records": [...]}``
    — so downstream regression checks can filter on any label without
    schema knowledge. See docs/performance.md for how to read the file.
    """
    payload = {"meta": meta or {}, "records": timer.records}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def varint_bits(value: int) -> int:
    """Bits used by a 7-bit-per-byte varint encoding of ``value``."""
    if value < 0:
        raise ValueError("varint encodes non-negative integers")
    if value == 0:
        return 8
    bytes_needed = (value.bit_length() + 6) // 7
    return 8 * bytes_needed


def delta_encoded_bits(sorted_values: Iterable[int]) -> int:
    """Bits for a sorted id list stored as varint deltas (gap coding)."""
    total = 0
    previous = 0
    for value in sorted_values:
        if value < previous:
            raise ValueError("delta coding requires a sorted list")
        total += varint_bits(value - previous)
        previous = value
    return total


def _id_bits(universe: int) -> int:
    """Bits for one fixed-width id over a universe of the given size."""
    return max(1, math.ceil(math.log2(max(2, universe))))


def graph_size_bits(graph: Graph, encoding: str = "fixed") -> int:
    """Size of the raw edge list.

    ``"fixed"`` prices each edge as two fixed-width ids; ``"delta"`` prices
    each adjacency row as gap-coded varints (each undirected edge charged
    once, from its smaller endpoint).
    """
    if encoding == "fixed":
        return 2 * _id_bits(graph.num_nodes) * graph.num_edges
    if encoding == "delta":
        total = 0
        for v in range(graph.num_nodes):
            row = [u for u in graph.neighbors(v).tolist() if u > v]
            total += delta_encoded_bits(row)
        return total
    raise ValueError("encoding must be 'fixed' or 'delta'")


def summary_size_bits(summary: Summarization, encoding: str = "fixed") -> int:
    """Size of the summary output (supernode map + P + C+ + C−).

    The supernode membership map costs one supernode id per node; each
    superedge two supernode ids; correction edges two node ids. Superloops
    cost one bit each (the paper's accounting).
    """
    node_bits = _id_bits(summary.num_nodes)
    super_bits = _id_bits(max(2, summary.num_supernodes))
    if encoding == "fixed":
        mapping = super_bits * summary.num_nodes
        superedges = 2 * super_bits * summary.num_superedges
        loops = summary.num_superloops
        corrections = 2 * node_bits * summary.corrections.size
        return mapping + superedges + loops + corrections
    if encoding == "delta":
        mapping = super_bits * summary.num_nodes
        superedges = delta_encoded_bits(
            sorted(a for a, b in summary.superedges if a != b)
        ) + sum(
            varint_bits(b) for a, b in sorted(summary.superedges) if a != b
        )
        loops = summary.num_superloops
        pairs = sorted(
            summary.corrections.additions + summary.corrections.deletions
        )
        corrections = delta_encoded_bits([u for u, _ in pairs]) + sum(
            varint_bits(v) for _, v in pairs
        )
        return mapping + superedges + loops + corrections
    raise ValueError("encoding must be 'fixed' or 'delta'")


@dataclass(frozen=True)
class SizeReport:
    """Side-by-side size accounting for one summarization."""

    graph_bits: int
    summary_bits: int
    objective: int
    compression: float        # the paper's edge-count metric
    bit_ratio: float          # summary_bits / graph_bits

    @property
    def bit_savings(self) -> float:
        """Fraction of raw-graph bits saved by the summary."""
        return 1.0 - self.bit_ratio


def size_report(
    graph: Graph, summary: Summarization, encoding: str = "fixed"
) -> SizeReport:
    """Compute a :class:`SizeReport` for ``summary`` against ``graph``."""
    g_bits = graph_size_bits(graph, encoding)
    s_bits = summary_size_bits(summary, encoding)
    return SizeReport(
        graph_bits=g_bits,
        summary_bits=s_bits,
        objective=summary.objective,
        compression=summary.compression,
        bit_ratio=s_bits / g_bits if g_bits else 0.0,
    )
