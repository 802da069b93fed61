"""Output representation: summary graph + correction sets.

A :class:`Summarization` bundles everything the problem statement outputs:
the supernode set ``S`` (via the partition), superedges ``P``, correction
sets ``C+``/``C-``, and run statistics. The objective (Eq. 1) and the
compression metric of Section 4 are computed here so every algorithm and
benchmark reports them identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .partition import SupernodePartition

__all__ = ["CorrectionSet", "RunStats", "IterationStats", "Summarization"]

Edge = Tuple[int, int]


@dataclass
class CorrectionSet:
    """``C+`` (edges to insert) and ``C-`` (edges to delete) as node pairs."""

    additions: List[Edge] = field(default_factory=list)
    deletions: List[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.additions = [_canonical(e) for e in self.additions]
        self.deletions = [_canonical(e) for e in self.deletions]

    @property
    def size(self) -> int:
        """``|C+| + |C-|``."""
        return len(self.additions) + len(self.deletions)


def _canonical(edge: Edge) -> Edge:
    u, v = int(edge[0]), int(edge[1])
    if u == v:
        raise ValueError(f"correction edges must join distinct nodes: {edge}")
    return (u, v) if u < v else (v, u)


@dataclass
class IterationStats:
    """Per-iteration timing/shape record (the series behind Figure 2/4).

    ``objective``/``compression``/``encode_seconds`` are filled only when
    the driver runs with ``track_compression=True`` (an encode pass after
    every iteration — how the paper's per-T curves are produced).
    """

    iteration: int
    divide_seconds: float
    merge_seconds: float
    num_groups: int
    max_group_size: int
    num_supernodes: int
    merges: int
    objective: Optional[int] = None
    compression: Optional[float] = None
    encode_seconds: float = 0.0


@dataclass
class RunStats:
    """Phase timings for one summarization run.

    The last four counters are populated by the supervised parallel merge
    (:class:`repro.distributed.MultiprocessLDME`): how many worker batches
    failed or timed out, how many were retried on a fresh pool, and how
    many fell back to in-process serial planning.
    """

    divide_seconds: float = 0.0
    merge_seconds: float = 0.0
    encode_seconds: float = 0.0
    drop_seconds: float = 0.0
    iterations: List[IterationStats] = field(default_factory=list)
    worker_failures: int = 0       # worker batches that crashed or errored
    batch_timeouts: int = 0        # worker batches that exceeded the deadline
    batch_retries: int = 0         # batches re-submitted to a fresh pool
    serial_fallbacks: int = 0      # batches planned serially in-process

    @property
    def total_seconds(self) -> float:
        """End-to-end algorithm time (divide + merge + encode + drop)."""
        return (
            self.divide_seconds
            + self.merge_seconds
            + self.encode_seconds
            + self.drop_seconds
        )

    @property
    def divide_merge_seconds(self) -> float:
        """Combined divide+merge time (the paper reports them together)."""
        return self.divide_seconds + self.merge_seconds


@dataclass
class Summarization:
    """Complete output of a correction-set graph summarization run."""

    num_nodes: int
    num_edges: int
    partition: SupernodePartition
    superedges: List[Edge]               # includes superloops (A, A)
    corrections: CorrectionSet
    stats: RunStats = field(default_factory=RunStats)
    algorithm: str = ""

    # ------------------------------------------------------------------
    @classmethod
    def from_members(
        cls,
        num_nodes: int,
        members: Mapping[int, Iterable[int]],
        superedges: Iterable[Edge],
        corrections: CorrectionSet,
        num_edges: Optional[int] = None,
        algorithm: str = "",
    ) -> "Summarization":
        """Rebuild a summarization from serialized pieces (see graph.io)."""
        partition = SupernodePartition.from_members(num_nodes, members)
        se = [(int(a), int(b)) for a, b in superedges]
        return cls(
            num_nodes=num_nodes,
            num_edges=num_edges if num_edges is not None else 0,
            partition=partition,
            superedges=se,
            corrections=corrections,
            algorithm=algorithm,
        )

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    def supernode_ids(self) -> List[int]:
        """Current supernode ids, sorted for deterministic output."""
        return sorted(self.partition.supernode_ids())

    def members(self, sid: int) -> List[int]:
        """Members of one supernode."""
        return self.partition.members(sid)

    @property
    def num_supernodes(self) -> int:
        """``|S|``."""
        return self.partition.num_supernodes

    @property
    def num_superedges(self) -> int:
        """Non-loop superedge count (superloops are free per the paper)."""
        return sum(1 for a, b in self.superedges if a != b)

    @property
    def num_superloops(self) -> int:
        """Superloop count (encoded with one bit each; not in Eq. 1)."""
        return sum(1 for a, b in self.superedges if a == b)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def objective(self) -> int:
        """Eq. 1: ``|P| + |C+| + |C-|`` (non-loop superedges only)."""
        return self.num_superedges + self.corrections.size

    @property
    def compression(self) -> float:
        """Section 4 metric: ``1 - (|P| + |C+| + |C-|) / |E|``."""
        if self.num_edges == 0:
            return 0.0
        return 1.0 - self.objective / self.num_edges

    def describe(self) -> Dict[str, float]:
        """Flat metric dict for harness/reporting code."""
        return {
            "algorithm": self.algorithm,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "supernodes": self.num_supernodes,
            "superedges": self.num_superedges,
            "superloops": self.num_superloops,
            "additions": len(self.corrections.additions),
            "deletions": len(self.corrections.deletions),
            "objective": self.objective,
            "compression": self.compression,
            "total_seconds": self.stats.total_seconds,
        }

    def __repr__(self) -> str:
        return (
            f"Summarization(algorithm={self.algorithm!r}, "
            f"supernodes={self.num_supernodes}, objective={self.objective}, "
            f"compression={self.compression:.4f})"
        )
