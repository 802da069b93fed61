"""Structural validation of summarization outputs.

Deserialized or hand-built summaries can be malformed in ways losslessness
checks alone won't localize (dangling supernode ids, out-of-range nodes,
duplicate correction edges, additions that expanded superedges already
cover). :func:`validate_summary` raises a precise error for each failure
mode; :func:`check_summary` returns the problems as a list for tooling.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..graph.graph import Graph
from .reconstruct import reconstruction_error
from .pairs import edge_array, isin_sorted, pair_keys, repeats, sorted_unique
from .summary import Summarization

__all__ = [
    "validate_summary",
    "check_summary",
    "partition_coverage_problems",
    "SummaryValidationError",
]


class SummaryValidationError(ValueError):
    """A summarization violates a structural invariant."""


def partition_coverage_problems(
    partition, declared_num_nodes: int
) -> List[str]:
    """Problems with a partition's coverage of the node universe.

    The one check both the standalone validator and the shard stitcher
    need: the partition's own invariants hold (every node in exactly one
    supernode, labels consistent) and it covers exactly the declared
    universe. Returns problem strings; empty list = clean.
    """
    problems: List[str] = []
    try:
        partition.validate()
    except AssertionError as exc:
        problems.append(f"partition invalid: {exc}")
    if partition.num_nodes != declared_num_nodes:
        problems.append(
            f"partition covers {partition.num_nodes} nodes but summary "
            f"declares {declared_num_nodes}"
        )
    return problems


def check_summary(
    summary: Summarization, graph: Optional[Graph] = None
) -> List[str]:
    """Collect structural problems (empty list = clean).

    With ``graph`` provided, also verifies exact losslessness. Every
    check is a mask over the pair arrays; Python only formats the
    problems found.
    """
    partition = summary.partition
    n = summary.num_nodes

    # Partition covers the node universe consistently.
    problems = partition_coverage_problems(partition, n)

    # Superedges must reference live supernodes, once each.
    se = edge_array(summary.superedges)
    live = np.fromiter(partition.supernode_ids(), dtype=np.int64,
                       count=partition.num_supernodes)
    dead = ~np.isin(se, live).all(axis=1)
    for a, b in se[dead].tolist():
        problems.append(f"superedge ({a}, {b}) references a dead supernode")
    covered = np.sort(se, axis=1)
    for key in covered[repeats(*pair_keys(covered))].tolist():
        problems.append(f"duplicate superedge {tuple(key)}")

    # Correction edges: in range, canonical, unique, and no overlap
    # between C+ and C-.
    additions = edge_array(summary.corrections.additions)
    deletions = edge_array(summary.corrections.deletions)
    add_keys, del_keys = pair_keys(additions, deletions)
    in_range = {}
    for label, edges, keys in (("C+", additions, add_keys),
                               ("C-", deletions, del_keys)):
        ok = ((edges >= 0) & (edges < n)).all(axis=1)
        again = repeats(keys)
        for i in np.flatnonzero(~ok | again).tolist():
            u, v = edges[i].tolist()
            if not ok[i]:
                problems.append(f"{label} edge ({u}, {v}) out of node range")
            if again[i]:
                problems.append(f"duplicate {label} edge ({u}, {v})")
        in_range[label] = ok
    _, both, _ = np.intersect1d(add_keys, del_keys, return_indices=True)
    for edge in additions[both].tolist():
        problems.append(f"edge {tuple(edge)} appears in both C+ and C-")

    # C- edges only make sense inside an encoded superedge block; C+ edges
    # must not duplicate pairs a superedge already produces.
    node2super = partition.node2super
    deletions = deletions[in_range["C-"]]
    additions = additions[in_range["C+"]]
    del_pairs = np.sort(node2super[deletions], axis=1)
    add_pairs = np.sort(node2super[additions], axis=1)
    se_keys, del_pair_keys, add_pair_keys = pair_keys(covered, del_pairs,
                                                      add_pairs)
    se_keys = sorted_unique(se_keys)
    orphan = ~isin_sorted(del_pair_keys, se_keys)
    for (u, v), pair in zip(deletions[orphan].tolist(),
                            del_pairs[orphan].tolist()):
        problems.append(
            f"C- edge ({u}, {v}) targets pair {tuple(pair)} with no superedge"
        )
    inside = isin_sorted(add_pair_keys, se_keys)
    for (u, v), pair in zip(additions[inside].tolist(),
                            add_pairs[inside].tolist()):
        problems.append(
            f"C+ edge ({u}, {v}) duplicates covered pair {tuple(pair)}"
        )

    if graph is not None and not problems:
        missing, spurious = reconstruction_error(graph, summary)
        if missing or spurious:
            problems.append(
                f"reconstruction mismatch: {len(missing)} missing / "
                f"{len(spurious)} spurious edges"
            )
    return problems


def validate_summary(
    summary: Summarization, graph: Optional[Graph] = None
) -> None:
    """Raise :class:`SummaryValidationError` on the first set of problems."""
    problems = check_summary(summary, graph)
    if problems:
        raise SummaryValidationError("; ".join(problems[:10]))
