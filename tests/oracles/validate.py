"""The structural checks, one superedge and one correction at a time."""

from typing import List, Optional

from repro.core.summary import Summarization
from repro.core.validate import partition_coverage_problems
from repro.graph.graph import Graph

from .reconstruct import reconstruction_error


def _pair_of(node2super, u: int, v: int):
    a, b = int(node2super[u]), int(node2super[v])
    return (a, b) if a < b else (b, a)


def check_summary(
    summary: Summarization, graph: Optional[Graph] = None
) -> List[str]:
    partition = summary.partition
    problems = partition_coverage_problems(partition, summary.num_nodes)

    live = set(partition.supernode_ids())
    for a, b in summary.superedges:
        if a not in live or b not in live:
            problems.append(f"superedge ({a}, {b}) references a dead supernode")
    seen_superedges = set()
    for pair in summary.superedges:
        key = (min(pair), max(pair))
        if key in seen_superedges:
            problems.append(f"duplicate superedge {key}")
        seen_superedges.add(key)

    additions = summary.corrections.additions
    deletions = summary.corrections.deletions
    for label, edges in (("C+", additions), ("C-", deletions)):
        seen = set()
        for u, v in edges:
            if not (0 <= u < summary.num_nodes and 0 <= v < summary.num_nodes):
                problems.append(f"{label} edge ({u}, {v}) out of node range")
            if (u, v) in seen:
                problems.append(f"duplicate {label} edge ({u}, {v})")
            seen.add((u, v))
    for edge in sorted(set(additions) & set(deletions)):
        problems.append(f"edge {edge} appears in both C+ and C-")

    node2super = partition.node2super
    superedge_pairs = {(min(a, b), max(a, b)) for a, b in summary.superedges}

    def in_range(u, v):
        return 0 <= u < summary.num_nodes and 0 <= v < summary.num_nodes

    for u, v in deletions:
        if not in_range(u, v):
            continue
        pair = _pair_of(node2super, u, v)
        if pair not in superedge_pairs:
            problems.append(
                f"C- edge ({u}, {v}) targets pair {pair} with no superedge"
            )
    for u, v in additions:
        if not in_range(u, v):
            continue
        pair = _pair_of(node2super, u, v)
        if pair in superedge_pairs:
            problems.append(
                f"C+ edge ({u}, {v}) duplicates covered pair {pair}"
            )

    if graph is not None and not problems:
        missing, spurious = reconstruction_error(graph, summary)
        if missing or spurious:
            problems.append(
                f"reconstruction mismatch: {len(missing)} missing / "
                f"{len(spurious)} spurious edges"
            )
    return problems
