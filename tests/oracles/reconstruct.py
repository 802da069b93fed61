"""Tuple-set reconstruction: expand, add C+, remove C-, one pair at a time."""

from typing import List, Set, Tuple

from repro.core.summary import Summarization
from repro.graph.graph import Graph

Edge = Tuple[int, int]


def reconstructed_edges(summarization: Summarization) -> Set[Edge]:
    edges: Set[Edge] = set()
    partition = summarization.partition
    for a, b in summarization.superedges:
        mem_a = partition.members(a)
        if a == b:
            for i, u in enumerate(mem_a):
                for v in mem_a[i + 1:]:
                    edges.add((u, v) if u < v else (v, u))
            continue
        for u in mem_a:
            for v in partition.members(b):
                edges.add((u, v) if u < v else (v, u))
    for u, v in summarization.corrections.additions:
        edges.add((u, v) if u < v else (v, u))
    for u, v in summarization.corrections.deletions:
        edges.discard((u, v) if u < v else (v, u))
    return edges


def reconstruct(summarization: Summarization) -> Graph:
    return Graph.from_edges(summarization.num_nodes,
                            sorted(reconstructed_edges(summarization)))


def reconstruction_error(
    graph: Graph, summarization: Summarization
) -> Tuple[List[Edge], List[Edge]]:
    original = set(graph.edges())
    rebuilt = set(reconstruct(summarization).edges())
    return sorted(original - rebuilt), sorted(rebuilt - original)
