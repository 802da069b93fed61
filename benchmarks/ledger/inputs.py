"""Seeded inputs: graphs, edge-list files, query mixes and event streams.

The program under test only ever sees files and wire requests made here;
the same ``--seed`` gives the same inputs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.graph.generators import rmat, web_host_graph
from repro.graph.graph import Graph

#: Template-copying web-crawl family (the paper's ~80% compression regime).
WEB = {"host_size": 60, "links_per_template": 16, "mutation_prob": 0.05,
       "inter_edges_per_host": 8}

#: Query mix of the serving workloads (weights sum to 1).
QUERY_MIX = (("neighbors", 0.55), ("degree", 0.20), ("has_edge", 0.25))
#: Node skew: ``v = floor(n * u**SKEW)`` concentrates traffic on low ids.
SKEW = 2.0


def web_graph(seed: int, num_hosts: int) -> Graph:
    """One member of the template-copying web-crawl family."""
    return file_form(web_host_graph(num_hosts=num_hosts, seed=seed, **WEB))


def rmat_graph(seed: int, scale: int) -> Graph:
    """Skewed, nearly incompressible R-MAT graph (Graph500 parameters)."""
    return file_form(rmat(scale=scale, edge_factor=8, seed=seed))


def file_form(graph: Graph) -> Graph:
    """The graph exactly as an edge-list reader sees it.

    An edge list cannot record trailing isolated nodes, so the node count
    a reader infers is the largest endpoint plus one.
    """
    src, dst = graph.edge_arrays()
    n = int(max(src.max(), dst.max())) + 1 if src.size else 0
    if n == graph.num_nodes:
        return graph
    return Graph.from_edge_arrays(n, src, dst)


def write_edge_list(graph: Graph, path: str) -> None:
    """One ``u v`` line per undirected edge."""
    src, dst = graph.edge_arrays()
    np.savetxt(path, np.column_stack([src, dst]), fmt="%d")


def queries(rng: np.random.Generator, count: int,
            num_nodes: int) -> List[Tuple[str, Dict[str, int]]]:
    """``count`` requests drawn from :data:`QUERY_MIX` with node skew."""
    ops = [op for op, _ in QUERY_MIX]
    picks = rng.choice(len(ops), size=count, p=[w for _, w in QUERY_MIX])
    v = np.minimum(num_nodes - 1,
                   (num_nodes * rng.random(count) ** SKEW).astype(np.int64))
    u = np.minimum(num_nodes - 1,
                   (num_nodes * rng.random(count) ** SKEW).astype(np.int64))
    out = []
    for op_index, a, b in zip(picks.tolist(), v.tolist(), u.tolist()):
        op = ops[op_index]
        out.append((op, {"u": a, "v": b} if op == "has_edge" else {"v": a}))
    return out


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration: float) -> np.ndarray:
    """Arrival times in ``[0, duration)`` of a Poisson process at ``rate``."""
    expected = int(rate * duration * 1.2) + 16
    gaps = rng.exponential(1.0 / rate, size=expected)
    times = np.cumsum(gaps)
    while times[-1] < duration:
        more = np.cumsum(rng.exponential(1.0 / rate, size=expected))
        times = np.concatenate([times, times[-1] + more])
    return times[times < duration]


def edge_events(graph: Graph, seed: int) -> List[Tuple[int, int]]:
    """The graph's edges in a seeded shuffle, as ``(u, v)`` inserts."""
    src, dst = graph.edge_arrays()
    order = np.random.default_rng(seed).permutation(src.size)
    return list(zip(src[order].tolist(), dst[order].tolist()))


def expected_answer(graph: Graph, op: str, args: Dict[str, int]):
    """What a lossless server must answer for one query."""
    if op == "neighbors":
        return graph.neighbors(args["v"]).tolist()
    if op == "degree":
        return graph.degree(args["v"])
    return graph.has_edge(args["u"], args["v"])
