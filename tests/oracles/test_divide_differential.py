"""LDME's divide vs its ``np.unique`` oracle, on random partitions.

Hypothesis draws graphs with isolated nodes, no edges at all, ``n`` of 0
and 1, and hub-and-spoke shapes whose spokes share one neighbourhood (so
many supernodes share a signature), under the singleton partition and
under partitions whose supernode ids are random members rather than the
smallest one. For ``k`` from 1 to 25
(so also ``k > n``), both weightings must return the same groups in the
same order, the same :class:`~repro.core.divide.DivideStats`, and leave
the generator in the same state as :mod:`tests.oracles.divide`.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.divide import lsh_divide
from repro.core.partition import SupernodePartition
from repro.graph.graph import Graph

from . import divide as oracle

SHAPES = ("random", "isolated", "spokes")


def _graph(rng, n, shape):
    if shape == "isolated" or n < 2:
        return Graph.from_edges(n, [])
    if shape == "spokes":
        hubs = int(rng.integers(1, min(3, n - 1) + 1))
        spokes = np.arange(hubs, n)
        src = np.repeat(spokes, hubs)
        dst = np.tile(np.arange(hubs), spokes.size)
        # A few stray edges make some spokes differ from the rest.
        stray = int(rng.integers(0, 3))
        src = np.append(src, rng.integers(0, n, size=stray))
        dst = np.append(dst, rng.integers(0, n, size=stray))
        return Graph.from_edge_arrays(n, src, dst)
    num_edges = int(rng.integers(0, 3 * n))
    return Graph.from_edge_arrays(
        n, rng.integers(0, n, size=num_edges), rng.integers(0, n, size=num_edges)
    )


def _partition(rng, n, blocks):
    """Random blocks, each labelled by a random member."""
    if blocks >= n:
        return SupernodePartition(n)  # the singletons every run starts at
    labels = rng.integers(0, blocks, size=n)
    members = {}
    for label in np.unique(labels).tolist():
        mem = rng.permutation(np.flatnonzero(labels == label)).tolist()
        members[mem[int(rng.integers(len(mem)))]] = mem
    return SupernodePartition.from_members(n, members)


@st.composite
def divide_inputs(draw):
    n = draw(st.sampled_from((0, 1)) | st.integers(min_value=2, max_value=40))
    shape = draw(st.sampled_from(SHAPES))
    blocks = draw(st.integers(min_value=1, max_value=max(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    graph = _graph(rng, n, shape)
    return graph, _partition(rng, n, blocks)


@given(divide_inputs(), st.integers(min_value=1, max_value=25),
       st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from(("binary", "expanded")))
@settings(max_examples=200, deadline=None)
def test_divide_matches_oracle(inputs, k, seed, weights):
    graph, partition = inputs
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    groups, stats = lsh_divide(graph, partition, k, rng, weights=weights)
    ref_groups, ref_stats = oracle.lsh_divide(
        graph, partition, k, rng_ref, weights=weights
    )
    assert groups == ref_groups
    assert stats == ref_stats
    assert rng.bit_generator.state == rng_ref.bit_generator.state
