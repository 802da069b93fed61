"""Array handoff vs the per-edge oracles, on random summaries.

Hypothesis draws lossless, lossy (``epsilon=0.3``), C−-heavy, superloop,
empty and isolated-node summaries, and random sharded graphs. Each test
asserts that the array implementation in ``src/repro`` returns exactly
what its per-edge reference in :mod:`tests.oracles` returns: the same
file bytes, the same read-back, the same reconstruction errors, the same
structural problems and the same stitched and served summaries.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.binaryio import (
    VarintReader,
    encode_varints,
    read_summary_binary,
    write_summary_binary,
)
from repro.core.encode import encode_sorted
from repro.core.ldme import LDME
from repro.core.partition import SupernodePartition
from repro.core.reconstruct import reconstruct, reconstruction_error
from repro.core.summary import CorrectionSet, Summarization
from repro.core.validate import check_summary
from repro.graph.graph import Graph
from repro.shard import HashRing, partition_graph, stitch_shards
from repro.shard.stitch import shard_serving_summary

from . import codec, partition as partition_oracle, stitch as stitch_oracle
from . import reconstruct as reconstruct_oracle
from . import validate as validate_oracle

SETTINGS = settings(max_examples=60, deadline=None)

SHAPES = ("lossless", "lossy", "dense", "isolated", "empty")


def _random_graph(rng, num_nodes, active, density):
    """Edges among the first ``active`` nodes, each pair with ``density``."""
    iu, iv = np.triu_indices(active, k=1)
    keep = rng.random(iu.size) < density
    return Graph.from_edge_arrays(num_nodes, iu[keep], iv[keep])


def _encoded(graph, rng, groups):
    labels = rng.integers(0, max(groups, 1), size=graph.num_nodes)
    partition = SupernodePartition.from_labels(labels.tolist())
    result = encode_sorted(graph, partition)
    return Summarization(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        partition=partition,
        superedges=result.superedges,
        corrections=result.corrections,
    )


@st.composite
def cases(draw):
    """``(graph, summary)`` of one of :data:`SHAPES`."""
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "empty":
        graph = Graph.from_edges(0, [])
        return graph, Summarization.from_members(
            num_nodes=0, members={}, superedges=[],
            corrections=CorrectionSet([], []), num_edges=0,
        )
    active = draw(st.integers(1, 18))
    extra = draw(st.integers(1, 6)) if shape == "isolated" else 0
    density = {"dense": draw(st.floats(0.6, 0.95))}.get(
        shape, draw(st.floats(0.05, 0.5)))
    graph = _random_graph(rng, active + extra, active, density)
    if shape == "lossy":
        summary = LDME(k=3, iterations=3, seed=int(rng.integers(1000)),
                       epsilon=0.3).summarize(graph)
    else:
        # Few groups over a dense graph: big supernodes, superloops and
        # many C- entries.
        groups = draw(st.integers(1, 4)) if shape == "dense" \
            else draw(st.integers(1, active + extra))
        summary = _encoded(graph, rng, groups)
    return graph, summary


def _copy(summary):
    return Summarization(
        num_nodes=summary.num_nodes,
        num_edges=summary.num_edges,
        partition=summary.partition,
        superedges=list(summary.superedges),
        corrections=CorrectionSet(list(summary.corrections.additions),
                                  list(summary.corrections.deletions)),
    )


MUTATIONS = ("none", "drop_cplus", "duplicate_superedge", "dead_endpoint",
             "out_of_range", "overlap", "orphan_cminus")


def _mutate(summary, mutation, rng):
    """A copy with one fault; the raw tuples bypass canonicalization."""
    s = _copy(summary)
    n = s.num_nodes
    adds, dels = s.corrections.additions, s.corrections.deletions
    if mutation == "drop_cplus" and adds:
        adds.pop(int(rng.integers(len(adds))))
    elif mutation == "duplicate_superedge" and s.superedges:
        a, b = s.superedges[int(rng.integers(len(s.superedges)))]
        s.superedges.append((b, a))
    elif mutation == "dead_endpoint" and n:
        node2super = s.partition.node2super
        members = np.flatnonzero(node2super != np.arange(n))
        dead = int(members[0]) if members.size else n + 3
        s.superedges.append((int(node2super[0]), dead))
    elif mutation == "out_of_range" and n:
        adds.append((0, n + 5))
        dels.append((n + 1, n + 2))
    elif mutation == "overlap" and n >= 2:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        adds.append((u, v))
        dels.append((u, v))
    elif mutation == "orphan_cminus" and n >= 2:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        dels.append((u, v))
    return s


def _toggled(graph, rng):
    """``graph`` with a few edges removed and a few added."""
    src, dst = graph.edge_arrays()
    keep = rng.random(src.size) > 0.2
    n = graph.num_nodes
    extra_u = rng.integers(0, max(n, 1), size=3)
    extra_v = rng.integers(0, max(n, 1), size=3)
    if not n:
        return graph
    return Graph.from_edge_arrays(
        n, np.concatenate([src[keep], extra_u]),
        np.concatenate([dst[keep], extra_v]))


def _as_lists(summary):
    return (
        summary.num_nodes,
        summary.num_edges,
        summary.partition.members_map(),
        list(summary.superedges),
        list(summary.corrections.additions),
        list(summary.corrections.deletions),
    )


class TestCodec:
    @SETTINGS
    @given(st.lists(st.integers(0, 2**63 - 1), max_size=40))
    def test_varints_match_scalar_codec(self, values):
        scalar = io.BytesIO()
        for value in values:
            codec.write_varint(scalar, value)
        data = encode_varints(values)
        assert data == scalar.getvalue()
        reader = VarintReader(data)
        assert reader.take(len(values)).tolist() == values
        assert reader.offset == len(data)

    @SETTINGS
    @given(cases())
    def test_writer_bytes_match_oracle(self, case):
        _, summary = case
        buf = io.BytesIO()
        write_summary_binary(summary, buf)
        assert buf.getvalue() == codec.write_summary_bytes(summary)

    @SETTINGS
    @given(cases())
    def test_read_back_matches_oracle(self, case):
        _, summary = case
        data = codec.write_summary_bytes(summary)
        loaded = read_summary_binary(io.BytesIO(data))
        assert _as_lists(loaded) == _as_lists(codec.read_summary_bytes(data))


class TestReconstruction:
    @SETTINGS
    @given(cases(), st.integers(0, 2**32 - 1))
    def test_reconstruction_error_matches_oracle(self, case, seed):
        graph, summary = case
        rng = np.random.default_rng(seed)
        for target in (graph, _toggled(graph, rng)):
            assert reconstruction_error(target, summary) == \
                reconstruct_oracle.reconstruction_error(target, summary)
        assert reconstruct(summary) == reconstruct_oracle.reconstruct(summary)


class TestCheckSummary:
    @SETTINGS
    @given(cases(), st.sampled_from(MUTATIONS), st.integers(0, 2**32 - 1))
    def test_problems_match_oracle(self, case, mutation, seed):
        graph, summary = case
        mutated = _mutate(summary, mutation, np.random.default_rng(seed))
        for target in (None, graph):
            assert sorted(check_summary(mutated, target)) == \
                sorted(validate_oracle.check_summary(mutated, target))


class TestPartition:
    @SETTINGS
    @given(st.integers(0, 10), st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(("repeat", "out_of_range", "negative",
                                     "empty", "drop", "negative_sid")),
                    max_size=2))
    def test_from_members_errors_match_oracle(self, num_nodes, seed, faults):
        """Zero to two faults; which one is reported depends on order."""
        rng = np.random.default_rng(seed)
        members = {}
        for node, label in enumerate(rng.integers(0, 4, size=num_nodes)):
            members.setdefault(int(label), []).append(node)
        for fault in faults:
            sids = list(members)
            victim = members[sids[int(rng.integers(len(sids)))]] \
                if sids else members.setdefault(0, [])
            if fault == "repeat" and victim:
                victim.insert(int(rng.integers(len(victim))), victim[-1])
            elif fault == "out_of_range":
                victim.append(num_nodes + int(rng.integers(3)))
            elif fault == "negative":
                victim.insert(0, -1)
            elif fault == "empty":
                at = int(rng.integers(len(sids) + 1))
                items = list(members.items())
                members = dict(items[:at] + [(num_nodes + 7, [])]
                               + items[at:])
            elif fault == "drop" and victim:
                victim.pop(int(rng.integers(len(victim))))
            elif fault == "negative_sid" and sids:
                # Not -1: the member walk used -1 as its "unassigned"
                # mark, so it missed a node repeated under supernode -1
                # (see test_repeat_under_supernode_minus_one).
                members[-2] = members.pop(sids[0])
        expected = partition_oracle.from_members_problem(num_nodes, members)
        try:
            partition = SupernodePartition.from_members(num_nodes, members)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected == ""
            assert partition.members_map() == members
            partition.validate()

    def test_repeat_under_supernode_minus_one(self):
        """The one intended difference: the member walk marked unassigned
        nodes with -1, so it took a repeat under supernode -1 for a first
        sighting and blamed coverage; the array check names the repeat."""
        members = {-1: [0, 0], 1: [1]}
        assert partition_oracle.from_members_problem(2, members) == \
            "node 0 not covered by any supernode"
        with pytest.raises(ValueError, match="node 0 assigned to two"):
            SupernodePartition.from_members(2, members)

    @SETTINGS
    @given(st.integers(2, 12), st.integers(0, 2**32 - 1),
           st.sampled_from(("relabel", "repeat", "empty", "drop")))
    def test_validate_errors_match_oracle(self, num_nodes, seed, fault):
        rng = np.random.default_rng(seed)
        partition = SupernodePartition.from_labels(
            rng.integers(0, 3, size=num_nodes).tolist())
        sids = list(partition.supernode_ids())
        victim = partition.members(sids[int(rng.integers(len(sids)))])
        if fault == "relabel":
            partition._node2super[victim[0]] = num_nodes + 1
        elif fault == "repeat":
            victim.append(victim[0])
        elif fault == "empty":
            victim.clear()
        else:
            victim.pop()
        expected = partition_oracle.validate_problem(
            partition._members, partition.node2super)
        with pytest.raises(AssertionError) as excinfo:
            partition.validate()
        assert str(excinfo.value) == expected


@st.composite
def sharded_runs(draw):
    """A random graph, a ring of 1-4 shards and per-shard summaries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    active = draw(st.integers(2, 30))
    num_nodes = active + draw(st.integers(0, 4))
    graph = _random_graph(rng, num_nodes, active, draw(st.floats(0.1, 0.8)))
    ring = HashRing(draw(st.integers(1, 4)), virtual_nodes=8,
                    seed=int(rng.integers(1000)))
    sharded = partition_graph(graph, ring)
    summaries = {
        shard.shard_id: _encoded(shard.local_graph, rng,
                                 draw(st.integers(1, 6)))
        for shard in sharded.shards
    }
    return graph, sharded, summaries


class TestStitch:
    @SETTINGS
    @given(sharded_runs())
    def test_stitch_and_serving_cut_match_oracle(self, run):
        graph, sharded, summaries = run
        report = stitch_shards(sharded, summaries, graph=graph)
        assert report.ok, report.problems
        stitched = report.summary
        expected = stitch_oracle.stitch(sharded, summaries)
        assert stitched.partition.members_map() == \
            expected.partition.members_map()
        for got, want in (
            (stitched.superedges, expected.superedges),
            (stitched.corrections.additions, expected.corrections.additions),
            (stitched.corrections.deletions, expected.corrections.deletions),
        ):
            assert sorted(got) == sorted(want)
        for shard in sharded.shards:
            served = shard_serving_summary(stitched, sharded, shard.shard_id)
            reference = stitch_oracle.serving_summary(
                stitched, sharded, shard.shard_id)
            assert _as_lists(served) == _as_lists(reference)
