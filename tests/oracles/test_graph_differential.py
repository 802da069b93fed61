"""The packed-key CSR build, the blocked reader and the migration
catch-up against their per-edge references in :mod:`tests.oracles.graph`.

Hypothesis draws edge arrays with self loops, duplicates in both
directions and trailing isolated nodes (``n`` down to 0 and 1), edge-list
files with ``#``/``%`` comment lines, blank lines, inline comments, tabs
and extra columns, plain or ``.gz``, read with blocks small enough that
the file spans several, and ingest event streams that insert and delete
the same pairs. Each test asserts the production code returns exactly
what its reference returns, errors included.
"""

import gzip
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.graph.io as graph_io
from repro.graph.graph import Graph
from repro.shard.migrate import _apply_events

from . import graph as oracle

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def edge_arrays(draw):
    """``(num_nodes, src, dst)``; ``num_nodes`` may exceed every endpoint."""
    active = draw(st.integers(0, 12))
    ids = st.integers(0, max(active - 1, 0))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40)) if active else []
    extra = draw(st.integers(0, 3))
    src = np.asarray([u for u, _ in pairs], dtype=np.int64)
    dst = np.asarray([v for _, v in pairs], dtype=np.int64)
    return active + extra, src, dst


class TestFromEdgeArrays:
    @SETTINGS
    @given(edge_arrays(), st.booleans())
    @example((0, np.empty(0, np.int64), np.empty(0, np.int64)), False)
    @example((1, np.zeros(3, np.int64), np.zeros(3, np.int64)), False)
    def test_matches_unique_lexsort_build(self, case, reverse):
        n, src, dst = case
        if reverse:  # every edge again, the other way round
            src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        got = Graph.from_edge_arrays(n, src, dst)
        assert got == oracle.from_edge_arrays(n, src, dst)
        assert got.indptr.dtype == got.indices.dtype == np.int64

    @pytest.mark.parametrize("src, dst", [([0, 5], [1, 2]), ([-1], [0])],
                             ids=["too-large", "negative"])
    def test_out_of_range_raises_like_oracle(self, src, dst):
        for build in (Graph.from_edge_arrays, oracle.from_edge_arrays):
            with pytest.raises(ValueError, match="out of range"):
                build(5, src, dst)


_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])


@st.composite
def data_lines(draw):
    """One ``u v`` line, decorated the ways real edge lists are."""
    u, v = draw(st.integers(0, 15)), draw(st.integers(0, 15))
    line = draw(st.sampled_from(["", " ", "\t"])) + str(u)
    line += draw(_SEPARATORS) + str(v)
    for _ in range(draw(st.integers(0, 2))):  # extra columns are ignored
        line += draw(_SEPARATORS) + draw(st.sampled_from(["7", "1.5", "w"]))
    if draw(st.booleans()):
        line += draw(_SEPARATORS) + draw(st.sampled_from(["# c 9", "%x", "#"]))
    return line


_FILLER = st.sampled_from(["", "   ", "\t", "# comment 1 2", "% 3 4", "#"])


@st.composite
def edge_files(draw, bad_line=False):
    """``(lines, gz, block_lines, num_nodes_extra)`` for one file."""
    lines = draw(st.lists(st.one_of(data_lines(), _FILLER), max_size=30))
    if bad_line:
        bad = draw(st.sampled_from(["7", "-3 4", "2 -1", " 5\t"]))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    gz = draw(st.booleans())
    block_lines = draw(st.sampled_from([1, 2, 3, 7, graph_io._BLOCK_LINES]))
    extra = draw(st.none() | st.integers(0, 3))
    return lines, gz, block_lines, extra


def _write(directory, lines, gz):
    text = "".join(line + "\n" for line in lines)
    path = os.path.join(directory, "g.txt.gz" if gz else "g.txt")
    with (gzip.open(path, "wt") if gz else open(path, "w")) as fh:
        fh.write(text)
    return path


def _read_both(lines, gz, block_lines, extra):
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, lines, gz)
        num_nodes = None
        try:
            if extra is not None:
                num_nodes = oracle.read_edge_list(path).num_nodes + extra
            want = oracle.read_edge_list(path, num_nodes)
        except ValueError as exc:
            want = str(exc)
        with mock.patch.object(graph_io, "_BLOCK_LINES", block_lines):
            try:
                got = graph_io.read_edge_list(path, num_nodes)
            except ValueError as exc:
                got = str(exc)
    return got, want


class TestReadEdgeList:
    @SETTINGS
    @given(edge_files())
    @example((["# only a comment", "", "% and another"], False, 2, None))
    @example(([], True, 1, None))
    @example((["3 3", "0 0"], False, 1, 0))
    def test_matches_line_parser(self, case):
        got, want = _read_both(*case)
        assert got == want

    @SETTINGS
    @given(edge_files(bad_line=True))
    def test_errors_name_the_same_line(self, case):
        got, want = _read_both(*case)
        assert isinstance(want, str)
        assert got == want


_OPS = st.sampled_from(["+", "-", "insert", "delete", "?"])


@st.composite
def event_streams(draw):
    """A small graph and ``(seq, op, u, v)`` events over a few pairs."""
    n = draw(st.integers(0, 8))
    pool = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(-1, n)),
                         min_size=1, max_size=6))
    edges = draw(st.lists(st.sampled_from(pool), max_size=8))
    graph = Graph.from_edges(n, [
        (u, v) for u, v in edges if 0 <= u < n and 0 <= v < n
    ])
    picks = draw(st.lists(st.tuples(_OPS, st.sampled_from(pool),
                                    st.booleans()), max_size=25))
    events = [
        (seq, op, *((v, u) if flip else (u, v)))
        for seq, (op, (u, v), flip) in enumerate(picks)
    ]
    return graph, events


class TestApplyEvents:
    @SETTINGS
    @given(event_streams())
    def test_matches_edge_set_replay(self, case):
        graph, events = case
        applied, got = _apply_events(graph, events)
        want_applied, want = oracle.apply_events(graph, events)
        assert (applied, got) == (want_applied, want)
        if not applied:
            assert got is graph

    @pytest.mark.parametrize("events, applied, edges", [
        # insert then delete the same pair: both count, nothing remains
        ([(0, "+", 2, 3), (1, "-", 3, 2)], 2, [(0, 1)]),
        # duplicate inserts count once; a present edge counts zero
        ([(0, "+", 2, 3), (1, "insert", 3, 2), (2, "+", 0, 1)], 1,
         [(0, 1), (2, 3)]),
        # self loops and out-of-range ids are skipped
        ([(0, "+", 2, 2), (1, "+", 0, 4), (2, "-", -1, 0)], 0, [(0, 1)]),
        # delete, re-insert, delete again: three changes
        ([(0, "-", 0, 1), (1, "+", 1, 0), (2, "delete", 0, 1)], 3, []),
    ], ids=["insert-then-delete", "duplicate-inserts", "skipped", "flip-flop"])
    def test_cases(self, events, applied, edges):
        graph = Graph.from_edges(4, [(0, 1)])
        got = _apply_events(graph, events)
        assert got == oracle.apply_events(graph, events)
        assert got == (applied, Graph.from_edges(4, edges))
