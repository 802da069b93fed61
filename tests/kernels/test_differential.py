"""Differential tests: the hot-path kernels vs their plain-Python oracles.

Property-based (Hypothesis) random graphs, partitions and seeds assert the
kernels are **bit-identical** to the references in
:mod:`tests.oracles.kernels`:

* ``W`` tables (:func:`repro.kernels.wtable.build_w_table`, one group or
  an iteration-wide table with re-keyed rows, vs the per-node dict loop),
  and the merge decisions of a ``GroupAdjacency`` that reads the oracle's
  dict ``W``,
* DOPH signature matrices (bulk kernel vs per-row scalar),
* ``EncodeResult`` — superedges, C+ and C− as *ordered* lists, through
  both :func:`~repro.core.encode.encode_sorted` and
  :func:`~repro.kernels.encode.encode_edge_arrays`,
* end-to-end LDME summaries, spans and counters with every oracle
  swapped in (:func:`tests.oracles.kernels.oracle_kernels`).

Any divergence — including iteration-order or tie-breaking drift — fails
here before it can silently change summary outputs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.divide import lsh_divide
from repro.core.encode import encode_sorted
from repro.core.ldme import LDME
from repro.core.merge import merge_group_exact
from repro.core.pairs import edge_list
from repro.core.partition import SupernodePartition
from repro.core.saving import GroupAdjacency
from repro.graph.graph import Graph
from repro.kernels import build_w_table, encode_edge_arrays
from repro.lsh.doph import doph_signatures_bulk
from repro.lsh.permutation import random_permutation

from ..oracles import kernels as oracle

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def graphs(draw, max_nodes=30, max_edges=90):
    """A small random simple graph (possibly with isolated nodes)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    num_edges = draw(st.integers(min_value=0, max_value=max_edges))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if n < 2 or num_edges == 0:
        return Graph.from_edges(n, [])
    src = rng.integers(0, n, size=num_edges)
    dst = rng.integers(0, n, size=num_edges)
    return Graph.from_edge_arrays(n, src, dst)


def random_partition(graph: Graph, seed: int) -> SupernodePartition:
    """A partition obtained by applying random merges to the singletons."""
    rng = np.random.default_rng(seed)
    partition = SupernodePartition(graph.num_nodes)
    merges = int(rng.integers(0, max(1, graph.num_nodes // 2)))
    for _ in range(merges):
        ids = list(partition.supernode_ids())
        if len(ids) < 2:
            break
        a, b = rng.choice(len(ids), size=2, replace=False)
        partition.merge(ids[int(a)], ids[int(b)])
    return partition


def oracle_adjacency(graph, partition, group):
    """A ``GroupAdjacency`` whose ``W`` is the oracle's dict."""
    adjacency = GroupAdjacency(graph, partition, group)
    adjacency.w = oracle.group_w(graph, partition, group)
    return adjacency


#: Encode shapes: runs the decision rule treats differently.
ENCODE_SHAPES = ("superloops", "complete", "bipartite", "isolated",
                 "empty", "random")


@st.composite
def encode_cases(draw):
    """``(graph, partition)`` of one :data:`ENCODE_SHAPES` shape.

    Supernodes are built by merging nodes in a random order, so member
    lists are not sorted and the C− order really follows them.
    """
    shape = draw(st.sampled_from(ENCODE_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if shape == "empty":
        n = draw(st.integers(min_value=0, max_value=6))
        return Graph.from_edges(n, []), SupernodePartition(n)
    if shape == "random":
        graph = draw(graphs())
        return graph, random_partition(graph, int(rng.integers(2**31)))
    if shape == "superloops":
        sizes = rng.choice([2, 3], size=int(rng.integers(1, 6)))
    elif shape == "bipartite":
        sizes = rng.integers(2, 9, size=2)
    else:
        sizes = rng.integers(1, 5, size=int(rng.integers(1, 5)))
    spare = int(rng.integers(0, 4)) if shape == "isolated" else 0
    n = int(sizes.sum()) + spare
    nodes = rng.permutation(n)
    blocks = np.split(nodes[: int(sizes.sum())], np.cumsum(sizes)[:-1])
    partition = SupernodePartition(n)
    for block in blocks:
        sid = int(block[0])
        for v in block[1:].tolist():
            sid, _ = partition.merge(sid, v)
    src, dst = [], []
    for x, a in enumerate(blocks):
        for b in blocks[x:]:
            uu, vv = np.meshgrid(a, b, indexing="ij")
            keep = uu.ravel() != vv.ravel()
            pairs = np.column_stack([uu.ravel()[keep], vv.ravel()[keep]])
            if shape == "complete":
                density = 1.0
            elif shape == "bipartite":
                # Just over half the block: a superedge with many C−.
                density = 0.55 if b is not a else 0.0
            else:
                density = rng.random()
            chosen = pairs[rng.random(len(pairs)) < density]
            src.extend(chosen[:, 0].tolist())
            dst.extend(chosen[:, 1].tolist())
    return Graph.from_edge_arrays(n, np.array(src, dtype=np.int64),
                                  np.array(dst, dtype=np.int64)), partition


# ---------------------------------------------------------------------------
# W construction
# ---------------------------------------------------------------------------


class TestWTableDifferential:
    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_group_w_identical(self, graph, seed):
        partition = random_partition(graph, seed)
        rng = np.random.default_rng(seed)
        ids = list(partition.supernode_ids())
        take = int(rng.integers(1, len(ids) + 1))
        group = [ids[int(i)] for i in
                 rng.choice(len(ids), size=take, replace=False)]
        reference = oracle.group_w(graph, partition, group)
        assert GroupAdjacency(graph, partition, group).w == reference
        one_group = build_w_table(graph, partition, [group])
        assert one_group.group_w(partition, group) == reference

    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_rekeyed_rows_match_fresh_build(self, graph, seed, num_groups):
        """A later group's rows, sliced after earlier groups merged, equal
        a fresh oracle build at that point."""
        partition = random_partition(graph, seed)
        rng = np.random.default_rng(seed)
        ids = list(partition.supernode_ids())
        rng.shuffle(ids)
        cuts = sorted(rng.integers(0, len(ids) + 1, size=num_groups - 1))
        groups = [g.tolist() for g in np.split(np.array(ids), cuts)]
        table = build_w_table(graph, partition, groups)
        for group in groups:
            adjacency = GroupAdjacency(graph, partition, group, table=table)
            assert adjacency.w == oracle.group_w(graph, partition, group)
            alive = list(group)
            for _ in range(int(rng.integers(0, len(alive) + 1))):
                if len(alive) < 2:
                    break
                a, b = rng.choice(len(alive), size=2, replace=False)
                survivor, absorbed = partition.merge(
                    alive[int(a)], alive[int(b)]
                )
                adjacency.apply_merge(survivor, absorbed)
                alive.remove(absorbed)

    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_w_stays_identical_through_merges(self, graph, seed):
        """apply_merge keeps the kernel's and the oracle's W in lockstep."""
        partition_a = random_partition(graph, seed)
        partition_b = partition_a.copy()
        group = list(partition_a.supernode_ids())
        ref = oracle_adjacency(graph, partition_a, group)
        ker = GroupAdjacency(graph, partition_b, group)
        rng = np.random.default_rng(seed + 1)
        for _ in range(min(4, len(group) - 1)):
            ids = list(ref.w)
            if len(ids) < 2:
                break
            a, b = rng.choice(len(ids), size=2, replace=False)
            sa, xa = partition_a.merge(ids[int(a)], ids[int(b)])
            sb, xb = partition_b.merge(ids[int(a)], ids[int(b)])
            assert (sa, xa) == (sb, xb)
            ref.apply_merge(sa, xa)
            ker.apply_merge(sb, xb)
            assert ref.w == ker.w

    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_saving_and_merge_decisions_identical(self, graph, seed):
        partition_a = random_partition(graph, seed)
        partition_b = partition_a.copy()
        group = list(partition_a.supernode_ids())
        if len(group) < 2:
            return
        with oracle.oracle_kernels():
            stats_a = merge_group_exact(
                graph, partition_a, list(group), 0.2,
                seed=np.random.default_rng(seed),
            )
        stats_b = merge_group_exact(
            graph, partition_b, list(group), 0.2,
            seed=np.random.default_rng(seed),
        )
        assert stats_a.merges == stats_b.merges
        assert stats_a.candidates_scored == stats_b.candidates_scored
        assert partition_a.members_map() == partition_b.members_map()


# ---------------------------------------------------------------------------
# DOPH signatures
# ---------------------------------------------------------------------------


class TestDophDifferential:
    @given(
        st.integers(min_value=1, max_value=24),   # universe size
        st.integers(min_value=1, max_value=8),    # k
        st.integers(min_value=0, max_value=6),    # rows
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_bulk_backends_identical(self, n, k, rows, seed):
        rng = np.random.default_rng(seed)
        perm = random_permutation(n, rng)
        directions = rng.integers(0, 2, size=k).astype(np.int64)
        num_items = int(rng.integers(0, 4 * rows)) if rows else 0
        row_ids = rng.integers(0, max(1, rows), size=num_items)
        item_ids = rng.integers(0, n, size=num_items)
        ref = oracle.doph_signatures_bulk(
            row_ids, item_ids, rows, perm, k, directions
        )
        ker = doph_signatures_bulk(
            row_ids, item_ids, rows, perm, k, directions
        )
        assert np.array_equal(ref, ker)

    @given(graphs(), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_divide_groups_identical(self, graph, k, seed):
        partition = random_partition(graph, seed)
        ga, sa = lsh_divide(graph, partition, k, seed=seed)
        with oracle.oracle_kernels():
            gb, sb = lsh_divide(graph, partition, k, seed=seed)
        assert ga == gb
        assert sa == sb


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------


def _assert_encode_matches_oracle(graph, partition):
    reference = oracle.encode_sorted(graph, partition)
    expected = (reference.superedges, reference.corrections.additions,
                reference.corrections.deletions)
    result = encode_sorted(graph, partition)
    assert (result.superedges, result.corrections.additions,
            result.corrections.deletions) == expected
    src, dst = graph.edge_arrays()
    arrays = encode_edge_arrays(src, dst, graph.num_nodes, partition)
    assert tuple(edge_list(pairs) for pairs in arrays) == expected


class TestEncodeDifferential:
    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_encode_result_identical(self, graph, seed):
        _assert_encode_matches_oracle(graph, random_partition(graph, seed))

    @given(encode_cases())
    @settings(max_examples=150, deadline=None)
    def test_encode_shapes_identical(self, case):
        """Superloops of 2 and 3, complete blocks, C−-heavy bipartite
        runs, isolated nodes and the empty graph: same lists, same order."""
        _assert_encode_matches_oracle(*case)


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


class TestEndToEndDifferential:
    @given(graphs(max_nodes=24, max_edges=60),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_summaries_identical_across_backends(self, graph, k, seed):
        with oracle.oracle_kernels():
            ref = LDME(k=k, iterations=4, seed=seed).summarize(graph)
        ker = LDME(k=k, iterations=4, seed=seed).summarize(graph)
        assert ref.objective == ker.objective
        assert ref.superedges == ker.superedges
        assert ref.corrections.additions == ker.corrections.additions
        assert ref.corrections.deletions == ker.corrections.deletions
        assert ref.partition.members_map() == ker.partition.members_map()


# ---------------------------------------------------------------------------
# Observability differential: identical traces and counters
# ---------------------------------------------------------------------------


class TestObservabilityDifferential:
    """A run on the oracles must be *observably* identical to a production
    run, not just in its output: same span tree (same span ids) with the
    same attributes, and the same pipeline counter values. Drift here
    would poison the golden-trace oracle, so it is checked with the same
    Hypothesis inputs as the output differential above."""

    @staticmethod
    def _run_observed(graph, k, seed, kernels):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        tracer = Tracer(seed=seed)
        registry = MetricsRegistry()
        with oracle.KERNELS[kernels](), obs_trace.use(tracer), \
                obs_metrics.use(registry):
            LDME(k=k, iterations=3, seed=seed).summarize(graph)
        return tracer, registry

    COUNTERS = (
        "ldme_merges_accepted_total",
        "ldme_merge_candidates_scored_total",
        "ldme_superedges_total",
        "ldme_correction_additions_total",
        "ldme_correction_deletions_total",
    )

    @given(graphs(max_nodes=20, max_edges=50),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_span_structure_and_ids_identical(self, graph, k, seed):
        ref_trace, _ = self._run_observed(graph, k, seed, "python")
        ker_trace, _ = self._run_observed(graph, k, seed, "numpy")

        def facts(tracer):
            return {
                (s.name, s.key, s.span_id, s.parent_id)
                for s in tracer.spans
            }

        assert facts(ref_trace) == facts(ker_trace)

    @given(graphs(max_nodes=20, max_edges=50),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_counters_identical(self, graph, k, seed):
        _, ref_metrics = self._run_observed(graph, k, seed, "python")
        _, ker_metrics = self._run_observed(graph, k, seed, "numpy")
        for name in self.COUNTERS:
            assert ref_metrics.counter(name) == ker_metrics.counter(name), name

    @given(graphs(max_nodes=20, max_edges=50),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_span_attributes_differ_only_in_backend(self, graph, k, seed):
        """No span names a backend any more, so nothing may differ."""
        ref_trace, _ = self._run_observed(graph, k, seed, "python")
        ker_trace, _ = self._run_observed(graph, k, seed, "numpy")

        def attributes(tracer):
            return {
                s.span_id: (s.name, s.key, dict(s.attributes))
                for s in tracer.spans
            }

        spans = attributes(ker_trace)
        assert attributes(ref_trace) == spans
        for _, _, attrs in spans.values():
            assert "backend" not in attrs and "kernels" not in attrs
