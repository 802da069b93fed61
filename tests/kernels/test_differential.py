"""Differential tests: numpy kernels vs the pure-Python reference.

Property-based (Hypothesis) random graphs, partitions and seeds assert the
vectorized kernels in :mod:`repro.kernels` are **bit-identical** to the
reference implementations they replace:

* ``W`` tables (:func:`repro.kernels.wtable.build_w_table`, one group or
  an iteration-wide table with re-keyed rows, vs the ``GroupAdjacency``
  dict loop),
* DOPH signature matrices (bulk numpy vs bulk python vs per-row scalar),
* ``EncodeResult`` — superedges, C+ and C− as *ordered* lists,
* end-to-end LDME summaries under both backends.

These tests are the safety net that lets the numpy backend be the default:
any divergence — including iteration-order or tie-breaking drift — fails
here before it can silently change summary outputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.divide import lsh_divide
from repro.core.encode import encode_sorted
from repro.core.ldme import LDME
from repro.core.merge import merge_group_exact
from repro.core.partition import SupernodePartition
from repro.core.saving import GroupAdjacency
from repro.graph.graph import Graph
from repro.kernels import build_w_table
from repro.kernels.doph import (
    doph_signatures_bulk_numpy,
    doph_signatures_bulk_python,
)
from repro.kernels.encode import encode_sorted_numpy
from repro.lsh.permutation import random_permutation

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
        reference = GroupAdjacency(graph, partition, group, kernels="python")
        kernel = GroupAdjacency(graph, partition, group, kernels="numpy")
        assert reference.w == kernel.w
        one_group = build_w_table(graph, partition, [group])
        assert one_group.group_w(partition, group) == reference.w

    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_rekeyed_rows_match_fresh_build(self, graph, seed, num_groups):
        """A later group's rows, sliced after earlier groups merged, equal
        a fresh reference build at that point."""
        partition = random_partition(graph, seed)
        rng = np.random.default_rng(seed)
        ids = list(partition.supernode_ids())
        rng.shuffle(ids)
        cuts = sorted(rng.integers(0, len(ids) + 1, size=num_groups - 1))
        groups = [g.tolist() for g in np.split(np.array(ids), cuts)]
        table = build_w_table(graph, partition, groups)
        for group in groups:
            adjacency = GroupAdjacency(
                graph, partition, group, kernels="numpy", table=table
            )
            fresh = GroupAdjacency(graph, partition, group, kernels="python")
            assert adjacency.w == fresh.w
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
        """apply_merge (shared fold update) keeps both backends in lockstep."""
        partition_a = random_partition(graph, seed)
        partition_b = partition_a.copy()
        group = list(partition_a.supernode_ids())
        ref = GroupAdjacency(graph, partition_a, group, kernels="python")
        ker = GroupAdjacency(graph, partition_b, group, kernels="numpy")
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
        stats_a = merge_group_exact(
            graph, partition_a, list(group), 0.2,
            seed=np.random.default_rng(seed), kernels="python",
        )
        stats_b = merge_group_exact(
            graph, partition_b, list(group), 0.2,
            seed=np.random.default_rng(seed), kernels="numpy",
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
        st.sampled_from(["rotation", "optimal"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bulk_backends_identical(self, n, k, rows, seed, densification):
        rng = np.random.default_rng(seed)
        perm = random_permutation(n, rng)
        directions = rng.integers(0, 2, size=k).astype(np.int64)
        num_items = int(rng.integers(0, 4 * rows)) if rows else 0
        row_ids = rng.integers(0, max(1, rows), size=num_items)
        item_ids = rng.integers(0, n, size=num_items)
        ref = doph_signatures_bulk_python(
            row_ids, item_ids, rows, perm, k, directions,
            densification=densification,
        )
        ker = doph_signatures_bulk_numpy(
            row_ids, item_ids, rows, perm, k, directions,
            densification=densification,
        )
        assert np.array_equal(ref, ker)

    @given(graphs(), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_divide_groups_identical(self, graph, k, seed):
        partition = random_partition(graph, seed)
        ga, sa = lsh_divide(graph, partition, k, seed=seed, kernels="numpy")
        gb, sb = lsh_divide(graph, partition, k, seed=seed, kernels="python")
        assert ga == gb
        assert sa == sb


# ---------------------------------------------------------------------------
# Encode
# ---------------------------------------------------------------------------


class TestEncodeDifferential:
    @given(graphs(), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_encode_result_identical(self, graph, seed):
        partition = random_partition(graph, seed)
        reference = encode_sorted(graph, partition, backend="python")
        kernel = encode_sorted_numpy(graph, partition)
        assert reference.superedges == kernel.superedges
        assert reference.corrections.additions == kernel.corrections.additions
        assert reference.corrections.deletions == kernel.corrections.deletions


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


class TestEndToEndDifferential:
    @given(graphs(max_nodes=24, max_edges=60),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_summaries_identical_across_backends(self, graph, k, seed):
        ref = LDME(k=k, iterations=4, seed=seed,
                   kernels="python").summarize(graph)
        ker = LDME(k=k, iterations=4, seed=seed,
                   kernels="numpy").summarize(graph)
        assert ref.objective == ker.objective
        assert ref.superedges == ker.superedges
        assert ref.corrections.additions == ker.corrections.additions
        assert ref.corrections.deletions == ker.corrections.deletions
        assert ref.partition.members_map() == ker.partition.members_map()

    def test_invalid_backend_rejected(self):
        graph = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="kernels"):
            LDME(kernels="cython")
        with pytest.raises(ValueError, match="kernels"):
            GroupAdjacency(graph, SupernodePartition(3), [0], kernels="jax")
        with pytest.raises(ValueError, match="backend"):
            encode_sorted(graph, SupernodePartition(3), backend="jax")


# ---------------------------------------------------------------------------
# Observability differential: identical traces and counters
# ---------------------------------------------------------------------------


class TestObservabilityDifferential:
    """The two backends must be *observably* identical, not just in their
    outputs: same span tree (same span ids — the run span key is
    deliberately backend-free) and the same pipeline counter values.
    Instrumentation drift between backends would poison the golden-trace
    oracle, so it is checked with the same Hypothesis inputs as the
    output differential above."""

    @staticmethod
    def _run_observed(graph, k, seed, kernels):
        from repro.obs import metrics as obs_metrics
        from repro.obs import trace as obs_trace
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        tracer = Tracer(seed=seed)
        registry = MetricsRegistry()
        with obs_trace.use(tracer), obs_metrics.use(registry):
            LDME(k=k, iterations=3, seed=seed,
                 kernels=kernels).summarize(graph)
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
        ref_trace, _ = self._run_observed(graph, k, seed, "python")
        ker_trace, _ = self._run_observed(graph, k, seed, "numpy")

        def normalized(tracer):
            spans = {}
            for s in tracer.spans:
                attrs = {
                    key: value for key, value in s.attributes.items()
                    if key not in ("backend", "kernels")
                }
                spans[s.span_id] = (s.name, s.key, attrs)
            return spans

        assert normalized(ref_trace) == normalized(ker_trace)
