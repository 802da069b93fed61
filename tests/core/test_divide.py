"""Tests for the divide step (weighted LSH and shingle)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.divide import lsh_divide, shingle_divide
from repro.core.partition import SupernodePartition
from repro.graph.generators import web_host_graph
from repro.graph.graph import Graph


class TestLSHDivide:
    def test_groups_are_disjoint_supernodes(self, small_web):
        part = SupernodePartition(small_web.num_nodes)
        groups, _ = lsh_divide(small_web, part, k=5, seed=0)
        seen = [sid for group in groups for sid in group]
        assert len(seen) == len(set(seen))
        assert all(sid in part for sid in seen)

    def test_identical_neighborhood_nodes_grouped(self, star):
        # All 5 leaves have the identical neighbourhood {0}: every k must
        # put them in one group.
        part = SupernodePartition(6)
        groups, _ = lsh_divide(star, part, k=4, seed=1)
        leaf_groups = [g for g in groups if set(g) & set(range(1, 6))]
        assert len(leaf_groups) == 1
        assert set(leaf_groups[0]) >= {1, 2, 3, 4, 5}

    def test_isolated_supernodes_excluded(self):
        g = Graph.from_edges(5, [(0, 1)])
        part = SupernodePartition(5)
        groups, stats = lsh_divide(g, part, k=3, seed=0)
        assert stats.num_isolated == 3
        grouped = {sid for group in groups for sid in group}
        assert grouped <= {0, 1}

    def test_groups_have_at_least_two(self, small_web):
        part = SupernodePartition(small_web.num_nodes)
        groups, _ = lsh_divide(small_web, part, k=5, seed=0)
        assert all(len(group) >= 2 for group in groups)

    def test_increasing_k_more_groups_smaller_max(self):
        graph = web_host_graph(num_hosts=20, host_size=30,
                               mutation_prob=0.15, seed=4)
        part = SupernodePartition(graph.num_nodes)
        shapes = {
            k: lsh_divide(graph, part, k=k, seed=0)[1] for k in (2, 20)
        }
        assert shapes[20].num_groups > shapes[2].num_groups
        assert shapes[20].max_group_size <= shapes[2].max_group_size

    def test_stats_consistency(self, small_web):
        part = SupernodePartition(small_web.num_nodes)
        groups, stats = lsh_divide(small_web, part, k=5, seed=0)
        assert stats.num_mergeable == len(groups)
        assert stats.num_groups == stats.num_mergeable + stats.num_singletons
        grouped = sum(len(g) for g in groups)
        assert (
            grouped + stats.num_singletons + stats.num_isolated
            == part.num_supernodes
        )

    def test_invalid_k(self, small_web):
        with pytest.raises(ValueError):
            lsh_divide(small_web, SupernodePartition(small_web.num_nodes), k=0)

    def test_respects_partition_not_nodes(self, star):
        # After merging leaves 1 and 2, the divide sees 5 supernodes.
        part = SupernodePartition(6)
        part.merge(1, 2)
        groups, stats = lsh_divide(star, part, k=3, seed=0)
        total = sum(len(g) for g in groups) + stats.num_singletons
        assert total + stats.num_isolated == 5

    def test_deterministic_given_seed(self, small_web):
        part = SupernodePartition(small_web.num_nodes)
        a, _ = lsh_divide(small_web, part, k=5, seed=9)
        b, _ = lsh_divide(small_web, part, k=5, seed=9)
        assert sorted(map(sorted, a)) == sorted(map(sorted, b))

    def test_memory_peak_per_edge(self):
        # One divide at the singleton partition of a 300-host web graph
        # (~2.5e5 edges, the perf ledger's web parameters). Nothing
        # edge-sized is sorted, so the traced peak stays within 48 bytes
        # per edge; numbering by np.unique over the CSR heads took ~115.
        graph = web_host_graph(
            num_hosts=300, host_size=60, links_per_template=16,
            mutation_prob=0.05, inter_edges_per_host=8, seed=1,
        )
        part = SupernodePartition(graph.num_nodes)
        tracemalloc.start()
        try:
            lsh_divide(graph, part, k=5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.num_edges > 200_000
        assert peak <= 48 * graph.num_edges


class TestShingleDivide:
    def test_groups_cover_non_isolated(self, small_web):
        part = SupernodePartition(small_web.num_nodes)
        groups, stats = shingle_divide(small_web, part, seed=0)
        grouped = sum(len(g) for g in groups)
        assert (
            grouped + stats.num_singletons + stats.num_isolated
            == part.num_supernodes
        )

    def test_fewer_groups_than_lsh(self):
        # One shingle is a far coarser divide than a k-bin signature.
        graph = web_host_graph(num_hosts=20, host_size=30, seed=4)
        part = SupernodePartition(graph.num_nodes)
        _, shingle_stats = shingle_divide(graph, part, seed=0)
        _, lsh_stats = lsh_divide(graph, part, k=10, seed=0)
        assert shingle_stats.max_group_size >= lsh_stats.max_group_size

    def test_isolated_excluded(self):
        g = Graph.from_edges(4, [(0, 1)])
        _, stats = shingle_divide(g, SupernodePartition(4), seed=0)
        assert stats.num_isolated == 2

    def test_resplit_bounds_group_size(self):
        graph = web_host_graph(num_hosts=10, host_size=40, seed=2)
        part = SupernodePartition(graph.num_nodes)
        groups, _ = shingle_divide(graph, part, seed=0, max_group_size=12)
        # Indivisible groups may stay large, but most must be bounded.
        oversized = [g for g in groups if len(g) > 12]
        baseline, _ = shingle_divide(graph, part, seed=0)
        assert len(oversized) <= sum(1 for g in baseline if len(g) > 12)
        assert max(len(g) for g in groups) <= max(len(g) for g in baseline)

    def test_star_nodes_sharing_hub_minimum_group_together(self, star):
        # f(v) = min(h(v), h(hub)): every leaf whose own hash exceeds the
        # hub's shares the hub's shingle, so the hub's group contains every
        # such leaf (and the divide still covers all supernodes).
        part = SupernodePartition(6)
        groups, stats = shingle_divide(star, part, seed=3)
        covered = sum(len(g) for g in groups) + stats.num_singletons
        assert covered == 6
        hub_groups = [g for g in groups if 0 in g]
        if hub_groups:
            assert len(hub_groups) == 1
            assert len(hub_groups[0]) >= 2
