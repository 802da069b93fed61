"""Tests for the merge phase (threshold, exact and SuperJaccard loops)."""

import pytest

from repro.core.ldme import LDME
from repro.core.merge import (
    merge_group_exact,
    merge_group_superjaccard,
    merge_threshold,
    super_jaccard,
)
from repro.core.partition import SupernodePartition
from repro.kernels import wtable
from repro.graph.generators import web_host_graph
from repro.graph.graph import Graph


class TestThreshold:
    def test_schedule_values(self):
        assert merge_threshold(1) == pytest.approx(0.5)
        assert merge_threshold(4) == pytest.approx(0.2)

    def test_decreasing(self):
        values = [merge_threshold(t) for t in range(1, 20)]
        assert values == sorted(values, reverse=True)

    def test_invalid_iteration(self):
        with pytest.raises(ValueError):
            merge_threshold(0)


class TestSuperJaccard:
    def test_equals_weighted_jaccard_identity(self):
        a = {1: 2, 2: 1}
        b = {1: 1, 3: 1}
        # min 1 / max (2 + 1 + 1)
        assert super_jaccard(a, b) == pytest.approx(1 / 4)

    def test_identical_vectors(self):
        assert super_jaccard({1: 3}, {1: 3}) == 1.0


class TestMergeGroupExact:
    def test_merges_identical_twins(self, star):
        part = SupernodePartition(6)
        stats = merge_group_exact(
            star, part, [1, 2, 3, 4, 5], threshold=0.4, seed=0
        )
        assert stats.merges >= 1
        part.validate()

    def test_high_threshold_blocks_merges(self, path4):
        part = SupernodePartition(4)
        stats = merge_group_exact(path4, part, [0, 3], threshold=0.99, seed=0)
        assert stats.merges == 0
        assert part.num_supernodes == 4

    def test_threshold_respected(self, star):
        # Twin-leaf saving is exactly 0.5; a threshold just above blocks it.
        part = SupernodePartition(6)
        stats = merge_group_exact(star, part, [1, 2], threshold=0.51, seed=0)
        assert stats.merges == 0
        part2 = SupernodePartition(6)
        stats2 = merge_group_exact(star, part2, [1, 2], threshold=0.5, seed=0)
        assert stats2.merges == 1

    def test_small_group_noop(self, star):
        part = SupernodePartition(6)
        stats = merge_group_exact(star, part, [1], threshold=0.0, seed=0)
        assert stats.merges == 0
        assert stats.candidates_scored == 0

    def test_chained_merges_within_group(self):
        # 4 leaves with identical neighbourhood can collapse repeatedly.
        g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        part = SupernodePartition(5)
        stats = merge_group_exact(
            g, part, [1, 2, 3, 4], threshold=0.1, seed=1
        )
        assert stats.merges >= 2
        part.validate()

    def test_partition_stays_valid_on_web(self, small_web, rng):
        part = SupernodePartition(small_web.num_nodes)
        group = list(range(0, 24))
        merge_group_exact(small_web, part, group, threshold=0.2, seed=rng)
        part.validate()


class TestMergeGroupSuperJaccard:
    def test_merges_identical_twins(self, star):
        part = SupernodePartition(6)
        stats = merge_group_superjaccard(
            star, part, [1, 2, 3, 4, 5], threshold=0.4, seed=0
        )
        assert stats.merges >= 1
        part.validate()

    def test_counts_candidates(self, star):
        part = SupernodePartition(6)
        stats = merge_group_superjaccard(
            star, part, [1, 2, 3], threshold=0.99, seed=0
        )
        assert stats.candidates_scored >= 2

    def test_vector_folding_after_merge(self, two_cliques):
        part = SupernodePartition(8)
        stats = merge_group_superjaccard(
            two_cliques, part, [1, 2, 3], threshold=0.3, seed=0
        )
        part.validate()
        if stats.merges:
            assert part.num_supernodes == 8 - stats.merges

    def test_same_outcome_space_as_exact(self, small_web):
        # Both policies must produce valid partitions of the same node set.
        for fn in (merge_group_exact, merge_group_superjaccard):
            part = SupernodePartition(small_web.num_nodes)
            fn(small_web, part, list(range(12)), threshold=0.2, seed=7)
            part.validate()


class TestMergeStatsAccumulation:
    def test_iadd(self):
        from repro.core.merge import MergeStats

        a = MergeStats(merges=1, candidates_scored=5)
        a += MergeStats(merges=2, candidates_scored=7)
        assert a.merges == 3
        assert a.candidates_scored == 12


class TestWTableAmortization:
    def test_one_table_build_per_mergeable_iteration(self, monkeypatch):
        graph = web_host_graph(num_hosts=6, host_size=12, seed=3)
        builds = []
        real_build = wtable.build_w_table

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        mergeable_iterations = []
        real_divide = LDME.divide

        def recording_divide(self, *args, **kwargs):
            groups, stats = real_divide(self, *args, **kwargs)
            mergeable_iterations.append(any(len(g) >= 2 for g in groups))
            return groups, stats

        monkeypatch.setattr(wtable, "build_w_table", counting_build)
        monkeypatch.setattr(LDME, "divide", recording_divide)
        result = LDME(k=5, iterations=3, seed=0).summarize(graph)
        assert len(mergeable_iterations) == 3
        assert sum(mergeable_iterations) > 0
        assert len(builds) == sum(mergeable_iterations)
        assert result.num_supernodes < graph.num_nodes
