"""Tests for distributed execution of summarizers."""

import pytest

from repro.baselines.sweg import SWeG
from repro.core.ldme import LDME
from repro.core.reconstruct import verify_lossless
from repro.distributed import ClusterSpec, run_distributed


class TestCorrectness:
    def test_output_lossless(self, small_web):
        run = run_distributed(
            LDME(k=5, iterations=5, seed=0), small_web,
            ClusterSpec(num_workers=4),
        )
        verify_lossless(small_web, run.summarization)

    @pytest.mark.parametrize("make", [
        lambda: LDME(k=5, iterations=5, seed=3),
        lambda: LDME(k=5, iterations=5, seed=3, epsilon=0.3),
        lambda: LDME(k=5, iterations=20, seed=3, early_stop_rounds=1),
        lambda: SWeG(iterations=3, seed=3),
    ], ids=["lossless", "lossy", "early-stop", "sweg"])
    def test_matches_serial_result(self, small_web, make):
        # The simulated run is the serial driver itself, so the same seed
        # gives the same summary, lossy drop and early stop included.
        serial = make().summarize(small_web)
        distributed = run_distributed(
            make(), small_web, ClusterSpec(num_workers=8)
        ).summarization
        assert distributed.objective == serial.objective
        assert sorted(distributed.superedges) == sorted(serial.superedges)
        assert sorted(distributed.corrections.additions) == sorted(
            serial.corrections.additions
        )
        assert sorted(distributed.corrections.deletions) == sorted(
            serial.corrections.deletions
        )
        assert len(distributed.stats.iterations) == len(
            serial.stats.iterations
        )

    def test_instance_unwrapped_after_run(self, small_web):
        algo = LDME(k=5, iterations=2, seed=0)
        run_distributed(algo, small_web, ClusterSpec(num_workers=2))
        assert "merge_one_group" not in vars(algo)

    def test_sweg_runs_distributed(self, small_web):
        run = run_distributed(
            SWeG(iterations=3, seed=0), small_web, ClusterSpec(num_workers=4)
        )
        verify_lossless(small_web, run.summarization)
        assert run.summarization.algorithm == "SWeG-distributed"


class TestAccounting:
    def test_simulated_time_positive(self, small_web):
        run = run_distributed(
            LDME(k=5, iterations=3, seed=0), small_web,
            ClusterSpec(num_workers=4),
        )
        assert run.simulated_seconds > 0
        assert run.serial_seconds > 0
        assert run.num_workers == 4

    def test_speedup_bounded_by_workers(self, small_web):
        run = run_distributed(
            LDME(k=5, iterations=3, seed=0), small_web,
            ClusterSpec(num_workers=4, round_overhead=0.0, task_overhead=0.0),
        )
        assert 0 < run.speedup <= 4.0 + 1e-6

    def test_zero_overhead_more_speedup(self, small_web):
        lean = run_distributed(
            LDME(k=5, iterations=3, seed=0), small_web,
            ClusterSpec(num_workers=8, round_overhead=0.0, task_overhead=0.0),
        )
        heavy = run_distributed(
            LDME(k=5, iterations=3, seed=0), small_web,
            ClusterSpec(num_workers=8, round_overhead=0.5, task_overhead=0.01),
        )
        assert lean.simulated_seconds < heavy.simulated_seconds

    def test_stats_carry_simulated_times(self, small_web):
        run = run_distributed(
            LDME(k=5, iterations=3, seed=0), small_web,
            ClusterSpec(num_workers=4),
        )
        stats = run.summarization.stats
        assert len(stats.iterations) == 3
        assert stats.total_seconds > 0
