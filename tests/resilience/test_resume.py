"""Kill-and-resume: interrupted runs finish bit-identical to uninterrupted.

The acceptance property for the checkpoint subsystem: for any interrupt
point, a resumed run must produce the *same* |P|, |C+|, |C-| — in fact
the same partition, superedges and corrections verbatim — as a run that
was never interrupted. Covered three ways: in-process interrupts at every
boundary, a real SIGKILL of a child process, and a Hypothesis sweep over
seeds × interrupt points × checkpoint cadence.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ldme import LDME
from repro.core.reconstruct import verify_lossless
from repro.errors import CheckpointError
from repro.graph.generators import web_host_graph
from repro.resilience import CheckpointManager, flip_bit, run_resumable

ITERATIONS = 4


class Interrupt(Exception):
    """Simulated crash raised from the iteration hook."""


def small_graph(seed=1):
    return web_host_graph(num_hosts=4, host_size=8, seed=seed)


def make_algo(seed=3, **kwargs):
    kwargs.setdefault("k", 4)
    kwargs.setdefault("iterations", ITERATIONS)
    return LDME(seed=seed, **kwargs)


def crash_then_resume(graph, ckpt_dir, crash_at, checkpoint_every=1,
                      algo_factory=make_algo):
    """Run until ``crash_at`` iterations complete, die, resume, finish."""

    def boom(state):
        if state.iteration == crash_at:
            raise Interrupt()

    with pytest.raises(Interrupt):
        run_resumable(
            algo_factory(), graph, ckpt_dir,
            checkpoint_every=checkpoint_every, iteration_hook=boom,
        )
    return run_resumable(
        algo_factory(), graph, ckpt_dir, checkpoint_every=checkpoint_every
    )


def assert_identical(a, b):
    assert a.partition.members_map() == b.partition.members_map()
    assert a.superedges == b.superedges
    assert a.corrections.additions == b.corrections.additions
    assert a.corrections.deletions == b.corrections.deletions


class TestInProcessResume:
    @pytest.mark.parametrize("crash_at", [1, 2, 3, ITERATIONS])
    def test_resume_bit_identical(self, tmp_path, crash_at):
        graph = small_graph()
        baseline = make_algo().summarize(graph)
        resumed = crash_then_resume(graph, tmp_path / "c", crash_at)
        assert_identical(resumed, baseline)
        verify_lossless(graph, resumed)

    def test_sparse_checkpoints_resume(self, tmp_path):
        # checkpoint_every=2 → crash at iter 3 resumes from iter 2.
        graph = small_graph()
        baseline = make_algo().summarize(graph)
        resumed = crash_then_resume(
            graph, tmp_path / "c", crash_at=3, checkpoint_every=2
        )
        assert_identical(resumed, baseline)

    def test_corrupt_newest_checkpoint_still_identical(self, tmp_path):
        graph = small_graph()
        baseline = make_algo().summarize(graph)
        manager = CheckpointManager(tmp_path / "c")

        def boom(state):
            if state.iteration == 3:
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_resumable(make_algo(), graph, manager, iteration_hook=boom)
        # Damage the newest checkpoint: resume falls back to iteration 2
        # and must still converge to the identical result.
        newest = manager.entries()[-1]
        flip_bit(os.path.join(manager.directory, newest.file))
        resumed = run_resumable(make_algo(), graph, manager)
        assert_identical(resumed, baseline)

    def test_resume_false_ignores_checkpoints(self, tmp_path):
        graph = small_graph()
        with pytest.raises(Interrupt):
            run_resumable(
                make_algo(), graph, tmp_path / "c",
                iteration_hook=lambda s: (_ for _ in ()).throw(Interrupt()),
            )
        result = run_resumable(
            make_algo(), graph, tmp_path / "c", resume=False
        )
        assert_identical(result, make_algo().summarize(graph))

    def test_completed_run_resumes_to_same_result(self, tmp_path):
        # Re-running over a finished checkpoint dir skips straight to
        # encode and reproduces the result (idempotent restarts).
        graph = small_graph()
        first = run_resumable(make_algo(), graph, tmp_path / "c")
        second = run_resumable(make_algo(), graph, tmp_path / "c")
        assert_identical(first, second)

    @pytest.mark.parametrize("retired", [
        "shm_fallbacks", "worker_failures", "batch_timeouts",
        "batch_retries", "serial_fallbacks",
    ])
    def test_checkpoint_with_retired_stats_field_resumes(self, tmp_path,
                                                         retired):
        # Checkpoints written before the shared-memory transport and the
        # parallel merge were removed carry counters that RunStats no
        # longer defines; stats never steer the trajectory, so the resume
        # must accept the payload and stay bit-identical.
        graph = small_graph()
        baseline = make_algo().summarize(graph)
        manager = CheckpointManager(tmp_path / "c")

        def boom(state):
            if state.iteration == 2:
                raise Interrupt()

        with pytest.raises(Interrupt):
            run_resumable(make_algo(), graph, manager, iteration_hook=boom)
        loaded = manager.load_latest()
        assert loaded.iteration == 2
        payload = loaded.payload
        payload["stats"][retired] = 0
        manager.save(loaded.iteration, payload)
        resumed = run_resumable(make_algo(), graph, manager)
        assert_identical(resumed, baseline)

    def test_early_stop_resume(self, tmp_path):
        graph = small_graph()

        def factory():
            return make_algo(iterations=8, early_stop_rounds=2)

        baseline = factory().summarize(graph)
        stopped_at = baseline.stats.iterations[-1].iteration
        resumed = crash_then_resume(
            graph, tmp_path / "c", crash_at=max(1, stopped_at - 1),
            algo_factory=factory,
        )
        assert_identical(resumed, baseline)


class TestFingerprintGuard:
    def test_different_seed_rejected(self, tmp_path):
        graph = small_graph()
        run_resumable(make_algo(seed=3), graph, tmp_path / "c")
        with pytest.raises(CheckpointError, match="different"):
            run_resumable(make_algo(seed=4), graph, tmp_path / "c")

    def test_different_graph_rejected(self, tmp_path):
        run_resumable(make_algo(), small_graph(seed=1), tmp_path / "c")
        with pytest.raises(CheckpointError, match="different"):
            run_resumable(make_algo(), small_graph(seed=2), tmp_path / "c")

    def test_mismatch_escape_hatch(self, tmp_path):
        graph = small_graph()
        run_resumable(make_algo(seed=3), graph, tmp_path / "c")
        result = run_resumable(
            make_algo(seed=4), graph, tmp_path / "c", resume=False
        )
        assert_identical(result, make_algo(seed=4).summarize(graph))


class TestSigkillResume:
    def test_killed_process_resumes_bit_identical(self, tmp_path):
        """A child hard-killed mid-run (SIGKILL, no cleanup) leaves a
        checkpoint directory the parent resumes to the exact result."""
        ckpt_dir = tmp_path / "c"
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.core.ldme import LDME
            from repro.graph.generators import web_host_graph
            from repro.resilience import run_resumable

            graph = web_host_graph(num_hosts=4, host_size=8, seed=1)

            def die(state):
                if state.iteration == 2:
                    os.kill(os.getpid(), signal.SIGKILL)

            run_resumable(
                LDME(k=4, iterations={ITERATIONS}, seed=3), graph,
                {str(ckpt_dir)!r}, iteration_hook=die,
            )
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, timeout=120,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        manager = CheckpointManager(ckpt_dir)
        assert manager.load_latest() is not None

        graph = small_graph()
        resumed = run_resumable(make_algo(), graph, ckpt_dir)
        baseline = make_algo().summarize(graph)
        assert_identical(resumed, baseline)
        verify_lossless(graph, resumed)


class TestResumeProperty:
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 50),
        crash_at=st.integers(1, ITERATIONS),
        checkpoint_every=st.integers(1, 3),
    )
    def test_any_interrupt_point_is_bit_identical(
        self, tmp_path, seed, crash_at, checkpoint_every
    ):
        graph = small_graph()
        unique = tmp_path / f"c_{seed}_{crash_at}_{checkpoint_every}"
        baseline = make_algo(seed=seed).summarize(graph)
        resumed = crash_then_resume(
            graph, unique, crash_at, checkpoint_every=checkpoint_every,
            algo_factory=lambda: make_algo(seed=seed),
        )
        assert_identical(resumed, baseline)
