"""Golden-trace suite: the span tree is a pinned regression oracle.

Span ids are digests of structural position and the trace id derives
from the run seed, so a fixed-seed run has a *fully deterministic* span
tree — names, keys, parent edges and the key attributes (never
durations). These tests pin that tree for the serial driver, on the
production kernels and on the plain-Python oracles swapped in
(``tests/oracles/kernels.py``), and across checkpoint resume — including
a resume after a real SIGKILL. If instrumentation
drifts (a span renamed, re-parented, or silently dropped), these fail.
"""

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.ldme import LDME
from repro.graph.generators import web_host_graph
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from repro.resilience import run_resumable

from ..oracles.kernels import KERNELS

ITERATIONS = 3
SEED = 3


def small_graph():
    return web_host_graph(num_hosts=4, host_size=8, seed=1)


def make_algo(**kwargs):
    kwargs.setdefault("k", 4)
    kwargs.setdefault("iterations", ITERATIONS)
    kwargs.setdefault("seed", SEED)
    return LDME(**kwargs)


def traced_run(algo, graph, kernels="numpy", **run_kwargs):
    """Run ``algo`` under a fresh tracer; returns the tracer."""
    tracer = Tracer(seed=algo.seed)
    with KERNELS[kernels](), obs_trace.use(tracer):
        algo.summarize(graph, **run_kwargs)
    return tracer


def shape(tree):
    """Strip attributes: nested ``(name, key, children)`` tuples."""
    return tuple(
        (node["name"], node["key"], shape(node["children"]))
        for node in tree
    )


def id_set(tracer):
    """The set of (name, key, span id, parent id) structural facts."""
    return {
        (s.name, s.key, s.span_id, s.parent_id) for s in tracer.spans
    }


#: The pinned span tree for a 3-iteration serial run (children are in
#: canonical order: sorted by (name, str(key))).
GOLDEN_SERIAL_SHAPE = (
    ("run", f"LDME4/{SEED}", (
        ("encode", "final", ()),
        ("iteration", 1, (
            ("divide", 1, (("signatures", "sig", ()),)),
            ("merge", 1, (("group_batch", 0, ()),)),
        )),
        ("iteration", 2, (
            ("divide", 2, (("signatures", "sig", ()),)),
            ("merge", 2, (("group_batch", 0, ()),)),
        )),
        ("iteration", 3, (
            ("divide", 3, (("signatures", "sig", ()),)),
            ("merge", 3, (("group_batch", 0, ()),)),
        )),
    )),
)


class TestGoldenSerial:
    @pytest.mark.parametrize("kernels", KERNELS)
    def test_span_tree_matches_golden(self, kernels):
        tracer = traced_run(make_algo(), small_graph(), kernels)
        assert shape(tracer.tree()) == GOLDEN_SERIAL_SHAPE

    @pytest.mark.parametrize("kernels", KERNELS)
    def test_rerun_is_identical(self, kernels):
        graph = small_graph()
        a = traced_run(make_algo(), graph, kernels)
        b = traced_run(make_algo(), graph, kernels)
        assert a.tree() == b.tree()
        assert id_set(a) == id_set(b)

    def test_backends_share_span_ids(self):
        # The run key is (name, seed), so a run on the oracles produces
        # the *same* span ids, with the same attributes.
        graph = small_graph()
        py = traced_run(make_algo(), graph, "python")
        np_ = traced_run(make_algo(), graph, "numpy")
        assert id_set(py) == id_set(np_)
        assert py.tree() == np_.tree()

    def test_run_attributes_pinned(self):
        graph = small_graph()
        tracer = traced_run(make_algo(), graph)
        (run,) = tracer.find("run")
        assert run.attributes["algorithm"] == "LDME4"
        assert run.attributes["seed"] == SEED
        assert "kernels" not in run.attributes
        assert run.attributes["iterations"] == ITERATIONS
        assert run.attributes["num_nodes"] == graph.num_nodes
        assert run.attributes["num_edges"] == graph.num_edges
        # Set at completion, from the result:
        assert run.attributes["num_supernodes"] > 0
        assert run.attributes["objective"] > 0

    def test_phase_attributes_pinned(self):
        tracer = traced_run(make_algo(), small_graph())
        for divide in tracer.find("divide"):
            assert "backend" not in divide.attributes
            assert divide.attributes["num_groups"] >= 0
            assert divide.attributes["num_mergeable"] >= 0
        signatures = tracer.find("signatures")
        assert len(signatures) == ITERATIONS
        for sig in signatures:
            assert "backend" not in sig.attributes
            assert sig.attributes["rows"] > 0
            assert sig.attributes["nnz"] > 0
        for merge in tracer.find("merge"):
            assert merge.attributes["merges"] >= 0
            assert merge.attributes["candidates_scored"] >= 0
        (encode,) = tracer.find("encode")
        assert encode.key == "final"
        assert encode.attributes["encoder"] == "sorted"
        assert encode.attributes["superedges"] >= 0

    def test_merge_attrs_equal_batch_attrs(self):
        # The serial group_batch span carries the whole phase's counts.
        tracer = traced_run(make_algo(), small_graph())
        merges = {s.key: s for s in tracer.find("merge")}
        for batch in tracer.find("group_batch"):
            merge = merges[
                next(
                    m.key for m in merges.values()
                    if m.span_id == batch.parent_id
                )
            ]
            assert batch.attributes["merges"] == merge.attributes["merges"]
            assert (
                batch.attributes["candidates_scored"]
                == merge.attributes["candidates_scored"]
            )


class Interrupt(Exception):
    """Simulated crash raised from the iteration hook."""


class TestResumeGolden:
    def test_resume_emits_identical_spans(self, tmp_path):
        """crash(iter 2) + resume re-emits exactly the uninterrupted
        run's spans: the union of the two attempts' structural facts
        equals the baseline's."""
        graph = small_graph()
        baseline = Tracer(seed=SEED)
        with obs_trace.use(baseline):
            run_resumable(make_algo(), graph, tmp_path / "base")

        def boom(state):
            if state.iteration == 2:
                raise Interrupt()

        crashed = Tracer(seed=SEED)
        with obs_trace.use(crashed):
            with pytest.raises(Interrupt):
                run_resumable(
                    make_algo(), graph, tmp_path / "c",
                    iteration_hook=boom,
                )
        resumed = Tracer(seed=SEED)
        with obs_trace.use(resumed):
            run_resumable(make_algo(), graph, tmp_path / "c")

        assert id_set(crashed) | id_set(resumed) == id_set(baseline)
        # The resumed attempt's spans are a strict subset: it re-creates
        # the run span and emits only post-checkpoint work.
        assert id_set(resumed) < id_set(baseline)

    def test_checkpoint_spans_keyed_by_iteration(self, tmp_path):
        graph = small_graph()
        tracer = Tracer(seed=SEED)
        with obs_trace.use(tracer):
            run_resumable(make_algo(), graph, tmp_path / "c")
        checkpoints = tracer.find("checkpoint")
        assert [s.key for s in checkpoints] == [1, 2, 3]
        iteration_ids = {s.key: s.span_id for s in tracer.find("iteration")}
        for ckpt in checkpoints:
            assert ckpt.parent_id == iteration_ids[ckpt.key]
            assert ckpt.attributes["num_supernodes"] > 0

    def test_sigkill_resume_emits_identical_spans(self, tmp_path):
        """A child hard-killed mid-run exports its partial trace; the
        parent's resumed trace and the partial trace are both exact
        subsets of the uninterrupted baseline's spans."""
        ckpt_dir = tmp_path / "c"
        trace_path = tmp_path / "partial.jsonl"
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.core.ldme import LDME
            from repro.graph.generators import web_host_graph
            from repro.obs import trace as obs_trace
            from repro.obs.trace import Tracer
            from repro.resilience import run_resumable

            graph = web_host_graph(num_hosts=4, host_size=8, seed=1)
            tracer = Tracer(seed={SEED})

            def die(state):
                tracer.export_jsonl({str(trace_path)!r})
                if state.iteration == 2:
                    os.kill(os.getpid(), signal.SIGKILL)

            with obs_trace.use(tracer):
                run_resumable(
                    LDME(k=4, iterations={ITERATIONS}, seed={SEED}),
                    graph, {str(ckpt_dir)!r}, iteration_hook=die,
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

        graph = small_graph()
        baseline = Tracer(seed=SEED)
        with obs_trace.use(baseline):
            run_resumable(make_algo(), graph, tmp_path / "base")

        import json

        partial = Tracer(seed=SEED)
        with open(trace_path, encoding="utf-8") as fh:
            partial.ingest(json.loads(line) for line in fh)
        assert id_set(partial) < id_set(baseline)

        resumed = Tracer(seed=SEED)
        with obs_trace.use(resumed):
            run_resumable(make_algo(), graph, ckpt_dir)
        assert id_set(resumed) < id_set(baseline)
        # The resumed attempt re-emits every post-checkpoint span the
        # uninterrupted run would have: everything from iteration 3 on,
        # plus the shared run span and the final encode.
        resumed_facts = id_set(resumed)
        for fact in id_set(baseline):
            name, key, _, _ = fact
            if name in ("iteration", "divide", "merge", "checkpoint") \
                    and isinstance(key, int) and key >= 3:
                assert fact in resumed_facts
            if name == "run" or (name == "encode" and key == "final"):
                assert fact in resumed_facts
