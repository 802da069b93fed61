"""Span recorder and the per-layer timing wrappers of the traced runs.

The wrappers are installed from the outside, around the public entry
point of each layer (``PATCHES``); nothing in ``src/`` knows it is being
traced. Every wrapped call is one span: name, start, end, the span that
caused it, and its thread. A span name is ``<layer>:<call>``.

Totals (calls, total time, self time) are kept for every call. Raw spans
for the JSONL export are capped per name (``SPANS_PER_NAME``) so a merge
loop with a million candidate scorings does not write a million lines.
A layer's self time is its spans' durations minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

SPANS_PER_NAME = 2000

Observer = Callable[["Tracer", Any, tuple], None]


class Tracer:
    """Thread-safe span recorder; per-thread state, merged on read."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Dict[str, Any]] = []
        self.started_ns = time.perf_counter_ns()
        self.span_cost_ns = 0.0

    def _state(self) -> Dict[str, Any]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = {"stack": [], "totals": {}, "counts": {}, "spans": [],
                     "kept": {}, "next": 0}
            with self._lock:
                state["tid"] = len(self._threads)
                self._threads.append(state)
            self._local.state = state
        return state

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (per thread, merged later)."""
        counts = self._state()["counts"]
        counts[name] = counts.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Observer] = None) -> Callable:
        """Return ``fn`` wrapped so every call records span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state["stack"]
            parent = stack[-1] if stack else None
            frame = [0, state["next"]]       # child time (ns), span id
            state["next"] += 1
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                total = state["totals"].get(name)
                if total is None:
                    total = state["totals"][name] = [0, 0, 0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[0]
                kept = state["kept"].get(name, 0)
                if kept < SPANS_PER_NAME:
                    state["kept"][name] = kept + 1
                    state["spans"].append((
                        name, start, end, frame[1],
                        None if parent is None else parent[1],
                        state["tid"],
                    ))
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    def calibrate(self, calls: int = 20000) -> float:
        """Measure the added cost of one wrapped call, in nanoseconds."""
        probe = Tracer()

        def noop():
            return None

        wrapped = probe.wrap("calibrate:noop", noop)
        best = float("inf")
        for _ in range(3):
            tic = time.perf_counter_ns()
            for _ in range(calls):
                wrapped()
            traced_ns = time.perf_counter_ns() - tic
            tic = time.perf_counter_ns()
            for _ in range(calls):
                noop()
            plain_ns = time.perf_counter_ns() - tic
            best = min(best, (traced_ns - plain_ns) / calls)
        self.span_cost_ns = max(best, 0.0)
        return self.span_cost_ns

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, List[int]]:
        """``name -> [calls, total_ns, self_ns]`` over every thread."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, own) in list(state["totals"].items()):
                acc = merged.setdefault(name, [0, 0, 0])
                acc[0] += calls
                acc[1] += total
                acc[2] += own
        return merged

    def counts(self) -> Dict[str, float]:
        """Counters summed over every thread."""
        merged: Dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, value in list(state["counts"].items()):
                merged[name] = merged.get(name, 0) + value
        return merged

    def summary(self) -> Dict[str, Any]:
        """JSON-ready totals, counters and span-cost estimate."""
        totals = self.totals()
        return {
            "wall_s": (time.perf_counter_ns() - self.started_ns) / 1e9,
            "span_cost_ns": self.span_cost_ns,
            "spans": sum(calls for calls, _, _ in totals.values()),
            "names": {
                name: {"calls": calls, "total_s": total / 1e9,
                       "self_s": own / 1e9}
                for name, (calls, total, own) in sorted(totals.items())
            },
            "counts": self.counts(),
        }

    def write(self, prefix: str) -> None:
        """Write ``<prefix>.spans.jsonl`` and ``<prefix>.summary.json``."""
        with self._lock:
            threads = list(self._threads)
        with open(prefix + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for state in threads:
                for name, start, end, sid, parent, tid in list(state["spans"]):
                    fh.write(json.dumps({
                        "name": name,
                        "start_us": (start - self.started_ns) / 1e3,
                        "end_us": (end - self.started_ns) / 1e3,
                        "id": f"{tid}.{sid}",
                        "parent": (None if parent is None
                                   else f"{tid}.{parent}"),
                    }) + "\n")
        with open(prefix + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=1, sort_keys=True)


# ----------------------------------------------------------------------
# what the per-layer metrics count, read off each call's result
# ----------------------------------------------------------------------
def _divide(tracer: Tracer, result: Any, args: tuple) -> None:
    stats = result[1]
    tracer.count("core.divide.buckets", stats.num_groups)
    tracer.count("core.divide.mergeable", stats.num_mergeable)


def _merge_group(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("core.merge.merges", result.merges)


def _best_candidate(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("core.saving.candidates", len(args[2]))


def _encode(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("core.encode.output_edges", len(result.superedges)
                 + len(result.corrections.additions)
                 + len(result.corrections.deletions))


def _write_binary(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("binaryio.bytes", max(int(result), 0))


def _partition_graph(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("shard.cut_edges", result.num_cut_edges)


def _execute_batch(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("serve.batching.batches")
    tracer.count("serve.batching.queries", len(args[3]))


def _wal_append(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("ingest.wal.appends")
    tracer.count("ingest.wal.events", len(args[1]))


def _rolling_swap(tracer: Tracer, result: Any, args: tuple) -> None:
    tracer.count("ingest.swaps", 1 if getattr(result, "ok", False) else 0)


#: (module, attribute path, span name, observer). A function imported
#: into another module by name is patched where it is looked up, so the
#: same call can appear twice under different modules.
PATCHES = [
    ("repro.graph.io", "load_graph", "graph.io:load_graph", None),
    ("repro.core.base", "BaseSummarizer.summarize", "core.base:summarize",
     None),
    ("repro.core.ldme", "LDME.divide", "core.divide:divide", _divide),
    ("repro.core.divide", "doph_signatures_bulk",
     "lsh.doph:signatures_bulk", None),
    ("repro.core.ldme", "LDME.merge_one_group", "core.merge:merge_one_group",
     _merge_group),
    ("repro.core.saving", "GroupAdjacency.__init__", "core.saving:w_build",
     None),
    ("repro.core.saving", "GroupAdjacency.best_candidate",
     "core.saving:best_candidate", _best_candidate),
    ("repro.core.saving", "GroupAdjacency.apply_merge",
     "core.merge:apply_merge", None),
    ("repro.core.partition", "SupernodePartition.merge",
     "core.partition:merge", None),
    ("repro.core.base", "encode_sorted", "core.encode:encode_sorted",
     _encode),
    ("repro.streaming", "encode_sorted", "core.encode:encode_sorted",
     _encode),
    ("repro.binaryio", "write_summary_binary", "binaryio:write",
     _write_binary),
    ("repro.binaryio", "read_summary_binary", "binaryio:read", None),
    ("repro.shard.manifest", "write_summary_binary", "binaryio:write",
     _write_binary),
    ("repro.shard.manifest", "read_summary_binary", "binaryio:read", None),
    ("repro.shard.driver", "summarize_sharded",
     "shard.driver:summarize_sharded", None),
    ("repro.shard.driver", "partition_graph",
     "shard.partition:partition_graph", _partition_graph),
    ("repro.shard.driver", "stitch_shards", "shard.stitch:stitch_shards",
     None),
    ("repro.shard.stitch", "check_summary", "core.validate:check_summary",
     None),
    ("repro.shard.driver", "save_sharded", "shard.manifest:save_sharded",
     None),
    ("repro.shard.manifest", "shard_serving_summary",
     "shard.stitch:serving_summary", None),
    ("repro.queries.compiled", "CompiledSummaryIndex.__init__",
     "queries.compiled:build", None),
    ("repro.queries.compiled", "CompiledSummaryIndex.neighbors_batch",
     "queries.compiled:neighbors_batch", None),
    ("repro.queries.compiled", "CompiledSummaryIndex.has_edge",
     "queries.compiled:has_edge", None),
    ("repro.serve.protocol", "decode_body", "serve.protocol:decode", None),
    ("repro.serve.protocol", "encode_frame", "serve.protocol:encode", None),
    ("repro.serve.server", "execute_batch", "serve.batching:execute_batch",
     _execute_batch),
    ("repro.ingest.wal", "WalWriter.append", "ingest.wal:append",
     _wal_append),
    ("repro.streaming", "DynamicSummarizer.insert", "streaming:insert", None),
    ("repro.streaming", "DynamicSummarizer.snapshot_compiled",
     "ingest.snapshot:compile", None),
    ("repro.resilience.checkpoint", "CheckpointManager.save",
     "ingest.snapshot:checkpoint", None),
    ("repro.serve.cluster", "SummaryCluster.rolling_swap",
     "serve.cluster:rolling_swap", _rolling_swap),
]


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`PATCHES` with ``tracer``."""
    tracer.calibrate()
    for module_name, path, name, observe in PATCHES:
        owner: Any = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), observe))


def layer_of(name: str) -> str:
    """``core.saving:best_candidate`` -> ``core.saving``."""
    return name.split(":", 1)[0]
