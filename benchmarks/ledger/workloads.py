"""The four workloads: inputs, load, output checks and metrics.

Each workload function takes a :class:`Context` and returns a
:class:`Result`. Inputs come from ``inputs`` (seeded); the program runs in
its own processes, pinned to the program CPU (``program.py`` for batch
jobs, the ``repro`` CLI for servers); the load generator and every check
run here, in the benchmark process, on the other CPU.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

import inputs
import openloop
import procs
import speed
from tracer import layer_of

#: End-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"), ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("size_ratio", "ratio"),
]

#: Per-layer self-time shares: metric -> the span names it sums.
SHARES = {
    "graph.io.share_pct": ["graph.io:load_graph"],
    "lsh.doph.share_pct": ["lsh.doph:signatures_bulk"],
    "core.divide.share_pct": ["core.divide:divide"],
    "core.saving.w_build_share_pct": ["core.saving:w_build"],
    "core.saving.score_share_pct": ["core.saving:best_candidate"],
    "core.merge.share_pct": ["core.merge:merge_one_group"],
    "core.merge.apply_share_pct": ["core.merge:apply_merge",
                                   "core.partition:merge"],
    "core.encode.share_pct": ["core.encode:encode_sorted"],
    "core.base.share_pct": ["core.base:summarize"],
    "binaryio.share_pct": ["binaryio:write", "binaryio:read"],
    "shard.partition_share_pct": ["shard.partition:partition_graph"],
    "shard.stitch_share_pct": ["shard.stitch:stitch_shards",
                               "shard.stitch:serving_summary"],
    "core.validate.share_pct": ["core.validate:check_summary"],
    "shard.manifest_share_pct": ["shard.manifest:save_sharded"],
    "queries.compiled.build_share_pct": ["queries.compiled:build"],
    "queries.compiled.query_share_pct": ["queries.compiled:neighbors_batch",
                                         "queries.compiled:has_edge"],
    "serve.protocol.share_pct": ["serve.protocol:decode",
                                 "serve.protocol:encode"],
    "serve.batching.share_pct": ["serve.batching:execute_batch"],
    "ingest.wal.share_pct": ["ingest.wal:append"],
    "streaming.insert_share_pct": ["streaming:insert"],
    "ingest.snapshot.share_pct": ["ingest.snapshot:compile",
                                  "ingest.snapshot:checkpoint"],
    "serve.cluster.swap_share_pct": ["serve.cluster:rolling_swap"],
}

#: Per-layer metrics, in BENCHMARK.json order.
PER_LAYER = [(name, "%") for name in SHARES] + [
    ("core.divide.mergeable_frac", "ratio"),
    ("core.saving.candidates", "count"),
    ("core.merge.accept_frac", "ratio"),
    ("core.encode.output_edges", "count"),
    ("binaryio.bytes", "count"),
    ("shard.cut_edges", "count"),
    ("shard.summarize_imbalance", "ratio"),
    ("serve.batching.batch_size_mean", "count"),
    ("serve.cache.hit_frac", "ratio"),
    ("ingest.wal.batch_mean", "count"),
    ("ingest.swaps", "count"),
    ("loadgen.late_frac", "ratio"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
]

#: Input sizes and rate multipliers. ``bench`` is what BENCHMARK.json
#: runs; ``smoke`` is for the smoke test only.
SCALES = {
    "bench": {"web_hosts": 40, "rmat_scale": 12, "serve_hosts": 120,
              "ingest_hosts": 100, "rates": 1.0},
    "smoke": {"web_hosts": 6, "rmat_scale": 9, "serve_hosts": 6,
              "ingest_hosts": 6, "rates": 0.1},
}

#: serve_point: offered rates (qps) of the open-loop ladder; GATED_RATE
#: feeds the latency metrics (the lightest rate: under this host's CPU
#: noise its tail repeats, the busier rates' do not). Phase lengths are
#: shares of ``--seconds``.
LADDER = (500, 1500, 2500)
GATED_RATE = 500
SERVE_PHASES = {"warmup": 0.05, 500: 0.70, 1500: 0.10, 2500: 0.10}
#: Requests the serve capacity probe sends per second of ``--seconds``.
SERVE_CAPACITY_PER_S = 1000
#: The SLO behind the informational ``max_qps_ladder`` line.
SLO_P99_MS, SLO_FAIL_FRAC = 20.0, 0.001

#: ingest_mixed: write and read rates, snapshot cadence, phase shares. The
#: open-loop phases are cut to stay below 90% of SNAPSHOT_EVERY events, so
#: their latencies carry no snapshot stall; the capacity probe then sends
#: exactly 2 * SNAPSHOT_EVERY events, so it always pays for exactly two
#: snapshots and hot swaps.
WRITE_RATE, READ_RATE, SNAPSHOT_EVERY = 400, 500, 4000
INGEST_PHASES = {"warmup": 0.10, "mixed": 0.70}

#: Closed-loop capacity runs as BURSTS bursts, each between two speed
#: probes, with WINDOW requests outstanding per connection.
BURSTS, WINDOW = 4, 32
#: Batch jobs per run: at least MIN_JOBS, at most MAX_JOBS; set-up loads.
MIN_JOBS, MAX_JOBS, SETUP_REPEATS = 3, 100, 7
#: p99 is the median over this many windows (see _p99).
WINDOWS = 5
#: Every CHECK_EVERY-th served answer is compared with the input graph.
CHECK_EVERY = 50
#: Server starts per run (set-up samples); a send this late is "late".
SETUP_SPAWNS, LATE_MS = 5, 1.0

SERVE_RE = r"on ([\d.]+):(\d+)"
REPLICA_RE = r"^serving \d+ replicas? on ([\d.]+):(\d+)"
LISTEN_RE = r"^ingesting on ([\d.]+):(\d+)"


@dataclass
class Context:
    """Where and how one workload runs."""

    name: str
    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    trace_dir: str
    scale: Dict[str, Any]
    program_cpu: int

    @property
    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        env.update(PYTHONPATH=os.path.join(self.root, "src"),
                   PYTHONUNBUFFERED="1", TMPDIR=self.work)
        return env

    @property
    def trace_prefix(self) -> str:
        return os.path.join(self.trace_dir, f"{self.name}-s{self.seed}")


@dataclass
class Result:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    info: List[Tuple[str, float, str, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.problems.append(why)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# per-layer metrics from a tracer summary
# ----------------------------------------------------------------------
def layer_metrics(summary: Dict[str, Any], denominator_s: float,
                  units: int, extra: Dict[str, float],
                  root: Optional[str] = None) -> Dict[str, float]:
    """Every PER_LAYER value from one traced process.

    Shares are self time over ``denominator_s``; counts are per ``units``
    (jobs for batch workloads, 1 for a server run). ``root`` names the
    benchmark's own span, whose self time is not attributed to a layer.
    """
    names, counts = summary["names"], summary["counts"]

    def own(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return names.get(name, {}).get("calls", 0)

    out = {metric: 100.0 * _ratio(sum(own(n) for n in spans), denominator_s)
           for metric, spans in SHARES.items()}
    attributed = sum(v["self_s"] for n, v in names.items() if n != root)
    out.update({
        "core.divide.mergeable_frac": _ratio(
            counts.get("core.divide.mergeable", 0),
            counts.get("core.divide.buckets", 0)),
        "core.saving.candidates": _ratio(
            counts.get("core.saving.candidates", 0), units),
        "core.merge.accept_frac": _ratio(
            counts.get("core.merge.merges", 0),
            calls("core.saving:best_candidate")),
        "core.encode.output_edges": _ratio(
            counts.get("core.encode.output_edges", 0),
            calls("core.encode:encode_sorted")),
        "binaryio.bytes": _ratio(counts.get("binaryio.bytes", 0), units),
        "shard.cut_edges": _ratio(counts.get("shard.cut_edges", 0), units),
        "shard.summarize_imbalance": 0.0,
        "serve.batching.batch_size_mean": _ratio(
            counts.get("serve.batching.queries", 0),
            counts.get("serve.batching.batches", 0)),
        "serve.cache.hit_frac": 0.0,
        "ingest.wal.batch_mean": _ratio(
            counts.get("ingest.wal.events", 0),
            counts.get("ingest.wal.appends", 0)),
        "ingest.swaps": counts.get("ingest.swaps", 0),
        "loadgen.late_frac": 0.0,
        "trace.coverage_pct": 100.0 * _ratio(attributed, denominator_s),
        "trace.overhead_pct": 100.0 * _ratio(
            summary["spans"] * summary["span_cost_ns"] / 1e9, denominator_s),
    })
    out.update(extra)
    return out


def _trace_layers(result: Result, prefix: str, denominator_s: float,
                  units: int, extra: Dict[str, float],
                  root: Optional[str] = None) -> None:
    """Fill ``result.layers`` and write ``PREFIX.layers.json``, the
    per-layer calls, self seconds and share of ``denominator_s``."""
    with open(prefix + ".summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    if denominator_s <= 0:
        denominator_s = summary["wall_s"]
    result.layers = layer_metrics(summary, denominator_s, units, extra, root)
    layers: Dict[str, Dict[str, float]] = {}
    for name, value in summary["names"].items():
        row = layers.setdefault(layer_of(name), {"calls": 0, "self_s": 0.0})
        row["calls"] += value["calls"]
        row["self_s"] += value["self_s"]
    for row in layers.values():
        row["share_pct"] = 100.0 * _ratio(row["self_s"], denominator_s)
    with open(prefix + ".layers.json", "w", encoding="utf-8") as fh:
        json.dump({"denominator_s": denominator_s, "layers": layers}, fh,
                  indent=1, sort_keys=True)


def _imbalance(prefix: str) -> float:
    """Slowest per-shard summarize over the mean, per job, averaged."""
    per_job: Dict[str, List[float]] = {}
    with open(prefix + ".spans.jsonl", encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["name"] == "core.base:summarize":
                per_job.setdefault(span["parent"], []).append(
                    span["end_us"] - span["start_us"])
    ratios = [max(d) / statistics.mean(d) for d in per_job.values() if d]
    return statistics.mean(ratios) if ratios else 0.0


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def _digest(path: str) -> str:
    """SHA-256 over a file, or over every file of a (flat) directory."""
    names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
    sha = hashlib.sha256()
    for name in names:
        with open(os.path.join(path, name) if name else path, "rb") as fh:
            sha.update(name.encode() + fh.read())
    return sha.hexdigest()


def _at_reference_speed(times: List[float], probes: List[float]
                        ) -> List[float]:
    """Scale ``times[i]`` by the probes timed right before and after it."""
    return [t * 2 * speed.REF_S / (a + b)
            for t, a, b in zip(times, probes, probes[1:])]


def _timed(ctx: Context, program: procs.Program, command: str, count: int
           ) -> Tuple[List[float], List[float]]:
    """``count`` answers to ``command``: their times as measured and at
    reference speed."""
    times, probes = [], [speed.probe_on(ctx.program_cpu)]
    for _ in range(count):
        times.append(program.call(command)[f"{command}_s"])
        probes.append(speed.probe_on(ctx.program_cpu))
    return times, _at_reference_speed(times, probes)


def _batch(ctx: Context, job: str, graph, artifact: Callable[[int], str],
           check: Callable[[str], List[str]]) -> Result:
    """Drive ``program.py JOB`` on ``graph`` and check its artifacts.

    Set-up is SETUP_REPEATS timed loads of the input. After one untimed
    warm-up job (lazy imports, first-touch costs), jobs repeat until
    ``ctx.seconds`` of job time have passed (at least MIN_JOBS). Between
    loads and jobs the speed probe is timed on the program CPU, and each
    load and job is reported at reference speed, scaled by the probes
    right before and after it.
    """
    result = Result()
    graph_path = os.path.join(ctx.work, "graph.txt")
    inputs.write_edge_list(graph, graph_path)
    program = procs.Program(
        [job, graph_path, os.path.join(ctx.work, "out"),
         "--seed", str(ctx.seed)], ctx.env, ctx.work, ctx.program_cpu)
    try:
        program.read()
        setup_raw, setup = _timed(ctx, program, "load", SETUP_REPEATS)
        warmup = program.call("job")
        if ctx.trace:
            program.call(f"trace {ctx.trace_prefix}")
        infos, probes = [], [speed.probe_on(ctx.program_cpu)]
        while len(infos) < MAX_JOBS and (
                len(infos) < MIN_JOBS
                or sum(i["job_s"] for i in infos) < ctx.seconds):
            infos.append(program.call("job"))
            probes.append(speed.probe_on(ctx.program_cpu))
    finally:
        rss_mb = program.close()

    everything = [warmup] + infos
    result.attempted = len(everything)
    first = everything[0]
    problems = check(artifact(0)) + sorted(
        {p for info in everything for p in info["problems"]})
    if problems:
        result.fail(len(everything), f"job output: {problems[:3]}")
    else:
        digest = _digest(artifact(0))
        differ = [i for i, info in enumerate(everything)
                  if info["objective"] != first["objective"]
                  or _digest(artifact(i)) != digest]
        if differ:
            result.fail(len(differ),
                        f"jobs {differ} wrote different output than job 0")
    jobs = [info["job_s"] for info in infos]
    scaled = _at_reference_speed(jobs, probes)
    median = statistics.median(scaled)
    result.metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": median * 1e3,
        "latency_p99_ms": _p99(scaled) * 1e3,
        "throughput_per_s": first["num_edges"] / median,
        "peak_rss_mb": rss_mb,
        "size_ratio": first["objective"] / first["num_edges"],
    }
    result.samples = dict.fromkeys(
        ("latency_p50_ms", "latency_p99_ms", "throughput_per_s"), len(jobs))
    result.samples["setup_s"] = len(setup)
    result.info += [
        ("setup_raw_s", statistics.median(setup_raw), "s", len(setup)),
        ("summarize_s", statistics.median(jobs), "s", len(jobs)),
        ("speed", speed.REF_S / statistics.median(probes), "ratio",
         len(probes)),
        ("compression", first["compression"], "ratio", 1),
        ("edges", first["num_edges"], "count", 1),
    ]
    if ctx.trace:
        extra = {}
        if job == "shard":
            extra["shard.summarize_imbalance"] = _imbalance(ctx.trace_prefix)
        _trace_layers(result, ctx.trace_prefix, sum(jobs), len(jobs), extra,
                      root="ledger:job")
    return result


def summarize_web(ctx: Context) -> Result:
    """Batch LDME on the template-copying web family."""
    from repro.binaryio import read_summary_binary
    from repro.core.reconstruct import verify_lossless

    graph = inputs.web_graph(ctx.seed, ctx.scale["web_hosts"])

    def artifact(i: int) -> str:
        return os.path.join(ctx.work, "out", f"job-{i}.ldmeb")

    def check(path: str) -> List[str]:
        try:
            verify_lossless(graph, read_summary_binary(path))
        except AssertionError as exc:
            return [str(exc)]
        return []

    return _batch(ctx, "summarize", graph, artifact, check)


def shard_rmat(ctx: Context) -> Result:
    """Sharded LDME + stitch + manifest on skewed R-MAT."""
    from repro.queries.compiled import CompiledSummaryIndex
    from repro.shard.manifest import load_manifest

    graph = inputs.rmat_graph(ctx.seed, ctx.scale["rmat_scale"])

    def artifact(i: int) -> str:
        return os.path.join(ctx.work, "out", f"job-{i}")

    def check(path: str) -> List[str]:
        manifest = load_manifest(path, verify=True)
        index = CompiledSummaryIndex(manifest.load_global())
        nodes = np.random.default_rng(ctx.seed).integers(
            0, graph.num_nodes, size=1000)
        got = index.neighbors_batch(nodes)
        return [f"neighbors({v}) differ" for v, answer in zip(nodes, got)
                if answer != graph.neighbors(int(v)).tolist()][:3]

    return _batch(ctx, "shard", graph, artifact, check)


# ----------------------------------------------------------------------
# serving workloads
# ----------------------------------------------------------------------
def _spawn(ctx: Context, argv_for: Callable[[int], List[str]],
           ready: List[Tuple[str, str]], stop_sig: int):
    """Start the server ``SETUP_SPAWNS`` times; keep the last one running.

    Set-up time is process start until a ``ping`` answers on every
    announced address; ``ready`` lists (stdout pattern, ping kind).
    Returns the server, its addresses, and the set-up times at reference
    speed (scaled by the probes timed around each spawn) and as measured.
    """
    raw, probes = [], [speed.probe_on(ctx.program_cpu)]
    for i in range(SETUP_SPAWNS):
        last = i == SETUP_SPAWNS - 1
        traced = ctx.trace_prefix if ctx.trace and last else None
        server = procs.Server(argv_for(i), ctx.env, ctx.work,
                              ctx.program_cpu, traced)
        try:
            addresses = {}
            for pattern, kind in ready:
                addresses[pattern] = server.address(pattern)
                openloop.wait_ready(addresses[pattern], kind, timeout=60.0)
        except BaseException:
            server.stop(signal.SIGKILL)
            raise
        raw.append(time.perf_counter() - server.started)
        probes.append(speed.probe_on(ctx.program_cpu))
        if not last:
            server.stop(stop_sig)
    return server, addresses, _at_reference_speed(raw, probes), raw


def _p99(values: List[float]) -> float:
    """The median of the 99th percentiles of WINDOWS consecutive windows
    of ``values`` (in time order), so a stall moves one window, not the
    run."""
    return statistics.median(
        float(np.percentile(window, 99))
        for window in np.array_split(values, min(WINDOWS, len(values))))


def _percentiles(records: List[openloop.Record], gave_up: float
                 ) -> Tuple[float, float]:
    """(p50, p99) latency in ms from the scheduled send. A failed request
    counts as answered when the run gave up waiting, so it misses any
    limit."""
    records = sorted(records, key=lambda r: r.due)
    lat = [((r.done if r.ok else gave_up) - r.due) * 1e3 for r in records]
    return float(np.percentile(lat, 50)), _p99(lat)


def _late_frac(records: List[openloop.Record]) -> float:
    late = [r.sent - r.due for r in records if r.sent == r.sent]
    return _ratio(sum(1 for x in late if x * 1e3 > LATE_MS), len(late))


def _account(result: Result, records: List[openloop.Record], what: str
             ) -> None:
    """Count ``records`` as attempted; those not answered ok as failed."""
    bad = sum(1 for r in records if not r.ok)
    result.attempted += len(records)
    if bad:
        result.fail(bad, f"{bad} {what} request(s) failed or timed out")


def _capacity(ctx: Context, result: Result, lanes: List[openloop._Lane],
              requests: list, kind: str
              ) -> Tuple[float, List[openloop.Record]]:
    """Closed-loop completion rate at reference speed, and the records.

    ``requests`` go out in BURSTS bursts. Before and after each burst,
    with the program idle, the speed probe is timed on the program CPU;
    each burst's time is scaled to reference speed by it.
    """
    records = [openloop.Record(kind, q) for q in requests]
    size = -(-len(records) // BURSTS)
    elapsed, probes = [], [speed.probe_on(ctx.program_cpu)]
    for first in range(0, len(records), size):
        burst = records[first:first + size]
        elapsed.append(openloop.closed_loop(
            [(lane, burst[k::len(lanes)]) for k, lane in enumerate(lanes)],
            WINDOW))
        time.sleep(0.05)            # let the program finish queued work
        probes.append(speed.probe_on(ctx.program_cpu))
    _account(result, records, f"{kind} capacity")
    return (sum(1 for r in records if r.ok)
            / sum(_at_reference_speed(elapsed, probes))), records


def _open_loop_phase(rng: np.random.Generator, result: Result,
                     streams: List[Tuple[openloop._Lane, str, float, Any]],
                     length: float, what: str
                     ) -> Tuple[List[List[openloop.Record]], float]:
    """Run one open-loop phase; ``streams`` are (lane, kind, rate, make).

    Returns each stream's records and when the run stopped waiting.
    """
    start = time.perf_counter() + 0.05
    plan = []
    for lane, kind, rate, make in streams:
        offsets = inputs.poisson_offsets(rng, rate, length).tolist()
        plan.append((lane, [
            openloop.Record(kind, request, due=start + offset,
                            keep=i % CHECK_EVERY == 0)
            for i, (offset, request) in enumerate(
                zip(offsets, make(len(offsets))))]))
    openloop.open_loop(plan)
    gave_up = time.perf_counter()
    for (_, kind, _, _), (_, records) in zip(streams, plan):
        _account(result, records, f"{what} {kind}")
    return [records for _, records in plan], gave_up


def serve_point(ctx: Context) -> Result:
    """Open-loop point queries against ``repro serve`` (CLI defaults)."""
    result = Result()
    graph = inputs.web_graph(ctx.seed, ctx.scale["serve_hosts"])
    graph_path = os.path.join(ctx.work, "graph.txt")
    art = os.path.join(ctx.work, "summary")
    inputs.write_edge_list(graph, graph_path)
    program = procs.Program(["prep", graph_path, art, "--seed",
                             str(ctx.seed)], ctx.env, ctx.work,
                            ctx.program_cpu)
    try:
        prep = program.read()
    finally:
        program.close()
    argv = ["serve", art + ".ldmeb", "--port", "0", "--log-interval", "0"]
    server, addresses, setup, raw = _spawn(
        ctx, lambda i: argv, [(SERVE_RE, "json")], signal.SIGTERM)
    rng = np.random.default_rng(ctx.seed)

    def make(count: int):
        return inputs.queries(rng, count, graph.num_nodes)

    lanes = [openloop.JsonLane(addresses[SERVE_RE]) for _ in range(2)]
    steps = {}
    try:
        for step in ["warmup", *LADDER]:
            # Two Poisson streams at half the rate, one per connection.
            rate = (1500 if step == "warmup" else step) \
                * ctx.scale["rates"] / 2
            streams, gave_up = _open_loop_phase(
                rng, result, [(lane, "read", rate, make) for lane in lanes],
                SERVE_PHASES[step] * ctx.seconds, f"r{step}")
            steps[step] = (streams[0] + streams[1], gave_up)
        capacity, capacity_sent = _capacity(
            ctx, result, lanes, make(int(
                SERVE_CAPACITY_PER_S * ctx.seconds * ctx.scale["rates"])),
            "read")
        stats = lanes[0].call("stats", {})
    finally:
        for lane in lanes:
            lane.close()
        server.stop(signal.SIGTERM)

    checked = [r for records, _ in steps.values() for r in records
               if r.keep and r.ok]
    wrong = sum(1 for r in checked
                if r.result != inputs.expected_answer(graph, *r.request))
    if wrong:
        result.fail(wrong, f"{wrong} of {len(checked)} checked answers wrong")

    met = []
    for rate in LADDER:
        records, gave_up = steps[rate]
        p50, p99 = _percentiles(records, gave_up)
        bad = sum(1 for r in records if not r.ok)
        result.info += [(f"p50_ms.r{rate}", p50, "ms", len(records)),
                        (f"p99_ms.r{rate}", p99, "ms", len(records)),
                        (f"late_frac.r{rate}", _late_frac(records), "ratio",
                         len(records))]
        if p99 <= SLO_P99_MS and bad <= SLO_FAIL_FRAC * len(records):
            met.append(rate)
    result.info += [("max_qps_ladder", max(met, default=0), "1/s", 1),
                    ("setup_raw_s", statistics.median(raw), "s", len(raw))]
    cache = stats["cache"]
    hit_frac = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    server_lat = stats["metrics"]["histograms"].get(
        "request_latency_seconds", {})
    result.info += [
        ("serve.cache.hit_frac", hit_frac, "ratio", 1),
        ("serve.server.latency_p99_ms", 1e3 * (server_lat.get("p99") or 0),
         "ms", server_lat.get("count", 0)),
    ]

    gated, gave_up = steps[GATED_RATE]
    p50, p99 = _percentiles(gated, gave_up)
    result.metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "throughput_per_s": capacity,
        "peak_rss_mb": server.peak_rss_mb,
        "size_ratio": prep["objective"] / prep["num_edges"],
    }
    result.samples = {"setup_s": len(setup), "latency_p50_ms": len(gated),
                      "latency_p99_ms": len(gated),
                      "throughput_per_s": len(capacity_sent)}
    if ctx.trace:
        late = _late_frac([r for rate in LADDER for r in steps[rate][0]])
        _trace_layers(result, ctx.trace_prefix, 0.0, 1,
                      {"serve.cache.hit_frac": hit_frac,
                       "loadgen.late_frac": late})
    return result


def ingest_mixed(ctx: Context) -> Result:
    """Durable writes beside reads in one ``repro ingest`` process."""
    from repro.core.reconstruct import reconstruct
    from repro.graph.io import read_summary

    result = Result()
    graph = inputs.web_graph(ctx.seed, ctx.scale["ingest_hosts"])
    events = iter(inputs.edge_events(graph, ctx.seed))
    final = os.path.join(ctx.work, "final.summary")

    def argv(i: int) -> List[str]:
        return ["ingest", "--listen", "0", "--cluster", "1",
                "--snapshot-every", str(SNAPSHOT_EVERY),
                "--num-nodes", str(graph.num_nodes),
                "--wal-dir", os.path.join(ctx.work, f"wal-{i}"),
                "-o", final if i == SETUP_SPAWNS - 1 else final + f".{i}"]

    server, addresses, setup, raw = _spawn(
        ctx, argv, [(REPLICA_RE, "json"), (LISTEN_RE, "line")],
        signal.SIGINT)
    rng = np.random.default_rng(ctx.seed)

    def writes(count: int):
        return list(itertools.islice(events, count))

    def reads(count: int):
        return inputs.queries(rng, count, graph.num_nodes)

    write_lane = openloop.LineLane(addresses[LISTEN_RE])
    read_lane = openloop.JsonLane(addresses[REPLICA_RE])
    writes_made: List[openloop.Record] = []
    warmup = INGEST_PHASES["warmup"] * ctx.seconds
    lengths = {"warmup": warmup, "mixed": min(
        INGEST_PHASES["mixed"] * ctx.seconds,
        0.9 * SNAPSHOT_EVERY / WRITE_RATE - warmup)}
    try:
        for phase, length in lengths.items():
            (w, r), gave_up = _open_loop_phase(
                rng, result,
                [(write_lane, "write", WRITE_RATE * ctx.scale["rates"],
                  writes),
                 (read_lane, "read", READ_RATE * ctx.scale["rates"], reads)],
                length, phase)
            writes_made += w
        capacity, burst = _capacity(
            ctx, result, [write_lane],
            writes(int(2 * SNAPSHOT_EVERY * ctx.scale["rates"])), "write")
        writes_made += burst
        stats = read_lane.call("stats", {})
    finally:
        write_lane.close()
        read_lane.close()
        server.stop(signal.SIGINT)

    acked = [rec for rec in writes_made if rec.ok]
    if [rec.result for rec in acked] != list(range(1, len(acked) + 1)):
        result.fail(1, "acked seqs are not contiguous from 1")
    summary = read_summary(final)
    got = set(reconstruct(summary).edges())
    want = {(min(u, v), max(u, v)) for u, v in (rec.request for rec in acked)}
    if got != want:
        result.fail(len(got ^ want), f"final snapshot differs from the "
                                     f"acked edges by {len(got ^ want)}")

    p50, p99 = _percentiles(w + r, gave_up)
    for kind, records in (("ack", w), ("read", r)):
        k50, k99 = _percentiles(records, gave_up)
        result.info += [(f"{kind}_p50_ms", k50, "ms", len(records)),
                        (f"{kind}_p99_ms", k99, "ms", len(records))]
    cache = stats["cache"]
    hit_frac = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    late = _late_frac(w + r)
    result.info += [("setup_raw_s", statistics.median(raw), "s", len(raw)),
                    ("late_frac", late, "ratio", len(w + r)),
                    ("serve.cache.hit_frac", hit_frac, "ratio", 1)]
    result.metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "throughput_per_s": capacity,
        "peak_rss_mb": server.peak_rss_mb,
        "size_ratio": _ratio(summary.objective, len(want)),
    }
    result.samples = {"setup_s": len(setup), "latency_p50_ms": len(w + r),
                      "latency_p99_ms": len(w + r),
                      "throughput_per_s": len(burst)}
    if ctx.trace:
        _trace_layers(result, ctx.trace_prefix, 0.0, 1,
                      {"serve.cache.hit_frac": hit_frac,
                       "loadgen.late_frac": late})
    return result


WORKLOADS = {
    "summarize_web": summarize_web,
    "shard_rmat": shard_rmat,
    "serve_point": serve_point,
    "ingest_mixed": ingest_mixed,
}
