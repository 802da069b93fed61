"""Ledger files: the committed baseline, the compare report, the ladder.

``baseline.json`` holds, per (workload, end-to-end metric), the median,
quartiles, n and raw values of several runs of one commit, plus the
per-layer metrics and layer self-time table of one traced run.
``compare`` reads it back and classifies each metric of a new set of
runs against the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
from typing import Dict, List, Tuple

import inputs
import procs
import speed

HERE = os.path.dirname(os.path.abspath(__file__))

#: Ladder rungs: web-family host counts giving ~1e4, 1e5, 1e6 (and, with
#: ``--slow``, 1e7) edges.
RUNGS = [("1e4", 12), ("1e5", 122), ("1e6", 1220)]
SLOW_RUNGS = [("1e7", 12200)]


def _stats(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def _spread(row: Dict[str, float]) -> float:
    """Quartile distance over the median (0 when n < 2)."""
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] \
        else 0.0


def collect(results: Dict[str, List[dict]]) -> Dict[str, Dict[str, dict]]:
    """``workload -> metric -> stats`` over each workload's run reports."""
    table: Dict[str, Dict[str, dict]] = {}
    for workload, reports in results.items():
        names = reports[0]["metrics"]
        table[workload] = {
            name: dict(_stats([r["metrics"][name]["value"] for r in reports]),
                       unit=names[name]["unit"])
            for name in names
        }
    return table


def format_spread(table: Dict[str, Dict[str, dict]]) -> List[str]:
    return [
        f"{w} {m} median={row['median']:.6g} q1={row['q1']:.6g} "
        f"q3={row['q3']:.6g} spread={100 * _spread(row):.1f}% n={row['n']}"
        for w, metrics in table.items() for m, row in metrics.items()
    ]


def _machine() -> Dict[str, object]:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def record(path: str, table: Dict[str, Dict[str, dict]],
           layers: Dict[str, Dict[str, float]], args, bench: dict) -> None:
    """Write the baseline: run statistics plus one traced run per workload."""
    tables = {}
    for workload in layers:
        name = os.path.join(args.trace_dir, f"{workload}-s{args.seed}"
                            ".layers.json")
        with open(name, encoding="utf-8") as fh:
            tables[workload] = json.load(fh)
    doc = {
        "machine": _machine(),
        "seconds": args.seconds,
        "scale": args.scale,
        "seeds": [args.seed, args.seed + args.rounds - 1],
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "workloads": table,
        "per_layer": layers,
        "layer_tables": tables,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def compare(path: str, table: Dict[str, Dict[str, dict]],
            bench: dict) -> Tuple[List[str], bool]:
    """One line per (workload, metric); True when any metric regressed.

    A metric is ``unresolved`` when the baseline's or the new runs'
    quartile spread is wider than its bound (unless every new run beats
    every baseline run), ``REGRESSED``/``improved`` when its median moved
    by more than the bound, else ``unchanged``.
    """
    with open(path, encoding="utf-8") as fh:
        base = json.load(fh)["workloads"]
    spec = {m["name"]: m for m in bench["end_to_end"]}
    lines, regressed = [], False
    for workload, metrics in table.items():
        for name, row in metrics.items():
            old = base.get(workload, {}).get(name)
            if old is None or name not in spec:
                continue
            bound = spec[name]["bound"]
            sign = 1.0 if spec[name]["better"] == "lower" else -1.0
            worse = sign * (row["median"] - old["median"]) / abs(old["median"])
            all_better = all(sign * (new - prev) < 0 for new in row["values"]
                             for prev in old["values"])
            if max(_spread(old), _spread(row)) > bound and not all_better:
                status = "unresolved"
            elif worse > bound:
                status, regressed = "REGRESSED", True
            elif worse < -bound:
                status = "improved"
            else:
                status = "unchanged"
            lines.append(
                f"{workload} {name} base={old['median']:.6g} "
                f"new={row['median']:.6g} worse_by={100 * worse:+.1f}% "
                f"bound={100 * bound:.0f}% spread="
                f"{100 * max(_spread(old), _spread(row)):.1f}% -> {status}")
    return lines, regressed


def ladder(args, root: str) -> int:
    """Record the summarize size ladder into ``ladder.json``."""
    rungs = RUNGS + (SLOW_RUNGS if args.slow else [])
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    rows = []
    for rung, hosts in rungs:
        work = os.path.join(args.work_dir, f"ladder-{rung}")
        os.makedirs(work, exist_ok=True)
        env["TMPDIR"] = work
        graph = inputs.web_graph(args.seed, hosts)
        graph_path = os.path.join(work, "graph.txt")
        inputs.write_edge_list(graph, graph_path)
        prefix = os.path.join(work, "trace")
        program = procs.Program(
            ["summarize", graph_path, os.path.join(work, "out"),
             "--seed", str(args.seed)], env, work, speed.cpus()[0],
            timeout=3600)
        try:
            program.read()
            program.call("job")             # warm-up
            untraced = program.call("job")
            program.call(f"trace {prefix}")
            program.call("job")
        finally:
            rss_mb = program.close()
        with open(prefix + ".summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        job_s = summary["names"]["ledger:job"]["total_s"]
        shares: Dict[str, float] = {}
        for name, value in summary["names"].items():
            if name != "ledger:job":
                layer = name.split(":", 1)[0]
                shares[layer] = shares.get(layer, 0.0) + \
                    100.0 * value["self_s"] / job_s
        rows.append({
            "rung": rung, "hosts": hosts, "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "summarize_s": untraced["job_s"],
            "traced_s": job_s,
            "compression": untraced["compression"],
            "peak_rss_mb": rss_mb,
            "coverage_pct": sum(shares.values()),
            "layer_share_pct": dict(sorted(shares.items())),
        })
        shutil.rmtree(work, ignore_errors=True)
        print(f"ladder {rung}: {graph.num_edges} edges, summarize "
              f"{untraced['job_s']:.2f}s, compression "
              f"{untraced['compression']:.4f}", flush=True)
    out = os.path.join(HERE, "ladder.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"machine": _machine(), "seed": args.seed,
                   "job": "load_graph + LDME(k=5, T=20).summarize + "
                          "write_summary_binary",
                   "rungs": rows}, fh, indent=1)
        fh.write("\n")
    print(f"# ladder written to {out}")
    return 0
