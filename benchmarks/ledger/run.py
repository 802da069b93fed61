"""The perf ledger: end-to-end and per-layer metrics of four workloads.

One workload, as BENCHMARK.json runs it::

    python3 benchmarks/ledger/run.py --workload summarize_web --seed 3 \\
        --seconds 15 --trace 0

prints ``workload metric value unit n=<samples>`` lines and, last, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones). It exits
non-zero when an output check fails. Without ``--workload`` every
workload runs, each in a fresh ``run.py`` process. ``--rounds N`` repeats
with seeds S, S+1, ... and alternating workload order; ``--record`` and
``--compare`` write and read ``baseline.json``; ``--ladder`` records the
summarize size ladder. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def _load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fmt(workload: str, name: str, value: float, unit: str, n: int) -> str:
    return f"{workload} {name} {value:.6g} {unit} n={n}"


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    import speed
    import workloads

    workload = args.workload[0]
    work = os.path.join(args.work_dir,
                        f"{workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(args.trace_dir, exist_ok=True)
    program_cpu, load_cpu = speed.cpus()
    speed.pin(0, load_cpu)
    ctx = workloads.Context(
        name=workload, root=ROOT, work=work, seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace),
        trace_dir=args.trace_dir, scale=workloads.SCALES[args.scale],
        program_cpu=program_cpu,
    )
    try:
        result = workloads.WORKLOADS[workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, unit in workloads.END_TO_END:
        print(_fmt(workload, name, result.metrics[name], unit,
                   result.samples.get(name, 1)))
    print(_fmt(workload, "fail_frac", result.failed / result.attempted,
               "ratio", result.attempted))
    for name, value, unit, n in result.info:
        print(_fmt(workload, name, value, unit, n))
    if args.trace:
        for name, unit in workloads.PER_LAYER:
            print(_fmt(workload, name, result.layers[name], unit, 1))
    for problem in result.problems:
        print(f"{workload} CHECK FAILED: {problem}")

    chosen = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    source = result.layers if args.trace else result.metrics
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit in chosen},
    }))
    return 0 if result.failed == 0 else 1


# ----------------------------------------------------------------------
# several workloads / rounds, each in a fresh process
# ----------------------------------------------------------------------
def _child(args: argparse.Namespace, workload: str, seed: int,
           trace: int) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", args.scale,
           "--work-dir", args.work_dir, "--trace-dir", args.trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def run_many(args: argparse.Namespace, workloads: list) -> int:
    import ledger

    results = {w: [] for w in workloads}
    order = list(workloads)
    for round_index in range(args.rounds):
        seed = args.seed + round_index
        for workload in order:
            tic = time.perf_counter()
            results[workload].append(_child(args, workload, seed, args.trace))
            print(f"# {workload} seed {seed} took "
                  f"{time.perf_counter() - tic:.1f}s", flush=True)
        order.reverse()

    table = ledger.collect(results)
    if args.rounds > 1:
        for line in ledger.format_spread(table):
            print(line)
    bench = _load_benchmark()
    if args.record:
        layers = {}
        if not args.trace:
            for workload in workloads:
                traced = _child(args, workload, args.seed, 1)
                layers[workload] = {k: v["value"] for k, v in
                                    traced["metrics"].items()}
        ledger.record(args.record, table, layers, args, bench)
        print(f"# baseline written to {args.record}")
    status = 0
    if args.compare:
        lines, regressed = ledger.compare(args.compare, table, bench)
        for line in lines:
            print(line)
        status = 1 if regressed else 0
    correct = all(r["correct"] for rs in results.values() for r in rs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for rs in results.values()
                         for r in rs),
        "failed": sum(r["failed"] for rs in results.values() for r in rs),
        "metrics": {w: {m: v["median"] for m, v in ms.items()}
                    for w, ms in table.items()},
    }))
    return status if correct else 1


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source at {ROOT}/src/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, JSON carries per-layer metrics")
    parser.add_argument("--trace-dir",
                        default=os.path.join(ROOT, ".ledger", "trace"),
                        help="where traced runs write spans and layer tables")
    parser.add_argument("--scale", choices=sorted(workloads.SCALES),
                        default="bench")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--record", metavar="BASELINE",
                        help="write medians/quartiles (+ one traced run's "
                             "per-layer table) to BASELINE")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="print each metric's delta against BASELINE")
    parser.add_argument("--ladder", action="store_true",
                        help="record the summarize size ladder instead")
    parser.add_argument("--slow", action="store_true",
                        help="with --ladder: add the ~1e7-edge rung")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".ledger"),
                        help="where a run's files go (removed afterwards)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(_load_benchmark()["run_seconds"])
    args.work_dir = os.path.abspath(args.work_dir)
    args.trace_dir = os.path.abspath(args.trace_dir)
    if args.ladder:
        import ledger

        return ledger.ladder(args, ROOT)
    chosen = args.workload or list(workloads.WORKLOADS)
    if len(chosen) == 1 and args.rounds == 1 and not (
            args.record or args.compare):
        args.workload = chosen
        return run_one(args)
    return run_many(args, chosen)


if __name__ == "__main__":
    sys.exit(main())
