"""Smoke test of the ledger benchmark: every workload at ``--scale smoke``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/ledger``. Each
workload runs once untraced and once traced, on tiny inputs, and must
print exactly the metric names BENCHMARK.json declares, with no failed
operation.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(workload: str, trace: int, tmp_path) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1.5",
         "--scale", "smoke", "--trace", str(trace),
         "--work-dir", str(tmp_path / "work"),
         "--trace-dir", str(tmp_path / "trace")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_smoke(workload, trace, tmp_path):
    lines, result = _run(workload, trace, tmp_path)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    for line in lines:
        name = line.split()[1]
        assert NAME.match(name), line
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert f"{workload} fail_frac 0 ratio" in "\n".join(lines)


def test_refuses_without_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, silently."""
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "summarize_web", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=""),
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
