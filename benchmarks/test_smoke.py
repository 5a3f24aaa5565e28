"""Smoke test of the benchmark itself, at the smallest workload sizes.

    python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = HERE.parent,
         script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd, check=False,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    result = _result(workload, 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # The pencil at p = 2^61 - 1 misses its deadline until build_stable's
    # gamma scan stops being O(p); nothing else may fail.
    assert result["failed"] == (1 if workload == "certify" else 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_named_with_units_and_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in first["metrics"].items()} == want
    counts = [k for k, unit in want.items() if unit in ("count", "bytes")]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("factor", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
