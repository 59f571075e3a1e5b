"""Smoke test of the benchmark: every workload at tiny size, traced and not.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit_and_checks_pass(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    printed = [line.split() for line in lines[:-1]]
    for m in wanted:
        assert any(len(f) > 3 and f[1] == m["name"] and f[3] == m["unit"] for f in printed), m


def test_refuses_without_the_program(tmp_path):
    """Only the benchmark's own files present: non-zero exit and no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = _run(tmp_path, "label", 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
