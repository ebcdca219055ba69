"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root (they are outside the package's test paths):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


@functools.cache
def run_smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        # the stages run_all calls cover nearly all of its time
        assert out["metrics"]["trace.stage_coverage_min"]["value"] >= 0.95


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_reach_the_same_verdicts(workload):
    proc = run_smoke(workload, 1)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(
        (ROOT / "perfbench" / "results" / f"{workload}-seed{SEED}-trace1-smoke.json").read_text())
    untraced, traced = record["verdicts"]["untraced"], record["verdicts"]["traced"]
    assert set(untraced) == set(traced) == {c["label"] for c in record["cases"]}
    for label, verdicts in traced.items():
        assert set(verdicts) == set(untraced[label]) == {
            next(c["expected"] for c in record["cases"] if c["label"] == label)}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_smoke(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
