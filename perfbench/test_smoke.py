"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload, untraced and traced, must end its output with a result
object that names every metric of ``BENCHMARK.json`` with its unit and
passes the correctness gate; a broken output must fail the gate; and
without the library's sources the benchmark must exit non-zero without
printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric_and_passes_the_gate(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, spec["name"]


def test_gate_counts_a_wrong_output(tmp_path):
    """Corrupt one pinned digest: exactly that hunt is counted failed."""
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    pinned_path = tmp_path / "perfbench" / "pinned.json"
    pinned = json.loads(pinned_path.read_text())
    for record in pinned["tiny"]["campaign"].values():
        record["counts"]["hunts"][0] = "0" * 16
    pinned_path.write_text(json.dumps(pinned))
    proc = bench("--workload", "campaign", "--seed", "5", "--seconds", "1",
                 "--profile", "tiny", cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    units = json.loads(proc.stdout.strip().splitlines()[-2])["units"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == len(units)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
