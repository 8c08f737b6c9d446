"""Tiny-size smoke test of every workload, plus the benchmark's refusals.

Run with ``python -m pytest perfbench/smoke.py -q`` (about 15 seconds).  The
file is not named ``test_*.py``, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import compare  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def run(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    completed = run("--workload", workload, "--size", "tiny", "--seconds", "1",
                    "--seed", "3", "--trace", str(trace))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)


def test_benchmark_json_matches_the_metric_definitions():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run("--workload", "table3_trace", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_compare_refuses_mixed_backends():
    def record(backend: str) -> dict:
        return {
            "workload": "table3_trace", "size": "full", "trace": 0,
            "env": {"propagation_backend": backend, "search_backend": "c", "encode_backend": "c"},
            "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
        }

    assert compare([record("c")], [record("python")], {}) == 2
    assert compare([record("c")], [record("c")], {}) == 0
