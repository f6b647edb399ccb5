"""Smoke test of the benchmark: each workload on 2 frames, both modes.

    python3 -m pytest perfbench

Checks the result record's schema and that its metric names and units
are exactly the ones BENCHMARK.json lists.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["perfbench/run.py", "--seed", "3", "--seconds", "1", "--frames", "2"]


def _run(cwd, *args):
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_on_two_frames(workload, trace, section):
    out = _run(ROOT, "--workload", workload, "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True, out.stderr
    assert record["attempted"] >= 1 and record["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == expected
    for name, m in record["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float)), name


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "uniform-track", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
