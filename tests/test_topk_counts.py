"""tools/topk_counts.py, which counts the work of top-k search, runs on
the benchmark's uniform sampling and grid search workloads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "topk_counts.py"


@pytest.mark.parametrize("workload", ["uniform-track", "grid-sweep"])
def test_topk_counts_prints_bounds_and_proposals_per_frame(workload):
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    done = subprocess.run([sys.executable, str(TOOL), workload, "--seed", "3", "--frames", "2"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    head, *counts = done.stdout.splitlines()
    assert head == f"{workload} seed 3: 2 frames, 2 top-k searches"
    assert [line.split()[0] for line in counts] == ["bounds", "proposals"]
    for line in counts:
        mean, median = map(float, re.fullmatch(
            r"\w+ +per frame +mean +([\d.]+) +median +([\d.]+)", line).groups())
        assert mean > 0 and median > 0
