"""tools/topk_counts.py, which counts the work of top-k search and the
kernel lookups of every pass, runs on all three benchmark workloads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "topk_counts.py"


@pytest.mark.parametrize("workload", ["uniform-track", "grid-sweep", "compare-apricot"])
def test_topk_counts_prints_bounds_and_proposals_per_frame(workload):
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    done = subprocess.run([sys.executable, str(TOOL), workload, "--seed", "3", "--frames", "2"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    head, *counts = done.stdout.splitlines()
    searches = 0 if workload == "compare-apricot" else 2  # the particle filter's none
    assert head == f"{workload} seed 3: 2 frames, {searches} top-k searches"
    means = {}
    for line in counts:
        name, mean = re.fullmatch(r"(\w+) +per frame +mean +([\d.]+) +median +[\d.]+",
                                  line).groups()
        means[name] = float(mean)
    assert list(means) == ["bounds", "proposals", "fast", "interior", "edge", "band", "out"]
    assert (means["bounds"] > 0) == (means["proposals"] > 0) == bool(searches)
    # every workload scores through the interior kernel; the particle
    # filter's chunks also through the fast one
    assert means["interior"] > 0
    assert means["fast"] > 0 or workload != "compare-apricot"
