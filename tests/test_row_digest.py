"""tools/row_digest.py, which compares two checkouts' outputs bit for bit,
runs on every benchmark workload and prints the same digests in two
processes."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rowloc.harness import METHODS

TOOL = Path(__file__).resolve().parents[1] / "tools" / "row_digest.py"
WORKLOADS = ("uniform-track", "grid-sweep", "compare-apricot")


def run_digest(workload):
    """The tool's output lines for two frames of `workload`, in a process of its own."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}
    done = subprocess.run([sys.executable, str(TOOL), workload, "--seed", "3", "--frames", "2"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


first_run = functools.cache(run_digest)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_row_digest_prints_one_digest_per_method_and_one_over_all(workload):
    lines = first_run(workload)
    assert [line.split()[0] for line in lines] == [*METHODS, "all"]
    assert all(re.fullmatch(r".* 2 (rows|frames) +[0-9a-f]{64}", line) for line in lines)


def test_row_digest_repeats_in_another_process():
    assert run_digest("grid-sweep")[-1] == first_run("grid-sweep")[-1]
