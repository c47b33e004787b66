"""The benchmark's own command, run briefly on each benchmarked workload.

``perfbench/run.py`` checks its outputs itself: the CSV round trip, the rise
detection, identical estimate digests across calls and finite figures.  It
prints the verdict as the last line of standard output.  Here it runs for one
second per workload, so those checks run with the tier-1 suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.slow
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_benchmark_run_passes_its_checks(workload):
    # no bytecode beside the benchmark's sources, from the run or the set-up
    # probes it starts
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, *SPEC["command"][1:],
               "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"], run.stderr
    assert result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
