#!/usr/bin/env python3
"""Run every workload over several seeds and record the figures.

    python3 perfbench/baseline.py                      # seeds 1 2 3, untraced and traced
    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out spread.json

Run from the repository root.  Calls run.py once per workload, seed and trace
mode, prints every figure by name with its unit, and for each end-to-end
metric the median, quartiles and spread (Q3 - Q1 over the median) across the
seeds against its bound in BENCHMARK.json.  Writes the lot, with the machine
(nproc, numpy and BLAS versions) and the commit measured, to ``--out``
(default perfbench/baseline.json).  Exits non-zero if any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# which end-to-end metric each per-layer metric should move, on which workload
# (the fan-grid workloads are runnable but not in BENCHMARK.json)
EXPECTED_MOVES = {
    "estimator.predict.*, estimator.generate_sigma_points.*, estimator.sigma_rows_per_step, "
    "rigid_body.process_step.*":
        "steps_per_ref on stepped-mass and fan-grid-ungated; no change on fan-track-observer",
    "estimator.correct.{calls,us_p50,us_p99,share}":
        "steps_per_ref on stepped-mass and fan-grid-ungated; no change on fan-track-observer",
    "estimator.correct.accept_ratio": "force_rmse_N and map_err_N on fan-grid (gated)",
    "simulator.*": "steps_per_ref on every workload, most on fan-track-observer",
    "observer.MomentumObserver.step.*":
        "steps_per_ref on fan-track-observer and stepped-mass; no change on the fan-grid workloads",
    "attitude.calls_per_step": "steps_per_ref on every workload",
    "control.*.ms, logio.*": "post_vs_ref on every workload, most on fan-grid-ungated",
    "trace.overhead_ratio": "none; the cost of the traced run itself",
}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "commit": commit,
    }


def run_one(workload: str, seed: int, seconds: int, trace: int, report: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--report", str(report)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(report.read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0, 1])
    parser.add_argument("--workloads", nargs="+", help="default: those in BENCHMARK.json")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    workloads = args.workloads or list(whys)
    out = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": args.seeds,
           "expected_moves": EXPECTED_MOVES, "workloads": {}}
    all_correct = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for workload in workloads:
            why = whys.get(workload, "runnable with run.py but not in BENCHMARK.json; see workloads.py")
            entry = out["workloads"][workload] = {"why": why, "runs": []}
            for trace in args.trace:
                for seed in args.seeds:
                    report = run_one(workload, seed, spec["run_seconds"], trace, Path(tmp) / "r.json")
                    all_correct &= report["correct"] and not report["problems"]
                    entry["runs"].append({"seed": seed, "trace": trace, **report})
            figures: dict[str, list[float]] = {}
            for run in entry["runs"]:
                for name, m in run["metrics"].items():
                    figures.setdefault(name, []).append(m["value"])
                for name, value in run["extra"].items():
                    if isinstance(value, (int, float)):
                        figures.setdefault(name, []).append(value)
            entry["summary"] = {name: quartiles(values) for name, values in figures.items()}

    print(f"\n{'workload':<20} {'metric':<44} {'median':>12} {'spread':>8} {'bound':>6}")
    for workload, entry in out["workloads"].items():
        for name, q in entry["summary"].items():
            spread = q.get("spread", float("nan"))
            flag = ""
            if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
                flag = "  spread above a third of the bound"
            print(f"{workload:<20} {name:<44} {q['median']:>12.6g} {spread:>8.4f} "
                  f"{bounds.get(name, ''):>6}{flag}")
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {args.out}; all output checks {'passed' if all_correct else 'FAILED'}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
