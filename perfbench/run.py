#!/usr/bin/env python3
"""Benchmark: the paper's three scenarios through quadwrench's public API.

    python3 perfbench/run.py --workload stepped-mass --seed 1 --seconds 55 --trace 0

Run from the repository root.  Each run is a closed loop with one client: one
process, one thread, and every 5 ms simulation step waits for the one before
it.  BLAS is pinned to one thread.  A run builds the workload from its seed and
repeats rounds of one ``simulator.run_scenario`` call plus its post-processing
(``control.log_metrics``, ``control.build_wrench_map`` where the workload has a
survey, and the ``logio`` CSV round trip) while the next round still fits in
``--seconds``; then it checks the outputs.  See measure.py.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, ``--trace
1`` installs call wrappers (see layertrace.py) and reports the per-layer ones.
Every figure is printed by name with its unit; the last line of standard
output is the JSON result.  ``--report PATH`` also writes every figure,
including the workload's own accuracy scores and the estimate digests, as JSON.
"""

from __future__ import annotations

import os

# pinned before numpy loads; setup probes inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_quadwrench():
    """Import quadwrench from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quadwrench" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quadwrench sources under {src.name}/ in {ROOT}")
    sys.path.insert(0, str(src))
    import quadwrench

    if Path(quadwrench.__file__).resolve().parent != src / "quadwrench":
        raise SystemExit(f"perfbench: imported quadwrench from {quadwrench.__file__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="also write every figure to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_quadwrench()
    from measure import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        run, figures, extra = measure(wl, args.seed, args.seconds, args.trace, Path(workdir))

    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing and not run.errors:
        run.problems.append(f"figures not measured: {missing}")
    print(f"{wl.name} seed={args.seed} trace={args.trace}: {extra.get('scenario_calls', 0)} scenario calls, "
          f"{run.attempted} steps attempted, {run.failed} failed")
    units = {m["name"]: m["unit"] for m in declared}
    for name, value in {**figures, **extra}.items():
        if name != "digests":
            print(f"  {name:<44} {value:.6g} {units.get(name, '')}".rstrip())
    for name, value in extra.get("digests", {}).items():
        print(f"  digest {name:<37} {value}")
    for error in run.errors:
        print(f"RUN RAISED, counted as failed steps:\n{error}", file=sys.stderr)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
            for m in declared if m["name"] in figures
        },
    }
    if args.report:
        args.report.write_text(json.dumps({**result, "extra": extra, "problems": run.problems}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
