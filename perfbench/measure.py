"""One benchmark run: timed scenario calls, post-processing and output checks.

Imported by run.py once it has put this checkout's ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from layertrace import Tracer
from quadwrench.control import build_wrench_map, log_metrics
from quadwrench.logio import TimeSeriesLog
from quadwrench.simulator import run_scenario

HERE = Path(__file__).resolve().parent
# Work is timed in CPU seconds of this single-threaded process: the machines
# the benchmark runs on are shared, and the wall clock also counts the time
# other tenants hold the core.  Wall time is reported alongside, unbounded.
clock = process_time
SETUP_PROBES = 2   # fresh-process set-up timings per round, so they span the run
POST_REPEATS = 5
# Host contention on a shared machine changes the CPU time of the same work by
# up to ~1.6x, within seconds and over the hour.  The timings are therefore
# reported against a fixed reference made of the same numpy calls logio uses
# (a CSV write and read of a fixed matrix shaped like the log), run just after
# each post-processing pass.  Each pass is divided by the reference run next
# to it, and scenario throughput is scaled by the run's median reference time.
REFERENCE_SEED = 0


def setup_seconds(workload: str, seed: int) -> float:
    """Import-and-build time in a fresh interpreter process."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    return float(subprocess.run(probe, check=True, capture_output=True, text=True, timeout=60).stdout)


def digest(matrix) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()[:16]


class Run:
    """Scenario calls made in one benchmark run and their outcomes."""

    def __init__(self, wl, seed):
        self.wl, self.seed = wl, seed
        self.attempted = self.failed = 0
        self.wall_s = 0.0
        self.digests: set[tuple] = set()
        self.problems: list[str] = []   # failed output checks
        self.errors: list[str] = []     # tracebacks of calls that raised
        self.failure_trace: Tracer | None = None
        self.log = None

    def call(self, tracer: Tracer | None = None):
        """One ``run_scenario`` call, traced if a tracer is given; returns its
        CPU time, or None if it raised."""
        scenario, setup = self.wl.build(self.seed)
        steps = int(round(scenario.duration_s / setup.params.dt))
        self.attempted += steps
        t0, w0 = clock(), perf_counter()
        try:
            if tracer is None:
                log = run_scenario(scenario, setup)
            else:
                with tracer.installed(scenario) as traced:
                    log = traced(scenario, setup)
        except Exception:
            self.errors.append(traceback.format_exc(limit=3))
            self.failed += steps - self._replay_to_raise()
            return None
        cpu = clock() - t0
        self.wall_s += perf_counter() - w0
        finite = np.ones(len(log), dtype=bool)
        for est in log.estimates.values():
            finite &= np.isfinite(est).all(axis=1)
        if not finite.all():
            self.failed += int((~finite).sum())
            self.problems.append(f"{int((~finite).sum())} steps ended with non-finite estimates")
        self.digests.add(tuple(digest(log.estimates[name]) for name in log.estimator_names()))
        self.log = log
        return cpu

    def _replay_to_raise(self) -> int:
        """Steps completed before the raise, from a traced replay of the call.

        Runs are deterministic, so the replay raises in the same step; every
        step calls the trajectory reference first.
        """
        scenario, setup = self.wl.build(self.seed)
        self.failure_trace = Tracer()
        with self.failure_trace.installed(scenario) as traced:
            try:
                traced(scenario, setup)
            except Exception:
                pass
        return len(self.failure_trace.durations["simulator.reference"]) - 1


def postprocess(wl, log, workdir: Path):
    """The workload's post-processing; returns (results, seconds per stage)."""
    times = {}
    t0 = clock()
    metrics = {name: log_metrics(log, name) for name in log.estimator_names()}
    times["control.log_metrics"] = clock() - t0
    cells = None
    if wl.has_map:
        t0 = clock()
        cells = build_wrench_map(log, wl.primary)
        times["control.build_wrench_map"] = clock() - t0
    path = workdir / "log.csv"
    t0 = clock()
    log.to_csv(path)
    times["logio.to_csv"] = clock() - t0
    t0 = clock()
    back = TimeSeriesLog.from_csv(path)
    times["logio.from_csv"] = clock() - t0
    return (metrics, cells, back, path.stat().st_size), times


def reference_pass(matrix, workdir: Path) -> float:
    """CPU seconds of one CSV write and read of a fixed matrix with numpy."""
    path = workdir / "reference.csv"
    t0 = clock()
    np.savetxt(path, matrix, delimiter=",", fmt="%.10g")
    np.loadtxt(path, delimiter=",", ndmin=2)
    return clock() - t0


def check_round_trip(log, back) -> list[str]:
    """The CSV must give back the log exactly as printed at ``%.10g``."""
    problems = []
    expected = np.char.mod("%.10g", log.to_matrix()).astype(float)
    if back.column_names() != log.column_names():
        problems.append("CSV round trip changed the columns")
    elif not np.array_equal(back.to_matrix(), expected, equal_nan=True):
        problems.append("CSV round trip differs from the log at %.10g")
    if back.segments != log.segments or back.meta != json.loads(json.dumps(log.meta)):
        problems.append("CSV round trip changed the metadata")
    return problems


def measure(wl, seed, seconds, trace, workdir):
    run = Run(wl, seed)
    figures: dict[str, float] = {}

    times, traced_times = [], []   # CPU seconds per scenario call
    post = []                       # stage timings of post-processing passes, spread over the run
    reference = []                  # CPU seconds of the reference pass run just after each
    setup = []                      # CPU seconds of fresh-process set-up, spread over the run
    tracer = Tracer()
    start = perf_counter()
    while True:
        if not trace:
            setup += [setup_seconds(wl.name, seed) for _ in range(SETUP_PROBES)]
        cpu = run.call()
        if cpu is None:
            break
        times.append(cpu)
        post_log = run.log
        for _ in range(POST_REPEATS):
            results, stage_times = postprocess(wl, post_log, workdir)
            if not post:
                # one scenario run and its post-processing, before the
                # reference's own allocations; later calls only add allocator
                # fragmentation
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                shape = post_log.to_matrix().shape
                ref_matrix = np.random.default_rng(REFERENCE_SEED).standard_normal(shape)
            post.append(stage_times)
            reference.append(reference_pass(ref_matrix, workdir))
        if trace:
            cpu = run.call(tracer)
            if cpu is None:
                break
            traced_times.append(cpu)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(times) > seconds:  # the next round would overrun
            break
    if not trace:
        figures["setup_s"] = statistics.median(setup)

    if run.errors:
        # the figures need a finished log; report how far the failing call got
        return run, figures, {
            "failed_ratio": run.failed / run.attempted,
            "steps_before_raise": run.attempted - run.failed,
            "estimator.correct.accept_ratio": run.failure_trace.accept_ratio(),
        }
    steps = len(post_log)
    metrics, cells, back, csv_bytes = results

    if trace:
        figures.update(tracer.layer_metrics(steps * len(traced_times)))
        for stage in ("control.log_metrics", "control.build_wrench_map", "logio.to_csv", "logio.from_csv"):
            figures[f"{stage}.ms"] = 1e3 * statistics.median(t.get(stage, 0.0) for t in post)
        figures["logio.csv_bytes"] = float(csv_bytes)
        figures["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(times)
    else:
        steps_per_s = statistics.median(steps / t for t in times)
        figures["steps_per_ref"] = steps_per_s * statistics.median(reference)
        figures["post_vs_ref"] = statistics.median(sum(t.values()) / r for t, r in zip(post, reference))
        figures["peak_rss_mb"] = peak_rss_mb
        summary = metrics[wl.primary]
        figures["force_rmse_N"] = summary["force_rmse"]
        figures["torque_rmse_Nm"] = summary["torque_rmse"]

    extra = {
        "failed_ratio": run.failed / run.attempted,
        "saturation_ratio": post_log.meta["saturation_steps"] / steps,
        "scenario_calls": len(times) + len(traced_times),
    }
    if not trace:
        extra["steps_per_s"] = steps_per_s
        extra["steps_per_wall_s"] = steps * len(times) / run.wall_s
        extra["post_s"] = statistics.median(sum(t.values()) for t in post)
        extra["reference_s"] = statistics.median(reference)
    run.problems += check_round_trip(post_log, back)
    try:
        extra.update(wl.score(post_log, metrics, cells))
    except AssertionError as exc:
        run.problems.append(str(exc))
    if len(run.digests) != 1:
        run.problems.append(f"estimates differ between calls with one seed: {sorted(run.digests)}")
    if not all(np.isfinite(v) for v in [*figures.values(), *extra.values()]):
        run.problems.append("a reported figure is not finite")
    extra["digests"] = dict(zip(post_log.estimator_names(), next(iter(run.digests), ())))
    return run, figures, extra
