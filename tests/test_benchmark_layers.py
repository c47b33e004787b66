"""The benchmark's per-layer tracer and post-processing against the program's names.

``perfbench/layertrace.py`` wraps functions and methods looked up by name
(``vars(owner)[attr]``), so a rename or a bypassed call in ``src/`` breaks
only the traced benchmark run; ``perfbench/measure.py`` post-processes each
run's log through ``log_metrics`` and the ``logio`` CSV round trip.  Here
both run on a short scenario of each benchmarked workload; ``perfbench/`` is
imported, not changed.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from quadwrench.observer import MomentumObserver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# per-layer figures that perfbench/measure.py adds around the tracer's own
MEASURE_FIGURES = {
    "control.log_metrics.ms", "logio.to_csv.ms", "logio.from_csv.ms", "logio.csv_bytes", "trace.overhead_ratio",
}
# what each workload calls once per step, by the tracer's span names
COMMON_LAYERS = {
    "observer.MomentumObserver.step", "simulator.truth_step", "simulator.FlightController.command",
    "simulator.SensorModel.sample_pose", "simulator.reference", "simulator.disturbance",
}
EXERCISED = {
    "stepped-mass": COMMON_LAYERS | {
        "estimator.UsqueEstimator.step", "estimator.predict", "estimator.generate_sigma_points",
        "rigid_body.process_step", "estimator.correct",
    },
    "fan-track-observer": COMMON_LAYERS,
}
SECONDS = 0.25
STEPS = 50  # SECONDS at the 5 ms step


def _load(name):
    """Import ``perfbench/<name>.py`` without writing bytecode beside it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def _short_run(workloads, workload):
    scenario, setup = workloads.WORKLOADS[workload].build(1)
    return dataclasses.replace(scenario, duration_s=SECONDS), setup


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_run_reports_every_layer_once_per_step(workload):
    layertrace, workloads = _load("layertrace"), _load("workloads")
    scenario, setup = _short_run(workloads, workload)
    tracer = layertrace.Tracer()
    with tracer.installed(scenario) as traced:
        traced(scenario, setup)

    declared = {m["name"] for m in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    missing = declared - MEASURE_FIGURES - set(tracer.layer_metrics(STEPS))
    assert not missing, f"BENCHMARK.json per-layer metrics the tracer no longer reports: {sorted(missing)}"

    # the tracer keeps an empty span list for each layer it wraps but never sees
    calls = {name: len(spans) for name, spans in tracer.durations.items()
             if spans and name != "simulator.run_scenario"}
    assert calls == dict.fromkeys(EXERCISED[workload], STEPS)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_postprocessing_round_trip_reports_no_problem(workload, tmp_path, monkeypatch):
    workloads = _load("workloads")
    # measure.py imports the tracer by its module name
    monkeypatch.setitem(sys.modules, "layertrace", _load("layertrace"))
    measure = _load("measure")
    scenario, setup = _short_run(workloads, workload)
    log = measure.run_scenario(scenario, setup)
    (metrics, _, back, _), _ = measure.postprocess(workloads.WORKLOADS[workload], log, tmp_path)
    assert set(metrics) == set(setup.estimators)
    assert measure.check_round_trip(log, back) == []


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_failure_count_keeps_the_step_of_a_raise(workload, monkeypatch):
    # measure.py counts the steps a raising call completed from the reference
    # calls of a traced second run, so the flight must draw no step past the
    # one whose estimator raised
    workloads = _load("workloads")
    monkeypatch.setitem(sys.modules, "layertrace", _load("layertrace"))
    measure = _load("measure")
    step = MomentumObserver.step

    def failing(self, *args):
        self.steps = getattr(self, "steps", 0) + 1
        if self.steps > STEPS:
            raise RuntimeError("injected")
        step(self, *args)

    monkeypatch.setattr(MomentumObserver, "step", failing)
    run = measure.Run(workloads.WORKLOADS[workload], 1)
    assert run.call() is None
    assert run.attempted - run.failed == STEPS
