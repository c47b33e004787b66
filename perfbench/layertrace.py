"""Per-layer call timing for the benchmark's traced run.

``from .attitude import f`` binds ``f`` in the importing module, so a wrapper
is installed under the name each caller looks the function up by.  That keeps
``quadwrench.estimator.process_step`` (sigma-point sets) apart from the
``process_step`` inside ``simulator.truth_step`` (the truth vehicle).  The
wrappers exist only inside :meth:`Tracer.installed` and are removed when it
exits, so the untraced runs execute the program as shipped.

Each timed call is a span; its self time is its duration minus the time of
the traced calls made inside it.  Spans are kept in memory per name.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

from quadwrench import attitude, estimator, observer, rigid_body, simulator

# every module that binds functions from ``attitude`` under its own names
_ATTITUDE_IMPORTERS = (rigid_body, estimator, observer, simulator)


class Tracer:
    def __init__(self):
        self.durations: dict[str, list[int]] = defaultdict(list)  # ns per call
        self.child_ns: Counter = Counter()   # ns spent in traced callees
        self.raised: Counter = Counter()     # calls that ended in an exception
        self.counts: Counter = Counter()     # counted-only calls and observed sizes
        self._stack: list[int] = []

    def _timed(self, name, fn, observe=None):
        # one slot per open span, accumulating the time of its traced callees
        stack = self._stack
        durations = self.durations[name]

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                elapsed = perf_counter_ns() - t0
                self.child_ns[name] += stack.pop()
                if stack:
                    stack[-1] += elapsed
                durations.append(elapsed)
            if observe is not None:
                self.counts[name] += observe(result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, scenario):
        """Install the wrappers for one scenario's types; yields a traced
        ``run_scenario``."""
        patches = []

        def patch(owner, attr, wrap):
            original = vars(owner)[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

        def timed(name, observe=None):
            return lambda fn: self._timed(name, fn, observe)

        try:
            for module in _ATTITUDE_IMPORTERS:
                for attr, fn in list(vars(module).items()):
                    if inspect.isfunction(fn) and fn.__module__ == attitude.__name__:
                        patch(module, attr, lambda f: self._counted("attitude", f))
            patch(estimator, "predict", timed("estimator.predict"))
            patch(estimator, "correct", timed("estimator.correct"))
            patch(estimator, "generate_sigma_points",
                  timed("estimator.generate_sigma_points", lambda r: r.points.shape[0]))
            patch(estimator, "process_step",
                  timed("rigid_body.process_step", lambda r: r.q.shape[0] if r.q.ndim == 2 else 1))
            patch(estimator.UsqueEstimator, "step", timed("estimator.UsqueEstimator.step"))
            patch(observer.MomentumObserver, "step", timed("observer.MomentumObserver.step"))
            patch(simulator, "truth_step", timed("simulator.truth_step"))
            patch(simulator.FlightController, "command", timed("simulator.FlightController.command"))
            patch(simulator.SensorModel, "sample_pose", timed("simulator.SensorModel.sample_pose"))
            patch(type(scenario.trajectory), "reference", timed("simulator.reference"))
            if scenario.disturbance is not None:
                patch(type(scenario.disturbance), "wrench", timed("simulator.disturbance"))
            yield self._timed("simulator.run_scenario", simulator.run_scenario)
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def accept_ratio(self) -> float:
        """Corrections that updated the belief over corrections attempted (0 if none)."""
        attempted = len(self.durations.get("estimator.correct", ()))
        return (attempted - self.raised["estimator.correct"]) / attempted if attempted else 0.0

    def layer_metrics(self, steps: int) -> dict[str, float]:
        """Per-layer figures over ``steps`` simulated steps.

        ``calls`` are per scenario run, ``share`` is a fraction of the traced
        ``run_scenario`` wall time; a function the workload never calls reports
        zeros.
        """
        runs = len(self.durations["simulator.run_scenario"])
        total_ns = sum(self.durations["simulator.run_scenario"])
        out: dict[str, float] = {}

        def stats(name, *kinds):
            us = np.asarray(self.durations.get(name, ()), dtype=float) / 1e3
            for kind in kinds:
                if kind == "calls":
                    value = len(us) / runs
                elif kind == "share":
                    value = us.sum() * 1e3 / total_ns
                elif len(us) == 0:
                    value = 0.0
                else:
                    value = float(np.percentile(us, {"us_p50": 50, "us_p99": 99}[kind]))
                out[f"{name}.{kind}"] = float(value)

        stats("estimator.predict", "calls", "us_p50", "us_p99", "share")
        stats("estimator.generate_sigma_points", "calls", "us_p50")
        out["estimator.sigma_rows_per_step"] = self.counts["estimator.generate_sigma_points"] / steps
        stats("rigid_body.process_step", "calls", "us_p50")
        calls = len(self.durations.get("rigid_body.process_step", ()))
        out["rigid_body.process_step.points_per_call"] = (
            self.counts["rigid_body.process_step"] / calls if calls else 0.0)
        stats("estimator.correct", "calls", "us_p50", "us_p99", "share")
        out["estimator.correct.accept_ratio"] = self.accept_ratio()
        stats("simulator.FlightController.command", "us_p50", "us_p99", "share")
        stats("simulator.truth_step", "us_p50", "share")
        stats("simulator.SensorModel.sample_pose", "us_p50")
        stats("simulator.disturbance", "us_p50")
        stats("simulator.reference", "us_p50")
        out["simulator.run_scenario.self_share"] = 1.0 - self.child_ns["simulator.run_scenario"] / total_ns
        stats("observer.MomentumObserver.step", "calls", "us_p50", "us_p99", "share")
        out["attitude.calls_per_step"] = self.counts["attitude"] / steps
        return out
