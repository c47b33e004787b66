"""The paper's three experiments as benchmark workloads.

Each workload builds a fresh ``(Scenario, RunSetup)`` from a seed (``FanTrack``
keeps its reference as state, so a scenario object is good for one run only)
and knows how to score and check the log that ``run_scenario`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from quadwrench.logio import STATE_FIELDS, TimeSeriesLog
from quadwrench.simulator import (
    FanDisturbance,
    FanModel,
    FanTrack,
    GridSurvey,
    Hover,
    RunSetup,
    Scenario,
    SteppedMass,
)

_POS = slice(STATE_FIELDS.index("pos_x"), STATE_FIELDS.index("pos_z") + 1)
_SURVEY_HEIGHT = 1.0  # m


class CheckFailed(AssertionError):
    """A workload's output failed one of its correctness checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    primary: str                      # estimator whose error is reported
    has_map: bool                     # post-processing includes build_wrench_map
    build: Callable[[int], tuple[Scenario, RunSetup]]
    # (log, {estimator: log_metrics(...)}, wrench map or None) -> named scores
    score: Callable[[TimeSeriesLog, dict, list | None], dict]


def _stepped_mass(seed: int) -> tuple[Scenario, RunSetup]:
    scenario = Scenario(
        duration_s=20.0, seed=seed, sensor_rate_hz=200.0,
        trajectory=Hover(point=np.array([0.0, 0.0, 1.0])),
        disturbance=SteppedMass(mass=0.053, offset_body=np.array([0.05, 0.0, 0.0]), onset_s=7.0),
    )
    return scenario, RunSetup(estimators=("usque", "observer"), gate_enabled=False)


def _fan_grid(seed: int, gate_enabled: bool = True) -> tuple[Scenario, RunSetup]:
    survey = GridSurvey(x_range=(0.5, 1.5), y_range=(-0.5, 0.5), spacing=0.5, dwell_s=3.0,
                        height=_SURVEY_HEIGHT)
    scenario = Scenario(
        duration_s=survey.duration(), seed=seed, sensor_rate_hz=200.0,
        trajectory=survey, disturbance=FanDisturbance(FanModel()),
    )
    return scenario, RunSetup(estimators=("usque",), gate_enabled=gate_enabled)


def _fan_track_observer(seed: int) -> tuple[Scenario, RunSetup]:
    scenario = Scenario(
        duration_s=20.0, seed=seed, sensor_rate_hz=200.0,
        trajectory=FanTrack(), disturbance=FanDisturbance(FanModel()),
    )
    return scenario, RunSetup(estimators=("observer",))


def _rise_s(metrics: dict, estimator: str) -> float:
    channel = metrics[estimator]["channels"]["f_e_z"]
    if "rise_time_s" not in channel:
        raise CheckFailed(f"no rise detected on the {estimator} f_e_z estimate")
    return channel["rise_time_s"]


def _score_stepped_mass(log: TimeSeriesLog, metrics: dict, cells) -> dict:
    return {
        "rise_s": _rise_s(metrics, "usque"),
        "observer_rise_s": _rise_s(metrics, "observer"),
    }


def _score_fan_grid(log: TimeSeriesLog, metrics: dict, cells) -> dict:
    fan = FanModel()
    errors = [
        np.linalg.norm(cell.mean_f - fan.wrench_at(np.array([cell.x, cell.y, _SURVEY_HEIGHT]))[0])
        for cell in cells
    ]
    return {"map_err_N": float(np.sqrt(np.mean(np.square(errors))))}


def _score_fan_track(log: TimeSeriesLog, metrics: dict, cells) -> dict:
    fan = FanModel()
    lateral = np.cross([0.0, 0.0, 1.0], fan.axis)
    lateral /= np.linalg.norm(lateral)
    last = log.time >= log.time[-1] - 5.0
    offset = (log.truth[last, _POS] - fan.position) @ lateral
    return {"track_offset_m": float(np.mean(np.abs(offset)))}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stepped-mass", "usque", False, _stepped_mass, _score_stepped_mass),
        # The two survey workloads are runnable but not in BENCHMARK.json.
        # With the chi-square gate on, the gate rejects every pose once the fan
        # wrench arrives and the covariance then grows until run_scenario
        # raises, on most seeds.  Without the gate the survey completes, but
        # its force error varies by ~10 % between seeds and a run fits only
        # two 35 s surveys, too unsteady for the benchmark's bounds.
        Workload("fan-grid", "usque", True, _fan_grid, _score_fan_grid),
        Workload("fan-grid-ungated", "usque", True, partial(_fan_grid, gate_enabled=False),
                 _score_fan_grid),
        Workload("fan-track-observer", "observer", False, _fan_track_observer, _score_fan_track),
    )
}
