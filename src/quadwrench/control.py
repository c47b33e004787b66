"""Applications on top of the wrench estimate.

* a proportional admittance law turning estimated yaw torque into a lateral
  velocity command (used to center on a fan's flow),
* per-cell statistics of a grid survey (force/torque field mapping),
* response metrics (10-90% rise time, steady-state stats, RMSE vs truth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logio import STATE_FIELDS, TimeSeriesLog, write_csv
from .rigid_body import VehicleState, _check_settings

__all__ = [
    "AdmittanceConfig",
    "admittance_command",
    "WrenchMapCell",
    "EmptyCell",
    "build_wrench_map",
    "wrench_map_to_csv",
    "NoStepDetected",
    "rise_time_10_90",
    "log_metrics",
]


class EmptyCell(ValueError):
    """A survey cell's dwell window contains no samples after the settle cut."""


class NoStepDetected(ValueError):
    """Rise time requested on a channel without a detectable step."""


@dataclass
class AdmittanceConfig:
    gain: float = 8.0        # (m/s) per N m
    limit: float = 0.3       # m/s command clamp
    deadband: float = 0.002  # N m, suppresses hover jitter

    def __post_init__(self):
        _check_settings(self, ("deadband",), positive=("gain", "limit"))
        if not self.deadband >= 0.0:
            raise ValueError(f"AdmittanceConfig.deadband must be >= 0, got {self.deadband!r}")


def admittance_command(tau_z: float, cfg: AdmittanceConfig) -> float:
    """Lateral velocity command: clamp(gain * deadbanded(tau_z), +-limit).

    Odd in ``tau_z`` and monotone non-decreasing; the deadband is subtractive
    so the command is continuous.  A non-finite ``tau_z`` raises ``ValueError``.
    """
    tau_z = float(tau_z)
    if not math.isfinite(tau_z):
        raise ValueError(f"admittance needs a finite torque estimate, got {tau_z!r}")
    magnitude = max(abs(tau_z) - cfg.deadband, 0.0)
    sign = 1.0 if tau_z > 0.0 else -1.0 if tau_z < 0.0 else 0.0
    return float(min(max(sign * cfg.gain * magnitude, -cfg.limit), cfg.limit))


@dataclass
class WrenchMapCell:
    x: float
    y: float
    mean_f: np.ndarray      # (3,) N
    mean_tau: np.ndarray    # (3,) N m
    std_f: np.ndarray
    std_tau: np.ndarray
    count: int


_TAU_SLICE, _F_SLICE = VehicleState.tau_e.columns, VehicleState.f_e.columns
_BASELINE_WINDOW_S = 1.0  # s, the leading window rise_time_10_90 averages as baseline
_STEADY_WINDOW_S = 10.0   # s, the trailing window log_metrics takes as steady state


def build_wrench_map(
    log: TimeSeriesLog,
    estimator: str = "usque",
    settle_s: float = 1.5,
) -> list[WrenchMapCell]:
    """Per-cell wrench statistics over each dwell window.

    The first ``settle_s`` seconds of every dwell are discarded so the rise
    transient does not bias the cell mean.  Raises :class:`EmptyCell` if the
    cut leaves a cell without samples.
    """
    if not log.segments:
        raise ValueError("log carries no dwell segments; run a grid-survey scenario")
    est = log.estimates[estimator]
    cells = []
    for seg in log.segments:
        mask = (log.time >= seg.t_start + settle_s) & (log.time <= seg.t_end)
        if not np.any(mask):
            raise EmptyCell(f"no samples in cell ({seg.x:.2f}, {seg.y:.2f}) after settle cut")
        f = est[mask, _F_SLICE]
        tau = est[mask, _TAU_SLICE]
        cells.append(
            WrenchMapCell(
                x=seg.x, y=seg.y,
                mean_f=f.mean(axis=0), mean_tau=tau.mean(axis=0),
                std_f=f.std(axis=0, ddof=1) if len(f) > 1 else np.zeros(3),
                std_tau=tau.std(axis=0, ddof=1) if len(tau) > 1 else np.zeros(3),
                count=int(mask.sum()),
            )
        )
    return cells


def wrench_map_to_csv(cells: list[WrenchMapCell], path) -> None:
    """Flat map export suitable for external quiver/heatmap plotting."""
    header = (
        "# quadwrench-wrenchmap v1\n"
        "x_m,y_m,fx_n,fy_n,fz_n,taux_nm,tauy_nm,tauz_nm,"
        "std_fx_n,std_fy_n,std_fz_n,std_taux_nm,std_tauy_nm,std_tauz_nm,n"
    )
    rows = np.array([
        [c.x, c.y, *c.mean_f, *c.mean_tau, *c.std_f, *c.std_tau, c.count] for c in cells
    ]).reshape(len(cells), 15)
    write_csv(path, header, rows)


def rise_time_10_90(time: np.ndarray, signal: np.ndarray) -> float:
    """10-90% rise time of a step response.

    The baseline is the mean over the leading second, the final value the
    mean over the trailing 20% of samples.  Raises :class:`NoStepDetected`
    when the change is not distinguishable from baseline noise.
    """
    time = np.asarray(time, dtype=float)
    signal = np.asarray(signal, dtype=float)
    base_mask = time <= time[0] + _BASELINE_WINDOW_S
    baseline = signal[base_mask].mean()
    base_std = signal[base_mask].std()
    final = signal[int(0.8 * len(signal)):].mean()
    step = final - baseline
    if abs(step) < max(5.0 * base_std, 1e-9):
        raise NoStepDetected("no step distinguishable from baseline noise")
    sign = np.sign(step)
    lo = baseline + 0.1 * step
    hi = baseline + 0.9 * step
    above_hi = np.nonzero((signal - hi) * sign >= 0.0)[0]
    if len(above_hi) == 0:
        raise NoStepDetected("signal never reaches 90% of the step")
    i90 = above_hi[0]
    # last instant still below 10% before the 90% crossing, so pre-onset
    # noise excursions cannot shift the start of the rise
    below_lo = np.nonzero((signal[:i90] - lo) * sign <= 0.0)[0]
    i10 = below_lo[-1] if len(below_lo) else 0
    return float(time[i90] - time[i10])


def log_metrics(log: TimeSeriesLog, estimator: str, rmse_from_s: float | None = None) -> dict:
    """Summary metrics for one estimator: steady-state stats, RMSE, rise time.

    Steady-state stats cover the trailing ``_STEADY_WINDOW_S`` seconds, RMSE
    the samples from ``rmse_from_s`` (default: the whole log).  Rise time is
    computed per wrench channel on the truth-detected step and reported only
    for channels where a step exists.  A steady window of fewer than two
    samples or an empty RMSE window raises ``ValueError``.
    """
    est = log.estimates[estimator]
    truth = log.truth
    t = log.time

    steady_mask = t >= t[-1] - _STEADY_WINDOW_S
    rmse_mask = t >= (rmse_from_s if rmse_from_s is not None else t[0])
    if np.count_nonzero(steady_mask) < 2:
        raise ValueError(f"the steady window, {_STEADY_WINDOW_S:g} s to t = {t[-1]:g} s, has under two samples")
    if not rmse_mask.any():
        raise ValueError(f"the RMSE window from t = {rmse_from_s:g} s is empty; the log ends at t = {t[-1]:g} s")

    out: dict = {"channels": {}}
    for i in np.r_[_TAU_SLICE, _F_SLICE]:
        err = est[:, i] - truth[:, i]
        channel = {
            "steady_mean": float(est[steady_mask, i].mean()),
            "steady_std": float(est[steady_mask, i].std(ddof=1)),
            "truth_steady_mean": float(truth[steady_mask, i].mean()),
            "rmse": float(np.sqrt(np.mean(err[rmse_mask] ** 2))),
        }
        try:
            channel["rise_time_s"] = rise_time_10_90(t, est[:, i])
        except NoStepDetected:
            pass
        out["channels"][STATE_FIELDS[i]] = channel

    f_err = est[:, _F_SLICE] - truth[:, _F_SLICE]
    tau_err = est[:, _TAU_SLICE] - truth[:, _TAU_SLICE]
    out["force_rmse"] = float(np.sqrt(np.mean(np.sum(f_err[rmse_mask] ** 2, axis=1))))
    out["torque_rmse"] = float(np.sqrt(np.mean(np.sum(tau_err[rmse_mask] ** 2, axis=1))))
    return out
