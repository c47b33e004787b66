"""Momentum-based nonlinear wrench observer with input low-pass filtering.

Baseline estimator for comparison runs.  The external force estimate is a
gain times the residual between measured linear momentum and the integral of
the modeled forces (thrust, gravity, and the estimate itself); the external
torque is estimated the same way on body angular momentum with motor-torque
and gyroscopic terms.  Velocity and body-rate signals come from low-passed
first differences of the measured pose, which is what makes the scheme usable
on noisy measurements at all.

With noise-free signals and a constant true wrench the estimation error obeys
first-order dynamics at the configured gain, so a gain ``k`` gives a 10-90%
rise time of ``ln(9)/k`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attitude import (
    cross3,
    quat_conjugate,
    quat_multiply,
    quat_to_rotvec,
    rotmat_body_to_global,
)
from .estimator import PoseMeasurement
from .logio import COV_FIELDS
from .rigid_body import VehicleParams, rotor_wrench

__all__ = ["lowpass_alpha", "ObserverGains", "MomentumObserver"]

_ZERO_COV = np.zeros(len(COV_FIELDS))
_ZERO_COV.flags.writeable = False


def _time_constant(cutoff_hz: float) -> float:
    """Time constant ``1/(2 pi fc)`` of a first-order low-pass."""
    return 1.0 / (2.0 * np.pi * cutoff_hz)


def lowpass_alpha(cutoff_hz: float, dt: float) -> float:
    """Coefficient ``a`` of the first-order low-pass ``y += a (u - y)``,
    ``a = dt/(dt + 1/(2 pi fc))`` at sampling period ``dt``; raises
    ``ValueError`` unless the cutoff lies in (0, Nyquist)."""
    if not 0.0 < cutoff_hz < 0.5 / dt:
        raise ValueError("cutoff must lie in (0, Nyquist)")
    return dt / (dt + _time_constant(cutoff_hz))


@dataclass
class ObserverGains:
    force: float = 2.2          # 1/s, ln(9)/gain ~ 1 s rise
    torque: float = 2.2         # 1/s
    pos_cutoff_hz: float = 8.0  # velocity-from-position differencing
    att_cutoff_hz: float = 5.0  # body rates from attitude differencing

    def __post_init__(self):
        if not (self.force > 0.0 and self.torque > 0.0):
            raise ValueError("observer gains must be positive")


class MomentumObserver:
    """Sequential per-measurement wrench observer.

    ``step`` must be called once per sampling period ``params.dt`` with the
    motor speeds and the pose measurement for that period, or ``None``;
    estimates hold while no pose arrives, and the next pose differences and
    integrates over the n periods since the last one, at that step's motor
    speeds.  Deterministic: identical inputs give identical outputs.

    Record interface shared with the unscented estimator: ``step``,
    ``mean_vector()`` and ``cov_diagonal()`` (zeros: no covariance).
    """

    def __init__(self, params: VehicleParams, gains: ObserverGains | None = None):
        self.params = params
        self.gains = gains or ObserverGains()
        # a cutoff above Nyquist at dt raises here, never at a longer gap mid-run
        lowpass_alpha(self.gains.pos_cutoff_hz, params.dt)
        lowpass_alpha(self.gains.att_cutoff_hz, params.dt)
        self._tau_vel = _time_constant(self.gains.pos_cutoff_hz)
        self._tau_rate = _time_constant(self.gains.att_cutoff_hz)
        self._weight = params.mass * params.gravity
        self._prev_meas: PoseMeasurement | None = None
        self._periods = 0  # sampling periods since the last pose
        # low-passed signals; they start from rest, so momenta are measured
        # from zero
        self.velocity = np.zeros(3)
        self.body_rate = np.zeros(3)
        self.f_e = np.zeros(3)    # N, global
        self.tau_e = np.zeros(3)  # N m, global
        self.force_integral = np.zeros(3)
        self.torque_integral = np.zeros(3)

    def step(self, rotor_speeds: np.ndarray, measurement: PoseMeasurement | None) -> None:
        self._periods += 1
        if measurement is None:
            return
        p = self.params
        n, self._periods = self._periods, 0

        if self._prev_meas is None:
            self._prev_meas = measurement
            return

        h = n * p.dt
        alpha_vel = h / (h + self._tau_vel)
        alpha_rate = h / (h + self._tau_rate)
        vel_raw = (measurement.pos - self._prev_meas.pos) / h
        # quat_to_rotvec takes the short arc of the relative rotation itself
        dq = quat_multiply(quat_conjugate(self._prev_meas.q), measurement.q)
        rate_raw = quat_to_rotvec(dq) / h
        self.velocity = self.velocity + alpha_vel * (vel_raw - self.velocity)
        self.body_rate = self.body_rate + alpha_rate * (rate_raw - self.body_rate)
        self._prev_meas = measurement

        R_bg = rotmat_body_to_global(measurement.q)
        rotor = rotor_wrench(p, rotor_speeds)
        thrust_global = R_bg[:, 2] * rotor[0]

        self.force_integral = self.force_integral + h * (thrust_global - self._weight + self.f_e)
        momentum = p.mass * self.velocity
        self.f_e = self.gains.force * (momentum - self.force_integral)

        ang_momentum = p.inertia @ self.body_rate
        gyro = cross3(self.body_rate, ang_momentum)
        tau_e_body = R_bg.T @ self.tau_e
        self.torque_integral = self.torque_integral + h * (rotor[1:] - gyro + tau_e_body)
        self.tau_e = R_bg @ (self.gains.torque * (ang_momentum - self.torque_integral))

    def mean_vector(self) -> np.ndarray:
        """Log record in the shared estimator schema (19 entries).

        Attitude and pose slots carry the observer's filtered signals so both
        estimators share one log layout.
        """
        q = self._prev_meas.q if self._prev_meas is not None else np.array([1.0, 0, 0, 0])
        pos = self._prev_meas.pos if self._prev_meas is not None else np.zeros(3)
        return np.concatenate([q, self.body_rate, pos, self.velocity, self.tau_e, self.f_e])

    def cov_diagonal(self) -> np.ndarray:
        """Read-only zeros: the observer carries no covariance."""
        return _ZERO_COV
