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

from dataclasses import dataclass, field

import numpy as np

from .attitude import (
    cross3,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_to_rotvec,
    rotmat_body_to_global,
)
from .estimator import PoseMeasurement
from .logio import COV_FIELDS
from .rigid_body import VehicleParams, rotor_wrench

__all__ = ["LowPassFilter", "ObserverGains", "MomentumObserver"]


@dataclass
class LowPassFilter:
    """First-order discrete low-pass: y += a (u - y), a = T/(T + 1/(2 pi fc))."""

    cutoff_hz: float
    state: np.ndarray | None = None

    def alpha(self, dt: float) -> float:
        """Smoothing coefficient at sampling period ``dt``; raises
        ``ValueError`` unless the cutoff lies in (0, Nyquist)."""
        if not 0.0 < self.cutoff_hz < 0.5 / dt:
            raise ValueError("cutoff must lie in (0, Nyquist)")
        return dt / (dt + 1.0 / (2.0 * np.pi * self.cutoff_hz))

    def step(self, u: np.ndarray, dt: float) -> np.ndarray:
        return self.update(u, self.alpha(dt))

    def update(self, u: np.ndarray, alpha: float) -> np.ndarray:
        """One filter step with a coefficient from :meth:`alpha`."""
        u = np.asarray(u, dtype=float)
        if self.state is None:
            self.state = u.copy()
        else:
            self.state = self.state + alpha * (u - self.state)
        return self.state.copy()


@dataclass
class ObserverGains:
    force: float = 2.2          # 1/s, ln(9)/gain ~ 1 s rise
    torque: float = 2.2         # 1/s
    pos_cutoff_hz: float = 8.0  # velocity-from-position differencing
    att_cutoff_hz: float = 5.0  # body rates from attitude differencing

    def __post_init__(self):
        if self.force <= 0.0 or self.torque <= 0.0:
            raise ValueError("observer gains must be positive")


@dataclass
class ObserverState:
    f_e: np.ndarray = field(default_factory=lambda: np.zeros(3))      # N, global
    tau_e: np.ndarray = field(default_factory=lambda: np.zeros(3))    # N m, global
    force_integral: np.ndarray = field(default_factory=lambda: np.zeros(3))
    torque_integral: np.ndarray = field(default_factory=lambda: np.zeros(3))


class MomentumObserver:
    """Sequential per-measurement wrench observer.

    ``step`` must be called once per sampling period with the motor speeds
    and the pose measurement for that period; estimates hold when a
    measurement drops out.  Deterministic: identical inputs give identical
    outputs.

    Record interface shared with the unscented estimator: ``step``,
    ``wrench``, ``mean_vector()`` and ``cov_diagonal()`` (zeros: no covariance).
    """

    name = "observer"

    def __init__(self, params: VehicleParams, gains: ObserverGains | None = None):
        self.params = params
        self.gains = gains or ObserverGains()
        self.state = ObserverState()
        self._lp_vel = LowPassFilter(self.gains.pos_cutoff_hz)
        self._lp_rate = LowPassFilter(self.gains.att_cutoff_hz)
        # fixed for the run; a cutoff above Nyquist raises here, not mid-run
        self._alpha_vel = self._lp_vel.alpha(params.dt)
        self._alpha_rate = self._lp_rate.alpha(params.dt)
        self._prev_meas: PoseMeasurement | None = None
        self._momentum_ref: np.ndarray | None = None
        self._ang_momentum_ref: np.ndarray | None = None
        self.velocity = np.zeros(3)
        self.body_rate = np.zeros(3)

    def step(self, rotor_speeds: np.ndarray, measurement: PoseMeasurement | None):
        if measurement is None:
            return self.state
        p = self.params
        dt = p.dt

        if self._prev_meas is None:
            self._prev_meas = measurement
            self.velocity = self._lp_vel.update(np.zeros(3), self._alpha_vel)
            self.body_rate = self._lp_rate.update(np.zeros(3), self._alpha_rate)
            self._momentum_ref = p.mass * self.velocity
            self._ang_momentum_ref = p.inertia @ self.body_rate
            return self.state

        vel_raw = (measurement.pos - self._prev_meas.pos) / dt
        dq = quat_canonical(quat_multiply(quat_conjugate(self._prev_meas.q), measurement.q))
        rate_raw = quat_to_rotvec(dq) / dt
        self.velocity = self._lp_vel.update(vel_raw, self._alpha_vel)
        self.body_rate = self._lp_rate.update(rate_raw, self._alpha_rate)
        self._prev_meas = measurement

        R_bg = rotmat_body_to_global(measurement.q)
        rotor = rotor_wrench(p, rotor_speeds)
        thrust_global = R_bg[:, 2] * rotor[0]

        st = self.state
        st.force_integral = st.force_integral + dt * (thrust_global - p.mass * p.gravity + st.f_e)
        momentum = p.mass * self.velocity - self._momentum_ref
        st.f_e = self.gains.force * (momentum - st.force_integral)

        gyro = cross3(self.body_rate, p.inertia @ self.body_rate)
        tau_e_body = R_bg.T @ st.tau_e
        st.torque_integral = st.torque_integral + dt * (rotor[1:] - gyro + tau_e_body)
        ang_momentum = p.inertia @ self.body_rate - self._ang_momentum_ref
        st.tau_e = R_bg @ (self.gains.torque * (ang_momentum - st.torque_integral))
        return st

    @property
    def wrench(self) -> tuple[np.ndarray, np.ndarray]:
        return self.state.f_e.copy(), self.state.tau_e.copy()

    def mean_vector(self) -> np.ndarray:
        """Log record in the shared estimator schema (19 entries).

        Attitude and pose slots carry the observer's filtered signals so both
        estimators share one log layout.
        """
        q = self._prev_meas.q if self._prev_meas is not None else np.array([1.0, 0, 0, 0])
        pos = self._prev_meas.pos if self._prev_meas is not None else np.zeros(3)
        return np.concatenate([q, self.body_rate, pos, self.velocity, self.state.tau_e, self.state.f_e])

    def cov_diagonal(self) -> np.ndarray:
        return np.zeros(len(COV_FIELDS))
