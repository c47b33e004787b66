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
rise time of ``ln(9)/k`` seconds.  In discrete time, over a pose interval
``h``, the error is multiplied by ``1 - k h``, so ``step`` raises
``ValueError`` when ``k h > 1``: the pole is negative, so the error rings,
undamped at ``k h = 2`` and diverging beyond.  The default gains at poses
from 10 Hz to 200 Hz have ``k h <= 0.22``.

The observer serves one vehicle, so its step computes on Python floats with
``attitude``'s ``*_floats`` forms and ``rotor_wrench_floats``, the rotor map
the truth step also uses, bit-identical to the process model's
``rotor_wrench``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attitude import (
    cross3_floats,
    quat_multiply_floats,
    quat_to_rotvec_floats,
    rotmat_body_to_global_floats,
)
from .estimator import PoseMeasurement
from .logio import COV_FIELDS
from .rigid_body import _ZERO3, VehicleParams, _check_settings, rotor_wrench_floats

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
        # the cutoffs' Nyquist bound is checked by MomentumObserver, which knows dt
        _check_settings(self, positive=("force", "torque", "pos_cutoff_hz", "att_cutoff_hz"))


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
        # the run constants as Python floats
        self._weight = (params.mass * params.gravity).tolist()
        self._prev_pose: tuple[list, list] | None = None  # (pos, q) of the last pose
        self._periods = 0  # sampling periods since the last pose
        # low-passed signals; they start from rest, so momenta are measured
        # from zero
        self._velocity = self._body_rate = _ZERO3
        self._f_e = self._tau_e = _ZERO3  # N and N m, global
        self._force_integral = self._torque_integral = _ZERO3

    def step(self, rotor_speeds: np.ndarray, measurement: PoseMeasurement | None) -> None:
        self._periods += 1
        if measurement is None:
            return
        p = self.params
        n, self._periods = self._periods, 0
        pose = measurement.vector.tolist()
        pos, q = pose[:3], pose[3:]
        previous, self._prev_pose = self._prev_pose, (pos, q)
        if previous is None:
            return
        (px, py, pz), (w, x, y, z) = previous

        h = n * p.dt
        # each error loop's discrete pole 1 - k h is negative once k h > 1
        force_gain, torque_gain = self.gains.force, self.gains.torque
        gain = max(force_gain, torque_gain)
        if gain * h > 1.0:
            raise ValueError(f"observer {'force' if gain == force_gain else 'torque'} gain {gain:g} 1/s at a pose "
                             f"interval h = {h:g} s: gain * h must not exceed 1, or the error loop rings")
        alpha_vel = h / (h + self._tau_vel)
        alpha_rate = h / (h + self._tau_rate)
        # low-passed first differences of the pose; quat_to_rotvec_floats
        # takes the short arc of the relative rotation
        rx, ry, rz = quat_to_rotvec_floats(quat_multiply_floats((w, -x, -y, -z), q))
        vx, vy, vz = self._velocity
        vx += alpha_vel * ((pos[0] - px) / h - vx)
        vy += alpha_vel * ((pos[1] - py) / h - vy)
        vz += alpha_vel * ((pos[2] - pz) / h - vz)
        self._velocity = (vx, vy, vz)
        bx, by, bz = self._body_rate
        bx += alpha_rate * (rx / h - bx)
        by += alpha_rate * (ry / h - by)
        bz += alpha_rate * (rz / h - bz)
        self._body_rate = (bx, by, bz)

        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotmat_body_to_global_floats(q)
        thrust, tx, ty, tz = rotor_wrench_floats(p, rotor_speeds.tolist())

        # force: the momentum minus the integral of thrust, weight and estimate
        (gx, gy, gz), (fx, fy, fz), (ix, iy, iz) = self._weight, self._f_e, self._force_integral
        ix += h * (r02 * thrust - gx + fx)
        iy += h * (r12 * thrust - gy + fy)
        iz += h * (r22 * thrust - gz + fz)
        self._force_integral = (ix, iy, iz)
        k, m = force_gain, p.mass
        self._f_e = (k * (m * vx - ix), k * (m * vy - iy), k * (m * vz - iz))

        # torque, in the body frame: the angular momentum minus the integral
        # of rotor torque, gyroscopic torque and the estimate R' tau_e
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = p.floats.inertia
        lx = j00 * bx + j01 * by + j02 * bz  # angular momentum I w
        ly = j10 * bx + j11 * by + j12 * bz
        lz = j20 * bx + j21 * by + j22 * bz
        cx, cy, cz = cross3_floats((bx, by, bz), (lx, ly, lz))
        (ex, ey, ez), (ix, iy, iz) = self._tau_e, self._torque_integral
        ix += h * (tx - cx + (r00 * ex + r10 * ey + r20 * ez))
        iy += h * (ty - cy + (r01 * ex + r11 * ey + r21 * ez))
        iz += h * (tz - cz + (r02 * ex + r12 * ey + r22 * ez))
        self._torque_integral = (ix, iy, iz)
        k = torque_gain
        ux, uy, uz = k * (lx - ix), k * (ly - iy), k * (lz - iz)
        self._tau_e = (r00 * ux + r01 * uy + r02 * uz, r10 * ux + r11 * uy + r12 * uz,
                       r20 * ux + r21 * uy + r22 * uz)

    def mean_vector(self) -> np.ndarray:
        """Log record in the shared estimator schema (19 entries).

        Attitude and pose slots carry the observer's filtered signals so both
        estimators share one log layout.
        """
        pos, q = self._prev_pose if self._prev_pose is not None else (_ZERO3, (1.0, 0.0, 0.0, 0.0))
        return np.array([*q, *self._body_rate, *pos, *self._velocity, *self._tau_e, *self._f_e])

    def cov_diagonal(self) -> np.ndarray:
        """Read-only zeros: the observer carries no covariance."""
        return _ZERO_COV
