"""Discrete-time quadrotor process model shared by simulator and estimator.

The model is the explicit-Euler rigid body with per-motor quadratic thrust,
motor drag torques, gravity, and an external wrench (force and torque, both
expressed in the global frame) that evolves as a random walk.  One step maps
the state at k-1 to the state at k:

* translational: constant acceleration over the step, thrust rotated into the
  global frame through the attitude at k-1;
* rotational: quaternion rotated by the body rates at k-1; rates updated with
  motor torques, the external torque mapped into the body frame, and the
  gyroscopic term;
* wrench: ``f_e`` and ``tau_e`` carried forward plus their random-walk noise.

All operations broadcast over leading axes so a whole sigma-point set (or a
Monte-Carlo batch) propagates in one call; the zero-noise map is exactly the
deterministic motion model used for filter prediction.  ``process_step`` is the
one array form of the model: it serves the sigma-point sets and any batch of
vehicles, and is the oracle of the simulator's truth step, which writes the
same map out on one vehicle in Python floats from
:attr:`VehicleParams.floats` and :func:`rotor_wrench_floats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attitude import cross3, quat_apply_body_rates, rotmat_body_to_global

__all__ = [
    "VehicleParams",
    "VehicleFloats",
    "VehicleState",
    "NoiseConfig",
    "rotor_wrench",
    "rotor_wrench_floats",
    "process_step",
]

_EZ = np.array([0.0, 0.0, 1.0])
# sign of each motor's term in [thrust, tau_x, tau_y, tau_z]; see rotor_wrench
_ROTOR_SIGNS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, -1.0],
    [-1.0, 1.0, 1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0],
])


def _check_finite(obj, *names):
    """Raise ``ValueError`` unless each named setting of ``obj`` is finite."""
    for name in names:
        value = getattr(obj, name)
        if not np.isfinite(value).all():
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


class VehicleFloats(NamedTuple):
    """The run constants of one :class:`VehicleParams` as Python floats, for
    the forms that serve one vehicle per call; matrices are tuples of rows."""

    mass: float
    dt: float
    gravity: tuple
    inertia: tuple
    inertia_inv: tuple
    rotor_coeffs: tuple
    rotor_scale: tuple
    mixer_inv: tuple
    motor_thrust_max: tuple
    thrust_coeff: tuple


@dataclass(frozen=True)
class VehicleParams:
    """Physical constants of the vehicle and the sampling period."""

    mass: float = 0.48                      # kg
    inertia: np.ndarray = field(default_factory=lambda: np.diag([3.4e-3, 3.4e-3, 4.7e-3]))  # kg m^2
    arm_length: float = 0.13                # m, motor offset from each body axis
    thrust_coeff: np.ndarray = field(default_factory=lambda: np.full(4, 3.5e-7))  # N/(rad/s)^2
    drag_coeff: np.ndarray = field(default_factory=lambda: np.full(4, 5.6e-9))    # N m/(rad/s)^2
    gravity: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 9.81]))  # m/s^2
    dt: float = 0.005                       # s
    omega_max: float = 2550.0               # rad/s, motor limit and telemetry full scale

    def __post_init__(self):
        for name in ("inertia", "thrust_coeff", "drag_coeff", "gravity"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        # an infinite setting passes every check below and turns into a NaN
        # mid-run, through an inf * 0 that raises no warning on floats
        _check_finite(self, "mass", "inertia", "arm_length", "thrust_coeff", "drag_coeff", "gravity",
                      "dt", "omega_max")
        # written as "not > 0" so that NaN fails too
        for name in ("mass", "arm_length", "dt", "omega_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.inertia.shape != (3, 3) or not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if not np.all(np.linalg.eigvalsh(self.inertia) > 0.0):
            raise ValueError("inertia must be positive definite")
        if self.thrust_coeff.shape != (4,) or not np.all(self.thrust_coeff > 0.0):
            raise ValueError("thrust_coeff must be 4 positive values")
        if self.drag_coeff.shape != (4,) or not np.all(self.drag_coeff > 0.0):
            raise ValueError("drag_coeff must be 4 positive values")
        # run constants of rotor_wrench and of the motor mixer (the inverse of
        # the map from per-motor thrust k_i * Omega_i^2 to [T, tau], and each
        # motor's thrust at omega_max), built without numpy warnings and then
        # checked with the model's 1/mass, which finite settings can overflow
        k, d = self.thrust_coeff, self.drag_coeff
        l = np.full(4, self.arm_length)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            constants = {
                "inertia_inv": np.linalg.inv(self.inertia),
                "rotor_coeffs": _ROTOR_SIGNS * np.stack([k, k, k, d]),
                "rotor_scale": np.array([1.0, self.arm_length, self.arm_length, 1.0]),
                "mixer_inv": np.linalg.inv(_ROTOR_SIGNS * np.stack([np.ones(4), l, l, d / k])),
                "motor_thrust_max": k * np.float64(self.omega_max) ** 2,
            }
            derived = {"1/mass": ("mass", 1.0 / np.float64(self.mass)),
                       "inertia_inv": ("inertia", constants["inertia_inv"]),
                       "mixer_inv": ("arm_length, thrust_coeff, drag_coeff", constants["mixer_inv"]),
                       "motor_thrust_max": ("thrust_coeff, omega_max", constants["motor_thrust_max"])}
        for name, (settings, value) in derived.items():
            if not np.isfinite(value).all():
                raise ValueError(f"VehicleParams {settings}: the derived {name} is not finite")
        for name, value in constants.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

        def rows(a):
            return tuple(map(tuple, a.tolist()))

        object.__setattr__(self, "floats", VehicleFloats(
            mass=float(self.mass), dt=float(self.dt), gravity=tuple(self.gravity.tolist()),
            inertia=rows(self.inertia), inertia_inv=rows(self.inertia_inv),
            rotor_coeffs=rows(self.rotor_coeffs), rotor_scale=tuple(self.rotor_scale.tolist()),
            mixer_inv=rows(self.mixer_inv), motor_thrust_max=tuple(self.motor_thrust_max.tolist()),
            thrust_coeff=tuple(self.thrust_coeff.tolist())))


@dataclass
class VehicleState:
    """Full vehicle state; fields broadcast over leading axes.

    ``q`` is the attitude quaternion (scalar-first, unit norm), ``omega`` the
    body-frame angular velocity, ``pos``/``vel`` global position and velocity,
    and ``tau_e``/``f_e`` the external torque and force in the global frame.
    """

    q: np.ndarray
    omega: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    tau_e: np.ndarray
    f_e: np.ndarray

    @classmethod
    def at_rest(cls, pos=(0.0, 0.0, 0.0), q=None) -> "VehicleState":
        return cls(
            q=np.array([1.0, 0.0, 0.0, 0.0]) if q is None else np.asarray(q, dtype=float),
            omega=np.zeros(3),
            pos=np.asarray(pos, dtype=float),
            vel=np.zeros(3),
            tau_e=np.zeros(3),
            f_e=np.zeros(3),
        )

    def copy(self) -> "VehicleState":
        return VehicleState(*(np.array(getattr(self, f)) for f in ("q", "omega", "pos", "vel", "tau_e", "f_e")))

    def as_vector(self) -> np.ndarray:
        """Flat [q(4), omega, pos, vel, tau_e, f_e] record, 19 entries."""
        return np.concatenate([self.q, self.omega, self.pos, self.vel, self.tau_e, self.f_e], axis=-1)


@dataclass(frozen=True)
class NoiseConfig:
    """Diagonal process and measurement covariances, three variances per block.

    ``q_*`` are per-step process variances, ``g_x`` the pose-position
    measurement variances (m^2) and ``g_rho`` the attitude measurement
    variances in MRP units squared (a rotation by angle a has |rho| ~ a/4).
    Each block is a read-only ``(3,)`` copy (x, y, z; another shape raises
    ``ValueError``).
    """

    q_ct: np.ndarray
    q_tau_m: np.ndarray
    q_f_e: np.ndarray
    q_tau_e: np.ndarray
    g_x: np.ndarray
    g_rho: np.ndarray

    def __post_init__(self):
        for name in ("q_ct", "q_tau_m", "q_f_e", "q_tau_e", "g_x", "g_rho"):
            var = np.array(getattr(self, name), dtype=float)
            if var.shape != (3,) or not np.all((var > 0.0) & (var < np.inf)):
                raise ValueError(f"NoiseConfig.{name} must be finite: three positive variances, got {var!r}")
            var.flags.writeable = False
            object.__setattr__(self, name, var)

    @classmethod
    def default(cls) -> "NoiseConfig":
        # Estimator tuning defaults: the wrench random-walk stds set the
        # estimator bandwidth and are chosen for a ~1 s 10-90% rise at the
        # default measurement noise.
        return cls(
            q_ct=[0.025**2, 0.025**2, 0.05**2],
            q_tau_m=np.full(3, 0.005**2),
            q_f_e=np.full(3, 6e-4**2),
            q_tau_e=np.full(3, 5e-5**2),
            g_x=np.full(3, 0.001**2),
            g_rho=np.full(3, 0.0005**2),
        )


def rotor_wrench(params: VehicleParams, rotor_speeds: np.ndarray) -> np.ndarray:
    """Rotor thrust along body z and body-frame torque, ``[T, tau_x, tau_y, tau_z]``.

    Each entry sums the signed per-motor terms left to right,
    ``k_i * Omega_i^2`` for thrust and roll/pitch (times the arm length after
    the sum) and ``d_i * Omega_i^2`` for yaw, so equal speeds give exactly
    zero torque.

    Motor layout: each motor sits ``arm_length`` from both horizontal body
    axes; motors 2 and 4 spin about +body-z, motors 1 and 3 about -body-z, so
    their drag reactions alternate sign on the yaw axis.
    """
    w = np.asarray(rotor_speeds, dtype=float)[..., None, :]
    t = params.rotor_coeffs * w * w
    return params.rotor_scale * (t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3])


def rotor_wrench_floats(params: VehicleParams, rotor_speeds) -> tuple[float, float, float, float]:
    """:func:`rotor_wrench` of one vehicle's four speeds as Python floats.

    Each entry is ``(c_i * w_i) * w_i`` summed over the motors left to right,
    then scaled, the operations of :func:`rotor_wrench` in its order, so the
    result is bit-identical.
    """
    w0, w1, w2, w3 = rotor_speeds
    (c0, c1, c2, c3), (d0, d1, d2, d3), (e0, e1, e2, e3), (f0, f1, f2, f3) = params.floats.rotor_coeffs
    s0, s1, s2, s3 = params.floats.rotor_scale
    return (s0 * (c0 * w0 * w0 + c1 * w1 * w1 + c2 * w2 * w2 + c3 * w3 * w3),
            s1 * (d0 * w0 * w0 + d1 * w1 * w1 + d2 * w2 * w2 + d3 * w3 * w3),
            s2 * (e0 * w0 * w0 + e1 * w1 * w1 + e2 * w2 * w2 + e3 * w3 * w3),
            s3 * (f0 * w0 * w0 + f1 * w1 * w1 + f2 * w2 * w2 + f3 * w3 * w3))


def process_step(
    state: VehicleState,
    rotor_speeds: np.ndarray,
    noise: np.ndarray | None,
    params: VehicleParams,
) -> VehicleState:
    """Propagate the state one sampling period.

    ``noise`` is a ``(..., 12)`` block of process-noise draws ordered
    ``[tau_m, tau_e, ct, f_e]`` (the ``NoiseConfig.q_*`` of those names):
    body motor-torque noise (N m), external-torque random walk (N m), body
    thrust noise (N) and external-force random walk (N).  With ``noise=None``
    this is the deterministic motion model that the filter's sigma points go
    through: the thrust acceleration is the body-z column of R times the
    thrust, the noise terms are left out, and the carried wrench gets
    ``+ 0.0``, the zero noise's only trace, which turns a -0.0 into 0.0.
    All-zero noise gives the same state.  The simulator seeds scenario wrenches in
    ``tau_e``/``f_e``, and Monte-Carlo batches draw noise through this block.
    """
    T = params.dt
    m = params.mass

    wrench = rotor_wrench(params, rotor_speeds)

    # matvecs: einsum is the cheaper form of R v on a sigma-point set,
    # v-times-matrix matmul the cheaper form of R' v and of the inertia maps
    R_bg = rotmat_body_to_global(state.q)
    if noise is None:
        thrust = R_bg[..., 2] * wrench[..., :1]  # R (0, 0, T)
    else:
        thrust = np.einsum("...ij,...j->...i", R_bg, wrench[..., :1] * _EZ + noise[..., 6:9])
    acc = thrust / m - params.gravity + state.f_e / m
    pos = state.pos + T * state.vel + 0.5 * T * T * acc
    vel = state.vel + T * acc

    q = quat_apply_body_rates(state.q, state.omega, T)

    tau_e_body = (state.tau_e[..., None, :] @ R_bg)[..., 0, :]  # R' tau_e: global into body axes
    inertia_rate = state.omega @ params.inertia.T
    torque_sum = tau_e_body + wrench[..., 1:]
    if noise is None:
        tau_e, f_e = state.tau_e + 0.0, state.f_e + 0.0
    else:
        torque_sum = torque_sum + noise[..., 0:3]
        tau_e, f_e = state.tau_e + noise[..., 3:6], state.f_e + noise[..., 9:12]
    omega = state.omega + T * ((torque_sum - cross3(state.omega, inertia_rate)) @ params.inertia_inv.T)

    return VehicleState(q=q, omega=omega, pos=pos, vel=vel, tau_e=tau_e, f_e=f_e)
