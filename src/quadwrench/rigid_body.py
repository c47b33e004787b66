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
deterministic motion model used for filter prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attitude import cross3, quat_apply_body_rates, rotmat_body_to_global

__all__ = [
    "VehicleParams",
    "VehicleState",
    "ProcessNoiseSample",
    "NoiseConfig",
    "rotor_wrench",
    "collective_thrust",
    "motor_torques",
    "process_step",
]

_EZ = np.array([0.0, 0.0, 1.0])
# sign of each motor's term in [thrust, tau_x, tau_y, tau_z]; see motor_torques
_ROTOR_SIGNS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, -1.0],
    [-1.0, 1.0, 1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0],
])


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

    def __post_init__(self):
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "thrust_coeff", np.asarray(self.thrust_coeff, dtype=float))
        object.__setattr__(self, "drag_coeff", np.asarray(self.drag_coeff, dtype=float))
        object.__setattr__(self, "gravity", np.asarray(self.gravity, dtype=float))
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.arm_length <= 0.0:
            raise ValueError("arm_length must be positive")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.inertia.shape != (3, 3) or not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(self.inertia) <= 0.0):
            raise ValueError("inertia must be positive definite")
        if self.thrust_coeff.shape != (4,) or np.any(self.thrust_coeff <= 0.0):
            raise ValueError("thrust_coeff must be 4 positive values")
        if self.drag_coeff.shape != (4,) or np.any(self.drag_coeff <= 0.0):
            raise ValueError("drag_coeff must be 4 positive values")
        object.__setattr__(self, "inertia_inv", np.linalg.inv(self.inertia))
        # run constants of rotor_wrench, and the inverse of its map from
        # per-motor thrust k_i * Omega_i^2 to [T, tau] for the motor mixer
        k, d = self.thrust_coeff, self.drag_coeff
        l = np.full(4, self.arm_length)
        constants = {
            "rotor_coeffs": _ROTOR_SIGNS * np.stack([k, k, k, d]),
            "rotor_scale": np.array([1.0, self.arm_length, self.arm_length, 1.0]),
            "mixer_inv": np.linalg.inv(_ROTOR_SIGNS * np.stack([np.ones(4), l, l, d / k])),
        }
        for name, value in constants.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def hover_speed(self) -> float:
        """Per-motor turn rate (rad/s) balancing gravity with equal motors."""
        return float(np.sqrt(self.mass * self.gravity[2] / np.sum(self.thrust_coeff)))


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


@dataclass
class ProcessNoiseSample:
    """One draw of the four process-noise terms; zeros give the deterministic map."""

    eta_tau_m: np.ndarray   # N m, motor-torque noise (body frame)
    eta_tau_e: np.ndarray   # N m, external-torque random walk
    eta_ct: np.ndarray      # N, thrust noise (body frame)
    eta_f_e: np.ndarray     # N, external-force random walk

    @classmethod
    def zero(cls) -> "ProcessNoiseSample":
        return cls(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "ProcessNoiseSample":
        """Split a (..., 12) block ordered [tau_m, tau_e, ct, f_e]."""
        m = np.asarray(m, dtype=float)
        return cls(m[..., 0:3], m[..., 3:6], m[..., 6:9], m[..., 9:12])


@dataclass
class NoiseConfig:
    """Diagonal process and measurement covariances.

    ``q_*`` are per-step process covariances, ``g_x`` the pose-position
    measurement covariance (m^2) and ``g_rho`` the attitude measurement
    covariance in MRP units squared (a rotation by angle a has |rho| ~ a/4).
    """

    q_ct: np.ndarray
    q_tau_m: np.ndarray
    q_f_e: np.ndarray
    q_tau_e: np.ndarray
    g_x: np.ndarray
    g_rho: np.ndarray

    def __post_init__(self):
        for name in ("q_ct", "q_tau_m", "q_f_e", "q_tau_e", "g_x", "g_rho"):
            mat = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if mat.ndim == 1:
                mat = np.diag(mat)
            if mat.shape != (3, 3):
                raise ValueError(f"{name} must be a 3x3 matrix or length-3 diagonal")
            if np.any(np.diag(mat) <= 0.0):
                raise ValueError(f"{name} diagonal must be strictly positive")
            setattr(self, name, mat)

    @classmethod
    def default(cls) -> "NoiseConfig":
        # Estimator tuning defaults: the wrench random-walk stds set the
        # estimator bandwidth and are chosen for a ~1 s 10-90% rise at the
        # default measurement noise.
        return cls(
            q_ct=np.diag([0.025**2, 0.025**2, 0.05**2]),
            q_tau_m=np.eye(3) * 0.005**2,
            q_f_e=np.eye(3) * 6e-4**2,
            q_tau_e=np.eye(3) * 5e-5**2,
            g_x=np.eye(3) * 0.001**2,
            g_rho=np.eye(3) * 0.0005**2,
        )

    def process_cov(self) -> np.ndarray:
        """Stacked 12x12 process covariance, ordered [tau_m, tau_e, ct, f_e]."""
        out = np.zeros((12, 12))
        out[0:3, 0:3] = self.q_tau_m
        out[3:6, 3:6] = self.q_tau_e
        out[6:9, 6:9] = self.q_ct
        out[9:12, 9:12] = self.q_f_e
        return out

    def measurement_cov(self) -> np.ndarray:
        """Stacked 6x6 measurement covariance, ordered [position, mrp]."""
        out = np.zeros((6, 6))
        out[0:3, 0:3] = self.g_x
        out[3:6, 3:6] = self.g_rho
        return out


def rotor_wrench(params: VehicleParams, rotor_speeds: np.ndarray) -> np.ndarray:
    """Rotor thrust along body z and body-frame torque, ``[T, tau_x, tau_y, tau_z]``.

    Each entry sums the signed per-motor terms left to right,
    ``k_i * Omega_i^2`` for thrust and roll/pitch (times the arm length after
    the sum) and ``d_i * Omega_i^2`` for yaw, so equal speeds give exactly
    zero torque.
    """
    w = np.asarray(rotor_speeds, dtype=float)[..., None, :]
    t = params.rotor_coeffs * w * w
    return params.rotor_scale * (t[..., 0] + t[..., 1] + t[..., 2] + t[..., 3])


def collective_thrust(params: VehicleParams, rotor_speeds: np.ndarray) -> np.ndarray:
    """Total thrust sum(k_i * Omega_i^2) along the body z-axis, in newtons."""
    return rotor_wrench(params, rotor_speeds)[..., 0]


def motor_torques(params: VehicleParams, rotor_speeds: np.ndarray) -> np.ndarray:
    """Body-frame torque from differential thrust and motor drag.

    Motor layout: each motor sits ``arm_length`` from both horizontal body
    axes; motors 2 and 4 spin about +body-z, motors 1 and 3 about -body-z, so
    their drag reactions alternate sign on the yaw axis.
    """
    return rotor_wrench(params, rotor_speeds)[..., 1:]


def process_step(
    state: VehicleState,
    rotor_speeds: np.ndarray,
    noise: ProcessNoiseSample | None,
    params: VehicleParams,
) -> VehicleState:
    """Propagate the state one sampling period.

    With ``noise=None`` (or all zeros) this is the deterministic motion model;
    the simulator adds scenario wrenches by seeding ``tau_e``/``f_e`` and the
    filter perturbs each sigma point through ``noise``.
    """
    if noise is None:
        noise = ProcessNoiseSample.zero()
    T = params.dt
    m = params.mass

    wrench = rotor_wrench(params, rotor_speeds)

    # matvecs: einsum is the cheaper form of R v on a sigma-point set,
    # v-times-matrix matmul the cheaper form of R' v and of the inertia maps
    R_bg = rotmat_body_to_global(state.q)
    thrust_body = wrench[..., :1] * _EZ + noise.eta_ct
    acc = (
        np.einsum("...ij,...j->...i", R_bg, thrust_body) / m
        - params.gravity
        + state.f_e / m
    )
    pos = state.pos + T * state.vel + 0.5 * T * T * acc
    vel = state.vel + T * acc

    q = quat_apply_body_rates(state.q, state.omega, T)

    tau_e_body = (state.tau_e[..., None, :] @ R_bg)[..., 0, :]  # R' tau_e: global into body axes
    inertia_rate = state.omega @ params.inertia.T
    torque_sum = tau_e_body + wrench[..., 1:] + noise.eta_tau_m - cross3(state.omega, inertia_rate)
    omega = state.omega + T * (torque_sum @ params.inertia_inv.T)

    return VehicleState(
        q=q,
        omega=omega,
        pos=pos,
        vel=vel,
        tau_e=state.tau_e + noise.eta_tau_e,
        f_e=state.f_e + noise.eta_f_e,
    )
