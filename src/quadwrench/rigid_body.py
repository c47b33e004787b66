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

``process_step`` is the one array form of the model.  It takes a state, one
record ``[q, omega, pos, vel, tau_e, f_e]`` in the log's layout with views as
its fields, with any leading axes, so a whole sigma-point set (or a
Monte-Carlo batch) propagates in one call and no step packs or unpacks it.
Its zero-noise map is the deterministic motion model of the filter's
prediction, and its noise gain, ``noise_map`` with the body-thrust rows
rotated into the global frame, is the filter's G, through which Q enters the
predicted covariance.  It is a fused kernel of a few
large array operations rather than one per field: the products ``u_i u_j`` of
``u = [q, omega]`` go through one constant map to the rotation matrix, the
rate quaternion and the gyroscopic term; the body-frame external torque is one
batched matrix product; and every next-step field but the attitude is one
matrix product of the stacked rows with a second constant map, plus one
per-call offset holding the rotor wrench, computed on floats by
:func:`rotor_wrench_floats`, and gravity.  The maps are run constants of
:class:`VehicleParams` (``step_map``, ``carry_map``, ``noise_map``).

The per-field form of the same map, the ``attitude`` array kernels field by
field, lives in the tests as ``reference_process_step``: it is the oracle of
``process_step`` (to a stated tolerance) and of the simulator's truth step,
which writes the map out on one vehicle in Python floats from
:attr:`VehicleParams.floats` and :func:`rotor_wrench_floats`.  The array
:func:`rotor_wrench` has no per-step caller left; it is the form that oracle
uses and that :func:`rotor_wrench_floats` is held to bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .attitude import _QUAT_PRODUCT_3D, _ROTATION, _TINY_HALF_ANGLE

__all__ = [
    "VehicleParams",
    "VehicleFloats",
    "VehicleState",
    "NoiseConfig",
    "rotor_wrench",
    "rotor_wrench_floats",
    "process_step",
]

_ZERO3 = (0.0, 0.0, 0.0)

# sign of each motor's term in [thrust, tau_x, tau_y, tau_z]; see rotor_wrench
_ROTOR_SIGNS = np.array([
    [1.0, 1.0, 1.0, 1.0],
    [1.0, 1.0, -1.0, -1.0],
    [-1.0, 1.0, 1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0],
])


def _step_maps(dt, mass, inertia, inertia_inv):
    """The constant maps of :func:`process_step`: step, carry and noise.

    The step map (49, 17) takes the products ``u_i u_j`` of ``u = [q, omega]``
    (row ``7 i + j``) to ``R + I`` row-major (9), ``q (x) (0, omega dt/2)``
    (4), the gyroscopic rate change ``-dt inv(J) (omega x J omega)`` (3) and
    the squared half rotation angle ``(|omega| dt/2)^2`` (1).

    The carry map (24, 15) takes the stacked rows ``[(R + I)' tau_e,
    (R + I) b, gyroscopic rate change, omega, pos, vel, tau_e, f_e]``, b the
    body force, to ``[omega, pos, vel, tau_e, f_e]`` at the next step, and
    the noise map (12, 15) takes the noise block there.  The identity in
    ``R + I`` comes off through the ``tau_e`` rows, the thrust-noise rows and
    the per-call offset.
    """
    # the Levi-Civita symbol: (a x b)_l = eps[l, i, j] a_i b_j
    eps = np.zeros((3, 3, 3))
    eps[[0, 1, 2], [1, 2, 0], [2, 0, 1]], eps[[0, 1, 2], [2, 0, 1], [1, 2, 0]] = 1.0, -1.0
    step = np.zeros((7, 7, 17))
    step[:4, :4, 0:9] = _ROTATION.reshape(4, 4, 9)
    step[:4, 4:, 9:13] = 0.5 * dt * _QUAT_PRODUCT_3D[:, 1:, :]
    # (omega x J omega)_l = eps[l, a, b] J[b, c] omega_a omega_c
    step[4:, 4:, 13:16] = -dt * np.einsum("kl,lab,bc->ack", inertia_inv, eps, inertia)
    step[4:, 4:, 16] = (0.5 * dt) ** 2 * np.eye(3)

    rate = dt * inertia_inv.T              # a body torque row into the rate change
    pos, vel = 0.5 * dt * dt / mass, dt / mass
    eye = np.eye(3)
    carry = np.zeros((12, 3, 5, 3))        # [input block, its axis, output block, its axis]
    carry[0, :, 0] = rate                  # (R + I)' tau_e
    carry[1, :, 1], carry[1, :, 2] = pos * eye, vel * eye  # (R + I) b
    carry[2, :, 0] = eye                   # gyroscopic rate change
    carry[3, :, 0] = eye                   # omega
    carry[4, :, 1] = eye                   # pos
    carry[5, :, 1], carry[5, :, 2] = dt * eye, eye  # vel
    carry[6, :, 0], carry[6, :, 3] = -rate, eye     # tau_e
    carry[7, :, 1], carry[7, :, 2], carry[7, :, 4] = pos * eye, vel * eye, eye  # f_e
    carry[8, :, 0] = rate                  # noise: body motor torque
    carry[9, :, 3] = eye                   # external-torque walk
    carry[10, :, 1], carry[10, :, 2] = -pos * eye, -vel * eye  # body thrust, the -I of R + I
    carry[11, :, 4] = eye                  # external-force walk
    carry = carry.reshape(36, 15)
    return step.reshape(49, 17), carry[:24].copy(), carry[24:].copy()


def _check_settings(obj, finite=(), positive=(), counts=None, **shapes):
    """Check the settings of the configuration object ``obj``, each by name.

    The rule: a configuration object checks every setting at construction,
    by name, so a bad one raises ``ValueError`` naming ``Class.setting``
    there and not steps into a run.  ``finite`` names scalar settings, which
    must be finite numbers of shape ``()``; ``positive`` names settings that
    must also be ``> 0``, every entry of a vector one; each keyword is a
    vector setting and its shape, stored back as a finite float copy of that
    shape (``np.array``: the caller's array is never the one kept).  A string
    or any other value that is not a number, or an array of them, fails too.
    ``counts`` maps integer settings to their largest value: each must be an
    ``int`` from 0 up to it, and not a ``bool``.
    """
    cls = type(obj).__name__
    for name in dict.fromkeys((*finite, *positive, *shapes)):
        value, shape = getattr(obj, name), shapes.get(name, ())
        try:
            kind = np.asarray(value).dtype.kind
        except ValueError:  # a ragged nesting
            kind = None
        # a string converts to a float ("2.2" to 2.2), so the kind is checked
        if kind not in ("i", "u", "f"):
            raise ValueError(f"{cls}.{name} must be a number or an array of numbers, got {value!r}")
        if name in shapes:
            value = np.array(value, dtype=float)
            object.__setattr__(obj, name, value)
        if np.shape(value) != shape:
            raise ValueError(f"{cls}.{name} must have shape {shape}, got {value!r}")
        # an infinite setting passes the checks beside the call and turns into
        # a NaN mid-run, through an inf * 0 that raises no warning on floats
        if not np.isfinite(value).all():
            raise ValueError(f"{cls}.{name} must be finite, got {value!r}")
    for name in positive:
        # written as "not > 0" so that NaN fails too
        if not np.all(getattr(obj, name) > 0.0):
            raise ValueError(f"{cls}.{name} must be positive, got {getattr(obj, name)!r}")
    for name, high in (counts or {}).items():
        # a bool is an int to Python; a float or a numpy integer is not one
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= high:
            raise ValueError(f"{cls}.{name} must be an integer from 0 to {high}, got {value!r}")


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
        _check_settings(self, positive=("mass", "arm_length", "dt", "omega_max", "thrust_coeff", "drag_coeff"),
                        inertia=(3, 3), thrust_coeff=(4,), drag_coeff=(4,), gravity=(3,))
        if not np.allclose(self.inertia, self.inertia.T, atol=1e-12):
            raise ValueError(f"VehicleParams.inertia must be symmetric, got {self.inertia!r}")
        if not np.all(np.linalg.eigvalsh(self.inertia) > 0.0):
            raise ValueError(f"VehicleParams.inertia must be positive definite, got {self.inertia!r}")
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
            constants["step_map"], constants["carry_map"], constants["noise_map"] = _step_maps(
                np.float64(self.dt), np.float64(self.mass), self.inertia, constants["inertia_inv"])
            derived = {"1/mass": ("mass", 1.0 / np.float64(self.mass)),
                       "inertia_inv": ("inertia", constants["inertia_inv"]),
                       "mixer_inv": ("arm_length, thrust_coeff, drag_coeff", constants["mixer_inv"]),
                       "motor_thrust_max": ("thrust_coeff, omega_max", constants["motor_thrust_max"]),
                       "step_map": ("dt, inertia", constants["step_map"]),
                       "carry_map": ("dt, mass, inertia", constants["carry_map"]),
                       "noise_map": ("dt, mass, inertia", constants["noise_map"])}
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


class _Field:
    """A read/write view of columns ``start:start + width`` of a record's
    ``vector``; a value of another width raises ``ValueError``."""

    def __init__(self, start: int, width: int):
        self.columns, self.width = slice(start, start + width), width

    def __set_name__(self, owner, name):
        self.name = f"{owner.__name__}.{name}"

    def __get__(self, obj, owner=None):
        return self if obj is None else obj.vector[..., self.columns]

    def __set__(self, obj, value):
        obj.vector[..., self.columns] = self.check(value)

    def check(self, value) -> np.ndarray:
        value = np.asarray(value, dtype=float)
        if value.shape[-1:] != (self.width,):
            raise ValueError(f"{self.name} takes {self.width} entries per row, got shape {value.shape}")
        return value


class VehicleState:
    """Full vehicle state, one ``(..., 19)`` float record ``vector`` in the
    log's layout ``[q, omega, pos, vel, tau_e, f_e]`` (``logio.STATE_FIELDS``)
    over any leading axes; each field is a read/write view of its columns.

    ``q`` is the attitude quaternion (scalar-first, unit norm), ``omega`` the
    body-frame angular velocity, ``pos``/``vel`` global position and velocity,
    and ``tau_e``/``f_e`` the external torque and force in the global frame.
    The keyword constructor checks each field's width and broadcasts their
    leading axes; :meth:`from_vector` adopts a record as it is.
    """

    __slots__ = ("vector",)
    WIDTH = 19
    q, omega, pos, vel = _Field(0, 4), _Field(4, 3), _Field(7, 3), _Field(10, 3)
    tau_e, f_e = _Field(13, 3), _Field(16, 3)

    def __init__(self, q, omega, pos, vel, tau_e, f_e):
        cls = VehicleState
        fields = [cls.q.check(q), cls.omega.check(omega), cls.pos.check(pos), cls.vel.check(vel),
                  cls.tau_e.check(tau_e), cls.f_e.check(f_e)]
        rows = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
        self.vector = np.concatenate([np.broadcast_to(f, rows + f.shape[-1:]) for f in fields], axis=-1)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "VehicleState":
        """The state whose record is the ``(..., 19)`` float array ``vector`` itself."""
        if vector.shape[-1:] != (cls.WIDTH,):
            raise ValueError(f"a state record has {cls.WIDTH} entries per row, got shape {vector.shape}")
        state = cls.__new__(cls)
        state.vector = vector
        return state

    @classmethod
    def at_rest(cls, pos=(0.0, 0.0, 0.0), q=(1.0, 0.0, 0.0, 0.0)) -> "VehicleState":
        return cls(q=q, omega=_ZERO3, pos=pos, vel=_ZERO3, tau_e=_ZERO3, f_e=_ZERO3)

    def copy(self) -> "VehicleState":
        return VehicleState.from_vector(self.vector.copy())


@dataclass(frozen=True)
class NoiseConfig:
    """Diagonal process and measurement covariances, three variances per block.

    ``q_*`` are per-step process variances, ``g_x`` the pose-position
    measurement variances (m^2) and ``g_rho`` the attitude measurement
    variances in MRP units squared (a rotation by angle a has |rho| ~ a/4).
    Each block is a read-only ``(3,)`` copy (x, y, z; another shape raises
    ``ValueError``).  Built once from them, read-only: ``meas_var``, the
    ``(6,)`` pose variances ``[g_x, g_rho]``, and ``process_std``, the
    ``(12,)`` process stds in the order of :func:`process_step`'s noise block
    ``[tau_m, tau_e, ct, f_e]``, the square root of the filter's diagonal Q.
    """

    q_ct: np.ndarray
    q_tau_m: np.ndarray
    q_f_e: np.ndarray
    q_tau_e: np.ndarray
    g_x: np.ndarray
    g_rho: np.ndarray

    def __post_init__(self):
        blocks = ("q_ct", "q_tau_m", "q_f_e", "q_tau_e", "g_x", "g_rho")
        _check_settings(self, positive=blocks, **dict.fromkeys(blocks, (3,)))
        for name in blocks:
            getattr(self, name).flags.writeable = False
        derived = {"meas_var": np.concatenate([self.g_x, self.g_rho]),
                   "process_std": np.sqrt(np.concatenate([self.q_tau_m, self.q_tau_e, self.q_ct, self.q_f_e]))}
        for name, value in derived.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

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
    rotor_speeds,
    noise: np.ndarray | None,
    params: VehicleParams,
) -> VehicleState:
    """Propagate the state one sampling period.

    ``rotor_speeds`` are one vehicle's four motor speeds, shared by every
    row of ``state``.  ``noise`` is ``None`` or a block of process-noise draws
    with the state's leading shape plus 12, ordered ``[tau_m, tau_e, ct,
    f_e]`` (the ``NoiseConfig.q_*`` of those names): body motor-torque noise
    (N m), external-torque random walk (N m), body thrust noise (N) and
    external-force random walk (N).  With ``noise=None`` this is the
    deterministic motion model that the filter's sigma points go through;
    all-zero noise gives the same state.  The simulator seeds
    scenario wrenches in ``tau_e``/``f_e``, and Monte-Carlo batches draw noise
    through this block.

    The products of ``[q, omega]`` go through :attr:`VehicleParams.step_map`
    once, for the rotation matrix, the rate quaternion and the gyroscopic
    term; the stacked rows, the last of them the record after ``q``, then go
    through :attr:`VehicleParams.carry_map` once, and the rotor wrench and
    gravity add as one per-call offset; the noise block adds through
    :attr:`VehicleParams.noise_map`.
    """
    T = params.dt
    c = params.floats
    thrust, mx, my, mz = rotor_wrench_floats(params, np.asarray(rotor_speeds, dtype=float).tolist())
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = c.inertia_inv
    gx, gy, gz = c.gravity
    half_tt = 0.5 * T * T
    az = gz + thrust / c.mass
    # rotor torque, gravity and the -I of (R + I) (0, 0, thrust), which the
    # carry map leaves out; the wrench gets + 0.0, which turns a -0.0 into 0.0
    offset = [T * (j00 * mx + j01 * my + j02 * mz), T * (j10 * mx + j11 * my + j12 * mz),
              T * (j20 * mx + j21 * my + j22 * mz), -half_tt * gx, -half_tt * gy, -half_tt * az,
              -T * gx, -T * gy, -T * az, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    x = state.vector
    u = x[..., 0:7]
    f = (u[..., :, None] * u[..., None, :]).reshape(u.shape[:-1] + (49,)) @ params.step_map
    r = f[..., 0:9]
    rotation = r.reshape(r.shape[:-1] + (3, 3))  # R + I
    if noise is None:
        force = r[..., 2::3] * thrust
    else:
        noise = np.asarray(noise, dtype=float)
        force = (rotation @ (noise[..., 6:9] + (0.0, 0.0, thrust))[..., None])[..., 0]
    rows = [(x[..., None, 13:16] @ rotation)[..., 0, :], force, f[..., 13:16], x[..., 4:]]
    out = np.concatenate(rows, axis=-1) @ params.carry_map + offset
    if noise is not None:
        out = out + noise @ params.noise_map

    # q (x) (cos h, sin(h) omega / |omega|), h = |omega| T / 2, renormalized;
    # sin(h)/h at h >= 1e-20: below that the ratio rounds to its limit 1
    half = np.sqrt(f[..., 16:17])
    h = np.maximum(half, _TINY_HALF_ANGLE)
    q = np.cos(half) * x[..., 0:4] + (np.sin(h) / h) * f[..., 9:13]
    q = q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))
    return VehicleState.from_vector(np.concatenate([q, out], axis=-1))
