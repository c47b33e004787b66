"""Ground-truth world: vehicle propagation, disturbances, inner-loop control,
and sensor models feeding the estimators.

The truth model is the motion model the filter predicts with,
``process_step``; the only differences are the scenario-injected wrench
(replacing the random walk) and the measurement/quantization noise.  Runs are
deterministic given the scenario seed (single numpy ``default_rng`` stream,
fixed draw order).

The truth step, controller, mixer, pose sensor, disturbances and references
serve one vehicle per call and compute on Python floats with ``attitude``'s
``*_floats`` forms, ``rotor_wrench_floats`` and ``VehicleParams.floats``: each
reads its array inputs once with ``.tolist()`` (the truth step, controller
and pose sensor a state's whole record) and builds an array only where its
caller needs one, with one ``np.array``: the motor speeds, the truth state's
record and the pose's.  References, and the disturbances' ``(force,
torque)`` pair, are tuples of three floats.  The truth step is
``process_step`` written out on one vehicle and agrees with it to a few ulp;
its rotor map and carried wrench are bit-identical.  The speed
quantizer stays on numpy; a float form of it measured no faster.

A run is a flight read by one estimation loop.  The flight (reference,
controller, quantizer, disturbance, truth step, pose sensor) writes the truth
and pose rows and yields each step's quantized speeds and pose to
``_estimate``, the only code that steps estimators and writes their rows; a
recorded flight, the list of those pairs, replays through it bit for bit.
The two interleave step by step because a ``FanTrack`` reference steers on
the estimate the loop has just written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .attitude import (
    cross3,
    cross3_floats,
    mrp_to_error_quat_floats,
    quat_from_rotvec_floats,
    quat_multiply_floats,
    rotmat_body_to_global_floats,
)
from .control import AdmittanceConfig, admittance_command
from .estimator import GaussianBelief, PoseMeasurement, UsqueEstimator, _std_variances
from .logio import DwellSegment, TimeSeriesLog, log_columns
from .observer import MomentumObserver, ObserverGains
from .rigid_body import _ZERO3, NoiseConfig, VehicleParams, VehicleState, _check_settings, rotor_wrench_floats

__all__ = [
    "FanModel",
    "SteppedMass",
    "FanDisturbance",
    "Hover",
    "GridSurvey",
    "FanTrack",
    "SensorModel",
    "FlightController",
    "Scenario",
    "RunSetup",
    "truth_step",
    "run_scenario",
]


_ZERO_WRENCH = (_ZERO3, _ZERO3)


# ---------------------------------------------------------------------------
# disturbance models

@dataclass
class FanModel:
    """Synthetic parametric fan flow field, evaluated in the global frame.

    Axial force pushes away from the fan and decays exponentially with axial
    distance and as a Gaussian bell with radial offset.  The z-torque is
    anti-symmetric in the signed lateral offset with its peak magnitude at
    ``torque_peak_radius``; its sign is such that a vehicle offset towards
    +lateral feels +z torque (drag acts on the side nearer the axis).
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    axis: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    axial_force: float = 0.5          # N at the fan face, on axis
    axial_decay: float = 2.0          # m
    radial_sigma: float = 0.6         # m
    torque_peak: float = 0.04         # N m
    torque_peak_radius: float = 0.5   # m

    def __post_init__(self):
        _check_settings(self, ("axial_force", "torque_peak"), position=(3,), axis=(3,),
                        positive=("axial_decay", "radial_sigma", "torque_peak_radius"))
        length = np.linalg.norm(self.axis)
        if not 0.0 < length < np.inf:
            raise ValueError(f"FanModel.axis must have a finite, nonzero length, got {self.axis!r}")
        self.axis = self.axis / length
        # the torque's sign follows the offset along global z x axis, which a
        # vertical axis leaves undefined
        lateral = cross3(np.array([0.0, 0.0, 1.0]), self.axis)
        lateral_norm = np.linalg.norm(lateral)
        if not lateral_norm > 0.0:
            raise ValueError(f"FanModel.axis must have a horizontal component, got {self.axis!r}")
        self._lateral_dir = tuple((lateral / lateral_norm).tolist())

    def wrench_at(self, point, position=None) -> tuple[tuple, tuple]:
        """(force, torque), two float triples, on a vehicle hovering at
        ``point`` with the fan at ``position`` (default ``self.position``);
        both are 3-sequences."""
        px, py, pz = point
        ox, oy, oz = self.position.tolist() if position is None else position
        rx, ry, rz = px - ox, py - oy, pz - oz
        ax, ay, az = self.axis.tolist()
        d = rx * ax + ry * ay + rz * az
        if d <= 0.0:
            return _ZERO_WRENCH
        nx, ny, nz = rx - d * ax, ry - d * ay, rz - d * az  # radial offset
        r = math.sqrt(nx * nx + ny * ny + nz * nz)
        f_mag = self.axial_force * math.exp(-d / self.axial_decay) * math.exp(-0.5 * (r / self.radial_sigma) ** 2)
        lx, ly, lz = self._lateral_dir
        u = (rx * lx + ry * ly + rz * lz) / self.torque_peak_radius
        tau_z = self.torque_peak * u * math.exp(0.5 * (1.0 - u * u))
        return (f_mag * ax, f_mag * ay, f_mag * az), (0.0, 0.0, tau_z)


@dataclass
class SteppedMass:
    """Test mass suspended from the vehicle at a body-frame offset."""

    mass: float = 0.053               # kg
    offset_body: np.ndarray = field(default_factory=lambda: np.zeros(3))  # m
    onset_s: float = 7.0

    def __post_init__(self):
        _check_settings(self, ("mass", "onset_s"), offset_body=(3,))

    def wrench(self, t: float, state: VehicleState) -> tuple[tuple, tuple]:
        if t < self.onset_s:
            return _ZERO_WRENCH
        f_z = -self.mass * 9.81
        rows = rotmat_body_to_global_floats(state.q.tolist())
        # R' f for the vertical force f is f_z times R's last row
        tx, ty, tz = cross3_floats(self.offset_body.tolist(), [f_z * r for r in rows[2]])
        return (0.0, 0.0, f_z), tuple(a * tx + b * ty + c * tz for a, b, c in rows)


@dataclass
class FanDisturbance:
    fan: FanModel
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))  # m/s, fan translation
    move_from_s: float = 0.0

    def __post_init__(self):
        _check_settings(self, ("move_from_s",), velocity=(3,))

    def fan_position(self, t: float) -> tuple[float, float, float]:
        dt_moving = max(t - self.move_from_s, 0.0)
        (px, py, pz), (vx, vy, vz) = self.fan.position.tolist(), self.velocity.tolist()
        return (px + vx * dt_moving, py + vy * dt_moving, pz + vz * dt_moving)

    def wrench(self, t: float, state: VehicleState) -> tuple[tuple, tuple]:
        return self.fan.wrench_at(state.pos.tolist(), position=self.fan_position(t))


# ---------------------------------------------------------------------------
# reference trajectories

@dataclass
class Hover:
    point: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        _check_settings(self, point=(3,))

    def start(self) -> np.ndarray:
        return self.point.copy()

    def reference(self, t: float):
        return tuple(self.point.tolist()), _ZERO3


@dataclass
class GridSurvey:
    """Serpentine visit of an x-y grid, hovering ``dwell_s`` at each cell."""

    x_range: tuple[float, float] = (0.5, 2.5)
    y_range: tuple[float, float] = (-1.0, 1.0)
    spacing: float = 0.5
    dwell_s: float = 5.0
    height: float = 1.0
    travel_speed: float = 0.5  # m/s between cells

    def __post_init__(self):
        _check_settings(self, ("height",), positive=("spacing", "dwell_s", "travel_speed"),
                        x_range=(2,), y_range=(2,))
        for name in ("x_range", "y_range"):
            if not getattr(self, name)[0] <= getattr(self, name)[1]:
                raise ValueError(f"GridSurvey.{name} must be ordered (low, high), got {getattr(self, name)!r}")
        xs = np.arange(self.x_range[0], self.x_range[1] + 1e-9, self.spacing)
        ys = np.arange(self.y_range[0], self.y_range[1] + 1e-9, self.spacing)
        cells = []
        for i, x in enumerate(xs):
            row = ys if i % 2 == 0 else ys[::-1]
            cells += [(x, y) for y in row]
        self.cells = cells
        # piecewise timeline: linear travel leg, then dwell, per cell; the
        # leg ends are tuples of floats
        self.legs = []
        t = 0.0
        prev = np.array([*cells[0], self.height])
        for (x, y) in cells:
            target = np.array([x, y, self.height])
            travel = float(np.linalg.norm(target - prev)) / self.travel_speed
            a, b = tuple(prev.tolist()), tuple(target.tolist())
            self.legs.append((t, t + travel, a, b))
            t += travel
            self.legs.append((t, t + self.dwell_s, b, b))
            t += self.dwell_s
            prev = target
        self.total_time = t

    def start(self) -> np.ndarray:
        return np.array([*self.cells[0], self.height])

    def duration(self) -> float:
        return self.total_time

    def segments(self) -> list[DwellSegment]:
        out = []
        for i, (x, y) in enumerate(self.cells):
            t0, t1, _, _ = self.legs[2 * i + 1]
            out.append(DwellSegment(x=x, y=y, t_start=t0, t_end=t1))
        return out

    def reference(self, t: float):
        if t < self.total_time:
            for (t0, t1, a, b) in self.legs:
                if t < t1:
                    if t1 - t0 < 1e-12:
                        return b, _ZERO3
                    frac = (t - t0) / (t1 - t0)
                    return (tuple(ai + frac * (bi - ai) for ai, bi in zip(a, b)),
                            tuple((bi - ai) / (t1 - t0) for ai, bi in zip(a, b)))
        return self.legs[-1][3], _ZERO3  # past the end: hold


@dataclass
class FanTrack:
    """Admittance-steered lateral reference; x and z held, y follows the
    estimated z-torque through the admittance law."""

    start_point: np.ndarray = field(default_factory=lambda: np.array([2.3, 0.8, 1.0]))
    admittance: AdmittanceConfig = field(default_factory=AdmittanceConfig)
    yaw: float = np.pi  # facing the fan (fan blows along +x)

    def __post_init__(self):
        _check_settings(self, ("yaw",), start_point=(3,))
        # body +y mapped through the reference yaw
        self._lateral_dir = (-math.sin(self.yaw), math.cos(self.yaw), 0.0)
        self.start()

    def start(self) -> np.ndarray:
        """Rewind the steered reference to ``start_point``, so every run
        begins from the same state; returns the start point."""
        self._ref = tuple(self.start_point.tolist())
        self._vel = _ZERO3
        return self.start_point.copy()

    def advance(self, tau_z_est: float, dt: float) -> None:
        cmd = admittance_command(tau_z_est, self.admittance)
        self._vel = tuple(cmd * c for c in self._lateral_dir)
        self._ref = tuple(r + v * dt for r, v in zip(self._ref, self._vel))

    def reference(self, t: float):
        return self._ref, self._vel


# ---------------------------------------------------------------------------
# sensors

MAX_QUANT_BITS = 52  # the float64 significand


@dataclass
class SensorModel:
    """Pose noise plus motor-speed telemetry quantization to ``quant_bits``.

    ``pos_std`` in metres, ``att_std_mrp`` in MRP units (a small rotation by
    angle a has |rho| ~ a/4).  Zero stds give exact measurements.
    ``quant_bits`` is an integer from 0 to ``MAX_QUANT_BITS``; 0 disables
    quantization, whose full scale is the vehicle's ``omega_max``.
    """

    pos_std: float
    att_std_mrp: float
    quant_bits: int

    def __post_init__(self):
        # a zero std gives exact poses; past 52 bits the grid step falls below
        # the float spacing of speeds near omega_max, a fraction or a negative
        # count makes no grid, and from 1024 bits 2**bits - 1 overflows a float
        _check_settings(self, ("pos_std", "att_std_mrp"), counts={"quant_bits": MAX_QUANT_BITS})
        for name in ("pos_std", "att_std_mrp"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"SensorModel.{name} must be >= 0, got {getattr(self, name)!r}")

    @classmethod
    def from_noise(cls, noise: NoiseConfig, quant_bits: int) -> "SensorModel":
        """The sensor ``noise`` describes; one std per block samples only an
        isotropic ``g_x``/``g_rho``, so three unequal variances raise ``ValueError``."""
        if not all(np.all(v == v[0]) for v in (noise.g_x, noise.g_rho)):
            raise ValueError("g_x and g_rho must each be three equal variances to build a SensorModel")
        pos_var, att_var = noise.g_x[0], noise.g_rho[0]
        return cls(pos_std=float(np.sqrt(pos_var)), att_std_mrp=float(np.sqrt(att_var)),
                   quant_bits=quant_bits)

    def sample_pose(self, state: VehicleState, rng: np.random.Generator) -> PoseMeasurement:
        # one draw of six is the stream of two draws of three
        draw = rng.standard_normal(6).tolist()
        x = state.vector.tolist()
        pos = [p + self.pos_std * d for p, d in zip(x[7:10], draw[:3])]
        rho = [self.att_std_mrp * d for d in draw[3:]]
        q = quat_multiply_floats(mrp_to_error_quat_floats(rho), x[0:4])
        return PoseMeasurement(pos=pos, q=q)

    def quantize_speeds(self, speeds: np.ndarray, omega_max: float) -> np.ndarray:
        """Speeds on the telemetry grid whose full scale is ``omega_max``."""
        if self.quant_bits == 0:
            return np.asarray(speeds, dtype=float).copy()
        step = omega_max / (2**self.quant_bits - 1)
        # with the bound as first operand np.maximum matches np.clip bit for
        # bit, the sign of a zero included
        return np.minimum(np.maximum(0.0, np.rint(np.asarray(speeds) / step) * step), omega_max)


# ---------------------------------------------------------------------------
# inner-loop flight controller

# gains of FlightController
POS_P = 9.0           # 1/s^2
POS_D = 5.4           # 1/s
ATT_P = 225.0         # 1/s^2
ATT_D = 27.0          # 1/s
MAX_HORIZ_ACC = 4.0   # m/s^2, caps commanded tilt
MAX_VERT_ACC = 5.0    # m/s^2


def _dot3(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _mix(params: VehicleParams, thrust: float, torque) -> tuple[list[float], bool]:
    """Invert thrust/torque maps to per-motor speeds, on floats, from the
    mixer's run constants in ``params.floats``; clamp to [0, omega_max].

    The demand is reachable when every per-motor thrust k_i * Omega_i^2 that
    solves the mixing rows lies in [0, k_i * omega_max^2]. Yaw torque comes
    only from motor drag, gamma = drag_coeff / thrust_coeff times the
    differential thrust, so its authority is small: with the default vehicle
    (gamma = 0.016 m, 2.28 N per motor at omega_max) it is about 0.07 N m
    around hover and shrinks towards zero and full thrust.

    Returns the speeds and a flag set when clipping changed at least one
    motor's thrust demand; when it is clear, the speeds reproduce the
    demanded thrust and torque exactly up to rounding.  A non-finite demand
    raises ``ValueError``.
    """
    t, tx, ty, tz = demand = (thrust, *torque)
    speeds = []
    saturated = False
    constants = params.floats
    for (a, b, c, d), limit, k in zip(constants.mixer_inv, constants.motor_thrust_max, constants.thrust_coeff):
        per_motor = a * t + b * tx + c * ty + d * tz
        clipped = min(max(0.0, per_motor), limit)
        saturated |= per_motor != clipped
        speeds.append(math.sqrt(clipped / k))
    # a non-finite demand makes a non-finite per-motor thrust, which never
    # equals its clip, so only a saturated demand needs the check
    if saturated and not all(map(math.isfinite, demand)):
        raise ValueError(f"mixer demand must be finite, got thrust {thrust!r}, torque {torque!r}")
    return speeds, saturated


class FlightController:
    """Cascaded position -> attitude -> motor-mixing PD controller.

    Invented plumbing: stabilizes hover and tracks slow waypoint references;
    it flies on the truth state, so estimator noise never destabilizes the
    inner loop.
    """

    def __init__(self, params: VehicleParams):
        self.params = params
        self.saturation_count = 0

    def command(self, state: VehicleState, ref_pos, ref_vel=None, yaw: float = 0.0) -> np.ndarray:
        """Motor speeds steering ``state`` towards the reference; ``ref_pos``
        and ``ref_vel`` (default zero) are 3-sequences."""
        x = state.vector.tolist()
        q, (bx, by, bz, px, py, pz, vx, vy, vz) = x[0:4], x[4:13]
        rx, ry, rz = ref_pos
        wx, wy, wz = _ZERO3 if ref_vel is None else ref_vel

        ax = POS_P * (rx - px) + POS_D * (wx - vx)
        ay = POS_P * (ry - py) + POS_D * (wy - vy)
        az = POS_P * (rz - pz) + POS_D * (wz - vz)
        h_norm = math.sqrt(ax * ax + ay * ay)
        if h_norm > MAX_HORIZ_ACC:
            ax, ay = ax * (MAX_HORIZ_ACC / h_norm), ay * (MAX_HORIZ_ACC / h_norm)
        az = min(max(az, -MAX_VERT_ACC), MAX_VERT_ACC)

        mass, inertia = self.params.floats.mass, self.params.floats.inertia
        gx, gy, gz = self.params.floats.gravity
        fx, fy, fz = mass * (ax + gx), mass * (ay + gy), mass * (az + gz)
        thrust = math.sqrt(fx * fx + fy * fy + fz * fz)
        z_des = (fx / thrust, fy / thrust, fz / thrust) if thrust > 1e-9 else (0.0, 0.0, 1.0)

        # rows of R_des', the desired body axes
        yx, yy, yz = cross3_floats(z_des, (math.cos(yaw), math.sin(yaw), 0.0))
        y_norm = math.sqrt(yx * yx + yy * yy + yz * yz)
        y_des = (yx / y_norm, yy / y_norm, yz / y_norm)
        x_des = cross3_floats(y_des, z_des)

        # body-frame attitude error, the vee of 0.5 (R_des' R - R' R_des), whose
        # entry (i, j) is desired axis i . R column j minus axis j . column i
        c0, c1, c2 = zip(*rotmat_body_to_global_floats(q))
        e_rot = (0.5 * (_dot3(z_des, c1) - _dot3(y_des, c2)),
                 0.5 * (_dot3(x_des, c2) - _dot3(z_des, c0)),
                 0.5 * (_dot3(y_des, c0) - _dot3(x_des, c1)))
        ang_acc = [-ATT_P * e - ATT_D * w for e, w in zip(e_rot, (bx, by, bz))]
        torque = [_dot3(row, ang_acc) for row in inertia]

        speeds, saturated = _mix(self.params, thrust, torque)
        if saturated:
            self.saturation_count += 1
        return np.array(speeds)


# ---------------------------------------------------------------------------
# scenario orchestration

@dataclass
class Scenario:
    """A flight to simulate; the vehicle's yaw comes from the trajectory's
    ``yaw`` attribute (0 when it has none)."""

    duration_s: float
    seed: int = 0
    sensor_rate_hz: float = 200.0
    trajectory: Hover | GridSurvey | FanTrack = field(default_factory=Hover)
    disturbance: SteppedMass | FanDisturbance | None = None

    def __post_init__(self):
        _check_settings(self, positive=("duration_s", "sensor_rate_hz"), counts={"seed": math.inf})

    def steps_per_measurement(self, dt: float) -> int:
        per = (1.0 / dt) / self.sensor_rate_hz
        if abs(per - round(per)) > 1e-9 or per < 1.0 - 1e-9:
            raise ValueError(f"Scenario.sensor_rate_hz, {self.sensor_rate_hz!r} Hz, must divide the simulation rate evenly")
        return int(round(per))


@dataclass
class RunSetup:
    """Everything a run needs besides the scenario itself.

    The sensor samples poses with the stds of ``noise`` and quantizes motor
    speeds to ``quant_bits`` (0: exact).  ``estimators`` names each of usque
    and observer at most once; the first steers a ``FanTrack`` reference with
    its logged z-torque estimate.  The chi-square gate applies only while
    ``gate_enabled`` is set.  ``init_stds`` are the UKF's start stds, checked
    by :meth:`GaussianBelief.from_std`'s rule.  A bad setting raises
    ``ValueError`` here, naming it.
    """

    params: VehicleParams = field(default_factory=VehicleParams)
    noise: NoiseConfig = field(default_factory=NoiseConfig.default)
    quant_bits: int = 8
    observer_gains: ObserverGains = field(default_factory=ObserverGains)
    estimators: tuple[str, ...] = ("usque",)
    gate_enabled: bool = False
    init_stds: dict = field(default_factory=lambda: {
        "rho": 0.005, "omega": 0.05, "pos": 0.005, "vel": 0.05, "tau_e": 0.01, "f_e": 0.05,
    })

    def __post_init__(self):
        _check_settings(self, counts={"quant_bits": MAX_QUANT_BITS})
        _std_variances(self.init_stds, "RunSetup.init_stds")
        for i, name in enumerate(self.estimators):
            if name not in ("usque", "observer"):
                raise ValueError(f"RunSetup.estimators: unknown estimator {name!r}; the estimators are usque, observer")
            if name in self.estimators[:i]:
                raise ValueError(f"RunSetup.estimators: {name!r} is listed twice; each estimator runs once")
        if not isinstance(self.gate_enabled, bool):
            raise ValueError(f"RunSetup.gate_enabled must be a bool, got {self.gate_enabled!r}")


def truth_step(state: VehicleState, rotor_speeds: np.ndarray,
               wrench: tuple[tuple, tuple], params: VehicleParams) -> VehicleState:
    """One ground-truth step: the deterministic process model with the
    scenario wrench ``(force, torque)``, two float triples, injected in place
    of the random walk.

    ``process_step``'s map written out on one vehicle in Python floats.  The
    rotor map and the carried wrench are bit-identical to it; the rotation,
    the quaternion product and the matrix-vector sums round apart from its
    kernels, to a few ulp.
    """
    constants = params.floats
    mass, dt, inertia, inertia_inv = constants.mass, constants.dt, constants.inertia, constants.inertia_inv
    gx, gy, gz = constants.gravity
    force, torque = wrench
    thrust, mx, my, mz = rotor_wrench_floats(params, rotor_speeds.tolist())
    x = state.vector.tolist()
    q, (wx, wy, wz, px, py, pz, vx, vy, vz) = x[0:4], x[4:13]
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotmat_body_to_global_floats(q)

    # translation under the thrust along body z, gravity and the force
    fx, fy, fz = force
    ax = r02 * thrust / mass - gx + fx / mass
    ay = r12 * thrust / mass - gy + fy / mass
    az = r22 * thrust / mass - gz + fz / mass
    half_dt2 = 0.5 * dt * dt
    pos = [px + dt * vx + half_dt2 * ax, py + dt * vy + half_dt2 * ay, pz + dt * vz + half_dt2 * az]
    vel = [vx + dt * ax, vy + dt * ay, vz + dt * az]

    # rotation: the body rates turn q; the body-axis torques R' tau_e, rotor
    # torque and the gyroscopic term turn the rates
    q_next = quat_multiply_floats(q, quat_from_rotvec_floats((wx * dt, wy * dt, wz * dt)))
    ex, ey, ez = torque
    lx, ly, lz = (a * wx + b * wy + c * wz for a, b, c in inertia)
    cx, cy, cz = cross3_floats((wx, wy, wz), (lx, ly, lz))
    sx = r00 * ex + r10 * ey + r20 * ez + mx - cx
    sy = r01 * ex + r11 * ey + r21 * ez + my - cy
    sz = r02 * ex + r12 * ey + r22 * ez + mz - cz
    omega = [w + dt * (a * sx + b * sy + c * sz) for w, (a, b, c) in zip((wx, wy, wz), inertia_inv)]

    # the wrench carries over with process_step's zero noise added, which
    # turns a -0.0 into 0.0
    return VehicleState.from_vector(np.array([*q_next, *omega, *pos, *vel, ex + 0.0, ey + 0.0, ez + 0.0,
                                              fx + 0.0, fy + 0.0, fz + 0.0]))


def _make_estimators(setup: RunSetup, initial: VehicleState):
    out = {}
    for name in setup.estimators:
        if name == "usque":
            belief = GaussianBelief.from_std(initial.copy(), setup.init_stds)
            out[name] = UsqueEstimator(setup.params, setup.noise, belief, gate_enabled=setup.gate_enabled)
        else:
            out[name] = MomentumObserver(setup.params, setup.observer_gains)
    return out


def _estimate(flight, estimators: dict, log: TimeSeriesLog) -> None:
    """The one estimation loop: step ``estimators`` over ``flight`` and write row k of their columns in ``log``."""
    for k, (speeds, measurement) in enumerate(flight):
        for name, est in estimators.items():
            est.step(speeds, measurement)
            log.estimates[name][k] = est.mean_vector()
            log.cov_diags[name][k] = est.cov_diagonal()


def run_scenario(scenario: Scenario, setup: RunSetup | None = None) -> TimeSeriesLog:
    """Simulate one scenario; deterministic for a given seed.

    Logs truth, measurements, and every selected estimator's mean and
    covariance diagonal, one row per step.  The flight yields each step to
    :func:`_estimate` and keeps no per-step record.  A ``FanTrack`` reads row
    k of the first listed estimator's z-torque only after the loop has
    written it: the order of one loop, whose last bits a steered flight
    amplifies.
    """
    setup = setup or RunSetup()
    params = setup.params
    dt = params.dt
    n = int(round(scenario.duration_s / dt))
    if n < 1:
        raise ValueError(f"duration {scenario.duration_s:g} s rounds to zero {dt:g} s steps")
    rng = np.random.default_rng(scenario.seed)
    sensor = SensorModel.from_noise(setup.noise, quant_bits=setup.quant_bits)
    controller = FlightController(params)
    meas_every = scenario.steps_per_measurement(dt)

    traj = scenario.trajectory
    yaw = getattr(traj, "yaw", 0.0)
    truth = VehicleState.at_rest(pos=traj.start(), q=quat_from_rotvec_floats((0.0, 0.0, yaw)))
    estimators = _make_estimators(setup, truth)
    if isinstance(traj, FanTrack) and not estimators:
        raise ValueError("a FanTrack reference is steered by an estimator; list one")

    segments = traj.segments() if isinstance(traj, GridSurvey) else []
    log = TimeSeriesLog(np.empty((n, len(log_columns(estimators)))), estimators, segments)
    log.time[:] = dt * np.arange(1, n + 1)
    log.meas[:] = np.nan
    # the first listed estimator's logged z-torque column steers a FanTrack
    first = next(iter(log.estimates.values()), None)
    steering = VehicleState.from_vector(first).tau_e[:, 2] if isinstance(traj, FanTrack) else None

    def fly(truth):
        for k in range(n):
            t = k * dt
            ref_pos, ref_vel = traj.reference(t)
            # actuator commands share the telemetry's quantized word, so the
            # vehicle flies exactly the speeds the estimators are told about;
            # the truth flies the filter's own rotor map, so there is no
            # thrust-map error for Q_ct to cover
            speeds = sensor.quantize_speeds(controller.command(truth, ref_pos, ref_vel, yaw=yaw), params.omega_max)

            wrench = scenario.disturbance.wrench(t, truth) if scenario.disturbance else _ZERO_WRENCH
            truth = truth_step(truth, speeds, wrench, params)
            log.truth[k] = truth.vector

            measurement = None
            if (k + 1) % meas_every == 0:
                measurement = sensor.sample_pose(truth, rng)
                log.meas[k] = measurement.vector
            yield speeds, measurement
            if steering is not None:
                traj.advance(steering[k], dt)

    _estimate(fly(truth), estimators, log)
    usque = {name: est for name, est in estimators.items() if isinstance(est, UsqueEstimator)}
    log.meta = {
        "seed": scenario.seed,
        "dt_s": dt,
        "sensor_rate_hz": scenario.sensor_rate_hz,
        "saturation_steps": controller.saturation_count,
        "estimators": list(estimators.keys()),
        "jitter_count": {name: est.jitter_count for name, est in usque.items()},
        "rejected_count": {name: est.rejected_count for name, est in usque.items()},
    }
    return log
