"""Ground-truth world: vehicle propagation, disturbances, inner-loop control,
and sensor models feeding the estimators.

The truth model is the same ``process_step`` the filter predicts with; the
only differences are the scenario-injected wrench (replacing the random walk)
and the measurement/quantization noise.  Runs are deterministic given the
scenario seed (single numpy ``default_rng`` stream, fixed draw order).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attitude import (
    cross3,
    mrp_to_error_quat,
    quat_from_axis_angle,
    quat_multiply,
    rotmat_body_to_global,
)
from .control import AdmittanceConfig, admittance_command
from .estimator import DEFAULT_GATE_THRESHOLD, GaussianBelief, PoseMeasurement, UsqueEstimator
from .logio import COV_FIELDS, MEAS_FIELDS, STATE_FIELDS, DwellSegment, TimeSeriesLog
from .observer import MomentumObserver, ObserverGains
from .rigid_body import NoiseConfig, VehicleParams, VehicleState, process_step

__all__ = [
    "FanModel",
    "SteppedMass",
    "FanDisturbance",
    "Hover",
    "GridSurvey",
    "FanTrack",
    "SensorModel",
    "ControllerGains",
    "FlightController",
    "mix_motor_speeds",
    "Scenario",
    "RunSetup",
    "truth_step",
    "run_scenario",
]


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
        self.position = np.asarray(self.position, dtype=float)
        self.axis = np.asarray(self.axis, dtype=float)
        length = np.linalg.norm(self.axis)
        if not 0.0 < length < np.inf:
            raise ValueError("fan axis must have a finite, nonzero length")
        self.axis = self.axis / length
        if self.torque_peak_radius <= 0.0:
            raise ValueError("torque peak radius must be positive")
        # the torque's sign follows the offset along global z x axis, which a
        # vertical axis leaves undefined
        lateral = cross3(np.array([0.0, 0.0, 1.0]), self.axis)
        lateral_norm = np.linalg.norm(lateral)
        if not lateral_norm > 0.0:
            raise ValueError("fan axis must have a horizontal component")
        self._lateral_dir = lateral / lateral_norm

    def wrench_at(self, point: np.ndarray, position=None) -> tuple[np.ndarray, np.ndarray]:
        """(force, torque) on a vehicle hovering at ``point``."""
        pos = self.position if position is None else np.asarray(position, dtype=float)
        rel = np.asarray(point, dtype=float) - pos
        d = float(rel @ self.axis)
        if d <= 0.0:
            return np.zeros(3), np.zeros(3)
        radial = rel - d * self.axis
        r = float(np.linalg.norm(radial))
        f_mag = self.axial_force * np.exp(-d / self.axial_decay) * np.exp(-0.5 * (r / self.radial_sigma) ** 2)
        s = float(rel @ self._lateral_dir)
        u = s / self.torque_peak_radius
        tau_z = self.torque_peak * u * np.exp(0.5 * (1.0 - u * u))
        return f_mag * self.axis, np.array([0.0, 0.0, tau_z])


@dataclass
class SteppedMass:
    """Test mass suspended from the vehicle at a body-frame offset."""

    mass: float = 0.053               # kg
    offset_body: np.ndarray = field(default_factory=lambda: np.zeros(3))  # m
    onset_s: float = 7.0

    def __post_init__(self):
        self.offset_body = np.asarray(self.offset_body, dtype=float)

    def wrench(self, t: float, state: VehicleState) -> tuple[np.ndarray, np.ndarray]:
        if t < self.onset_s:
            return np.zeros(3), np.zeros(3)
        force = np.array([0.0, 0.0, -self.mass * 9.81])
        R_bg = rotmat_body_to_global(state.q)
        tau_body = cross3(self.offset_body, R_bg.T @ force)
        return force, R_bg @ tau_body


@dataclass
class FanDisturbance:
    fan: FanModel
    velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))  # m/s, fan translation
    move_from_s: float = 0.0

    def __post_init__(self):
        self.velocity = np.asarray(self.velocity, dtype=float)

    def fan_position(self, t: float) -> np.ndarray:
        dt_moving = max(t - self.move_from_s, 0.0)
        return self.fan.position + self.velocity * dt_moving

    def wrench(self, t: float, state: VehicleState) -> tuple[np.ndarray, np.ndarray]:
        return self.fan.wrench_at(state.pos, position=self.fan_position(t))


# ---------------------------------------------------------------------------
# reference trajectories

@dataclass
class Hover:
    point: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)

    def start(self) -> np.ndarray:
        return self.point.copy()

    def reference(self, t: float):
        return self.point.copy(), np.zeros(3)


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
        xs = np.arange(self.x_range[0], self.x_range[1] + 1e-9, self.spacing)
        ys = np.arange(self.y_range[0], self.y_range[1] + 1e-9, self.spacing)
        cells = []
        for i, x in enumerate(xs):
            row = ys if i % 2 == 0 else ys[::-1]
            cells += [(x, y) for y in row]
        self.cells = cells
        # piecewise timeline: linear travel leg, then dwell, per cell
        self.legs = []
        t = 0.0
        prev = np.array([*cells[0], self.height])
        for (x, y) in cells:
            target = np.array([x, y, self.height])
            travel = float(np.linalg.norm(target - prev)) / self.travel_speed
            self.legs.append((t, t + travel, prev.copy(), target.copy()))
            t += travel
            self.legs.append((t, t + self.dwell_s, target.copy(), target.copy()))
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
                        return b.copy(), np.zeros(3)
                    frac = (t - t0) / (t1 - t0)
                    vel = (b - a) / (t1 - t0)
                    return a + frac * (b - a), vel
        return self.legs[-1][3].copy(), np.zeros(3)  # past the end: hold


@dataclass
class FanTrack:
    """Admittance-steered lateral reference; x and z held, y follows the
    estimated z-torque through the admittance law."""

    start_point: np.ndarray = field(default_factory=lambda: np.array([2.3, 0.8, 1.0]))
    admittance: AdmittanceConfig = field(default_factory=AdmittanceConfig)
    yaw: float = np.pi  # facing the fan (fan blows along +x)

    def __post_init__(self):
        self.start_point = np.asarray(self.start_point, dtype=float)
        self._ref = self.start_point.copy()
        self._vel = np.zeros(3)
        # body +y mapped through the reference yaw
        self._lateral_dir = np.array([-np.sin(self.yaw), np.cos(self.yaw), 0.0])

    def start(self) -> np.ndarray:
        return self.start_point.copy()

    def advance(self, tau_z_est: float, dt: float) -> None:
        cmd = admittance_command(tau_z_est, self.admittance)
        self._vel = cmd * self._lateral_dir
        self._ref = self._ref + self._vel * dt

    def reference(self, t: float):
        return self._ref.copy(), self._vel.copy()


# ---------------------------------------------------------------------------
# sensors

@dataclass
class SensorModel:
    """Pose noise plus 8-bit motor-speed telemetry quantization.

    ``pos_std`` in metres, ``att_std_mrp`` in MRP units (a small rotation by
    angle a has |rho| ~ a/4).  Zero stds give exact measurements; bits=0
    disables quantization.
    """

    pos_std: float = 0.001
    att_std_mrp: float = 0.0005
    quant_bits: int = 8
    omega_max: float = 2550.0  # rad/s full telemetry scale

    def __post_init__(self):
        if self.omega_max <= 0.0:
            raise ValueError("omega_max must be positive")

    @classmethod
    def from_noise(cls, noise: NoiseConfig, **kwargs) -> "SensorModel":
        return cls(
            pos_std=float(np.sqrt(noise.g_x[0, 0])),
            att_std_mrp=float(np.sqrt(noise.g_rho[0, 0])),
            **kwargs,
        )

    def sample_pose(self, state: VehicleState, rng: np.random.Generator, t: float) -> PoseMeasurement:
        pos = state.pos + self.pos_std * rng.standard_normal(3)
        rho = self.att_std_mrp * rng.standard_normal(3)
        q = quat_multiply(mrp_to_error_quat(rho), state.q)
        return PoseMeasurement(pos=pos, q=q, t=t)

    def quantize_speeds(self, speeds: np.ndarray) -> np.ndarray:
        if self.quant_bits <= 0:
            return np.asarray(speeds, dtype=float).copy()
        step = self.omega_max / (2**self.quant_bits - 1)
        return np.clip(np.round(np.asarray(speeds) / step) * step, 0.0, self.omega_max)


# ---------------------------------------------------------------------------
# inner-loop flight controller

@dataclass
class ControllerGains:
    pos_p: float = 9.0       # 1/s^2
    pos_d: float = 5.4       # 1/s
    att_p: float = 225.0     # 1/s^2
    att_d: float = 27.0      # 1/s
    max_horiz_acc: float = 4.0  # m/s^2, caps commanded tilt
    max_vert_acc: float = 5.0   # m/s^2


def mix_motor_speeds(params: VehicleParams, thrust: float, torque: np.ndarray,
                     omega_max: float) -> tuple[np.ndarray, bool]:
    """Invert thrust/torque maps to per-motor speeds; clamp to [0, omega_max].

    The demand is reachable when every per-motor thrust k_i * Omega_i^2 that
    solves the mixing rows lies in [0, k_i * omega_max^2]. Yaw torque comes
    only from motor drag, gamma = drag_coeff / thrust_coeff times the
    differential thrust, so its authority is small: with the default vehicle
    (gamma = 0.016 m, 2.28 N per motor at 2550 rad/s) it is about 0.07 N m
    around hover and shrinks towards zero and full thrust.

    Returns the speeds and a flag set when clipping changed at least one
    motor's thrust demand; when it is clear, the speeds reproduce the
    demanded thrust and torque exactly up to rounding.
    """
    per_motor = params.mixer_inv @ np.array([thrust, *torque])
    clipped = np.clip(per_motor, 0.0, params.thrust_coeff * omega_max**2)
    saturated = bool(np.any(per_motor != clipped))
    return np.sqrt(clipped / params.thrust_coeff), saturated


class FlightController:
    """Cascaded position -> attitude -> motor-mixing PD controller.

    Invented plumbing: stabilizes hover and tracks slow waypoint references;
    it flies on the truth state, so estimator noise never destabilizes the
    inner loop.
    """

    def __init__(self, params: VehicleParams, gains: ControllerGains | None = None,
                 omega_max: float = 2550.0):
        self.params = params
        self.gains = gains or ControllerGains()
        self.omega_max = omega_max
        self.saturation_count = 0

    def command(self, state: VehicleState, ref_pos: np.ndarray,
                ref_vel: np.ndarray | None = None, yaw: float = 0.0) -> np.ndarray:
        g = self.gains
        p = self.params
        ref_vel = np.zeros(3) if ref_vel is None else np.asarray(ref_vel, dtype=float)

        acc = g.pos_p * (np.asarray(ref_pos, dtype=float) - state.pos) + g.pos_d * (ref_vel - state.vel)
        acc_h = acc[:2]
        h_norm = np.linalg.norm(acc_h)
        if h_norm > g.max_horiz_acc:
            acc[:2] = acc_h * (g.max_horiz_acc / h_norm)
        acc[2] = np.clip(acc[2], -g.max_vert_acc, g.max_vert_acc)

        f_des = p.mass * (acc + p.gravity)
        thrust = float(np.linalg.norm(f_des))
        z_des = f_des / thrust if thrust > 1e-9 else np.array([0.0, 0.0, 1.0])

        x_c = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        y_des = cross3(z_des, x_c)
        y_des /= np.linalg.norm(y_des)
        x_des = cross3(y_des, z_des)
        R_des = np.column_stack([x_des, y_des, z_des])

        R = rotmat_body_to_global(state.q)
        err = 0.5 * (R_des.T @ R - R.T @ R_des)
        e_rot = np.array([err[2, 1], err[0, 2], err[1, 0]])  # body-frame attitude error
        torque = p.inertia @ (-g.att_p * e_rot - g.att_d * state.omega)

        speeds, saturated = mix_motor_speeds(p, thrust, torque, self.omega_max)
        if saturated:
            self.saturation_count += 1
        return speeds


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
        if self.duration_s <= 0.0:
            raise ValueError("duration must be positive")

    def steps_per_measurement(self, dt: float) -> int:
        per = (1.0 / dt) / self.sensor_rate_hz
        if abs(per - round(per)) > 1e-9 or per < 1.0 - 1e-9:
            raise ValueError("sensor rate must divide the simulation rate evenly")
        return int(round(per))


@dataclass
class RunSetup:
    """Everything a run needs besides the scenario itself.

    The first of ``estimators`` steers a ``FanTrack`` reference with its
    z-torque estimate; the gate applies only while ``gate_enabled`` is set.
    """

    params: VehicleParams = field(default_factory=VehicleParams)
    noise: NoiseConfig = field(default_factory=NoiseConfig.default)
    sensor: SensorModel | None = None
    controller_gains: ControllerGains = field(default_factory=ControllerGains)
    observer_gains: ObserverGains = field(default_factory=ObserverGains)
    estimators: tuple[str, ...] = ("usque",)
    gate_enabled: bool = False
    gate_threshold: float = DEFAULT_GATE_THRESHOLD
    init_stds: dict = field(default_factory=lambda: {
        "rho": 0.005, "omega": 0.05, "pos": 0.005, "vel": 0.05, "tau_e": 0.01, "f_e": 0.05,
    })

    def resolved_sensor(self) -> SensorModel:
        return self.sensor if self.sensor is not None else SensorModel.from_noise(self.noise)


def truth_step(state: VehicleState, rotor_speeds: np.ndarray,
               wrench: tuple[np.ndarray, np.ndarray], params: VehicleParams) -> VehicleState:
    """One ground-truth step: the deterministic process model with the
    scenario wrench injected in place of the random walk."""
    seeded = replace(state, f_e=np.asarray(wrench[0], dtype=float),
                     tau_e=np.asarray(wrench[1], dtype=float))
    return process_step(seeded, rotor_speeds, None, params)


def _make_estimators(setup: RunSetup, initial: VehicleState):
    out = {}
    for name in setup.estimators:
        if name == "usque":
            mean = replace(initial.copy(), f_e=np.zeros(3), tau_e=np.zeros(3))
            belief = GaussianBelief.from_std(mean, setup.init_stds)
            gate = setup.gate_threshold if setup.gate_enabled else None
            out[name] = UsqueEstimator(setup.params, setup.noise, belief, gate_threshold=gate)
        elif name == "observer":
            out[name] = MomentumObserver(setup.params, setup.observer_gains)
        else:
            raise ValueError(f"unknown estimator {name!r}")
    return out


def run_scenario(scenario: Scenario, setup: RunSetup | None = None) -> TimeSeriesLog:
    """Simulate one scenario; deterministic for a given seed.

    Logs truth, measurements, and every selected estimator's mean and
    covariance diagonal, one row per step.
    """
    setup = setup or RunSetup()
    params = setup.params
    dt = params.dt
    rng = np.random.default_rng(scenario.seed)
    sensor = setup.resolved_sensor()
    controller = FlightController(params, setup.controller_gains, omega_max=sensor.omega_max)
    meas_every = scenario.steps_per_measurement(dt)

    traj = scenario.trajectory
    yaw = getattr(traj, "yaw", 0.0)
    truth = VehicleState.at_rest(pos=traj.start(), q=quat_from_axis_angle([0, 0, 1], yaw))
    estimators = _make_estimators(setup, truth)
    if isinstance(traj, FanTrack) and not estimators:
        raise ValueError("a FanTrack reference is steered by an estimator; list one")
    steering = next(iter(estimators.values())) if isinstance(traj, FanTrack) else None

    n = int(round(scenario.duration_s / dt))
    time = np.empty(n)
    truth_log = np.empty((n, len(STATE_FIELDS)))
    meas_log = np.full((n, len(MEAS_FIELDS)), np.nan)
    est_log = {name: np.empty((n, len(STATE_FIELDS))) for name in estimators}
    cov_log = {name: np.empty((n, len(COV_FIELDS))) for name in estimators}

    for k in range(n):
        t = k * dt
        ref_pos, ref_vel = traj.reference(t)
        # actuator commands share the telemetry's 8-bit word, so the vehicle
        # flies exactly the speeds the estimators are told about; thrust-map
        # error away from hover is what Q_ct covers
        speeds = sensor.quantize_speeds(controller.command(truth, ref_pos, ref_vel, yaw=yaw))

        wrench = scenario.disturbance.wrench(t, truth) if scenario.disturbance else (np.zeros(3), np.zeros(3))
        truth = truth_step(truth, speeds, wrench, params)
        t_next = (k + 1) * dt

        measurement = None
        if (k + 1) % meas_every == 0:
            measurement = sensor.sample_pose(truth, rng, t_next)
            meas_log[k] = np.concatenate([measurement.pos, measurement.q])

        for name, est in estimators.items():
            est.step(speeds, measurement)
            est_log[name][k] = est.mean_vector()
            cov_log[name][k] = est.cov_diagonal()

        if steering is not None:
            traj.advance(steering.wrench[1][2], dt)

        time[k] = t_next
        truth_log[k] = truth.as_vector()

    segments = traj.segments() if isinstance(traj, GridSurvey) else []
    meta = {
        "seed": scenario.seed,
        "dt_s": dt,
        "sensor_rate_hz": scenario.sensor_rate_hz,
        "saturation_steps": controller.saturation_count,
        "estimators": list(estimators.keys()),
        "jitter_count": {name: est.jitter_count for name, est in estimators.items()
                         if isinstance(est, UsqueEstimator)},
    }
    return TimeSeriesLog(
        time=time, truth=truth_log, meas=meas_log,
        estimates=est_log, cov_diags=cov_log, segments=segments, meta=meta,
    )
