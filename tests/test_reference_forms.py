"""The per-step functions against their plain numpy forms.

The forms below are the straightforward numpy versions of the shipped
controller, mixer, quantizer, pose sensor, fan field, admittance law, truth
step and momentum observer, kept as oracles.  The shipped single-vehicle
layers compute on Python floats, so their sums run in another order than
numpy's matrix products and ``math.exp`` rounds apart from ``np.exp``; each
is held to a tolerance fixed from the dtype:

* motor speeds within ``SPEED_ATOL`` (1e-9 rad/s, 4e-13 of ``omega_max`` and
  far below the 8-bit quantizer's 10 rad/s step), saturation flags equal;
* the pose quaternion within ``KERNEL_ATOL`` (4 eps); its position, the
  quantizer and the admittance law, whose arithmetic is unchanged, bit for bit;
* the fan field within 4 eps of its scale (``axial_force``, ``torque_peak``):
  its dot products sum terms of that size, with cancellation near the axis;
* the observer's estimates within ``ESTIMATE_RTOL`` of each logged column's
  largest magnitude.

The truth step's oracle is ``reference_process_step``, the per-field form of
``process_step`` in ``tests/test_rigid_body.py``, on the seeded state; the two are
held to each other per call in ``tests/test_simulator.py`` and over a closed
loop here.

``quat_from_rotvec`` (``sin(h)/h`` in place of ``np.sinc``) is held to a
stated ulp bound.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from quadwrench import attitude, control, estimator, logio, observer, rigid_body, simulator
from quadwrench.attitude import (
    cross3,
    mrp_to_error_quat,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    rotmat_body_to_global,
)
from quadwrench.control import AdmittanceConfig, admittance_command
from quadwrench.estimator import PoseMeasurement
from quadwrench.observer import MomentumObserver, ObserverGains
from quadwrench.rigid_body import VehicleParams, VehicleState, rotor_wrench
from quadwrench.simulator import (
    FanDisturbance,
    FanModel,
    FanTrack,
    FlightController,
    RunSetup,
    Scenario,
    SensorModel,
    run_scenario,
)
from test_attitude import quat_to_rotvec
from test_rigid_body import reference_process_step
from test_simulator import mix_motor_speeds

PARAMS = VehicleParams()
EPS = np.finfo(float).eps
SPEED_ATOL = 1e-9       # rad/s
KERNEL_ATOL = 4 * EPS   # on unit quaternions
ESTIMATE_RTOL = 1e-11   # of each logged column's largest magnitude


# ---------------------------------------------------------------------------
# reference forms

def ref_quat_from_rotvec(v):
    v = np.asarray(v, dtype=float)
    angle = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    half = 0.5 * angle
    vector = 0.5 * v * np.sinc(half / np.pi)
    scalar = np.cos(half)
    return quat_normalize(np.concatenate([scalar, vector], axis=-1))


def ref_truth_step(state, rotor_speeds, wrench, params):
    seeded = VehicleState(q=state.q, omega=state.omega, pos=state.pos, vel=state.vel,
                          tau_e=np.asarray(wrench[1], dtype=float), f_e=np.asarray(wrench[0], dtype=float))
    return reference_process_step(seeded, rotor_speeds, None, params)


def ref_admittance_command(tau_z, cfg):
    magnitude = max(abs(tau_z) - cfg.deadband, 0.0)
    return float(np.clip(np.sign(tau_z) * cfg.gain * magnitude, -cfg.limit, cfg.limit))


def ref_mix_motor_speeds(params, thrust, torque):
    per_motor = params.mixer_inv @ np.array([thrust, *torque])
    clipped = np.clip(per_motor, 0.0, params.thrust_coeff * params.omega_max**2)
    saturated = bool(np.any(per_motor != clipped))
    return np.sqrt(clipped / params.thrust_coeff), saturated


# the controller's gains written out again, so the oracle also pins them
REF_GAINS = SimpleNamespace(pos_p=9.0, pos_d=5.4, att_p=225.0, att_d=27.0, max_horiz_acc=4.0, max_vert_acc=5.0)


def ref_command(self, state, ref_pos, ref_vel=None, yaw=0.0):
    g = REF_GAINS
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
    e_rot = np.array([err[2, 1], err[0, 2], err[1, 0]])
    torque = p.inertia @ (-g.att_p * e_rot - g.att_d * state.omega)

    speeds, saturated = ref_mix_motor_speeds(p, thrust, torque)
    if saturated:
        self.saturation_count += 1
    return speeds


def ref_quantize_speeds(self, speeds, omega_max):
    if self.quant_bits <= 0:
        return np.asarray(speeds, dtype=float).copy()
    step = omega_max / (2**self.quant_bits - 1)
    return np.clip(np.round(np.asarray(speeds) / step) * step, 0.0, omega_max)


def ref_sample_pose(self, state, rng):
    pos = state.pos + self.pos_std * rng.standard_normal(3)
    rho = self.att_std_mrp * rng.standard_normal(3)
    q = quat_multiply(mrp_to_error_quat(rho), state.q)
    return PoseMeasurement(pos=pos, q=q)


def ref_wrench_at(self, point, position=None):
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


class RefMomentumObserver:
    """The momentum observer on numpy arrays."""

    def __init__(self, params, gains=None):
        self.params = params
        self.gains = gains or ObserverGains()
        self._prev_meas = None
        self._periods = 0
        self.velocity, self.body_rate, self.f_e, self.tau_e = np.zeros((4, 3))
        self.force_integral, self.torque_integral = np.zeros((2, 3))

    def step(self, rotor_speeds, measurement):
        self._periods += 1
        if measurement is None:
            return
        p = self.params
        # a pose n sampling periods after the last one spans dt = n * params.dt
        dt = self._periods * p.dt
        self._periods = 0

        if self._prev_meas is None:
            self._prev_meas = measurement
            return

        alpha_vel = dt / (dt + 1.0 / (2.0 * np.pi * self.gains.pos_cutoff_hz))
        alpha_rate = dt / (dt + 1.0 / (2.0 * np.pi * self.gains.att_cutoff_hz))
        vel_raw = (measurement.pos - self._prev_meas.pos) / dt
        dq = quat_canonical(quat_multiply(quat_conjugate(self._prev_meas.q), measurement.q))
        rate_raw = quat_to_rotvec(dq) / dt
        self.velocity = self.velocity + alpha_vel * (vel_raw - self.velocity)
        self.body_rate = self.body_rate + alpha_rate * (rate_raw - self.body_rate)
        self._prev_meas = measurement

        R_bg = rotmat_body_to_global(measurement.q)
        rotor = rotor_wrench(p, rotor_speeds)
        thrust_global = R_bg[:, 2] * rotor[0]

        self.force_integral = self.force_integral + dt * (thrust_global - p.mass * p.gravity + self.f_e)
        momentum = p.mass * self.velocity
        self.f_e = self.gains.force * (momentum - self.force_integral)

        gyro = cross3(self.body_rate, p.inertia @ self.body_rate)
        tau_e_body = R_bg.T @ self.tau_e
        self.torque_integral = self.torque_integral + dt * (rotor[1:] - gyro + tau_e_body)
        ang_momentum = p.inertia @ self.body_rate
        self.tau_e = R_bg @ (self.gains.torque * (ang_momentum - self.torque_integral))

    def mean_vector(self):
        q = self._prev_meas.q if self._prev_meas is not None else np.array([1.0, 0, 0, 0])
        pos = self._prev_meas.pos if self._prev_meas is not None else np.zeros(3)
        return np.concatenate([q, self.body_rate, pos, self.velocity, self.tau_e, self.f_e])

    def cov_diagonal(self):
        return np.zeros(len(logio.COV_FIELDS))


def assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


def random_state(rng, pos_spread=0.3, vel_spread=0.5):
    return VehicleState(
        q=attitude.quat_normalize(rng.standard_normal(4)),
        omega=rng.standard_normal(3),
        pos=rng.normal([0.0, 0.0, 1.0], pos_spread),
        vel=rng.normal(0.0, vel_spread, size=3),
        tau_e=np.zeros(3),
        f_e=np.zeros(3),
    )


# ---------------------------------------------------------------------------
# per-call agreement

def assert_columns_close(actual, expected, rtol):
    """Each column of ``actual`` within ``rtol`` of ``expected``'s largest magnitude in it."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.all(np.abs(actual - expected) <= rtol * np.abs(expected).max(axis=0))


class TestControllerAndMixer:
    def test_command_matches_reference(self):
        rng = np.random.default_rng(11)
        ctrl, oracle = FlightController(PARAMS), FlightController(PARAMS)
        horizontal_clamped = vertical_clamped = saturated = 0
        for k in range(600):
            # wide position errors put the horizontal and vertical clamps on
            # about half the draws; yaw covers the circle, with FanTrack's pi
            state = random_state(rng, pos_spread=1.0 if k % 2 else 0.05)
            ref_pos = np.array([0.0, 0.0, 1.0])
            ref_vel = rng.normal(0.0, 0.2, size=3)
            yaw = np.pi if k % 3 == 0 else rng.uniform(-np.pi, np.pi)
            acc = REF_GAINS.pos_p * (ref_pos - state.pos) + REF_GAINS.pos_d * (ref_vel - state.vel)
            horizontal_clamped += np.hypot(*acc[:2]) > REF_GAINS.max_horiz_acc
            vertical_clamped += abs(acc[2]) > REF_GAINS.max_vert_acc
            before = oracle.saturation_count
            np.testing.assert_allclose(ctrl.command(state, ref_pos, ref_vel, yaw=yaw),
                                       ref_command(oracle, state, ref_pos, ref_vel, yaw=yaw),
                                       rtol=0, atol=SPEED_ATOL)
            assert ctrl.saturation_count == oracle.saturation_count
            saturated += oracle.saturation_count - before
        assert horizontal_clamped > 100 and vertical_clamped > 100 and saturated > 10

    def test_mixer_matches_reference(self):
        rng = np.random.default_rng(12)
        flags = []
        for _ in range(500):
            thrust = rng.uniform(-1.0, 12.0)
            torque = rng.normal(0.0, [0.3, 0.3, 0.05])
            speeds, saturated = mix_motor_speeds(PARAMS, thrust, torque)
            ref_speeds, ref_saturated = ref_mix_motor_speeds(PARAMS, thrust, torque)
            np.testing.assert_allclose(speeds, ref_speeds, rtol=0, atol=SPEED_ATOL)
            assert saturated is ref_saturated
            flags.append(saturated)
        assert 0 < sum(flags) < len(flags)

    def test_motor_thrust_limit_is_a_read_only_run_constant(self):
        assert_bits_equal(PARAMS.motor_thrust_max, PARAMS.thrust_coeff * PARAMS.omega_max**2)
        assert not PARAMS.motor_thrust_max.flags.writeable


class TestSensorAndField:
    @pytest.mark.parametrize("bits", [8, 4, 0])
    def test_quantizer_bit_identical(self, bits):
        rng = np.random.default_rng(13)
        sensor = SensorModel(pos_std=0.001, att_std_mrp=0.0005, quant_bits=bits)
        for _ in range(200):
            speeds = rng.uniform(-100.0, PARAMS.omega_max + 100.0, size=4)
            assert_bits_equal(sensor.quantize_speeds(speeds, PARAMS.omega_max),
                              ref_quantize_speeds(sensor, speeds, PARAMS.omega_max))

    def test_sample_pose_matches_reference_and_same_stream(self):
        sensor = SensorModel(pos_std=0.01, att_std_mrp=0.02, quant_bits=8)
        rng, ref_rng = np.random.default_rng(14), np.random.default_rng(14)
        state_rng = np.random.default_rng(15)
        for _ in range(100):
            state = random_state(state_rng)
            got = sensor.sample_pose(state, rng)
            want = ref_sample_pose(sensor, state, ref_rng)
            assert_bits_equal(got.pos, want.pos)
            np.testing.assert_allclose(got.q, want.q, rtol=0, atol=KERNEL_ATOL)
        assert rng.standard_normal() == ref_rng.standard_normal()

    @pytest.mark.parametrize("axis", [[1.0, 0.0, 0.0], [0.6, -0.8, 0.3]])
    def test_fan_wrench_matches_reference(self, axis):
        fan = FanModel(position=[0.0, 0.0, 1.0], axis=axis)
        rng = np.random.default_rng(16)
        moved = np.array([0.1, -0.2, 0.0])
        for point in rng.uniform([-0.5, -1.5, 0.5], [3.0, 1.5, 1.5], size=(200, 3)):
            for position in (None, moved):
                (force, torque), (ref_force, ref_torque) = (
                    fan.wrench_at(point, position=position), ref_wrench_at(fan, point, position=position))
                np.testing.assert_allclose(force, ref_force, rtol=0, atol=4 * EPS * fan.axial_force)
                np.testing.assert_allclose(torque, ref_torque, rtol=0, atol=4 * EPS * fan.torque_peak)

    def test_admittance_bit_identical(self):
        cfg = AdmittanceConfig()
        taus = np.concatenate([
            np.random.default_rng(17).normal(0.0, 0.03, size=500),
            [0.0, -0.0, cfg.deadband, -cfg.deadband, 1e6, -1e6, 5e-324],
        ])
        for tau in taus:
            got = admittance_command(tau, cfg)
            assert type(got) is float
            assert_bits_equal(got, ref_admittance_command(tau, cfg))


class TestObserver:
    def test_step_matches_reference(self):
        # a tumbling pose sequence: relative rotations of either sign of the
        # scalar part, so the short-arc flip is exercised
        rng = np.random.default_rng(18)
        obs, oracle = MomentumObserver(PARAMS), RefMomentumObserver(PARAMS)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        got, want = [], []
        for k in range(400):
            q = attitude.quat_multiply(q, attitude.quat_from_rotvec(rng.normal(0.0, 0.05, size=3)))
            sign = -1.0 if k % 5 == 0 else 1.0
            meas = PoseMeasurement(pos=rng.normal(0.0, 0.01, size=3), q=sign * q)
            speeds = rng.uniform(800.0, 1500.0, size=4)
            obs.step(speeds, meas if k % 7 else None)
            oracle.step(speeds, meas if k % 7 else None)
            got.append(obs.mean_vector())
            want.append(oracle.mean_vector())
        assert_columns_close(got, want, ESTIMATE_RTOL)

    def test_zero_covariance_is_read_only(self):
        cov = MomentumObserver(PARAMS).cov_diagonal()
        assert_bits_equal(cov, np.zeros(len(logio.COV_FIELDS)))
        with pytest.raises(ValueError):
            cov[0] = 1.0


class TestQuatFromRotvec:
    def test_within_stated_ulp_bound_of_sinc_form(self):
        # Bound: |difference| <= eps * max(4, angle) per component.  The
        # sinc form evaluates sin(pi * (h / pi)), whose argument is off from
        # h by up to an ulp of h, so the bound grows with the angle.
        rng = np.random.default_rng(19)
        for scale in (1e-300, 1e-170, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 3.0, 30.0):
            v = rng.standard_normal((2000, 3)) * scale
            angle = np.linalg.norm(v, axis=-1, keepdims=True)
            diff = np.abs(attitude.quat_from_rotvec(v) - ref_quat_from_rotvec(v))
            assert np.all(diff <= EPS * np.maximum(4.0, angle)), scale

    def test_zero_and_single_row(self):
        assert_bits_equal(attitude.quat_from_rotvec(np.zeros(3)), [1.0, 0.0, 0.0, 0.0])
        assert_bits_equal(attitude.quat_from_rotvec(np.zeros((2, 3))), np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)))
        # squares that underflow give angle 0; the vector part stays v / 2
        tiny = np.full(3, 1e-170)
        assert_bits_equal(attitude.quat_from_rotvec(tiny), ref_quat_from_rotvec(tiny))


# ---------------------------------------------------------------------------
# closed loop with every reference form patched in

REFERENCE_FORMS = {
    "quat_from_rotvec": (attitude.quat_from_rotvec, ref_quat_from_rotvec),
    "admittance_command": (control.admittance_command, ref_admittance_command),
    "truth_step": (simulator.truth_step, ref_truth_step),
}
REFERENCE_METHODS = [
    (FlightController, "command", ref_command),
    (SensorModel, "quantize_speeds", ref_quantize_speeds),
    (SensorModel, "sample_pose", ref_sample_pose),
    (FanModel, "wrench_at", ref_wrench_at),
]


def fan_track_log():
    scenario = Scenario(duration_s=2.0, seed=5, trajectory=FanTrack(),
                        disturbance=FanDisturbance(FanModel()))
    setup = RunSetup(estimators=("observer",), quant_bits=0)
    return run_scenario(scenario, setup)


def test_fan_track_closed_loop_matches_reference_forms(monkeypatch):
    shipped = fan_track_log()
    for module in (attitude, control, estimator, observer, rigid_body, simulator):
        for name, (function, reference) in REFERENCE_FORMS.items():
            if getattr(module, name, None) is function:
                monkeypatch.setattr(module, name, reference)
    for owner, name, reference in REFERENCE_METHODS:
        monkeypatch.setattr(owner, name, reference)
    monkeypatch.setattr(simulator, "MomentumObserver", RefMomentumObserver)
    oracle = fan_track_log()

    # FanTrack steers on the observer's torque, so the vehicle really moves
    assert np.ptp(oracle.truth[:, logio.STATE_FIELDS.index("pos_y")]) > 1e-3
    np.testing.assert_allclose(shipped.truth, oracle.truth, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(shipped.meas, oracle.meas, rtol=0.0, atol=1e-12)
    assert_columns_close(shipped.estimates["observer"], oracle.estimates["observer"], ESTIMATE_RTOL)
