"""Simulator tests: truth/model equivalence, sensors, controller, scenarios."""

import copy
import dataclasses
import inspect
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quadwrench import attitude as att
from quadwrench import simulator
from quadwrench.control import AdmittanceConfig
from quadwrench.logio import STATE_FIELDS, TimeSeriesLog
from quadwrench.observer import ObserverGains
from quadwrench.rigid_body import NoiseConfig, VehicleParams, VehicleState, rotor_wrench
from quadwrench.simulator import (
    FanDisturbance,
    FanModel,
    FanTrack,
    FlightController,
    GridSurvey,
    Hover,
    RunSetup,
    Scenario,
    SensorModel,
    SteppedMass,
    _mix,
    run_scenario,
    truth_step,
)
from test_rigid_body import reference_process_step

PARAMS = VehicleParams()
EPS = np.finfo(float).eps
# the float truth step against process_step's per-field form
# (reference_process_step): per entry of the state record,
# TRUTH_RTOL of max(1, |entry|).  The two sum the rotation matrix, the
# quaternion product and the matrix-vector products in different orders, each
# a few ulp of its unit-scale factors.
TRUTH_RTOL = 4 * EPS


def mix_motor_speeds(params, thrust, torque):
    """The controller's mixer ``_mix`` on one vehicle's demand, as arrays."""
    speeds, saturated = _mix(params, float(thrust), np.asarray(torque, dtype=float).tolist())
    return np.array(speeds), saturated


def _vector(low, high, size=3):
    return hnp.arrays(np.float64, size, elements=st.floats(low, high))


def _unit(q):
    # draws too short to normalize accurately become a fixed unit quaternion
    norm = np.linalg.norm(q)
    return q / norm if norm >= 0.1 else np.full(4, 0.5)


class TestTruthStep:
    @staticmethod
    def assert_matches_process_step(state, speeds, wrench, params=PARAMS):
        seeded = VehicleState(q=state.q, omega=state.omega, pos=state.pos, vel=state.vel,
                              tau_e=wrench[1], f_e=wrench[0])
        got = truth_step(state, speeds, wrench, params).vector
        want = reference_process_step(seeded, speeds, None, params).vector
        assert np.all(np.abs(got - want) <= TRUTH_RTOL * np.maximum(1.0, np.abs(want))), got - want
        # the carried wrench bit for bit, a -0.0 component included
        wrench_slots = slice(STATE_FIELDS.index("tau_e_x"), None)
        assert got[wrench_slots].tobytes() == want[wrench_slots].tobytes()

    @pytest.mark.parametrize("inertia", [PARAMS.inertia, [[3.4e-3, 1e-4, -2e-4], [1e-4, 3.5e-3, 5e-5],
                                                          [-2e-4, 5e-5, 4.7e-3]]], ids=["diagonal", "full"])
    def test_same_map_as_process_step(self, inertia):
        params = VehicleParams(inertia=inertia)
        rng = np.random.default_rng(0)
        for _ in range(20):
            state = VehicleState(
                q=att.quat_normalize(rng.standard_normal(4)),
                omega=rng.standard_normal(3),
                pos=rng.standard_normal(3),
                vel=rng.standard_normal(3),
                tau_e=rng.standard_normal(3),  # overwritten by the wrench
                f_e=rng.standard_normal(3),
            )
            wrench = (rng.standard_normal(3), rng.standard_normal(3) * 0.1)
            speeds = rng.uniform(500, 2000, size=4)
            self.assert_matches_process_step(state, speeds, wrench, params)

    # zero body rate (the half-angle guard), a negative quaternion scalar
    # part, -0.0 wrench components, motors stopped and at the limit
    @example(q=np.array([1.0, 0.0, 0.0, 0.0]), omega=np.zeros(3), pos=np.zeros(3), vel=np.zeros(3),
             force=np.array([-0.0, 0.0, -0.0]), torque=np.array([0.0, -0.0, -0.0]), speeds=np.zeros(4))
    @example(q=np.array([-0.6, 0.0, 0.8, 0.0]), omega=np.array([50.0, -50.0, 50.0]), pos=np.zeros(3),
             vel=np.zeros(3), force=np.zeros(3), torque=np.zeros(3), speeds=np.full(4, PARAMS.omega_max))
    @given(q=hnp.arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)).map(_unit), omega=_vector(-50.0, 50.0),
           pos=_vector(-10.0, 10.0), vel=_vector(-5.0, 5.0), force=_vector(-2.0, 2.0),
           torque=_vector(-0.2, 0.2), speeds=_vector(0.0, PARAMS.omega_max, size=4))
    def test_matches_process_step_over_the_flight_envelope(self, q, omega, pos, vel, force, torque, speeds):
        state = VehicleState(q=q, omega=omega, pos=pos, vel=vel, tau_e=np.zeros(3), f_e=np.zeros(3))
        self.assert_matches_process_step(state, speeds, (force, torque))

    def test_centered_mass_target_wrench(self):
        dist = SteppedMass(mass=0.053, offset_body=[0, 0, 0], onset_s=7.0)
        state = VehicleState.at_rest(pos=(0, 0, 1))
        f, tau = dist.wrench(8.0, state)
        np.testing.assert_allclose(f, [0, 0, -0.053 * 9.81])
        np.testing.assert_allclose(tau, np.zeros(3))
        f0, tau0 = dist.wrench(6.9, state)
        np.testing.assert_allclose(np.concatenate([f0, tau0]), np.zeros(6))

    def test_offset_mass_torque_geometry(self):
        dist = SteppedMass(mass=0.053, offset_body=[0.13, 0, 0], onset_s=0.0)
        state = VehicleState.at_rest(pos=(0, 0, 1))
        f, tau = dist.wrench(1.0, state)
        np.testing.assert_allclose(tau, [0.0, 0.053 * 9.81 * 0.13, 0.0], atol=1e-12)
        # yawed vehicle: torque follows the body into the global frame
        state.q = att.quat_from_axis_angle([0, 0, 1], np.pi / 2)
        _, tau_yawed = dist.wrench(1.0, state)
        np.testing.assert_allclose(tau_yawed, [-0.053 * 9.81 * 0.13, 0.0, 0.0], atol=1e-12)

    def test_disturbances_return_float_triples(self):
        state = VehicleState.at_rest(pos=(1.0, 0.5, 1.0))
        behind = FanDisturbance(FanModel(position=[2.0, 0.0, 1.0]))
        for dist in (SteppedMass(onset_s=0.0), SteppedMass(onset_s=7.0), FanDisturbance(FanModel()), behind):
            for triple in dist.wrench(1.0, state):
                assert type(triple) is tuple and len(triple) == 3
                assert all(type(value) is float for value in triple)

    def test_fan_injection_matches_field(self):
        fan = FanModel(position=[0, 0, 1])
        dist = FanDisturbance(fan=fan)
        state = VehicleState.at_rest(pos=(1.0, 0.5, 1.0))
        f, tau = dist.wrench(0.0, state)
        f_ref, tau_ref = fan.wrench_at(state.pos)
        np.testing.assert_array_equal(f, f_ref)
        np.testing.assert_array_equal(tau, tau_ref)


def _noise(**diagonals):
    return dataclasses.replace(NoiseConfig.default(), **{k: np.full(3, v) for k, v in diagonals.items()})


# every setting of a run's configuration that must be strictly positive
POSITIVE_SETTINGS = [
    *((VehicleParams, name) for name in ("mass", "dt", "arm_length", "omega_max")),
    *((_noise, name) for name in ("q_ct", "q_tau_m", "q_f_e", "q_tau_e", "g_x", "g_rho")),
    *((ObserverGains, name) for name in ("force", "torque", "pos_cutoff_hz", "att_cutoff_hz")),
    (AdmittanceConfig, "gain"), (AdmittanceConfig, "limit"),
    *((FanModel, name) for name in ("axial_decay", "radial_sigma", "torque_peak_radius")),
    (Scenario, "duration_s"),
]


@pytest.mark.parametrize("value", [np.nan, 0.0, -1.0])
@pytest.mark.parametrize("build, name", POSITIVE_SETTINGS,
                         ids=[f"{build.__name__.strip('_')}.{name}" for build, name in POSITIVE_SETTINGS])
def test_positive_setting_rejects_nan_zero_and_negative(build, name, value):
    # a check written "x <= 0" passes NaN, which then spreads through every
    # estimate of the run without an error
    with pytest.raises(ValueError, match=rf"\.{name} must be"):
        build(**{name: value})


def _fan_disturbance(**settings):
    return FanDisturbance(FanModel(), **settings)


def _survey_range(**settings):
    """A GridSurvey with each given range ending at the given value."""
    return GridSurvey(**{name: (-0.5, value) for name, value in settings.items()})


# every disturbance, reference, observer, admittance and scenario setting that
# must be finite, with a vector setting given one non-finite entry
FINITE_SETTINGS = [
    (FanModel, "axial_force", False), (FanModel, "torque_peak", False), (FanModel, "position", True),
    (FanModel, "axial_decay", False), (FanModel, "radial_sigma", False), (FanModel, "torque_peak_radius", False),
    (SteppedMass, "mass", False), (SteppedMass, "offset_body", True), (SteppedMass, "onset_s", False),
    (_fan_disturbance, "velocity", True), (_fan_disturbance, "move_from_s", False),
    (Hover, "point", True), (FanTrack, "start_point", True),
    (GridSurvey, "height", False), (GridSurvey, "spacing", False), (GridSurvey, "dwell_s", False),
    (GridSurvey, "travel_speed", False), (_survey_range, "x_range", False), (_survey_range, "y_range", False),
    (FanTrack, "yaw", False),
    (ObserverGains, "force", False), (ObserverGains, "torque", False),
    (AdmittanceConfig, "gain", False), (AdmittanceConfig, "limit", False), (AdmittanceConfig, "deadband", False),
    (Scenario, "duration_s", False),
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build, name, vector", FINITE_SETTINGS,
                         ids=[f"{build.__name__.strip('_')}.{name}" for build, name, _ in FINITE_SETTINGS])
def test_disturbance_and_reference_settings_reject_non_finite(build, name, vector, value):
    # SteppedMass(onset_s=nan) would apply the mass from t = 0 without an
    # error (t < nan is false); ObserverGains(force=inf) logs non-finite
    # estimates without an error, AdmittanceConfig(gain=inf) commands NaN and
    # Scenario(duration_s=inf) raised an untyped OverflowError in run_scenario;
    # GridSurvey(dwell_s=inf) built a survey of infinite duration, and an
    # infinite range end failed inside np.arange; an infinite FanModel
    # axial_decay, radial_sigma or torque_peak_radius built a field without
    # its decay, its radial bell or its z-torque; the others fail steps
    # later, in the sensor or the mixer, under a message that names neither
    # setting
    with pytest.raises(ValueError, match=name):
        build(**{name: np.array([0.0, value, 1.0]) if vector else value})


# every vehicle and noise setting that must be finite: an infinite one passed
# construction and failed mid-run, on a mixer error, a numpy warning or an
# untyped LinAlgError, or, in the float truth step, as a NaN with no warning
VEHICLE_FINITE_SETTINGS = [
    *(pytest.param(VehicleParams, name, np.inf, id=name) for name in ("mass", "arm_length", "dt", "omega_max")),
    pytest.param(VehicleParams, "inertia", np.diag([3.4e-3, np.inf, 4.7e-3]), id="inertia"),
    pytest.param(VehicleParams, "thrust_coeff", [3.5e-7, np.inf, 3.5e-7, 3.5e-7], id="thrust_coeff"),
    pytest.param(VehicleParams, "drag_coeff", [5.6e-9, 5.6e-9, np.inf, 5.6e-9], id="drag_coeff"),
    pytest.param(VehicleParams, "gravity", [0.0, 0.0, np.inf], id="gravity-inf"),
    pytest.param(VehicleParams, "gravity", [np.nan, 0.0, 9.81], id="gravity-nan"),
    *(pytest.param(_noise, name, np.inf, id=name)
      for name in ("q_ct", "q_tau_m", "q_f_e", "q_tau_e", "g_x", "g_rho")),
]


@pytest.mark.parametrize("build, name, value", VEHICLE_FINITE_SETTINGS)
def test_vehicle_and_noise_settings_reject_non_finite(build, name, value):
    with pytest.raises(ValueError, match=rf"\.{name} must be finite"):
        build(**{name: value})


# one default instance of every configuration class
CONFIGS = {config.__class__: config for config in (
    VehicleParams(), NoiseConfig.default(), FanModel(), SteppedMass(), FanDisturbance(FanModel()), Hover(),
    GridSurvey(), FanTrack(), Scenario(duration_s=1.0), ObserverGains(), AdmittanceConfig(),
    SensorModel(pos_std=0.0, att_std_mrp=0.0, quant_bits=8), RunSetup(),
)}
# the settings that are not numbers or arrays of them: nested configuration
# objects, which check themselves ...
NESTED_SETTINGS = {"Scenario.trajectory", "Scenario.disturbance", "FanTrack.admittance", "FanDisturbance.fan",
                   "RunSetup.params", "RunSetup.noise", "RunSetup.observer_gains"}
# ... and settings with checks of their own, each with values it rejects: a
# count (a fraction, a negative, a bool or a string), the UKF's start stds, the
# estimator names and the gate switch.  Each of these built, and Scenario.seed
# and the RunSetup ones failed only when the run started, under messages that
# named no setting ("expected non-negative integer", an untyped TypeError);
# a gate_enabled of "False" switched the gate on.
OTHER_SETTINGS = [
    pytest.param(cls, name, value, id=f"{cls.__name__}.{name}-{case}") for cls, name, cases in (
        (Scenario, "seed", {"negative": -1, "fraction": 1.5, "bool": True, "string": "1"}),
        (SensorModel, "quant_bits", {"too-many": 53}),  # the other cases are TestSensorModel's
        (RunSetup, "quant_bits", {"negative": -1, "too-many": 99, "fraction": 8.5, "bool": True}),
        (RunSetup, "init_stds", {"missing-keys": {"rho": 1}, "negative": {**RunSetup().init_stds, "pos": -1.0},
                                 "unknown-key": {**RunSetup().init_stds, "fe": 0.05}}),
        (RunSetup, "estimators", {"unknown": ("ukf",), "a-string": "usque"}),  # and a repeated name, below
        (RunSetup, "gate_enabled", {"string": "False", "integer": 1, "none": None}),
    ) for case, value in cases.items()
]
NUMERIC_SETTINGS = [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls, config in CONFIGS.items() for f in dataclasses.fields(config)
    if isinstance(getattr(config, f.name), (float, np.ndarray))
]
VECTOR_SETTINGS = [param for param in NUMERIC_SETTINGS
                   if isinstance(getattr(CONFIGS[param.values[0]], param.values[1]), np.ndarray)]


def _with_setting(cls, name, value):
    return dataclasses.replace(CONFIGS[cls], **{name: value})


def test_every_setting_is_numeric_or_listed_apart():
    # a setting added to a configuration class joins the sweeps below unless
    # it is listed here as one that is not a number
    swept = {param.id for param in NUMERIC_SETTINGS}
    tabled = {f"{cls.__name__}.{name}" for cls, name, _ in (param.values for param in OTHER_SETTINGS)}
    every = {f"{cls.__name__}.{f.name}" for cls, config in CONFIGS.items() for f in dataclasses.fields(config)}
    assert every - swept == NESTED_SETTINGS | tabled


@pytest.mark.parametrize("cls, name, value", OTHER_SETTINGS)
def test_other_setting_rejects_a_bad_value_by_name(cls, name, value):
    with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{name}\b"):
        _with_setting(cls, name, value)


@pytest.mark.parametrize("cls, name", NUMERIC_SETTINGS)
def test_every_numeric_setting_rejects_nan_by_name(cls, name):
    # ObserverGains' cutoffs and SensorModel's stds took NaN and failed when
    # the observer was built or at the run's first pose, under messages that
    # named no setting; Scenario.sensor_rate_hz's error said "sensor rate"
    value = getattr(CONFIGS[cls], name)
    with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{name}\b"):
        _with_setting(cls, name, np.full(np.shape(value), np.nan) if np.ndim(value) else np.nan)


@pytest.mark.parametrize("cls, name", NUMERIC_SETTINGS)
def test_every_numeric_setting_rejects_a_string_by_name(cls, name):
    # a string reached np.isfinite and raised an untyped TypeError naming no
    # setting, and a vector of strings was converted to floats
    value = getattr(CONFIGS[cls], name)
    with pytest.raises(ValueError, match=rf"\b{cls.__name__}\.{name} must be a number"):
        _with_setting(cls, name, np.full(np.shape(value), "2.2") if np.ndim(value) else "2.2")


def test_ragged_setting_is_rejected_by_name():
    # numpy's own error on the conversion named no setting
    with pytest.raises(ValueError, match=r"VehicleParams\.inertia must be a number"):
        VehicleParams(inertia=[[3.4e-3, 0.0, 0.0], [0.0, 3.4e-3]])


@pytest.mark.parametrize("cls, name, value", [
    pytest.param(VehicleParams, "gravity", [0.0, 9.81], id="VehicleParams.gravity-2"),
    pytest.param(VehicleParams, "gravity", [[0.0], [0.0], [9.81]], id="VehicleParams.gravity-3x1"),
    pytest.param(VehicleParams, "inertia", np.eye(2), id="VehicleParams.inertia-2x2"),
    pytest.param(VehicleParams, "thrust_coeff", np.full(3, 3.5e-7), id="VehicleParams.thrust_coeff-3"),
    pytest.param(VehicleParams, "mass", [0.48, 0.48], id="VehicleParams.mass-2"),
    pytest.param(SteppedMass, "offset_body", [0.05, 0.0], id="SteppedMass.offset_body-2"),
    pytest.param(FanModel, "position", [0.0, 0.0], id="FanModel.position-2"),
    pytest.param(FanModel, "axis", [1.0, 0.0], id="FanModel.axis-2"),
    pytest.param(FanModel, "axis", [1.0, 0.0, 0.0, 0.0], id="FanModel.axis-4"),
    pytest.param(FanDisturbance, "velocity", [0.1, 0.0], id="FanDisturbance.velocity-2"),
    pytest.param(Hover, "point", [0.0, 1.0], id="Hover.point-2"),
    pytest.param(FanTrack, "start_point", [2.3, 0.8], id="FanTrack.start_point-2"),
    pytest.param(GridSurvey, "x_range", (0.5,), id="GridSurvey.x_range-1"),
    pytest.param(GridSurvey, "x_range", (0.5, 1.5, 2.5), id="GridSurvey.x_range-3"),
    pytest.param(ObserverGains, "force", [2.2], id="ObserverGains.force-1"),
])
def test_setting_of_a_wrong_shape_is_rejected_by_name(cls, name, value):
    # each was stored and failed at run start or steps in, under a message
    # naming no setting (an unpacking error, an untyped TypeError, an
    # IndexError), or was cut short: the third entry of a range was ignored
    with pytest.raises(ValueError, match=rf"{cls.__name__}\.{name} must have shape"):
        _with_setting(cls, name, value)


@pytest.mark.parametrize("cls, name", VECTOR_SETTINGS)
def test_vector_setting_is_stored_as_a_float_copy(cls, name):
    # the caller's array is copied, not kept, and a list is stored as floats
    given = getattr(CONFIGS[cls], name).copy()
    stored = getattr(_with_setting(cls, name, given), name)
    assert not np.shares_memory(stored, given)
    np.testing.assert_array_equal(getattr(_with_setting(cls, name, given.tolist()), name), given, strict=True)


@pytest.mark.parametrize("name, value, derived", [
    pytest.param("omega_max", 1e200, "motor_thrust_max", id="omega_max"),
    pytest.param("thrust_coeff", np.full(4, 1e-320), "mixer_inv", id="thrust_coeff"),
    pytest.param("mass", 1e-320, "1/mass", id="mass"),
    pytest.param("inertia", np.diag([1e-320, 3.4e-3, 4.7e-3]), "inertia_inv", id="inertia"),
])
def test_vehicle_settings_that_overflow_a_derived_constant_are_rejected(name, value, derived):
    # finite settings whose run constants overflow: omega_max**2, the mixer's
    # drag/thrust ratio, and the model's divisions by a tiny mass or inertia
    with pytest.raises(ValueError, match=rf"VehicleParams .*\b{name}\b.*: the derived {derived} is not finite"):
        VehicleParams(**{name: value})


class TestFanModel:
    def test_torque_antisymmetric(self):
        fan = FanModel(position=[0, 0, 1])
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(0.1, 3.0)
            y = rng.uniform(-2.0, 2.0)
            _, tau_plus = fan.wrench_at([x, y, 1.0])
            _, tau_minus = fan.wrench_at([x, -y, 1.0])
            assert abs(tau_plus[2] + tau_minus[2]) < 1e-12

    def test_torque_zero_on_axis_and_peak_location(self):
        fan = FanModel(position=[0, 0, 1])
        _, tau = fan.wrench_at([1.0, 0.0, 1.0])
        assert tau[2] == 0.0
        ys = np.linspace(0.0, 2.0, 2001)
        tz = np.array([fan.wrench_at([1.0, y, 1.0])[1][2] for y in ys])
        assert ys[np.argmax(np.abs(tz))] == pytest.approx(fan.torque_peak_radius, abs=2e-3)
        assert np.abs(tz).max() == pytest.approx(fan.torque_peak, rel=1e-9)

    def test_axial_force_non_negative_and_decaying(self):
        fan = FanModel(position=[0, 0, 1])
        forces = [np.array(fan.wrench_at([d, 0.2, 1.0])[0]) for d in (0.3, 0.8, 1.5, 2.5)]
        mags = [np.linalg.norm(f) for f in forces]
        assert all(m >= 0 for m in mags)
        assert np.all(np.diff(mags) < 0)
        for f in forces:
            np.testing.assert_allclose(f / np.linalg.norm(f), [1, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("axis", [[0.0, 0.0, 1.0], [0.0, 0.0, -2.0], [0.0, 0.0, 0.0], [np.nan, 1.0, 0.0]])
    def test_axis_without_lateral_direction_rejected(self, axis):
        # a vertical axis leaves the torque's sign undefined (it returned NaN)
        with pytest.raises(ValueError):
            FanModel(axis=axis)

    @pytest.mark.parametrize("axis", [[1.0, 0.0, 0.0], [0.6, -0.8, 0.3]])
    def test_wrench_matches_field_formula(self, axis):
        fan = FanModel(position=[0, 0, 1], axis=axis)
        unit = np.asarray(axis) / np.linalg.norm(axis)
        lateral = np.cross([0.0, 0.0, 1.0], unit)
        lateral /= np.linalg.norm(lateral)
        rng = np.random.default_rng(2)
        for point in rng.uniform([0.1, -1.5, 0.5], [2.5, 1.5, 1.5], size=(50, 3)):
            rel = point - fan.position
            d = rel @ unit
            if d <= 0.0:
                continue
            r = np.linalg.norm(rel - d * unit)
            f_mag = fan.axial_force * np.exp(-d / fan.axial_decay) * np.exp(-0.5 * (r / fan.radial_sigma) ** 2)
            u = (rel @ lateral) / fan.torque_peak_radius
            tau_z = fan.torque_peak * u * np.exp(0.5 * (1.0 - u * u))
            f, tau = fan.wrench_at(point)
            # math.exp and the written-out dot products round apart from
            # np.exp and BLAS, by a few eps of the field's scale
            np.testing.assert_allclose(f, f_mag * unit, rtol=0, atol=4 * EPS * fan.axial_force)
            np.testing.assert_allclose(tau, [0.0, 0.0, tau_z], rtol=0, atol=4 * EPS * fan.torque_peak)

    def test_nothing_behind_the_fan(self):
        fan = FanModel(position=[0, 0, 1])
        f, tau = fan.wrench_at([-0.5, 0.3, 1.0])
        np.testing.assert_array_equal(np.concatenate([f, tau]), np.zeros(6))


class TestSensorModel:
    # a negative count turned quantization off, a fraction made an off-grid
    # quantizer (top level 2549.73, not omega_max), True quantized to
    # {0, omega_max} and 2000 bits overflowed at the first step
    @pytest.mark.parametrize("bits", [-1, 8.5, True, 53, 2000, "8", None, np.int64(8)])
    def test_quant_bits_must_be_an_integer_from_0_to_52(self, bits):
        with pytest.raises(ValueError, match="quant_bits"):
            SensorModel(pos_std=0.0, att_std_mrp=0.0, quant_bits=bits)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -1e-3])
    @pytest.mark.parametrize("name", ["pos_std", "att_std_mrp"])
    def test_std_must_be_finite_and_non_negative(self, name, value):
        # a NaN std failed only at the run's first pose, under a pose message
        stds = {"pos_std": 0.0, "att_std_mrp": 0.0, name: value}
        with pytest.raises(ValueError, match=rf"SensorModel\.{name} must be"):
            SensorModel(quant_bits=8, **stds)

    @pytest.mark.parametrize("bits", [1, 8, 52])
    def test_quant_bits_in_range_quantize(self, bits):
        sensor = SensorModel(pos_std=0.0, att_std_mrp=0.0, quant_bits=bits)
        low, mid, high = sensor.quantize_speeds(np.array([0.0, 1000.0, 3000.0]), PARAMS.omega_max)
        step = PARAMS.omega_max / (2**bits - 1)
        assert low == 0.0 and high == PARAMS.omega_max
        assert abs(mid - 1000.0) <= 0.5 * step * (1.0 + 1e-9)

    def test_noiseless_equals_truth(self):
        sensor = SensorModel(pos_std=0.0, att_std_mrp=0.0, quant_bits=0)
        state = VehicleState.at_rest(pos=(1, 2, 3), q=att.quat_from_axis_angle([0, 0, 1], 0.4))
        m = sensor.sample_pose(state, np.random.default_rng(0))
        np.testing.assert_array_equal(m.pos, state.pos)
        np.testing.assert_allclose(m.q, state.q, atol=1e-15)
        speeds = np.array([1003.0, 7.0, 0.0, 2549.0])
        np.testing.assert_array_equal(sensor.quantize_speeds(speeds, PARAMS.omega_max), speeds)

    def test_from_noise_samples_the_filter_covariance(self):
        noise = NoiseConfig.default()
        sensor = SensorModel.from_noise(noise, quant_bits=8)
        assert sensor.pos_std ** 2 == pytest.approx(noise.g_x[0], rel=1e-12)
        assert sensor.att_std_mrp ** 2 == pytest.approx(noise.g_rho[0], rel=1e-12)

    @pytest.mark.parametrize("name", ["g_x", "g_rho"])
    def test_from_noise_rejects_anisotropic_covariance(self, name):
        # one std per block would sample z at the x variance while the
        # filter's R says otherwise
        noise = dataclasses.replace(NoiseConfig.default(), **{name: [1e-6, 1e-6, 9e-6]})
        with pytest.raises(ValueError, match=name):
            SensorModel.from_noise(noise, quant_bits=8)

    def test_position_noise_statistics(self):
        sensor = SensorModel(pos_std=0.01, att_std_mrp=0.0, quant_bits=8)
        rng = np.random.default_rng(2)
        state = VehicleState.at_rest(pos=(0, 0, 1))
        draws = np.array([sensor.sample_pose(state, rng).pos for _ in range(10_000)])
        np.testing.assert_allclose(draws.std(axis=0), 0.01, rtol=0.05)

    def test_eight_bit_quantization(self):
        sensor = SensorModel(pos_std=0.0, att_std_mrp=0.0, quant_bits=8)
        np.testing.assert_array_equal(
            sensor.quantize_speeds(np.array([1003.0, 1006.0, 0.0, 3000.0]), PARAMS.omega_max),
            [1000.0, 1010.0, 0.0, PARAMS.omega_max],
        )


class TestFlightController:
    def test_hover_equilibrium_commands_hover_speeds(self):
        ctrl = FlightController(PARAMS)
        state = VehicleState.at_rest(pos=(0, 0, 1))
        speeds = ctrl.command(state, np.array([0, 0, 1.0]))
        assert rotor_wrench(PARAMS, speeds)[..., 0] == pytest.approx(PARAMS.mass * 9.81, rel=1e-9)
        np.testing.assert_allclose(rotor_wrench(PARAMS, speeds)[..., 1:], np.zeros(3), atol=1e-12)

    def test_step_response_settles_fast_without_overshoot(self):
        # tuning oracle: simulated 0.1 m step in x
        ctrl = FlightController(PARAMS)
        state = VehicleState.at_rest(pos=(0, 0, 1))
        ref = np.array([0.1, 0.0, 1.0])
        xs = []
        for _ in range(int(3.0 / PARAMS.dt)):
            speeds = ctrl.command(state, ref)
            state = truth_step(state, speeds, (np.zeros(3), np.zeros(3)), PARAMS)
            xs.append(state.pos[0])
        xs = np.asarray(xs)
        assert np.max(xs) < 0.1 * 1.2                      # overshoot < 20%
        settled = xs[int(2.0 / PARAMS.dt):]
        np.testing.assert_allclose(settled, 0.1, atol=0.005)  # within 5 mm after 2 s

    def test_hover_hold_position_error_small(self):
        ctrl = FlightController(PARAMS)
        state = VehicleState.at_rest(pos=(0, 0, 1))
        ref = np.array([0.0, 0.0, 1.0])
        errs = []
        for k in range(int(5.0 / PARAMS.dt)):
            speeds = ctrl.command(state, ref)
            state = truth_step(state, speeds, (np.zeros(3), np.zeros(3)), PARAMS)
            if k > int(1.0 / PARAMS.dt):
                errs.append(np.linalg.norm(state.pos - ref))
        assert max(errs) < 0.02

    def test_mixing_inverts_thrust_and_torque_maps(self):
        # Demands drawn from motor speeds cover the whole reachable envelope
        # (thrust 0..9.1 N, yaw up to +-0.073 N m); a box of thrust and torque
        # does not fit inside it, since yaw authority vanishes at both ends.
        rng = np.random.default_rng(3)
        for _ in range(50):
            drawn = rng.uniform(0.0, PARAMS.omega_max, size=4)
            wrench = rotor_wrench(PARAMS, drawn)
            thrust, torque = wrench[0], wrench[1:]
            speeds, saturated = mix_motor_speeds(PARAMS, thrust, torque)
            assert not saturated
            assert rotor_wrench(PARAMS, speeds)[..., 0] == pytest.approx(thrust, rel=1e-9)
            np.testing.assert_allclose(rotor_wrench(PARAMS, speeds)[..., 1:], torque, atol=1e-12)

        # 0.05 N m of yaw is reachable at hover thrust ...
        hover = PARAMS.mass * PARAMS.gravity[2]
        yaw = np.array([0.0, 0.0, 0.05])
        speeds, saturated = mix_motor_speeds(PARAMS, hover, yaw)
        assert not saturated
        assert rotor_wrench(PARAMS, speeds)[..., 0] == pytest.approx(hover, rel=1e-9)
        np.testing.assert_allclose(rotor_wrench(PARAMS, speeds)[..., 1:], yaw, atol=1e-12)

        # ... but 0.041 N m is not reachable at 1.21 N: flagged, and clipped into range.
        speeds, saturated = mix_motor_speeds(PARAMS, 1.21, np.array([0.0, 0.0, -0.041]))
        assert saturated
        assert np.all((speeds >= 0.0) & (speeds <= PARAMS.omega_max))

    def test_mixing_round_trip_within_one_quantization_step(self):
        sensor = SensorModel(pos_std=0.0, att_std_mrp=0.0, quant_bits=8)
        rng = np.random.default_rng(4)
        step = PARAMS.omega_max / 255
        for _ in range(50):
            thrust = rng.uniform(2.0, 7.0)
            torque = rng.uniform(-0.03, 0.03, size=3)
            speeds, saturated = mix_motor_speeds(PARAMS, thrust, torque)
            assert not saturated  # the bound holds only for unclipped speeds
            quant = sensor.quantize_speeds(speeds, PARAMS.omega_max)
            # thrust error bounded by the quantization sensitivity
            sens = np.sum(2 * PARAMS.thrust_coeff * speeds * (step / 2))
            assert abs(rotor_wrench(PARAMS, quant)[..., 0] - thrust) <= sens * 1.01

    def test_motor_limit_comes_from_vehicle_params(self):
        params = dataclasses.replace(PARAMS, omega_max=1000.0)
        speeds, saturated = mix_motor_speeds(params, 50.0, np.zeros(3))
        assert saturated
        np.testing.assert_allclose(speeds, 1000.0, rtol=1e-12)

    @pytest.mark.parametrize("thrust, torque", [
        (np.nan, np.zeros(3)),
        (np.inf, np.zeros(3)),
        (4.7, np.array([0.0, np.nan, 0.0])),
        (4.7, np.array([0.0, 0.0, -np.inf])),
    ])
    def test_non_finite_demand_rejected(self, thrust, torque):
        # NaN speeds would pass as a saturated command and be counted as one
        with pytest.raises(ValueError, match="finite"):
            mix_motor_speeds(PARAMS, thrust, torque)

    def test_saturation_flagged(self):
        speeds, saturated = mix_motor_speeds(PARAMS, 50.0, np.zeros(3))
        assert saturated
        assert np.all(speeds <= PARAMS.omega_max)

        # Any clipping is flagged, however small: 1e-6 N and 4e-6 N per motor past the limit.
        full = rotor_wrench(PARAMS, np.full(4, PARAMS.omega_max))[..., 0]
        for excess in (4e-6, 4 * 4e-6):
            speeds, saturated = mix_motor_speeds(PARAMS, full + excess, np.zeros(3))
            assert saturated
            np.testing.assert_allclose(speeds, PARAMS.omega_max, rtol=1e-12)


class TestScenarios:
    def test_same_seed_bit_identical(self):
        scen = Scenario(duration_s=2.0, seed=7, trajectory=Hover(),
                        disturbance=SteppedMass(onset_s=1.0))
        setup = RunSetup(estimators=("usque", "observer"))
        a = run_scenario(scen, setup)
        b = run_scenario(scen, RunSetup(estimators=("usque", "observer")))
        np.testing.assert_array_equal(a.to_matrix(), b.to_matrix())

    def test_different_seed_differs(self):
        base = dict(duration_s=1.0, trajectory=Hover())
        a = run_scenario(Scenario(seed=1, **base), RunSetup())
        b = run_scenario(Scenario(seed=2, **base), RunSetup())
        assert not np.array_equal(a.meas, b.meas)

    def test_row_count(self):
        log = run_scenario(Scenario(duration_s=20.0, seed=0, trajectory=Hover()), RunSetup())
        assert len(log) == 4000

    def test_grid_survey_segment_count(self):
        traj = GridSurvey(x_range=(0.0, 2.0), y_range=(0.0, 2.0), spacing=0.5, dwell_s=5.0)
        assert len(traj.segments()) == 25
        assert len(traj.cells) == 25

    def test_grid_survey_reference(self):
        # the benchmark's survey: serpentine over y at x = 0.5, 1.0, 1.5,
        # 1 s legs between neighbouring cells at 0.5 m/s, 3 s dwells
        traj = GridSurvey(x_range=(0.5, 1.5), y_range=(-0.5, 0.5), spacing=0.5, dwell_s=3.0)
        pos, vel = traj.reference(1.0)  # dwelling on the first cell
        np.testing.assert_array_equal(pos, [0.5, -0.5, 1.0])
        np.testing.assert_array_equal(vel, np.zeros(3))
        pos, vel = traj.reference(3.5)  # half way along the first leg
        np.testing.assert_allclose(pos, [0.5, -0.25, 1.0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(vel, [0.0, 0.5, 0.0], rtol=0, atol=1e-15)
        for t in (traj.duration(), traj.duration() + 10.0):  # past the end: hold the last cell
            pos, vel = traj.reference(t)
            np.testing.assert_array_equal(pos, [1.5, 0.5, 1.0])
            np.testing.assert_array_equal(vel, np.zeros(3))

    @pytest.mark.parametrize("kwargs", [{"spacing": 0.0}, {"travel_speed": 0.0}, {"spacing": -0.5},
                                        {"x_range": (2.5, 0.5)}, {"dwell_s": 0.0}])
    def test_grid_survey_rejects_degenerate_layout(self, kwargs):
        # these raised ZeroDivisionError or IndexError from the timeline build
        with pytest.raises(ValueError):
            GridSurvey(**kwargs)

    def test_duration_shorter_than_a_step_rejected(self):
        # a zero-step run would leave a log whose CSV has no rows to read back
        with pytest.raises(ValueError, match="zero"):
            run_scenario(Scenario(duration_s=0.001), RunSetup())
        assert len(run_scenario(Scenario(duration_s=0.004), RunSetup(estimators=()))) == 1

    def test_same_fan_track_scenario_runs_twice_alike(self):
        # FanTrack steers its reference as it flies; each run starts it over
        scen = Scenario(duration_s=1.0, seed=2, trajectory=FanTrack(),
                        disturbance=FanDisturbance(FanModel()))
        first = run_scenario(scen, RunSetup(estimators=("observer",)))
        second = run_scenario(scen, RunSetup(estimators=("observer",)))
        np.testing.assert_array_equal(first.to_matrix(), second.to_matrix())

    @pytest.mark.parametrize("rate", [0.0, -200.0, np.inf, np.nan])
    def test_sensor_rate_must_be_positive_and_finite(self, rate):
        # a zero rate used to construct and then divide by zero mid-run
        with pytest.raises(ValueError, match=r"Scenario\.sensor_rate_hz"):
            Scenario(duration_s=1.0, sensor_rate_hz=rate)

    def test_sensor_rate_must_divide(self):
        with pytest.raises(ValueError):
            Scenario(duration_s=1.0, sensor_rate_hz=130.0).steps_per_measurement(0.005)
        assert Scenario(duration_s=1.0, sensor_rate_hz=100.0).steps_per_measurement(0.005) == 2

    def test_measurement_dropout_rows_are_nan(self):
        log = run_scenario(Scenario(duration_s=0.5, seed=0, sensor_rate_hz=100.0,
                                    trajectory=Hover()), RunSetup())
        assert np.all(np.isnan(log.meas[0]))
        assert not np.any(np.isnan(log.meas[1]))

    @pytest.mark.parametrize("quant_bits", [8, 0])
    def test_yaw_zero_hover_stays_on_the_vertical_until_onset(self, quant_bits):
        # equal motor speeds give exactly zero rotor torque, so nothing tilts
        # or moves the vehicle sideways before the offset mass is hung on
        onset = 1.0
        scen = Scenario(duration_s=2.0, seed=1, trajectory=Hover(),
                        disturbance=SteppedMass(offset_body=[0.05, 0.0, 0.0], onset_s=onset))
        log = run_scenario(scen, RunSetup(estimators=(), quant_bits=quant_bits))
        vertical = [STATE_FIELDS.index(f) for f in ("q0", "pos_z", "vel_z")]
        before = log.time <= onset  # row k is the state after the step from t = k dt
        assert np.all(np.delete(log.truth[before], vertical, axis=1) == 0.0)
        assert log.truth[-1, STATE_FIELDS.index("wy")] != 0.0  # the offset mass pitches it

    def test_csv_round_trip(self, tmp_path):
        traj = GridSurvey(x_range=(1.0, 1.5), y_range=(0.0, 0.5), spacing=0.5, dwell_s=0.5,
                          travel_speed=1.0)
        scen = Scenario(duration_s=traj.duration() + 0.5, seed=3, trajectory=traj,
                        disturbance=FanDisturbance(fan=FanModel(position=[0, 0, 1])))
        log = run_scenario(scen, RunSetup(estimators=("usque", "observer")))
        path = tmp_path / "ts.csv"
        log.to_csv(path)
        with open(path) as fh:
            assert fh.readline().startswith("# quadwrench-timeseries v1")
            fh.readline()
            assert fh.readline().strip().split(",") == log.column_names()
            rows = fh.read()
        oracle = tmp_path / "oracle.csv"
        np.savetxt(oracle, log.to_matrix(), fmt="%.10g", delimiter=",")
        assert rows == oracle.read_text()
        back = TimeSeriesLog.from_csv(path)
        np.testing.assert_allclose(back.truth, log.truth, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(back.estimates["usque"], log.estimates["usque"], rtol=1e-9, atol=1e-12)
        assert back.estimator_names() == ["usque", "observer"]
        assert len(back.segments) == len(log.segments)
        assert back.meta["seed"] == 3


class TestEstimatorRecord:
    @pytest.mark.parametrize("order", [("usque", "observer"), ("observer", "usque")])
    def test_first_listed_estimator_steers_fan_track(self, order, monkeypatch):
        seen = []
        advance = FanTrack.advance

        def recording(self, tau_z, dt):
            seen.append(tau_z)
            advance(self, tau_z, dt)

        monkeypatch.setattr(FanTrack, "advance", recording)
        scen = Scenario(duration_s=1.0, seed=2, trajectory=FanTrack(),
                        disturbance=FanDisturbance(FanModel()))
        log = run_scenario(scen, RunSetup(estimators=order))
        col = STATE_FIELDS.index("tau_e_z")
        np.testing.assert_array_equal(seen, log.estimates[order[0]][:, col])
        # the two estimates differ, so the check tells the estimators apart
        assert not np.array_equal(seen, log.estimates[order[1]][:, col])

    def test_logged_rows_are_the_step_records(self, monkeypatch):
        # each truth row is truth_step's record and each pose row the
        # measurement's, bit for bit; poses arrive every other step
        states, poses = [], []
        step, sample = simulator.truth_step, SensorModel.sample_pose

        def stepping(*args):
            states.append(step(*args))
            return states[-1]

        def sampling(self, *args):
            poses.append(sample(self, *args))
            return poses[-1]

        monkeypatch.setattr(simulator, "truth_step", stepping)
        monkeypatch.setattr(SensorModel, "sample_pose", sampling)
        log = run_scenario(Scenario(duration_s=0.1, seed=1, sensor_rate_hz=100.0), RunSetup())
        assert log.truth.tobytes() == np.stack([s.vector for s in states]).tobytes()
        assert log.meas[1::2].tobytes() == np.stack([p.vector for p in poses]).tobytes()
        assert np.isnan(log.meas[0::2]).all()

    def test_fan_track_needs_an_estimator(self):
        with pytest.raises(ValueError, match="FanTrack"):
            run_scenario(Scenario(duration_s=0.1, trajectory=FanTrack()), RunSetup(estimators=()))

    def test_repeated_estimator_is_rejected(self):
        # the estimators were keyed by name, so a repeated one ran once and
        # the log silently carried two estimator blocks for three names
        with pytest.raises(ValueError, match=r"RunSetup\.estimators: 'usque' is listed twice"):
            RunSetup(estimators=("usque", "observer", "usque"))

    def test_jitter_count_in_meta(self):
        scen = Scenario(duration_s=0.1, seed=1, trajectory=Hover())
        stds = {**RunSetup().init_stds, "omega": 0.0}
        for init_stds, count in ((RunSetup().init_stds, 0), (stds, 1)):
            log = run_scenario(scen, RunSetup(estimators=("usque", "observer"), init_stds=init_stds))
            assert log.meta["jitter_count"] == {"usque": count}

    @pytest.mark.parametrize("gate_enabled", [True, False])
    def test_rejected_count_in_meta(self, gate_enabled):
        # the start cell's yaw torque is far outside the tau_e prior, so the
        # gate turns poses away from the first corrections on
        survey = GridSurvey(x_range=(0.5, 1.5), y_range=(-0.5, 0.5), spacing=0.5, dwell_s=3.0)
        scen = Scenario(duration_s=1.0, seed=2, trajectory=survey, disturbance=FanDisturbance(FanModel()))
        log = run_scenario(scen, RunSetup(estimators=("usque", "observer"), gate_enabled=gate_enabled))
        rejected = log.meta["rejected_count"]
        assert set(rejected) == {"usque"}
        assert (rejected["usque"] > 0) == gate_enabled
        assert rejected["usque"] <= 200  # one correction per 5 ms pose

    def test_observer_logs_zero_covariance(self):
        scen = Scenario(duration_s=0.5, seed=1, trajectory=Hover(),
                        disturbance=SteppedMass(onset_s=0.2))
        log = run_scenario(scen, RunSetup(estimators=("usque", "observer")))
        assert log.cov_diags["observer"].shape == log.cov_diags["usque"].shape
        assert np.all(log.cov_diags["observer"] == 0.0)
        assert np.all(log.cov_diags["usque"] > 0.0)


def record_flight(scenario, setup):
    """One live run; returns its log, its flight as recorded (each step's
    speeds and pose as the estimators got them) and copies of its estimators
    taken before their first step."""
    flight, fresh = [], {}
    estimate = simulator._estimate

    def recording(steps, estimators, log):
        # the live flight is a generator: the run keeps no per-step record
        assert inspect.isgenerator(steps)
        fresh.update(copy.deepcopy(estimators))
        estimate((flight.append(step) or step for step in steps), estimators, log)

    with mock.patch.object(simulator, "_estimate", recording):
        log = run_scenario(scenario, setup)
    return log, flight, fresh


def replay(flight, estimators, live):
    """The log ``live`` with its estimator columns from ``estimators`` stepped
    over ``flight`` through the estimation loop."""
    log = TimeSeriesLog(np.full_like(live.to_matrix(), np.nan), estimators, live.segments)
    log.time[:], log.truth[:], log.meas[:] = live.time, live.truth, live.meas
    simulator._estimate(flight, estimators, log)
    return log


def _stepped_mass(seed=5, duration_s=2.0, **settings):
    settings = {"offset_body": [0.05, 0.0, 0.0], "onset_s": 1.0, **settings}
    return Scenario(duration_s=duration_s, seed=seed, trajectory=Hover(), disturbance=SteppedMass(**settings))


def _survey(seed=2, duration_s=None):
    survey = GridSurvey(x_range=(0.5, 1.5), y_range=(-0.5, 0.5), spacing=0.5, dwell_s=3.0)
    return Scenario(duration_s=duration_s or survey.duration(), seed=seed, trajectory=survey,
                    disturbance=FanDisturbance(FanModel()))


class TestFlight:
    def test_flight_does_not_depend_on_the_estimators(self):
        # a mass heavy enough to saturate the motors, so the count is not 0
        runs = [run_scenario(_stepped_mass(seed=3, mass=0.2, offset_body=[0.2, 0.0, 0.0]), RunSetup(estimators=e))
                for e in ((), ("observer",), ("usque", "observer"))]
        assert runs[0].meta["saturation_steps"] > 0
        for log in runs[1:]:
            assert log.truth.tobytes() == runs[0].truth.tobytes()
            assert log.meas.tobytes() == runs[0].meas.tobytes()
            assert log.meta["saturation_steps"] == runs[0].meta["saturation_steps"]

    @pytest.mark.parametrize("k", [0, 37])
    def test_a_raise_keeps_its_step(self, k, monkeypatch):
        # perfbench counts the steps completed before a raise from the
        # reference calls, one per step and the first thing each step does
        references, steps = [], []
        reference, step = Hover.reference, simulator.MomentumObserver.step

        def failing(self, *args):
            steps.append(args)
            if len(steps) > k:
                raise RuntimeError("injected")
            step(self, *args)

        monkeypatch.setattr(Hover, "reference", lambda self, t: references.append(t) or reference(self, t))
        monkeypatch.setattr(simulator.MomentumObserver, "step", failing)
        with pytest.raises(RuntimeError, match="injected"):
            run_scenario(_stepped_mass(), RunSetup(estimators=("usque", "observer")))
        assert len(references) == len(steps) == k + 1

    @pytest.mark.parametrize("scenario, estimators", [
        pytest.param(_stepped_mass(), ("usque", "observer"), id="stepped-mass"),
        pytest.param(_survey(duration_s=2.0), ("usque", "observer"), id="survey"),
        pytest.param(Scenario(duration_s=1.0, seed=2, trajectory=FanTrack(), disturbance=FanDisturbance(FanModel())),
                     ("observer", "usque"), id="fan-track"),
    ])
    def test_fresh_estimators_replay_a_recorded_flight_bit_for_bit(self, scenario, estimators):
        live, flight, fresh = record_flight(scenario, RunSetup(estimators=estimators))
        assert len(flight) == len(live)
        again = replay(flight, fresh, live)
        assert again.to_matrix().tobytes() == live.to_matrix().tobytes()

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("build, estimators", [
        pytest.param(lambda seed: _stepped_mass(seed, duration_s=20.0, onset_s=7.0, mass=0.053),
                     ("usque", "observer"), id="stepped-mass"),
        pytest.param(lambda seed: _survey(seed), ("usque", "observer"), id="survey-ungated"),
    ])
    def test_full_runs_replay_bit_for_bit(self, build, estimators, seed):
        live, flight, fresh = record_flight(build(seed), RunSetup(estimators=estimators))
        again = replay(flight, fresh, live)
        for name in estimators:
            assert again.estimates[name].tobytes() == live.estimates[name].tobytes()
            assert again.cov_diags[name].tobytes() == live.cov_diags[name].tobytes()
        assert fresh["usque"].jitter_count == live.meta["jitter_count"]["usque"]


class TestMovingFan:
    """The admittance experiment with the fan carried sideways: the vehicle
    follows on its estimated torque, a lag behind."""

    @staticmethod
    def lag_m(speed):
        # the fan holds still for 5 s while the vehicle centres, then moves along y
        dist = FanDisturbance(FanModel(), velocity=[0.0, speed, 0.0], move_from_s=5.0)
        scen = Scenario(duration_s=25.0, seed=1, trajectory=FanTrack(), disturbance=dist)
        log = run_scenario(scen, RunSetup(estimators=("observer",)))
        last = log.time >= log.time[-1] - 5.0
        fan_y = np.array([dist.fan_position(t)[1] for t in log.time[last]])
        # positive when the vehicle is behind the fan along its motion
        return (fan_y - log.truth[last, STATE_FIELDS.index("pos_y")]) * np.sign(speed)

    def test_vehicle_trails_the_moving_fan(self):
        slow = {}
        for speed in (0.05, -0.05):
            lag = self.lag_m(speed)
            assert np.all((lag > 0.0) & (lag < 0.1)), (speed, lag.min(), lag.max())
            slow[speed] = lag.mean()
        assert self.lag_m(0.1).mean() > max(slow.values())
