"""Low-pass filter and momentum-observer behavior tests."""

import numpy as np
import pytest

from quadwrench import attitude as att
from quadwrench.estimator import PoseMeasurement
from quadwrench.logio import STATE_FIELDS
from quadwrench.observer import MomentumObserver, ObserverGains, lowpass_alpha
from quadwrench.rigid_body import VehicleParams, VehicleState, process_step
from quadwrench.simulator import Hover, RunSetup, Scenario, SteppedMass, run_scenario
from test_rigid_body import hover_speeds

PARAMS = VehicleParams()
DT = PARAMS.dt
# the estimates' slots in the observer's log record
TAU_E = slice(STATE_FIELDS.index("tau_e_x"), STATE_FIELDS.index("tau_e_z") + 1)
F_E = slice(STATE_FIELDS.index("f_e_x"), STATE_FIELDS.index("f_e_z") + 1)


def lowpass_run(cutoff_hz, inputs):
    """Outputs of y += a (u - y) from rest, the recursion the observer runs."""
    a = lowpass_alpha(cutoff_hz, DT)
    y = np.zeros_like(np.asarray(inputs[0], dtype=float))
    out = []
    for u in inputs:
        y = y + a * (u - y)
        out.append(y)
    return np.asarray(out)


class TestLowPass:
    def test_dc_gain_is_one(self):
        y = lowpass_run(2.0, [np.array([1.0, -2.0, 0.5])] * 5000)[-1]
        np.testing.assert_allclose(y, [1.0, -2.0, 0.5], atol=1e-9)

    def test_wide_open_cutoff_passes_input(self):
        # alpha -> 1 with increasing cutoff; at the Nyquist limit the output
        # reaches the input within a handful of samples
        cutoffs = np.array([1.0, 5.0, 20.0, 80.0, 0.499 / DT])
        alphas = [lowpass_alpha(c, DT) for c in cutoffs]
        assert np.all(np.diff(alphas) > 0)
        y = lowpass_run(0.499 / DT, [np.ones(1)] * 5)[-1]
        assert y[0] == pytest.approx(1.0, abs=0.01)

    def test_time_constant_of_unit_step(self):
        # first-order oracle: 63.2% of the final value at t = 1/(2 pi fc)
        a = lowpass_alpha(1.0, DT)
        t, y = 0.0, 0.0
        while y < 1.0 - np.exp(-1.0):
            y = y + a * (1.0 - y)
            t += DT
        assert t == pytest.approx(1.0 / (2 * np.pi), abs=0.01)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            lowpass_alpha(0.0, DT)
        with pytest.raises(ValueError):
            lowpass_alpha(101.0, DT)  # above Nyquist at 200 Hz


def run_observer(truth_sequence, speeds, gains=None):
    obs = MomentumObserver(PARAMS, gains)
    for truth in truth_sequence:
        obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy()))
    return obs


class TestMomentumObserver:
    def test_zero_wrench_stays_zero(self):
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        speeds = hover_speeds(PARAMS)
        seq = []
        for _ in range(400):
            truth = process_step(truth, speeds, None, PARAMS)
            seq.append(truth.copy())
        obs = run_observer(seq, speeds)
        np.testing.assert_allclose(obs.mean_vector()[F_E], np.zeros(3), atol=1e-6)
        np.testing.assert_allclose(obs.mean_vector()[TAU_E], np.zeros(3), atol=1e-8)

    def test_constant_force_convergence_rate(self):
        # noise-free: first-order error dynamics, settled within 5 time
        # constants of the gain
        gains = ObserverGains(force=2.2, torque=2.2, pos_cutoff_hz=30.0, att_cutoff_hz=30.0)
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([-0.52, 0.0, 0.0])
        speeds = hover_speeds(PARAMS)
        n = int(5.0 / gains.force / DT) + 200
        obs = MomentumObserver(PARAMS, gains)
        for k in range(n):
            truth = process_step(truth, speeds, None, PARAMS)
            obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy()))
        np.testing.assert_allclose(obs.mean_vector()[F_E], [-0.52, 0.0, 0.0], atol=0.01)

    @pytest.mark.parametrize("gap", [2, 4, 20])
    def test_constant_force_converges_at_any_pose_rate(self, gap):
        # noise-free poses every ``gap`` steps (100 Hz down to 10 Hz) with the
        # observer stepped every step: the pose difference and the modelled
        # force integral both span gap * dt, so the estimate still settles on
        # the true force
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([0.0, 0.0, -0.52])
        speeds = hover_speeds(PARAMS)
        obs = MomentumObserver(PARAMS)
        for k in range(int(4.0 / DT)):
            truth = process_step(truth, speeds, None, PARAMS)
            pose = PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy()) if (k + 1) % gap == 0 else None
            obs.step(speeds, pose)
        np.testing.assert_allclose(obs.mean_vector()[F_E], [0.0, 0.0, -0.52], atol=0.005)

    def test_rise_time_matches_first_order_oracle(self):
        gains = ObserverGains(force=2.2, torque=2.2, pos_cutoff_hz=30.0, att_cutoff_hz=30.0)
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([0.0, 0.0, -0.52])
        speeds = hover_speeds(PARAMS)
        obs = MomentumObserver(PARAMS, gains)
        history = []
        for k in range(int(4.0 / DT)):
            truth = process_step(truth, speeds, None, PARAMS)
            obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy()))
            history.append(obs.mean_vector()[F_E][2])
        history = np.asarray(history)
        t10 = DT * np.argmax(history <= 0.1 * -0.52)
        t90 = DT * np.argmax(history <= 0.9 * -0.52)
        assert t90 - t10 == pytest.approx(np.log(9) / gains.force, abs=0.15)

    def test_error_decays_monotonically_after_transient(self):
        # pure force offset: no torque, so the uncontrolled vehicle drifts but
        # does not tumble and the error dynamics stay first order
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([0.3, -0.2, -0.5])
        speeds = hover_speeds(PARAMS)
        obs = MomentumObserver(PARAMS)
        errs = []
        for k in range(int(6.0 / DT)):
            truth = process_step(truth, speeds, None, PARAMS)
            obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy()))
            errs.append(np.linalg.norm(obs.mean_vector()[F_E] - truth.f_e))
        errs = np.asarray(errs)
        settled = errs[int(1.0 / DT):]
        assert np.all(np.diff(settled) <= 1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        poses = [
            PoseMeasurement(pos=rng.standard_normal(3) * 0.01 + [0, 0, 1],
                            q=att.quat_from_rotvec(rng.standard_normal(3) * 0.02))
            for _ in range(100)
        ]
        speeds = hover_speeds(PARAMS)
        outs = []
        for _ in range(2):
            obs = MomentumObserver(PARAMS)
            for m in poses:
                obs.step(speeds, m)
            outs.append(obs.mean_vector())
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("cutoffs", [{"pos_cutoff_hz": 500.0}, {"att_cutoff_hz": 100.0},
                                         {"pos_cutoff_hz": 0.0}])
    def test_cutoff_outside_nyquist_rejected_at_construction(self, cutoffs):
        # Nyquist is 100 Hz at dt = 5 ms; the filters run only from the
        # second measurement on, so a late check would fail mid-run
        with pytest.raises(ValueError):
            MomentumObserver(PARAMS, ObserverGains(**cutoffs))

    def test_holds_estimate_on_dropout(self):
        obs = MomentumObserver(PARAMS)
        speeds = hover_speeds(PARAMS)
        obs.step(speeds, PoseMeasurement(pos=[0, 0, 1], q=[1, 0, 0, 0]))
        before = obs.mean_vector()[F_E]
        obs.step(speeds, None)
        np.testing.assert_array_equal(obs.mean_vector()[F_E], before)


def hover_run(gains, sensor_rate_hz):
    """A 0.5 s hover under a mass attached at the start, observer only."""
    scenario = Scenario(duration_s=0.5, seed=1, sensor_rate_hz=sensor_rate_hz, trajectory=Hover(),
                        disturbance=SteppedMass(onset_s=0.0))
    return run_scenario(scenario, RunSetup(estimators=("observer",), observer_gains=gains))


class TestGainBound:
    # the error loops have the pole 1 - k h at pose interval h: a huge gain
    # logged non-finite rows, force=500 |f_e| ~ 2e18 N and force=400
    # (k h = 2.0, pole -1) an undamped 325 N oscillation
    @pytest.mark.parametrize("gains, sensor_rate_hz", [
        (ObserverGains(torque=1e308), 200.0),
        (ObserverGains(force=500.0), 200.0),
        (ObserverGains(force=400.0), 200.0),
        (ObserverGains(force=25.0), 10.0),
    ], ids=["torque-1e308", "force-500", "force-400", "force-25-at-10Hz"])
    def test_gain_times_pose_interval_of_two_or_more_is_rejected(self, gains, sensor_rate_hz):
        name = "torque" if gains.torque > gains.force else "force"
        with pytest.raises(ValueError, match=f"observer {name} gain .* h = {1.0 / sensor_rate_hz:g} s"):
            hover_run(gains, sensor_rate_hz)

    # between 1 and 2 the pole is negative: force=399 (k h = 1.995) rang
    # with |f_e| up to 268 N and no error
    @pytest.mark.parametrize("gains, sensor_rate_hz", [
        (ObserverGains(force=399.0), 200.0),
        (ObserverGains(force=201.0), 200.0),
        (ObserverGains(torque=12.0), 10.0),
    ], ids=["force-399", "force-201", "torque-12-at-10Hz"])
    def test_gain_times_pose_interval_above_one_is_rejected(self, gains, sensor_rate_hz):
        name = "torque" if gains.torque > gains.force else "force"
        with pytest.raises(ValueError, match=f"observer {name} gain .* h = {1.0 / sensor_rate_hz:g} s.* exceed 1"):
            hover_run(gains, sensor_rate_hz)

    @pytest.mark.parametrize("sensor_rate_hz", [10.0, 200.0])
    def test_default_gains_run_from_10_to_200_hz(self, sensor_rate_hz):
        # k h = 2.2 * 0.1 = 0.22 at 10 Hz, the slowest supported rate
        log = hover_run(ObserverGains(), sensor_rate_hz)
        assert np.isfinite(log.estimates["observer"]).all()
