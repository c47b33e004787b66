"""Low-pass filter and momentum-observer behavior tests."""

import numpy as np
import pytest

from quadwrench import attitude as att
from quadwrench.estimator import PoseMeasurement
from quadwrench.observer import LowPassFilter, MomentumObserver, ObserverGains
from quadwrench.rigid_body import VehicleParams, VehicleState, process_step

PARAMS = VehicleParams()
DT = PARAMS.dt


class TestLowPass:
    def test_dc_gain_is_one(self):
        lp = LowPassFilter(cutoff_hz=2.0)
        y = np.zeros(3)
        lp.step(np.zeros(3), DT)
        for _ in range(5000):
            y = lp.step(np.array([1.0, -2.0, 0.5]), DT)
        np.testing.assert_allclose(y, [1.0, -2.0, 0.5], atol=1e-9)

    def test_wide_open_cutoff_passes_input(self):
        # alpha -> 1 with increasing cutoff; at the Nyquist limit the output
        # reaches the input within a handful of samples
        cutoffs = np.array([1.0, 5.0, 20.0, 80.0, 0.499 / DT])
        alphas = [LowPassFilter(c).alpha(DT) for c in cutoffs]
        assert np.all(np.diff(alphas) > 0)
        lp = LowPassFilter(cutoff_hz=0.499 / DT)
        lp.step(np.zeros(1), DT)
        for _ in range(5):
            y = lp.step(np.ones(1), DT)
        assert y[0] == pytest.approx(1.0, abs=0.01)

    def test_time_constant_of_unit_step(self):
        # first-order oracle: 63.2% of the final value at t = 1/(2 pi fc)
        lp = LowPassFilter(cutoff_hz=1.0)
        lp.step(np.zeros(1), DT)
        t, y = 0.0, 0.0
        while y < 1.0 - np.exp(-1.0):
            y = lp.step(np.ones(1), DT)[0]
            t += DT
        assert t == pytest.approx(1.0 / (2 * np.pi), abs=0.01)

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            LowPassFilter(cutoff_hz=0.0).alpha(DT)
        with pytest.raises(ValueError):
            LowPassFilter(cutoff_hz=101.0).alpha(DT)  # above Nyquist at 200 Hz


def run_observer(truth_sequence, speeds, gains=None):
    obs = MomentumObserver(PARAMS, gains)
    for k, truth in enumerate(truth_sequence):
        obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy(), t=k * DT))
    return obs


class TestMomentumObserver:
    def test_zero_wrench_stays_zero(self):
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        speeds = np.full(4, PARAMS.hover_speed())
        seq = []
        for _ in range(400):
            truth = process_step(truth, speeds, None, PARAMS)
            seq.append(truth.copy())
        obs = run_observer(seq, speeds)
        np.testing.assert_allclose(obs.state.f_e, np.zeros(3), atol=1e-6)
        np.testing.assert_allclose(obs.state.tau_e, np.zeros(3), atol=1e-8)

    def test_constant_force_convergence_rate(self):
        # noise-free: first-order error dynamics, settled within 5 time
        # constants of the gain
        gains = ObserverGains(force=2.2, torque=2.2, pos_cutoff_hz=30.0, att_cutoff_hz=30.0)
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([-0.52, 0.0, 0.0])
        speeds = np.full(4, PARAMS.hover_speed())
        n = int(5.0 / gains.force / DT) + 200
        obs = MomentumObserver(PARAMS, gains)
        for k in range(n):
            truth = process_step(truth, speeds, None, PARAMS)
            obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy(), t=k * DT))
        np.testing.assert_allclose(obs.state.f_e, [-0.52, 0.0, 0.0], atol=0.01)

    def test_rise_time_matches_first_order_oracle(self):
        gains = ObserverGains(force=2.2, torque=2.2, pos_cutoff_hz=30.0, att_cutoff_hz=30.0)
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([0.0, 0.0, -0.52])
        speeds = np.full(4, PARAMS.hover_speed())
        obs = MomentumObserver(PARAMS, gains)
        history = []
        for k in range(int(4.0 / DT)):
            truth = process_step(truth, speeds, None, PARAMS)
            obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy(), t=k * DT))
            history.append(obs.state.f_e[2])
        history = np.asarray(history)
        t10 = DT * np.argmax(history <= 0.1 * -0.52)
        t90 = DT * np.argmax(history <= 0.9 * -0.52)
        assert t90 - t10 == pytest.approx(np.log(9) / gains.force, abs=0.15)

    def test_error_decays_monotonically_after_transient(self):
        # pure force offset: no torque, so the uncontrolled vehicle drifts but
        # does not tumble and the error dynamics stay first order
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        truth.f_e = np.array([0.3, -0.2, -0.5])
        speeds = np.full(4, PARAMS.hover_speed())
        obs = MomentumObserver(PARAMS)
        errs = []
        for k in range(int(6.0 / DT)):
            truth = process_step(truth, speeds, None, PARAMS)
            obs.step(speeds, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy(), t=k * DT))
            errs.append(np.linalg.norm(obs.state.f_e - truth.f_e))
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
        speeds = np.full(4, PARAMS.hover_speed())
        outs = []
        for _ in range(2):
            obs = MomentumObserver(PARAMS)
            for m in poses:
                obs.step(speeds, m)
            outs.append(np.concatenate([obs.state.f_e, obs.state.tau_e]))
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
        speeds = np.full(4, PARAMS.hover_speed())
        obs.step(speeds, PoseMeasurement(pos=[0, 0, 1], q=[1, 0, 0, 0]))
        before = obs.state.f_e.copy()
        obs.step(speeds, None)
        np.testing.assert_array_equal(obs.state.f_e, before)
