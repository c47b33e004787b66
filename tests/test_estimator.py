"""Sigma-point machinery and filter-update tests.

Oracles: an independent Cholesky factorization for point placement, exact
linear-Gaussian Kalman algebra for the (position, velocity, force) chain, a
1e5-sample Monte-Carlo propagation for the predicted moments, the sigma-point
form of the pose correction for the closed-form update, the prediction on
the state augmented with the process noise for the closed-form noise term, and
the filter with every quaternion on the array kernels for the shipped one,
whose one-quaternion work is on floats.  The oracles draw and recombine
sigma points with test-local copies of the symmetrizing forms
(``ref_sigma_points``, ``ref_recombine``), so they stay independent of the
shipped ``generate_sigma_points`` and ``recombine``.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import chi2

from quadwrench import attitude as att
from quadwrench import estimator
from quadwrench.estimator import (
    CovarianceNotPD,
    GaussianBelief,
    InnovationCovarianceSingular,
    MeasurementRejected,
    PoseMeasurement,
    UsqueEstimator,
    correct,
    generate_sigma_points,
    predict,
    recombine,
    sigma_weights,
)
from quadwrench.logio import MEAS_FIELDS
from quadwrench.rigid_body import NoiseConfig, VehicleParams, VehicleState, process_step
from quadwrench.simulator import (
    FanDisturbance,
    FanModel,
    GridSurvey,
    Hover,
    RunSetup,
    Scenario,
    SteppedMass,
    run_scenario,
)
from test_rigid_body import FULL_INERTIA, hover_speeds, measurement_cov, process_cov, reference_process_step

PARAMS = VehicleParams()

# closed-form correction against its sigma-point form: the two differ only by
# rounding, so errors are bounded relative to the size of what is compared
CLOSED_FORM_RTOL = 1e-12
# per-column drift of the logged estimates (max |delta| over max |column|)
# when a whole scenario runs on the closed form instead of the sigma points
SCENARIO_DRIFT_RTOL = 1e-11
# closed-form process noise against the noise-augmented prediction: the two
# differ only by rounding in the recombination sums, read at ~2e-15
AUGMENTED_RTOL = 1e-12
# the shipped filter against the same filter on the array kernels
LEAN_RTOL = 1e-12
# the same over a 60-step run, each side on its own beliefs: over 300 random
# runs of the multi-step test's draws the drift reached 2.7e-13 (covariance,
# relative), 1.3e-13 (mean) and 3.4e-14 (attitude MRP)
MULTI_STEP_RTOL = 1e-11
MULTI_STEP_STEPS = 60


def ref_sigma_points(mean, cov):
    """``generate_sigma_points`` in its symmetrizing form: the Cholesky factor
    of ``0.5 (P + P')``, its scaled columns stacked, the same jitter rule."""
    cov = 0.5 * (cov + cov.T)
    dim = len(mean)
    jittered = False
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        try:
            chol = np.linalg.cholesky(cov + 1e-9 * np.trace(cov) / dim * np.eye(dim))
        except np.linalg.LinAlgError:
            raise CovarianceNotPD("covariance not positive definite after jitter", cov) from None
        jittered = True
    spread = np.sqrt(dim + estimator.KAPPA) * chol.T
    points = np.concatenate([mean[None, :], mean + spread, mean - spread], axis=0)
    return estimator.SigmaPointSet(points, *sigma_weights(dim), jittered=jittered)


def recombined(points, weights, roots):
    """``recombine``'s mean and covariance ``S' S`` of its rows, as ``predict`` forms it."""
    mean, rows = recombine(points, weights, roots)
    return mean, rows.T @ rows


def ref_recombine(points, weights):
    """``recombine`` in its symmetrizing form: ``(w * dev)' dev``, then ``0.5 (C + C')``."""
    mean = weights @ points
    dev = points - mean
    cov = (weights[:, None] * dev).T @ dev
    return mean, 0.5 * (cov + cov.T)


def augmented_predict(belief, rotor_speeds, noise, params):
    """Prediction on the state augmented with the 12-dim process noise.

    The 61-point set of the extended dimension L = 30 at the USQUE's kappa = 2:
    spread sqrt(32), weight 2/32 on the centre and 1/64 on every other point.
    Each point goes through ``process_step`` with its own noise columns.
    """
    mean = np.concatenate([belief.minimal_mean(), np.zeros(12)])
    cov = np.zeros((30, 30))
    cov[:18, :18] = belief.cov
    cov[18:, 18:] = process_cov(noise)
    spread = np.sqrt(32.0) * np.linalg.cholesky(0.5 * (cov + cov.T)).T
    points = np.concatenate([mean[None, :], mean + spread, mean - spread], axis=0)
    weights = np.full(61, 1.0 / 64.0)
    weights[0] = 2.0 / 32.0

    states = ref_states_from_points(points[:, :18], belief.mean.q)
    propagated = process_step(states, rotor_speeds, points[:, 18:], params)
    reference = propagated.q[0]
    mean_min, cov = ref_recombine(ref_minimal_from_states(propagated, reference), weights)
    return GaussianBelief(mean=ref_states_from_points(mean_min, reference), cov=cov)


def sigma_point_correct(belief, measurement, noise):
    """Pose correction as an unscented transform of the measurement model.

    The state is augmented with the 6-dim measurement noise (extended
    dimension 24); the predicted measurement of each point is its position
    and MRP plus its noise.  Returns the posterior, as the filter's
    ``correct`` does, without the gate.
    """
    ext_mean = np.concatenate([belief.minimal_mean(), np.zeros(6)])
    ext_cov = np.zeros((24, 24))
    ext_cov[:18, :18] = belief.cov
    ext_cov[18:, 18:] = measurement_cov(noise)
    sp = ref_sigma_points(ext_mean, ext_cov)
    pts = sp.points

    predicted_meas = np.concatenate([pts[:, 6:9] + pts[:, 18:21], pts[:, 0:3] + pts[:, 21:24]], axis=1)
    meas_mean, innovation_cov = ref_recombine(predicted_meas, sp.weights)
    state_dev = pts[:, :18] - ext_mean[None, :18]
    cross_cov = (sp.weights[:, None] * state_dev).T @ (predicted_meas - meas_mean)

    d_q_meas = att.quat_canonical(att.quat_multiply(measurement.q, att.quat_conjugate(belief.mean.q)))
    innovation = np.concatenate([measurement.pos, att.error_quat_to_mrp(d_q_meas)]) - meas_mean
    gain = np.linalg.solve(innovation_cov.T, cross_cov.T).T
    delta = gain @ innovation
    cov = belief.cov - gain @ cross_cov.T

    mean = VehicleState(
        q=att.quat_normalize(att.quat_multiply(att.mrp_to_error_quat(delta[0:3]), belief.mean.q)),
        omega=belief.mean.omega + delta[3:6],
        pos=belief.mean.pos + delta[6:9],
        vel=belief.mean.vel + delta[9:12],
        tau_e=belief.mean.tau_e + delta[12:15],
        f_e=belief.mean.f_e + delta[15:18],
    )
    return GaussianBelief(mean=mean, cov=0.5 * (cov + cov.T))


# The filter with every quaternion on the array kernels, the oracle of the
# shipped predict and correct: attitudes composed with quat_multiply, the
# innovation and the posterior mean on arrays, G as the full 18x12 map,
# K R K' as a product with R, and the sigma points through the per-field
# reference_process_step with its noise block (zeros) rather than the shipped
# kernel's noise-free form.

def ref_states_from_points(points, reference_q):
    """Minimal-state rows (..., 18) as full states about ``reference_q``."""
    return VehicleState(
        q=att.quat_multiply(att.mrp_to_error_quat(points[..., 0:3]), reference_q),
        omega=points[..., 3:6],
        pos=points[..., 6:9],
        vel=points[..., 9:12],
        tau_e=points[..., 12:15],
        f_e=points[..., 15:18],
    )


def ref_mrp_about(q, reference_q):
    """MRP of the left-relative rotation from ``reference_q`` to ``q``, short arc."""
    return att.error_quat_to_mrp(att.quat_canonical(att.quat_multiply(q, att.quat_conjugate(reference_q))))


def ref_minimal_from_states(states, reference_q):
    return np.concatenate(
        [ref_mrp_about(states.q, reference_q), states.omega, states.pos, states.vel, states.tau_e, states.f_e],
        axis=-1,
    )


def reference_predict(belief, rotor_speeds, noise, params):
    sp = ref_sigma_points(belief.minimal_mean(), belief.cov)
    states = ref_states_from_points(sp.points, belief.mean.q)
    propagated = reference_process_step(states, rotor_speeds, np.zeros((len(sp.points), 12)), params)
    reference = propagated.q[0]
    mean_min, cov = ref_recombine(ref_minimal_from_states(propagated, reference), sp.weights)
    T, accel_map = params.dt, att.rotmat_body_to_global(belief.mean.q) / params.mass
    noise_map = np.zeros((18, 12))
    noise_map[3:6, 0:3] = T * params.inertia_inv
    noise_map[6:12, 6:9] = np.vstack([0.5 * T * T * accel_map, T * accel_map])
    noise_map[12:15, 3:6] = noise_map[15:18, 9:12] = np.eye(3)
    gqg = noise_map @ process_cov(noise) @ noise_map.T
    cov = cov + 0.5 * (gqg + gqg.T)
    if not np.isfinite(cov).all():
        raise CovarianceNotPD("predicted covariance is not finite", cov)
    return GaussianBelief(mean=ref_states_from_points(mean_min, reference), cov=cov, jittered=sp.jittered)


def reference_correct(belief, measurement, noise, gate_enabled=False):
    meas_cov = measurement_cov(noise)
    cross_cov = belief.cov[:, estimator._POSE_IDX]
    innovation_cov = cross_cov[estimator._POSE_IDX] + meas_cov
    if not np.isfinite(innovation_cov).all():
        raise InnovationCovarianceSingular("predicted measurement covariance is not finite")
    eigvals, eigvecs = np.linalg.eigh(innovation_cov)
    if not eigvals[0] > 0.0 or eigvals[-1] / eigvals[0] > estimator._CONDITION_LIMIT:
        raise InnovationCovarianceSingular("predicted measurement covariance not positive definite")
    whiten = eigvecs / np.sqrt(eigvals)
    innovation = np.concatenate([measurement.pos - belief.mean.pos, ref_mrp_about(measurement.q, belief.mean.q)])
    whitened = innovation @ whiten
    if gate_enabled and float(whitened @ whitened) > estimator.GATE_THRESHOLD:
        raise MeasurementRejected(float(whitened @ whitened))
    whitened_cross = cross_cov @ whiten
    gain = whitened_cross @ whiten.T
    i_kh = np.eye(18)
    i_kh[:, estimator._POSE_IDX] -= gain
    cov = i_kh @ belief.cov @ i_kh.T + gain @ meas_cov @ gain.T
    mean = ref_states_from_points(belief.minimal_mean() + whitened_cross @ whitened, belief.mean.q)
    return GaussianBelief(mean=mean, cov=0.5 * (cov + cov.T))


def default_belief(p_rho=1e-4, p_omega=1e-4, p_pos=1e-4, p_vel=1e-4, p_tau=1e-4, p_f=1e-4):
    mean = VehicleState.at_rest(pos=(0, 0, 1))
    diag = np.concatenate([np.full(3, v) for v in (p_rho, p_omega, p_pos, p_vel, p_tau, p_f)])
    return GaussianBelief(mean=mean, cov=np.diag(diag))


INIT_STDS = {"rho": 0.005, "omega": 0.05, "pos": 0.005, "vel": 0.05, "tau_e": 0.01, "f_e": 0.05}


class TestFromStd:
    @pytest.mark.parametrize("stds, key", [
        pytest.param({**INIT_STDS, "omega": -0.05}, "omega", id="negative"),
        pytest.param({**INIT_STDS, "pos": np.nan}, "pos", id="nan"),
        pytest.param({**INIT_STDS, "f_e": np.inf}, "f_e", id="inf"),
        pytest.param({**INIT_STDS, "fe": 1.0}, "fe", id="unknown-key"),
        pytest.param({k: v for k, v in INIT_STDS.items() if k != "tau_e"}, "tau_e", id="missing-key"),
    ])
    def test_rejects_bad_std_naming_the_key(self, stds, key):
        # a negative std was squared into a valid variance, and an unknown
        # key, a misspelt one among them, was ignored
        with pytest.raises(ValueError, match=f"'{key}'"):
            GaussianBelief.from_std(VehicleState.at_rest(), stds)


class TestSigmaPoints:
    def test_unit_cov_l2(self):
        # spread sqrt(L + kappa) = sqrt(2 + 14) = 4
        sp = generate_sigma_points(np.zeros(2), np.eye(2))
        expected = np.array([[0, 0], [4, 0], [0, 4], [-4, 0], [0, -4]], dtype=float)
        np.testing.assert_allclose(sp.points, expected, atol=1e-12)

    def test_anisotropic_cov_against_cholesky_oracle(self):
        cov = np.diag([4.0, 1.0])
        sp = generate_sigma_points(np.zeros(2), cov)
        chol = np.linalg.cholesky(cov)
        np.testing.assert_allclose(sp.points[1], 4.0 * chol[:, 0], atol=1e-12)  # (8, 0)
        np.testing.assert_allclose(sp.points[2], 4.0 * chol[:, 1], atol=1e-12)  # (0, 4)
        np.testing.assert_allclose(sp.points[1], [8.0, 0.0], atol=1e-12)

    def test_recombination_reproduces_moments(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        cov = a @ a.T + 6 * np.eye(6)
        mean = rng.standard_normal(6)
        sp = generate_sigma_points(mean, cov)
        got_mean, got_cov = recombined(sp.points, sp.weights, sp.roots)
        np.testing.assert_allclose(got_mean, mean, atol=1e-12)
        np.testing.assert_allclose(got_cov, cov, atol=1e-9)

    def test_linear_transform_exactness(self):
        # points through an affine map recombine to the exact pushforward
        rng = np.random.default_rng(1)
        cov = np.diag(rng.uniform(0.5, 2.0, size=5))
        mean = rng.standard_normal(5)
        A = rng.standard_normal((4, 5))
        b = rng.standard_normal(4)
        sp = generate_sigma_points(mean, cov)
        got_mean, got_cov = recombined(sp.points @ A.T + b, sp.weights, sp.roots)
        np.testing.assert_allclose(got_mean, A @ mean + b, atol=1e-9)
        np.testing.assert_allclose(got_cov, A @ cov @ A.T, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 6, 18, 30])
    def test_weight_pattern(self, dim):
        # kappa = 14 for every dimension: at the filter's L = 18 that is the
        # USQUE's kappa = 2 on the state augmented with the 12-dim noise
        assert estimator.KAPPA == 14.0
        w, roots = sigma_weights(dim)
        assert w.shape == (2 * dim + 1,)
        assert roots.tobytes() == np.sqrt(w)[:, None].tobytes()
        assert w[0] == pytest.approx(14.0 / (dim + 14.0))
        np.testing.assert_allclose(w[1:], 1.0 / (2 * (dim + 14.0)))
        assert np.sum(w) == pytest.approx(1.0, abs=1e-12)

    def test_weights_built_once_and_read_only(self):
        w, roots = sigma_weights(18)
        assert sigma_weights(18)[0] is w and sigma_weights(18)[1] is roots
        assert not w.flags.writeable and not roots.flags.writeable
        sp = generate_sigma_points(np.zeros(18), np.eye(18))
        assert sp.weights is w and sp.roots is roots

    def test_jitter_recovers_semidefinite(self):
        cov = np.diag([1.0, 0.0])  # PSD but not PD
        sp = generate_sigma_points(np.zeros(2), cov)
        _, got = recombined(sp.points, sp.weights, sp.roots)
        np.testing.assert_allclose(got, cov, atol=1e-8)

    def test_jitter_is_marked(self):
        assert generate_sigma_points(np.zeros(2), np.diag([1.0, 0.0])).jittered
        assert not generate_sigma_points(np.zeros(2), np.eye(2)).jittered

    def test_not_pd_reports_covariance(self):
        cov = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(CovarianceNotPD) as exc:
            generate_sigma_points(np.zeros(2), cov)
        np.testing.assert_array_equal(exc.value.cov, cov)

    @given(log_scales=hnp.arrays(np.float64, 18, elements=st.floats(np.log(1e-6), np.log(1e3))),
           seed=st.integers(0, 2**32 - 1))
    def test_points_are_the_symmetrizing_form_to_the_bit(self, log_scales, seed):
        # on a symmetric covariance the stacking product gives the scaled
        # Cholesky columns of the symmetrizing form bit for bit
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((18, 18)) * np.exp(log_scales)[:, None]
        cov = a @ a.T + 1e-12 * np.eye(18)
        mean = rng.standard_normal(18)
        assert generate_sigma_points(mean, cov).points.tobytes() == ref_sigma_points(mean, cov).points.tobytes()

    @given(points=hnp.arrays(np.float64, (37, 18), elements=st.floats(-1e3, 1e3)))
    def test_recombined_covariance_is_exactly_symmetric(self, points):
        _, cov = recombined(points, *sigma_weights(18))
        assert np.array_equal(cov, cov.T)


class TestPredict:
    def test_non_finite_prediction_is_typed(self):
        # a finite but enormous covariance overflows in the process model;
        # predict must raise rather than hand back a non-finite belief
        belief = GaussianBelief(mean=VehicleState.at_rest(pos=(0, 0, 1)), cov=1e307 * np.eye(18))
        with pytest.raises(CovarianceNotPD, match="not finite") as exc:
            predict(belief, hover_speeds(PARAMS), NoiseConfig.default(), PARAMS)
        assert not np.isfinite(exc.value.cov).all()

    def test_near_overflow_position_variance_predicts_a_symmetric_belief(self):
        # a position variance of 1e308 is finite; its symmetrize, P + P',
        # overflowed with a numpy warning, an error under this suite's filter
        cov = np.eye(18)
        cov[6:9, 6:9] *= 1e308
        belief = GaussianBelief(mean=VehicleState.at_rest(pos=(0, 0, 1)), cov=cov)
        out = predict(belief, np.full(4, 600.0), NoiseConfig.default(), PARAMS)
        assert np.isfinite(out.cov).all() and np.isfinite(out.mean.vector).all()
        assert np.array_equal(out.cov, out.cov.T)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_gated_grid_survey_overflow_is_typed(self, seed):
        # the gated 35 s fan-field survey: the gate rejects every pose once
        # the fan's wrench arrives, the covariance grows until it overflows,
        # which numpy warned about in recombine's product before the typed
        # error; a gate that cannot lock out would let this survey finish
        survey = GridSurvey(x_range=(0.5, 1.5), y_range=(-0.5, 0.5), spacing=0.5, dwell_s=3.0, height=1.0)
        scenario = Scenario(duration_s=survey.duration(), seed=seed, sensor_rate_hz=200.0,
                            trajectory=survey, disturbance=FanDisturbance(FanModel()))
        with pytest.raises(CovarianceNotPD, match="predicted covariance is not finite"):
            run_scenario(scenario, RunSetup(estimators=("usque",), gate_enabled=True))

    @pytest.mark.parametrize("rho_std", [0.1, 1.0, 10.0, 1e4])
    def test_wide_attitude_covariance_predicts_and_corrects(self, rho_std):
        # Sigma points far out in MRP space are rotations of up to +-2 pi, but
        # both predict and correct take the short arc: each divides by d0 - 1
        # where the scalar part d0 < 0, so no denominator is below 1 in size
        # and NearSingularRotation cannot escape.
        belief = default_belief(p_rho=rho_std**2)
        noise = NoiseConfig.default()
        predicted = predict(belief, hover_speeds(PARAMS), noise, PARAMS)
        assert np.isfinite(predicted.cov).all()
        # short-arc MRPs have norm <= 1, so the recombined spread stays below 1
        assert np.all(np.diag(predicted.cov)[:3] <= 1.0)
        meas = PoseMeasurement(pos=np.array([0.0, 0.0, 1.0]), q=att.quat_from_rotvec(np.array([0.3, -0.2, 2.5])))
        corrected = correct(predicted, meas, noise)
        assert np.isfinite(corrected.cov).all() and np.isfinite(corrected.mean.vector).all()

    def test_zero_covariance_limit_matches_deterministic_step(self):
        eps = 1e-10
        belief = default_belief(*(eps,) * 6)
        noise = NoiseConfig(*(np.full(3, eps),) * 4, g_x=np.ones(3), g_rho=np.ones(3))
        out = predict(belief, hover_speeds(PARAMS), noise, PARAMS)
        det = process_step(belief.mean, hover_speeds(PARAMS), None, PARAMS)
        np.testing.assert_allclose(out.mean.vector, det.vector, atol=10 * eps)

    def test_force_block_is_linear_random_walk(self):
        belief = default_belief()
        noise = NoiseConfig.default()
        out = predict(belief, hover_speeds(PARAMS), noise, PARAMS)
        np.testing.assert_allclose(
            out.cov[15:18, 15:18], belief.cov[15:18, 15:18] + np.diag(noise.q_f_e), atol=1e-12
        )

    def test_translational_chain_matches_analytic_kalman_prediction(self):
        # attitude/rate/torque uncertainty pinched to ~zero: the (pos, vel,
        # f_e) chain is exactly linear and must match A P A' + B Q B'
        tiny = 1e-20
        belief = default_belief(p_rho=tiny, p_omega=tiny, p_pos=2e-4, p_vel=1e-4, p_tau=tiny, p_f=4e-4)
        rng = np.random.default_rng(2)
        block = rng.standard_normal((9, 9)) * 1e-5
        P9 = belief.cov[6:, 6:][np.ix_([0, 1, 2, 3, 4, 5, 9, 10, 11], [0, 1, 2, 3, 4, 5, 9, 10, 11])]
        P9 = P9 + block @ block.T
        idx = [6, 7, 8, 9, 10, 11, 15, 16, 17]
        belief.cov[np.ix_(idx, idx)] = P9

        noise = NoiseConfig.default()
        out = predict(belief, hover_speeds(PARAMS), noise, PARAMS)

        T, m = PARAMS.dt, PARAMS.mass
        I3, Z3 = np.eye(3), np.zeros((3, 3))
        A = np.block([
            [I3, T * I3, 0.5 * T * T / m * I3],
            [Z3, I3, T / m * I3],
            [Z3, Z3, I3],
        ])
        B_ct = np.vstack([0.5 * T * T / m * I3, T / m * I3, Z3])
        B_fe = np.vstack([Z3, Z3, I3])
        expected = A @ P9 @ A.T + B_ct @ np.diag(noise.q_ct) @ B_ct.T + B_fe @ np.diag(noise.q_f_e) @ B_fe.T
        np.testing.assert_allclose(out.cov[np.ix_(idx, idx)], expected, atol=1e-9)

        det = process_step(belief.mean, hover_speeds(PARAMS), None, PARAMS)
        np.testing.assert_allclose(out.mean.vector, det.vector, atol=1e-12)

    def test_moments_match_monte_carlo_oracle(self):
        rng = np.random.default_rng(3)
        mean = VehicleState.at_rest(pos=(0.3, -0.2, 1.0))
        mean.q = att.quat_from_axis_angle([1.0, 0.5, 0.0], 0.08)
        mean.omega = np.array([0.1, -0.05, 0.2])
        mean.f_e = np.array([0.1, 0.0, -0.3])
        diag = np.concatenate([
            np.full(3, 0.005**2), np.full(3, 0.02**2), np.full(3, 0.005**2),
            np.full(3, 0.02**2), np.full(3, 0.002**2), np.full(3, 0.01**2),
        ])
        belief = GaussianBelief(mean=mean, cov=np.diag(diag))
        noise = NoiseConfig.default()
        w = hover_speeds(PARAMS)

        out = predict(belief, w, noise, PARAMS)

        n = 100_000
        z = rng.multivariate_normal(np.zeros(30), np.block([
            [belief.cov, np.zeros((18, 12))],
            [np.zeros((12, 18)), process_cov(noise)],
        ]), size=n)
        dq = att.mrp_to_error_quat(z[:, 0:3])
        states = VehicleState(
            q=att.quat_multiply(dq, mean.q),
            omega=mean.omega + z[:, 3:6],
            pos=mean.pos + z[:, 6:9],
            vel=mean.vel + z[:, 9:12],
            tau_e=mean.tau_e + z[:, 12:15],
            f_e=mean.f_e + z[:, 15:18],
        )
        prop = process_step(states, w, z[:, 18:30], PARAMS)

        ref_q = process_step(mean, w, None, PARAMS).q
        d_rho = att.error_quat_to_mrp(att.quat_canonical(att.quat_multiply(prop.q, att.quat_conjugate(ref_q))))
        samples = np.concatenate([d_rho, prop.omega, prop.pos, prop.vel, prop.tau_e, prop.f_e], axis=1)
        mc_mean = samples.mean(axis=0)
        mc_cov = np.cov(samples.T)

        pred_rho = att.error_quat_to_mrp(
            att.quat_canonical(att.quat_multiply(out.mean.q, att.quat_conjugate(ref_q)))
        )
        pred_mean = np.concatenate([
            pred_rho, out.mean.omega, out.mean.pos, out.mean.vel, out.mean.tau_e, out.mean.f_e,
        ])

        std = np.sqrt(np.diag(mc_cov))
        np.testing.assert_array_less(np.abs(pred_mean - mc_mean) / std, 0.02)
        np.testing.assert_allclose(np.diag(out.cov), np.diag(mc_cov), rtol=0.10)
        scale = np.sqrt(np.outer(np.diag(mc_cov), np.diag(mc_cov)))
        np.testing.assert_array_less(np.abs(out.cov - mc_cov) / scale, 0.10)


    @given(
        rotvec=hnp.arrays(np.float64, 3, elements=st.floats(-np.pi, np.pi)),
        speeds=hnp.arrays(np.float64, 4, elements=st.floats(500.0, 2500.0)),
        log_scales=hnp.arrays(np.float64, 18, elements=st.floats(np.log(1e-4), np.log(1e-1))),
        log_q_scales=hnp.arrays(np.float64, 12, elements=st.floats(np.log(1e-2), np.log(1e2))),
        inertia=st.sampled_from([PARAMS.inertia, FULL_INERTIA]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_augmented_prediction(self, rotvec, speeds, log_scales, log_q_scales, inertia, seed):
        # a random belief: any attitude, rates and wrench of order one, and a
        # full covariance with per-axis scales over three decades; process
        # variances drawn per axis over four decades about the defaults, so
        # that a transposed or axis-permuted block of G Q G' shows, and the
        # diagonal or a full inertia
        rng = np.random.default_rng(seed)
        mean = VehicleState.at_rest(pos=rng.uniform(-2.0, 2.0, 3), q=att.quat_from_rotvec(rotvec))
        mean.omega, mean.vel, mean.tau_e, mean.f_e = rng.standard_normal((4, 3))
        a = rng.standard_normal((18, 18)) * np.exp(log_scales)
        belief = GaussianBelief(mean=mean, cov=a @ a.T + 1e-8 * np.eye(18))
        default = NoiseConfig.default()
        q_tau_m, q_tau_e, q_ct, q_f_e = (np.diag(process_cov(default)) * np.exp(log_q_scales)).reshape(4, 3)
        noise = replace(default, q_tau_m=q_tau_m, q_tau_e=q_tau_e, q_ct=q_ct, q_f_e=q_f_e)
        params = VehicleParams(inertia=inertia)

        got = predict(belief, speeds, noise, params)
        want = augmented_predict(belief, speeds, noise, params)

        d_q = att.quat_canonical(att.quat_multiply(got.mean.q, att.quat_conjugate(want.mean.q)))
        assert np.linalg.norm(att.error_quat_to_mrp(d_q)) <= AUGMENTED_RTOL
        for x, y in ((got.mean.vector[4:], want.mean.vector[4:]), (got.cov, want.cov)):
            assert np.linalg.norm(x - y) <= AUGMENTED_RTOL * np.linalg.norm(y)


class TestCorrect:
    def test_zero_innovation_keeps_mean(self):
        belief = default_belief()
        noise = NoiseConfig.default()
        meas = PoseMeasurement(pos=belief.mean.pos.copy(), q=belief.mean.q.copy())
        out = correct(belief, meas, noise)
        np.testing.assert_allclose(out.mean.vector, belief.mean.vector, atol=1e-12)
        # covariance never grows on an update
        eigs = np.linalg.eigvalsh(belief.cov - out.cov)
        assert eigs.min() > -1e-12

    def test_uninformative_measurement_changes_nothing(self):
        belief = default_belief()
        noise = NoiseConfig.default()
        noise = NoiseConfig(
            q_ct=noise.q_ct, q_tau_m=noise.q_tau_m, q_f_e=noise.q_f_e, q_tau_e=noise.q_tau_e,
            g_x=noise.g_x * 1e12, g_rho=noise.g_rho * 1e12,
        )
        meas = PoseMeasurement(pos=belief.mean.pos + [0.5, -0.2, 0.1], q=att.quat_from_axis_angle([0, 0, 1], 0.3))
        out = correct(belief, meas, noise)
        np.testing.assert_allclose(out.mean.vector, belief.mean.vector, atol=1e-6)
        np.testing.assert_allclose(out.cov, belief.cov, atol=1e-8)

    def test_position_update_matches_linear_kalman_oracle(self):
        # block-diagonal prior (translational independent of rotational) and a
        # zero attitude residual: the (pos, vel, f_e) update must equal the
        # standalone linear Kalman update on the same moments
        rng = np.random.default_rng(4)
        belief = default_belief()
        a = rng.standard_normal((9, 9)) * 0.01
        P9 = a @ a.T + 0.01 * np.eye(9)
        idx = [6, 7, 8, 9, 10, 11, 15, 16, 17]
        belief.cov[np.ix_(idx, idx)] = P9
        noise = NoiseConfig.default()

        offset = np.array([0.02, -0.01, 0.03])
        meas = PoseMeasurement(pos=belief.mean.pos + offset, q=belief.mean.q.copy())
        out = correct(belief, meas, noise)

        H = np.zeros((3, 9))
        H[:, 0:3] = np.eye(3)
        S = H @ P9 @ H.T + np.diag(noise.g_x)
        K = P9 @ H.T @ np.linalg.inv(S)
        delta = K @ offset
        P_post = P9 - K @ S @ K.T

        got = np.concatenate([out.mean.pos - belief.mean.pos,
                              out.mean.vel - belief.mean.vel,
                              out.mean.f_e - belief.mean.f_e])
        np.testing.assert_allclose(got, delta, atol=1e-9)
        np.testing.assert_allclose(out.cov[np.ix_(idx, idx)], P_post, atol=1e-9)

    def test_covariance_update_equivalence(self):
        # P - K Sxy' coincides with P - K Syy K' when K = Sxy inv(Syy)
        rng = np.random.default_rng(5)
        belief = default_belief()
        a = rng.standard_normal((18, 18)) * 0.01
        belief.cov = belief.cov + a @ a.T
        noise = NoiseConfig.default()
        meas = PoseMeasurement(
            pos=belief.mean.pos + rng.standard_normal(3) * 0.01,
            q=att.quat_multiply(att.quat_from_rotvec(rng.standard_normal(3) * 0.01), belief.mean.q),
        )
        out = correct(belief, meas, noise)
        # K = P H' inv(S), S = H P H' + R, with H selecting [pos, d_rho]
        H = np.zeros((6, 18))
        H[0:3, 6:9] = np.eye(3)
        H[3:6, 0:3] = np.eye(3)
        S = H @ belief.cov @ H.T + measurement_cov(noise)
        K = belief.cov @ H.T @ np.linalg.inv(S)
        alt = belief.cov - K @ S @ K.T
        np.testing.assert_allclose(out.cov, 0.5 * (alt + alt.T), atol=1e-9)

    def test_singular_innovation_detected(self):
        # wildly disparate position vs attitude scales push the innovation
        # covariance condition number past the 1e12 limit
        belief = default_belief(p_pos=1.0, p_rho=1e-16)
        noise = replace(NoiseConfig.default(), g_x=np.full(3, 0.1), g_rho=np.full(3, 1e-16))
        with pytest.raises(InnovationCovarianceSingular):
            correct(belief, PoseMeasurement(pos=belief.mean.pos, q=belief.mean.q), noise)

    def test_non_finite_innovation_covariance_is_typed(self):
        # an overflowed position block must end in the typed error, not in a
        # LinAlgError from the linear algebra underneath
        belief = default_belief()
        belief.cov[6, 6] = np.inf
        noise = NoiseConfig.default()
        with pytest.raises(InnovationCovarianceSingular, match="not finite"):
            correct(belief, PoseMeasurement(pos=belief.mean.pos, q=belief.mean.q), noise)

    @pytest.mark.parametrize("index", [3, 15], ids=["omega", "f_e"])
    def test_overflowing_joseph_update_is_typed(self, index):
        # an unmeasured variance of 1.5e308 is finite, but the Joseph
        # update's symmetrize doubles it: a numpy overflow warning, and a
        # non-finite posterior returned, before the finiteness check
        belief = default_belief()
        belief.cov[index, index] = 1.5e308
        with pytest.raises(CovarianceNotPD, match="corrected covariance is not finite"):
            correct(belief, PoseMeasurement(pos=belief.mean.pos, q=belief.mean.q), NoiseConfig.default())

    def test_indefinite_innovation_covariance_is_singular(self):
        # a negative position variance makes S indefinite with a well-scaled
        # spectrum: the condition check on absolute eigenvalues let it update
        belief = default_belief()
        belief.cov[6, 6] = -1e-3
        with pytest.raises(InnovationCovarianceSingular, match="not positive definite"):
            correct(belief, PoseMeasurement(pos=belief.mean.pos, q=belief.mean.q), NoiseConfig.default())

    def test_rejected_mahalanobis_matches_a_solve(self):
        rng = np.random.default_rng(10)
        noise = NoiseConfig.default()
        for _ in range(25):
            mean = VehicleState.at_rest(pos=rng.uniform(-2.0, 2.0, 3))
            mean.q = att.quat_from_rotvec(rng.uniform(-np.pi, np.pi, 3) / 2.0)
            a = rng.standard_normal((18, 18)) * np.exp(rng.uniform(np.log(1e-4), np.log(1e-2), 18))
            belief = GaussianBelief(mean=mean, cov=a @ a.T + 1e-8 * np.eye(18))
            # an offset of 20 to 50 stds of each position and attitude axis
            scale = np.sqrt(np.diag(belief.cov)[estimator._POSE_IDX] + np.diag(measurement_cov(noise)))
            offset = scale * rng.uniform(20.0, 50.0, 6) * rng.choice([-1.0, 1.0], 6)
            meas = PoseMeasurement(pos=mean.pos + offset[:3],
                                   q=att.quat_multiply(att.mrp_to_error_quat(offset[3:]), mean.q))
            with pytest.raises(MeasurementRejected) as exc:
                correct(belief, meas, noise, gate_enabled=True)

            H = np.zeros((6, 18))
            H[0:3, 6:9] = np.eye(3)
            H[3:6, 0:3] = np.eye(3)
            S = H @ belief.cov @ H.T + measurement_cov(noise)
            nu = np.concatenate([meas.pos - mean.pos, ref_mrp_about(meas.q, mean.q)])
            want = nu @ np.linalg.solve(S, nu)
            assert exc.value.mahalanobis_sq == pytest.approx(want, rel=1e-12)

    def test_matches_sigma_point_oracle_on_random_beliefs(self):
        rng = np.random.default_rng(9)
        noise = NoiseConfig.default()
        for _ in range(25):
            mean = VehicleState.at_rest(pos=rng.uniform(-2.0, 2.0, 3))
            mean.q = att.quat_from_rotvec(rng.uniform(-np.pi, np.pi, 3) / 2.0)
            mean.omega, mean.vel, mean.tau_e, mean.f_e = rng.standard_normal((4, 3)) * 0.1
            # random SPD covariance with per-axis scales over four decades
            a = rng.standard_normal((18, 18)) * np.exp(rng.uniform(np.log(1e-4), np.log(1e-2), 18))
            belief = GaussianBelief(mean=mean, cov=a @ a.T + 1e-8 * np.eye(18))
            meas = PoseMeasurement(
                pos=mean.pos + rng.standard_normal(3) * 0.01,
                q=att.quat_multiply(att.quat_from_rotvec(rng.standard_normal(3) * 0.01), mean.q),
            )

            got = correct(belief, meas, noise)
            want = sigma_point_correct(belief, meas, noise)

            def close(x, y):
                scale = max(np.linalg.norm(y), np.finfo(float).tiny)
                assert np.linalg.norm(x - y) <= CLOSED_FORM_RTOL * scale

            # the MRP of the posterior attitude relative to the oracle's
            d_q = att.quat_canonical(att.quat_multiply(got.mean.q, att.quat_conjugate(want.mean.q)))
            assert np.linalg.norm(att.error_quat_to_mrp(d_q)) <= CLOSED_FORM_RTOL
            close(got.mean.vector[4:], want.mean.vector[4:])
            close(got.cov, want.cov)

    def test_gate_rejects_outlier(self):
        belief = default_belief()
        noise = NoiseConfig.default()
        meas = PoseMeasurement(pos=belief.mean.pos + [5.0, 0, 0], q=belief.mean.q.copy())
        with pytest.raises(MeasurementRejected):
            correct(belief, meas, noise, gate_enabled=True)
        # same measurement passes with gating off
        correct(belief, meas, noise)

    def test_gate_threshold_is_the_six_dof_quantile(self):
        # the pose innovation has 6 degrees of freedom
        assert estimator.GATE_THRESHOLD == pytest.approx(chi2.ppf(0.95, 6), abs=0.005)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gate_passes_a_consistent_hover(self, seed):
        # hover is NIS-consistent, so about 5 % of the 1000 poses exceed the
        # 95 % quantile; the 4-dof quantile turned away about 15 %
        scen = Scenario(duration_s=5.0, seed=seed, trajectory=Hover())
        log = run_scenario(scen, RunSetup(estimators=("usque",), gate_enabled=True))
        assert log.meta["rejected_count"]["usque"] <= 80

    @pytest.mark.parametrize("pos, q", [
        ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0]),
        ([0.0, 0.0, 1.0], [1.0, np.nan, 0.0, 0.0]),
        ([0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 0.0]),
        ([0.0, np.nan, 1.0], [1.0, 0.0, 0.0, 0.0]),
        ([np.inf, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0]),
    ])
    def test_pose_measurement_rejects_non_finite_or_zero_quaternion(self, pos, q):
        # each of these normalized to an all-NaN quaternion (or kept a non-finite
        # position) that correct() spread into the estimate
        with pytest.raises(ValueError):
            PoseMeasurement(pos=pos, q=q)

    @pytest.mark.parametrize("pos, q", [([0.0, 1.0], [1.0, 0.0, 0.0, 0.0]), ([0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0]),
                                        ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0])])
    def test_pose_measurement_rejects_a_wrong_length(self, pos, q):
        # the record [pos, q] would shift the quaternion
        with pytest.raises(ValueError):
            PoseMeasurement(pos=pos, q=q)

    def test_pose_record_is_the_logged_row(self):
        assert MEAS_FIELDS[PoseMeasurement.pos.columns] == [f"meas_pos_{a}" for a in "xyz"]
        assert MEAS_FIELDS[PoseMeasurement.q.columns] == [f"meas_q{i}" for i in range(4)]
        pose = PoseMeasurement(pos=[1.0, 2.0, 3.0], q=[2.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(pose.vector, [1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(np.concatenate([pose.pos, pose.q]), pose.vector)

    # magnitudes whose squares reach 1e300 or underflow to subnormals
    @given(pos=hnp.arrays(np.float64, 3, elements=st.floats(-1e3, 1e3)),
           q=hnp.arrays(np.float64, 4, elements=st.floats(-1e150, 1e150)).filter(
               lambda q: 0.0 < np.add.reduce(q * q) < np.inf))
    def test_pose_measurement_normalizes_as_quat_normalize(self, pos, q):
        # the float sum of squares, left to right, is np.add.reduce's
        pose = PoseMeasurement(pos=pos.tolist(), q=q.tolist())
        assert pose.q.tobytes() == att.quat_normalize(q).tobytes()
        assert pose.pos.tobytes() == pos.tobytes()


def outcome(fn, *args):
    """``fn(*args)``, or the type of the typed error it raised."""
    try:
        return fn(*args)
    except (np.linalg.LinAlgError, MeasurementRejected) as exc:
        return type(exc)


def assert_beliefs_close(got, want, rtol):
    """Attitudes within ``rtol`` as the MRP between them; the rest of the
    mean and the covariance within ``rtol`` relative, norm-wise."""
    d_q = att.quat_canonical(att.quat_multiply(got.mean.q, att.quat_conjugate(want.mean.q)))
    assert np.linalg.norm(att.error_quat_to_mrp(d_q)) <= rtol
    for x, y in ((got.mean.vector[4:], want.mean.vector[4:]), (got.cov, want.cov)):
        assert np.linalg.norm(x - y) <= rtol * np.linalg.norm(y)


class TestAgainstArrayFilter:
    """``predict`` and ``correct`` against ``reference_predict`` and
    ``reference_correct``, the filter with every quaternion on the array
    kernels.  They differ in the order of a few sums and in the
    renormalizations the 4x4 product and the float forms leave out, so they
    agree to rounding: within ``LEAN_RTOL`` (1e-12).  Over 2000 random
    beliefs of the strategy below the predicted covariance differed by at
    most 1.6e-14 relative and the means by 3e-16; the corrections were
    bit-identical but for the attitude (3e-17)."""

    @given(
        rotvec=hnp.arrays(np.float64, 3, elements=st.floats(-np.pi, np.pi)),
        prior_sign=st.sampled_from([1.0, -1.0]),
        rates=hnp.arrays(np.float64, 3, elements=st.floats(-50.0, 50.0)),
        log_rho_std=st.floats(np.log(1e-4), np.log(1e4)),
        log_stds=hnp.arrays(np.float64, 15, elements=st.floats(np.log(1e-4), np.log(1e-1))),
        speeds=hnp.arrays(np.float64, 4, elements=st.floats(500.0, 2500.0)),
        meas_rotvec=hnp.arrays(np.float64, 3, elements=st.floats(-2.0, 2.0)),
        meas_sign=st.sampled_from([1.0, -1.0]),
        gate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_array_filter(self, rotvec, prior_sign, rates, log_rho_std, log_stds, speeds,
                                      meas_rotvec, meas_sign, gate, seed):
        # any prior attitude, either sign of its scalar part; body rates up
        # to 50 rad/s; a full covariance whose rows have the drawn stds, the
        # MRP's up to 1e4; a measured attitude up to 3.5 rad from the prior,
        # so its relative quaternion falls on either side of the short arc
        rng = np.random.default_rng(seed)
        mean = VehicleState.at_rest(pos=rng.uniform(-2.0, 2.0, 3), q=prior_sign * att.quat_from_rotvec(rotvec))
        mean.omega = rates
        mean.vel, mean.tau_e, mean.f_e = rng.standard_normal((3, 3))
        stds = np.exp(np.concatenate([np.full(3, log_rho_std), log_stds]))
        a = rng.standard_normal((18, 18))
        a *= stds[:, None] / np.linalg.norm(a, axis=1, keepdims=True)
        belief = GaussianBelief(mean=mean, cov=a @ a.T + 1e-8 * np.eye(18))
        meas = PoseMeasurement(pos=mean.pos + 0.01 * rng.standard_normal(3),
                               q=meas_sign * att.quat_multiply(att.quat_from_rotvec(meas_rotvec), mean.q))
        noise = NoiseConfig.default()

        for got, want in (
            (outcome(predict, belief, speeds, noise, PARAMS), outcome(reference_predict, belief, speeds, noise, PARAMS)),
            (outcome(correct, belief, meas, noise, gate), outcome(reference_correct, belief, meas, noise, gate)),
        ):
            if isinstance(want, type):
                assert got is want
            else:
                assert_beliefs_close(got, want, LEAN_RTOL)
                # symmetric by construction, bit for bit
                assert np.array_equal(got.cov, got.cov.T)

    @settings(max_examples=25, deadline=None)
    @given(
        axis=hnp.arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(lambda a: np.linalg.norm(a) > 0.1),
        rate=st.floats(5.0, 40.0),
        rate_error=st.floats(-20.0, 20.0),
        log_rho_std=st.floats(np.log(1e-3), np.log(1.0)),
        bursts=st.lists(st.tuples(st.integers(0, MULTI_STEP_STEPS - 1), st.integers(1, 40)), max_size=3),
        gate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_multi_step_run_matches_the_array_filter(self, axis, rate, rate_error, log_rho_std, bursts, gate, seed):
        # a vehicle spinning at 5-40 rad/s about a fixed axis turns 1.5-12 rad
        # in the 0.3 s run, so above 10.5 rad/s its attitude crosses the MRP
        # shadow boundary (pi from the start); the prior's rate is off by up
        # to 20 rad/s, and pose dropouts of up to 40 steps let the predicted
        # attitude drift from the measured one, by more than pi at the
        # longest.  Each side runs on its own beliefs; a typed error must be
        # the same on both sides, otherwise they stay within MULTI_STEP_RTOL
        rng = np.random.default_rng(seed)
        axis = axis / np.linalg.norm(axis)
        noise = NoiseConfig.default()
        speeds = hover_speeds(PARAMS)
        start_q = att.quat_from_rotvec(rng.uniform(-np.pi, np.pi, 3) / 2.0)
        mean = VehicleState.at_rest(pos=(0.0, 0.0, 1.0), q=start_q)
        mean.omega = (rate + rate_error) * axis
        stds = {"rho": np.exp(log_rho_std), "omega": max(abs(rate_error), 0.1), "pos": 0.01, "vel": 0.05,
                "tau_e": 0.01, "f_e": 0.05}
        got = want = GaussianBelief.from_std(mean, stds)
        dropped = {k for start, length in bursts for k in range(start, start + length)}

        def step(predict_fn, correct_fn, belief, meas):
            belief = predict_fn(belief, speeds, noise, PARAMS)
            if meas is not None:
                try:
                    belief = correct_fn(belief, meas, noise, gate)
                except MeasurementRejected:
                    pass
            return belief

        for k in range(MULTI_STEP_STEPS):
            meas = None
            if k not in dropped:
                turned = att.quat_multiply(att.quat_from_rotvec(rate * (k + 1) * PARAMS.dt * axis), start_q)
                meas = PoseMeasurement(pos=mean.pos + 0.001 * rng.standard_normal(3),
                                       q=rng.choice([-1.0, 1.0]) * turned)
            got = outcome(step, predict, correct, got, meas)
            want = outcome(step, reference_predict, reference_correct, want, meas)
            if isinstance(want, type):
                assert got is want
                break
            assert_beliefs_close(got, want, MULTI_STEP_RTOL)
            assert np.array_equal(got.cov, got.cov.T)

    def test_stepped_mass_scenario_matches_the_array_filter(self, monkeypatch):
        # the logged estimates of a whole run stay within the stated drift of
        # the same run with the array filter in the loop
        def scenario():
            return Scenario(duration_s=2.0, seed=5, trajectory=Hover(),
                            disturbance=SteppedMass(offset_body=[0.05, 0.0, 0.0], onset_s=1.0))

        setup = RunSetup(estimators=("usque", "observer"))
        got = run_scenario(scenario(), setup)
        monkeypatch.setattr(estimator, "predict", reference_predict)
        monkeypatch.setattr(estimator, "correct", reference_correct)
        want = run_scenario(scenario(), setup)

        np.testing.assert_array_equal(got.truth, want.truth)
        np.testing.assert_array_equal(got.estimates["observer"], want.estimates["observer"])
        for g, w in ((got.estimates["usque"], want.estimates["usque"]),
                     (got.cov_diags["usque"], want.cov_diags["usque"])):
            drift = np.abs(g - w).max(axis=0)
            assert np.all(drift <= SCENARIO_DRIFT_RTOL * np.abs(w).max(axis=0))


class TestStepAndEquivariance:
    def test_hover_consistency(self):
        # measurements equal to truth, zero true wrench: force estimate stays
        # inside 3 sigma of its own covariance
        rng = np.random.default_rng(6)
        noise = NoiseConfig.default()
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        est = UsqueEstimator(
            PARAMS, noise,
            GaussianBelief.from_std(truth.copy(), {
                "rho": 0.005, "omega": 0.05, "pos": 0.005, "vel": 0.05, "tau_e": 0.01, "f_e": 0.05,
            }),
        )
        w = hover_speeds(PARAMS)
        norms = []
        for _ in range(1000):
            truth = process_step(truth, w, None, PARAMS)
            est.step(w, PoseMeasurement(pos=truth.pos.copy(), q=truth.q.copy()))
            norms.append(np.linalg.norm(est.belief.mean.f_e))
        bound = 3.0 * np.sqrt(np.sum(est.belief.cov_diagonal()[15:18]))
        assert np.mean(norms) < bound

    def test_prediction_only_on_dropout(self):
        belief = default_belief()
        noise = NoiseConfig.default()
        est = UsqueEstimator(PARAMS, noise, belief)
        est.step(hover_speeds(PARAMS), measurement=None)
        out = est.belief
        direct = predict(default_belief(), hover_speeds(PARAMS), noise, PARAMS)
        np.testing.assert_allclose(out.mean.vector, direct.mean.vector, atol=1e-12)
        np.testing.assert_allclose(out.cov, direct.cov, atol=1e-12)

    def test_step_equivariant_under_global_yaw(self):
        # pre-rotating the world (belief, inputs, measurement) commutes with
        # one predict+correct step
        rng = np.random.default_rng(7)
        noise = NoiseConfig.default()
        mean = VehicleState.at_rest(pos=(0.4, -0.1, 1.2))
        mean.q = att.quat_from_axis_angle([0.2, 1.0, 0.1], 0.2)
        mean.omega = np.array([0.05, 0.02, -0.1])
        mean.f_e = np.array([0.2, -0.1, -0.4])
        mean.tau_e = np.array([0.01, 0.02, -0.01])
        a = rng.standard_normal((18, 18)) * 0.001
        cov = a @ a.T + np.diag(np.full(18, 1e-5))
        belief = GaussianBelief(mean=mean, cov=cov)

        w = hover_speeds(PARAMS) * 1.02
        meas = PoseMeasurement(
            pos=mean.pos + rng.standard_normal(3) * 0.002,
            q=att.quat_multiply(att.quat_from_rotvec(rng.standard_normal(3) * 0.002), mean.q),
        )

        yaw = att.quat_from_axis_angle([0, 0, 1], 1.1)
        Rz = att.rotmat_body_to_global(yaw)
        J = np.kron(np.eye(6), Rz)

        def rotate_belief(b):
            m = b.mean
            rotated = VehicleState(
                q=att.quat_multiply(yaw, m.q), omega=m.omega.copy(), pos=Rz @ m.pos,
                vel=Rz @ m.vel, tau_e=Rz @ m.tau_e, f_e=Rz @ m.f_e,
            )
            # MRP perturbations are axes in the global frame: conjugating the
            # reference rotates them, so each 3-block of P rotates except the
            # body-frame rate block
            Jb = J.copy()
            Jb[3:6, 3:6] = np.eye(3)
            return GaussianBelief(mean=rotated, cov=Jb @ b.cov @ Jb.T)

        meas_rot = PoseMeasurement(pos=Rz @ meas.pos, q=att.quat_multiply(yaw, meas.q))

        stepped = predict(belief, w, noise, PARAMS)
        stepped = correct(stepped, meas, noise)
        stepped_then_rotated = rotate_belief(stepped)

        rotated_first = rotate_belief(belief)
        rotated_then_stepped = predict(rotated_first, w, noise, PARAMS)
        rotated_then_stepped = correct(rotated_then_stepped, meas_rot, noise)

        # the Cholesky square root is basis-dependent, so the two paths use
        # different (moment-equivalent) point sets and agree only to the
        # third-order truncation of the unscented transform; frame-handling
        # bugs show up orders of magnitude above this tolerance
        np.testing.assert_allclose(
            stepped_then_rotated.mean.vector, rotated_then_stepped.mean.vector, atol=1e-5
        )
        np.testing.assert_allclose(stepped_then_rotated.cov, rotated_then_stepped.cov, atol=1e-7)

    def test_stepped_mass_scenario_matches_sigma_point_correction(self, monkeypatch):
        # the logged estimates of a whole run stay within the stated drift of
        # the same run with the sigma-point correction in the loop
        def scenario():
            return Scenario(duration_s=2.0, seed=5, trajectory=Hover(),
                            disturbance=SteppedMass(offset_body=[0.05, 0.0, 0.0], onset_s=1.0))

        got = run_scenario(scenario(), RunSetup())
        monkeypatch.setattr(estimator, "correct",
                            lambda belief, meas, noise, gate: sigma_point_correct(belief, meas, noise))
        want = run_scenario(scenario(), RunSetup())

        np.testing.assert_array_equal(got.truth, want.truth)
        for g, w in ((got.estimates["usque"], want.estimates["usque"]),
                     (got.cov_diags["usque"], want.cov_diags["usque"])):
            drift = np.abs(g - w).max(axis=0)
            assert np.all(drift <= SCENARIO_DRIFT_RTOL * np.abs(w).max(axis=0))

    def test_stepped_mass_scenario_matches_augmented_prediction(self, monkeypatch):
        # the logged estimates of a whole run stay within the stated drift of
        # the same run with the noise-augmented prediction in the loop
        def scenario():
            return Scenario(duration_s=2.0, seed=5, trajectory=Hover(),
                            disturbance=SteppedMass(offset_body=[0.05, 0.0, 0.0], onset_s=1.0))

        got = run_scenario(scenario(), RunSetup())
        monkeypatch.setattr(estimator, "predict", augmented_predict)
        want = run_scenario(scenario(), RunSetup())

        np.testing.assert_array_equal(got.truth, want.truth)
        for g, w in ((got.estimates["usque"], want.estimates["usque"]),
                     (got.cov_diags["usque"], want.cov_diags["usque"])):
            drift = np.abs(g - w).max(axis=0)
            assert np.all(drift <= SCENARIO_DRIFT_RTOL * np.abs(w).max(axis=0))

    def test_jittered_predictions_are_counted(self):
        # a zero rate variance makes the first prior semidefinite; process
        # noise makes every later one positive definite
        est = UsqueEstimator(PARAMS, NoiseConfig.default(), default_belief(p_omega=0.0))
        est.step(hover_speeds(PARAMS))
        assert est.jitter_count == 1
        est.step(hover_speeds(PARAMS))
        assert est.jitter_count == 1

    def test_record_is_belief_mean_and_covariance_diagonal(self):
        rng = np.random.default_rng(9)
        est = UsqueEstimator(PARAMS, NoiseConfig.default(), default_belief())
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        for _ in range(5):
            truth = process_step(truth, hover_speeds(PARAMS), None, PARAMS)
            est.step(hover_speeds(PARAMS), PoseMeasurement(pos=truth.pos + 0.001 * rng.standard_normal(3),
                                                     q=truth.q))
            np.testing.assert_array_equal(est.mean_vector(), est.belief.mean.vector)
            np.testing.assert_array_equal(est.cov_diagonal(), est.belief.cov_diagonal())
            # the diagonal is read straight off the covariance, not copied
            np.testing.assert_array_equal(est.cov_diagonal(), np.diag(est.belief.cov))
            assert not est.cov_diagonal().flags.writeable

    def test_mean_quaternion_stays_unit(self):
        # predict and correct compose the mean attitude with quat_multiply,
        # which returns a unit quaternion; no further renormalization is needed
        log = run_scenario(Scenario(duration_s=2.0, seed=4, trajectory=Hover(),
                                    disturbance=SteppedMass(offset_body=[0.05, 0.0, 0.0], onset_s=1.0)),
                           RunSetup(estimators=("usque",)))
        q = log.estimates["usque"][:, 0:4]
        assert np.abs(np.linalg.norm(q, axis=1) - 1.0).max() <= 1e-15

    def test_covariance_symmetry_and_psd_maintained(self):
        rng = np.random.default_rng(8)
        noise = NoiseConfig.default()
        belief = default_belief()
        est = UsqueEstimator(PARAMS, noise, belief)
        truth = VehicleState.at_rest(pos=(0, 0, 1))
        w = hover_speeds(PARAMS)
        for k in range(50):
            truth = process_step(truth, w, None, PARAMS)
            meas = PoseMeasurement(
                pos=truth.pos + rng.standard_normal(3) * 0.001,
                q=att.quat_multiply(att.quat_from_rotvec(rng.standard_normal(3) * 0.002), truth.q),
            )
            est.step(w, meas)
            b = est.belief
            assert np.array_equal(b.cov, b.cov.T)
            assert np.linalg.eigvalsh(b.cov).min() > -1e-10
