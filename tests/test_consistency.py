"""Filter consistency: NEES against the chi-square envelope.

Truth is propagated by the same process model the filter assumes, with
process noise sampled from the filter's Q and measurements corrupted with its
G, so the normalized estimation error squared of the 18-dim state must be
chi-square distributed if the filter is consistent.
"""

import numpy as np
import pytest
from scipy.stats import chi2

from quadwrench import attitude as att
from quadwrench.estimator import GaussianBelief, PoseMeasurement, UsqueEstimator
from quadwrench.rigid_body import NoiseConfig, VehicleParams, VehicleState, process_step
from quadwrench.simulator import FlightController

PARAMS = VehicleParams()
NOISE = NoiseConfig.default()
INIT_STDS = {"rho": 0.002, "omega": 0.02, "pos": 0.002, "vel": 0.02, "tau_e": 0.002, "f_e": 0.01}
DIM = 18


def _init_std_vector():
    order = ("rho", "omega", "pos", "vel", "tau_e", "f_e")
    return np.concatenate([np.full(3, INIT_STDS[k]) for k in order])


def _perturbed_belief(truth: VehicleState, rng: np.random.Generator) -> GaussianBelief:
    e = _init_std_vector() * rng.standard_normal(DIM)
    mean = VehicleState(
        q=att.quat_multiply(att.mrp_to_error_quat(e[0:3]), truth.q),
        omega=truth.omega + e[3:6],
        pos=truth.pos + e[6:9],
        vel=truth.vel + e[9:12],
        tau_e=truth.tau_e + e[12:15],
        f_e=truth.f_e + e[15:18],
    )
    return GaussianBelief.from_std(mean, INIT_STDS)


def _minimal_error(truth: VehicleState, belief: GaussianBelief) -> np.ndarray:
    dq = att.quat_canonical(att.quat_multiply(truth.q, att.quat_conjugate(belief.mean.q)))
    return np.concatenate([
        att.error_quat_to_mrp(dq),
        truth.omega - belief.mean.omega,
        truth.pos - belief.mean.pos,
        truth.vel - belief.mean.vel,
        truth.tau_e - belief.mean.tau_e,
        truth.f_e - belief.mean.f_e,
    ])


@pytest.mark.slow
def test_nees_within_chi_square_envelope():
    n_runs = 50
    duration = 10.0
    n_steps = int(duration / PARAMS.dt)
    ref = np.array([0.0, 0.0, 1.0])
    q_proc = NOISE.process_cov()
    q_chol = np.linalg.cholesky(q_proc)
    pos_std = np.sqrt(NOISE.g_x[0])
    rho_std = np.sqrt(NOISE.g_rho[0])

    nees_sum = np.zeros(n_steps)
    for run in range(n_runs):
        rng = np.random.default_rng(9_000 + run)
        truth = VehicleState.at_rest(pos=ref)
        est = UsqueEstimator(PARAMS, NOISE, _perturbed_belief(truth, rng))
        controller = FlightController(PARAMS)
        for k in range(n_steps):
            speeds = controller.command(truth, ref)
            eta = q_chol @ rng.standard_normal(12)
            truth = process_step(truth, speeds, eta, PARAMS)
            meas = PoseMeasurement(
                pos=truth.pos + pos_std * rng.standard_normal(3),
                q=att.quat_multiply(
                    att.mrp_to_error_quat(rho_std * rng.standard_normal(3)), truth.q
                ),
            )
            est.step(speeds, meas)
            belief = est.belief
            e = _minimal_error(truth, belief)
            nees_sum[k] += float(e @ np.linalg.solve(belief.cov, e))

    avg_nees = nees_sum / n_runs
    lo = chi2.ppf(0.025, n_runs * DIM) / n_runs
    hi = chi2.ppf(0.975, n_runs * DIM) / n_runs
    inside = np.mean((avg_nees >= lo) & (avg_nees <= hi))
    assert inside >= 0.80, (
        f"average NEES inside the 95% envelope [{lo:.2f}, {hi:.2f}] only "
        f"{inside:.1%} of steps (median NEES {np.median(avg_nees):.2f})"
    )
