"""Unscented external wrench estimator.

Sigma-point Kalman filter over the 18-dimensional minimal vehicle state

    [d_rho (3), omega (3), pos (3), vel (3), tau_e (3), f_e (3)]

where the attitude mean is carried as a full unit quaternion and ``d_rho`` is
the MRP of a left-multiplied perturbation about it.  Prediction draws sigma
points from the 18-dim belief, injects each point's MRP as an error quaternion
onto the reference mean, pushes the set through the deterministic process
model in one batched call and converts relative quaternions against the
central point back to MRPs (short-arc sign) before recombination.  The process
noise is added in closed form, as the USQUE adds it (Crassidis & Markley 2003).

The pose measurement reads position and the attitude MRP straight off the
minimal state and adds its noise, so the measurement model is linear in the
state.  The correction is therefore the closed-form Kalman update with H
selecting ``[pos, d_rho]``; an unscented transform of that model would give
the same moments at the cost of a second sigma-point set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .attitude import (
    error_quat_to_mrp,
    mrp_to_error_quat,
    quat_canonical,
    quat_conjugate,
    quat_multiply,
    quat_normalize,
    rotmat_body_to_global,
)
from .rigid_body import NoiseConfig, VehicleParams, VehicleState, process_step

__all__ = [
    "CovarianceNotPD",
    "InnovationCovarianceSingular",
    "MeasurementRejected",
    "PoseMeasurement",
    "GaussianBelief",
    "SigmaPointSet",
    "generate_sigma_points",
    "predict",
    "correct",
    "UsqueEstimator",
]

# sigma-point spread: kappa = 2 on the state augmented with the 12-dim noise
# gives L + kappa = 32, and its 24 noise points carry the state mean, so their
# weight 24/64 joins the centre's 2/32 as kappa / (18 + kappa) = 14/32
KAPPA = 14.0
# gate on the pose innovation's Mahalanobis^2: the chi-square 0.95 quantile at
# 6 dof, scipy.stats.chi2.ppf(0.95, 6) = 12.5916 (src/ imports no scipy)
GATE_THRESHOLD = 12.59
_CONDITION_LIMIT = 1e12

STATE_DIM = 18
# minimal-state indices the pose measurement reads: position, then attitude MRP
_POSE_IDX = np.r_[6:9, 0:3]


class CovarianceNotPD(np.linalg.LinAlgError):
    """Cholesky failed even after diagonal jitter, or a predicted covariance
    is not finite; offending matrix attached."""

    def __init__(self, message, cov):
        super().__init__(message)
        self.cov = np.array(cov)


class InnovationCovarianceSingular(np.linalg.LinAlgError):
    """Predicted measurement covariance is numerically singular."""


class MeasurementRejected(RuntimeError):
    """Innovation failed the chi-square gate (only raised when gating is on)."""

    def __init__(self, mahalanobis_sq):
        super().__init__(f"innovation Mahalanobis^2 {mahalanobis_sq:.3f} exceeds gate {GATE_THRESHOLD:.3f}")
        self.mahalanobis_sq = mahalanobis_sq


@dataclass
class PoseMeasurement:
    """6-DoF pose sample: global position and attitude quaternion (normalized
    here; a non-finite or zero-norm input raises ``ValueError``)."""

    pos: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float)
        q = np.asarray(self.q, dtype=float)
        # q @ q is NaN or inf for a non-finite q, and 0 for a zero one
        if not (np.isfinite(self.pos).all() and 0.0 < q @ q < np.inf):
            raise ValueError("pose needs a finite position and a finite, nonzero quaternion")
        self.q = quat_normalize(q)


@dataclass
class GaussianBelief:
    """Mean vehicle state plus 18x18 covariance in minimal coordinates.

    The MRP block of ``cov`` expresses attitude uncertainty about ``mean.q``;
    the MRP coordinate of the mean itself is always zero (re-zeroed after
    every predict and correct).  ``jittered`` is set on a prediction whose
    prior covariance needed diagonal jitter to factor.
    """

    mean: VehicleState
    cov: np.ndarray
    jittered: bool = False

    def __post_init__(self):
        self.cov = np.asarray(self.cov, dtype=float)
        if self.cov.shape != (STATE_DIM, STATE_DIM):
            raise ValueError("covariance must be 18x18")

    @classmethod
    def from_std(cls, mean: VehicleState, stds) -> "GaussianBelief":
        """Diagonal covariance from per-block standard deviations.

        ``stds`` is a mapping with keys rho, omega, pos, vel, tau_e, f_e.
        """
        order = ("rho", "omega", "pos", "vel", "tau_e", "f_e")
        diag = np.concatenate([np.full(3, float(stds[k]) ** 2) for k in order])
        return cls(mean=mean, cov=np.diag(diag))

    def minimal_mean(self) -> np.ndarray:
        m = self.mean
        return np.concatenate([np.zeros(3), m.omega, m.pos, m.vel, m.tau_e, m.f_e])

    def cov_diagonal(self) -> np.ndarray:
        return np.diag(self.cov).copy()


@dataclass
class SigmaPointSet:
    """2L+1 points of an L-dim Gaussian with their recombination weights;
    ``jittered`` marks a covariance that needed diagonal jitter to factor."""

    points: np.ndarray   # (2L+1, L)
    weights: np.ndarray  # (2L+1,), read-only
    jittered: bool = False


@lru_cache(maxsize=8)
def sigma_weights(dim: int) -> np.ndarray:
    """Read-only recombination weights at :data:`KAPPA`, built once per ``dim``."""
    w = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + KAPPA)))
    w[0] = KAPPA / (dim + KAPPA)
    w.flags.writeable = False
    return w


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def generate_sigma_points(mean: np.ndarray, cov: np.ndarray) -> SigmaPointSet:
    """Points mean, mean +- sqrt(L + KAPPA) * columns of the Cholesky factor.

    If the Cholesky decomposition fails, retries once after adding
    ``1e-9 * trace(cov)/L`` to the diagonal and marks the set ``jittered``; a
    second failure raises :class:`CovarianceNotPD` with the covariance
    attached.
    """
    mean = np.asarray(mean, dtype=float)
    cov = _symmetrize(np.asarray(cov, dtype=float))
    dim = mean.shape[0]
    if cov.shape != (dim, dim):
        raise ValueError("mean/covariance dimensions disagree")

    jittered = False
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jitter = 1e-9 * np.trace(cov) / dim
        try:
            chol = np.linalg.cholesky(cov + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            raise CovarianceNotPD("covariance not positive definite after jitter", cov) from None
        jittered = True

    spread = np.sqrt(dim + KAPPA) * chol.T  # row j = sqrt(L + KAPPA) * col_j(S)
    points = np.concatenate([mean[None, :], mean + spread, mean - spread], axis=0)
    return SigmaPointSet(points=points, weights=sigma_weights(dim), jittered=jittered)


def recombine(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and covariance of a point set."""
    mean = weights @ points
    dev = points - mean
    cov = (weights[:, None] * dev).T @ dev
    return mean, _symmetrize(cov)


def _states_from_points(points: np.ndarray, reference_q: np.ndarray) -> VehicleState:
    """Minimal-state rows (..., 18) as full states about ``reference_q``."""
    d_q = mrp_to_error_quat(points[..., 0:3])
    return VehicleState(
        q=quat_multiply(d_q, reference_q),
        omega=points[..., 3:6],
        pos=points[..., 6:9],
        vel=points[..., 9:12],
        tau_e=points[..., 12:15],
        f_e=points[..., 15:18],
    )


def _mrp_about(q: np.ndarray, reference_q: np.ndarray) -> np.ndarray:
    """MRP of the left-relative rotation from ``reference_q`` to ``q``, short arc."""
    return error_quat_to_mrp(quat_canonical(quat_multiply(q, quat_conjugate(reference_q))))


def _minimal_from_states(states: VehicleState, reference_q: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [_mrp_about(states.q, reference_q), states.omega, states.pos, states.vel, states.tau_e, states.f_e],
        axis=-1,
    )


def predict(
    belief: GaussianBelief,
    rotor_speeds: np.ndarray,
    noise: NoiseConfig,
    params: VehicleParams,
) -> GaussianBelief:
    """Sigma-point propagation of the belief through the process model.

    The 37 points of the belief go through the deterministic model, and the
    process noise Q (:meth:`NoiseConfig.process_cov`) adds ``G Q G'``, G
    mapping it at the prior mean into the rates (``T inv(J)``), position and
    velocity (``T^2/2 R(q)/m``, ``T R(q)/m``) and the wrench (identity).
    Given the state the noise enters linearly and never reaches q, so these
    are exactly the moments of the noise-augmented set.  The jitter rule of
    :func:`generate_sigma_points` sees the 18x18 prior's trace.  A non-finite
    predicted covariance raises :class:`CovarianceNotPD`.
    """
    sp = generate_sigma_points(belief.minimal_mean(), belief.cov)

    states = _states_from_points(sp.points, belief.mean.q)
    propagated = process_step(states, rotor_speeds, None, params)

    reference = propagated.q[0]
    minimal = _minimal_from_states(propagated, reference)
    mean_min, cov = recombine(minimal, sp.weights)
    T, accel_map = params.dt, rotmat_body_to_global(belief.mean.q) / params.mass
    noise_map = np.zeros((STATE_DIM, 12))
    noise_map[3:6, 0:3] = T * params.inertia_inv
    noise_map[6:12, 6:9] = np.vstack([0.5 * T * T * accel_map, T * accel_map])
    noise_map[12:15, 3:6] = noise_map[15:18, 9:12] = np.eye(3)
    cov = cov + _symmetrize(noise_map @ noise.process_cov() @ noise_map.T)
    if not np.isfinite(cov).all():
        raise CovarianceNotPD("predicted covariance is not finite", cov)

    # the MRP coordinate is re-zeroed against the new reference quaternion;
    # the recombined covariance is kept unchanged (standard USQUE reset)
    return GaussianBelief(mean=_states_from_points(mean_min, reference), cov=cov, jittered=sp.jittered)


def correct(
    belief: GaussianBelief,
    measurement: PoseMeasurement,
    noise: NoiseConfig,
    gate_enabled: bool = False,
) -> GaussianBelief:
    """Posterior of a linear Kalman update from a 6-DoF pose measurement.

    The measurement is ``H x + v`` with H selecting ``[pos, d_rho]`` and
    ``v ~ N(0, R)``, so the cross covariance is ``P H'``, the innovation
    covariance ``S = H P H' + R`` and the gain ``K = P H' inv(S)``.  The
    covariance update is the Joseph form ``(I - K H) P (I - K H)' + K R K'``,
    symmetrized, which stays positive semidefinite under rounding.

    The attitude residual is the MRP of the left-relative quaternion between
    the measured and predicted attitude (short-arc sign).  ``S`` with a
    non-finite entry or a 2-norm condition number above 1e12 raises
    :class:`InnovationCovarianceSingular`.  With ``gate_enabled``, an
    innovation whose Mahalanobis distance squared exceeds :data:`GATE_THRESHOLD`
    raises :class:`MeasurementRejected` instead of updating.
    """
    meas_cov = noise.measurement_cov()
    cross_cov = belief.cov[:, _POSE_IDX]
    innovation_cov = cross_cov[_POSE_IDX] + meas_cov

    if not np.isfinite(innovation_cov).all():
        raise InnovationCovarianceSingular("predicted measurement covariance is not finite")
    # singular values of a symmetric matrix are its absolute eigenvalues
    eig = np.abs(np.linalg.eigvalsh(innovation_cov))
    if eig.min() == 0.0 or eig.max() / eig.min() > _CONDITION_LIMIT:
        raise InnovationCovarianceSingular(
            f"predicted measurement covariance condition number exceeds {_CONDITION_LIMIT:g}"
        )

    innovation = np.concatenate([measurement.pos - belief.mean.pos, _mrp_about(measurement.q, belief.mean.q)])

    if gate_enabled:
        m2 = float(innovation @ np.linalg.solve(innovation_cov, innovation))
        if m2 > GATE_THRESHOLD:
            raise MeasurementRejected(m2)

    gain = np.linalg.solve(innovation_cov, cross_cov.T).T
    delta = gain @ innovation
    i_kh = np.eye(STATE_DIM)
    i_kh[:, _POSE_IDX] -= gain
    cov = _symmetrize(i_kh @ belief.cov @ i_kh.T + gain @ meas_cov @ gain.T)

    mean = _states_from_points(belief.minimal_mean() + delta, belief.mean.q)
    return GaussianBelief(mean=mean, cov=cov)


class UsqueEstimator:
    """Stateful wrapper running one predict, then a correct when a pose
    arrives, per simulation step.

    One instance is a sequential state machine; run independent instances for
    concurrent scenarios.  A missing measurement performs prediction only,
    supporting measurement dropout; with ``gate_enabled``, a pose failing
    the chi-square gate is skipped and counted in ``rejected_count``.
    Predictions whose covariance needed jitter to factor are counted in
    ``jitter_count``.

    Record interface shared with the observer: ``step``, ``mean_vector()``
    (19 logged entries) and ``cov_diagonal()`` (18 variances).
    """

    def __init__(
        self,
        params: VehicleParams,
        noise: NoiseConfig,
        belief: GaussianBelief,
        gate_enabled: bool = False,
    ):
        self.params = params
        self.noise = noise
        self.belief = belief
        self.gate_enabled = gate_enabled
        self.rejected_count = 0
        self.jitter_count = 0

    def step(self, rotor_speeds: np.ndarray, measurement: PoseMeasurement | None = None) -> None:
        self.belief = predict(self.belief, rotor_speeds, self.noise, self.params)
        self.jitter_count += self.belief.jittered
        if measurement is not None:
            try:
                self.belief = correct(self.belief, measurement, self.noise, self.gate_enabled)
            except MeasurementRejected:
                self.rejected_count += 1

    def mean_vector(self) -> np.ndarray:
        return self.belief.mean.as_vector()

    def cov_diagonal(self) -> np.ndarray:
        return self.belief.cov_diagonal()
