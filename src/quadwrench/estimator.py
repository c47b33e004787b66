"""Unscented external wrench estimator.

Sigma-point Kalman filter over the 18-dimensional minimal vehicle state

    [d_rho (3), omega (3), pos (3), vel (3), tau_e (3), f_e (3)]

where the attitude mean is carried as a full unit quaternion and ``d_rho`` is
the MRP of a left-multiplied perturbation about it.  Prediction augments the
state with the 12-dimensional process noise (extended dimension 30): each
sigma point's MRP is converted to an error quaternion and injected onto the
reference mean, the whole set is pushed through the rigid-body process model
in one batched call, and relative quaternions against the central point are
converted back to MRPs (short-arc sign) before recombination.

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
)
from .rigid_body import (
    NoiseConfig,
    ProcessNoiseSample,
    VehicleParams,
    VehicleState,
    process_step,
)

__all__ = [
    "CovarianceNotPD",
    "InnovationCovarianceSingular",
    "MeasurementRejected",
    "PoseMeasurement",
    "GaussianBelief",
    "CorrectionArtifacts",
    "SigmaPointSet",
    "generate_sigma_points",
    "predict",
    "correct",
    "UsqueEstimator",
]

DEFAULT_KAPPA = 2.0
# chi-square 95% quantile for a 6-dof residual; used by the optional gate
DEFAULT_GATE_THRESHOLD = 9.49
_CONDITION_LIMIT = 1e12

STATE_DIM = 18
PROCESS_NOISE_DIM = 12
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

    def __init__(self, mahalanobis_sq, threshold):
        super().__init__(
            f"innovation Mahalanobis^2 {mahalanobis_sq:.3f} exceeds gate {threshold:.3f}"
        )
        self.mahalanobis_sq = mahalanobis_sq


@dataclass
class PoseMeasurement:
    """6-DoF pose sample: global position, attitude quaternion, timestamp."""

    pos: np.ndarray
    q: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=float)
        self.q = quat_normalize(np.asarray(self.q, dtype=float))


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
class CorrectionArtifacts:
    """Intermediate quantities of one Kalman update, kept for diagnostics."""

    gain: np.ndarray            # 18x6
    cross_cov: np.ndarray       # 18x6
    innovation_cov: np.ndarray  # 6x6
    innovation: np.ndarray      # 6, [position residual, MRP attitude residual]


@dataclass
class SigmaPointSet:
    """2L+1 extended-state points with their recombination weights;
    ``jittered`` marks a covariance that needed diagonal jitter to factor."""

    points: np.ndarray   # (2L+1, L)
    weights: np.ndarray  # (2L+1,), read-only
    jittered: bool = False


@lru_cache(maxsize=8)
def sigma_weights(dim: int, kappa: float) -> np.ndarray:
    """Read-only recombination weights, built once per ``(dim, kappa)``."""
    if kappa <= -dim:
        raise ValueError("kappa must exceed -L")
    w = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + kappa)))
    w[0] = kappa / (dim + kappa)
    w.flags.writeable = False
    return w


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def generate_sigma_points(mean: np.ndarray, cov: np.ndarray, kappa: float = DEFAULT_KAPPA) -> SigmaPointSet:
    """Points mean, mean +- sqrt(L+kappa) * columns of the Cholesky factor.

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

    spread = np.sqrt(dim + kappa) * chol.T  # row j = sqrt(L+kappa) * col_j(S)
    points = np.concatenate([mean[None, :], mean + spread, mean - spread], axis=0)
    return SigmaPointSet(points=points, weights=sigma_weights(dim, kappa), jittered=jittered)


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


def _minimal_from_states(states: VehicleState, reference_q: np.ndarray) -> np.ndarray:
    d_q = quat_canonical(quat_multiply(states.q, quat_conjugate(reference_q)))
    return np.concatenate(
        [error_quat_to_mrp(d_q), states.omega, states.pos, states.vel, states.tau_e, states.f_e],
        axis=-1,
    )


def predict(
    belief: GaussianBelief,
    rotor_speeds: np.ndarray,
    noise: NoiseConfig,
    params: VehicleParams,
) -> GaussianBelief:
    """Sigma-point propagation of the belief through the process model.

    A non-finite predicted covariance raises :class:`CovarianceNotPD`.
    """
    ext_mean = np.concatenate([belief.minimal_mean(), np.zeros(PROCESS_NOISE_DIM)])
    ext_cov = np.zeros((STATE_DIM + PROCESS_NOISE_DIM,) * 2)
    ext_cov[:STATE_DIM, :STATE_DIM] = belief.cov
    ext_cov[STATE_DIM:, STATE_DIM:] = noise.process_cov()

    sp = generate_sigma_points(ext_mean, ext_cov)

    states = _states_from_points(sp.points[:, :STATE_DIM], belief.mean.q)
    eta = ProcessNoiseSample.from_matrix(sp.points[:, STATE_DIM:])
    propagated = process_step(states, rotor_speeds, eta, params)

    reference = propagated.q[0]
    minimal = _minimal_from_states(propagated, reference)
    mean_min, cov = recombine(minimal, sp.weights)
    if not np.isfinite(cov).all():
        raise CovarianceNotPD("predicted covariance is not finite", cov)

    # the MRP coordinate is re-zeroed against the new reference quaternion;
    # the recombined covariance is kept unchanged (standard USQUE reset)
    return GaussianBelief(mean=_states_from_points(mean_min, reference), cov=cov, jittered=sp.jittered)


def correct(
    belief: GaussianBelief,
    measurement: PoseMeasurement,
    noise: NoiseConfig,
    gate_threshold: float | None = None,
) -> tuple[GaussianBelief, CorrectionArtifacts]:
    """Linear Kalman update from a 6-DoF pose measurement.

    The measurement is ``H x + v`` with H selecting ``[pos, d_rho]`` and
    ``v ~ N(0, R)``, so the cross covariance is ``P H'``, the innovation
    covariance ``S = H P H' + R`` and the gain ``K = P H' inv(S)``.  The
    covariance update is the Joseph form ``(I - K H) P (I - K H)' + K R K'``,
    symmetrized, which stays positive semidefinite under rounding.

    The attitude residual is the MRP of the left-relative quaternion between
    the measured and predicted attitude (short-arc sign).  ``S`` with a
    non-finite entry or a 2-norm condition number above 1e12 raises
    :class:`InnovationCovarianceSingular`.  With ``gate_threshold`` set, an
    innovation whose Mahalanobis distance squared exceeds it raises
    :class:`MeasurementRejected` instead of updating.
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

    d_q_meas = quat_canonical(quat_multiply(measurement.q, quat_conjugate(belief.mean.q)))
    innovation = np.concatenate([measurement.pos - belief.mean.pos, error_quat_to_mrp(d_q_meas)])

    if gate_threshold is not None:
        m2 = float(innovation @ np.linalg.solve(innovation_cov, innovation))
        if m2 > gate_threshold:
            raise MeasurementRejected(m2, gate_threshold)

    gain = np.linalg.solve(innovation_cov, cross_cov.T).T
    delta = gain @ innovation
    i_kh = np.eye(STATE_DIM)
    i_kh[:, _POSE_IDX] -= gain
    cov = _symmetrize(i_kh @ belief.cov @ i_kh.T + gain @ meas_cov @ gain.T)

    mean = _states_from_points(belief.minimal_mean() + delta, belief.mean.q)
    artifacts = CorrectionArtifacts(
        gain=gain, cross_cov=cross_cov, innovation_cov=innovation_cov, innovation=innovation
    )
    return GaussianBelief(mean=mean, cov=cov), artifacts


class UsqueEstimator:
    """Stateful wrapper running predict/correct in timestamp order.

    One instance is a sequential state machine; run independent instances for
    concurrent scenarios.  A missing measurement performs prediction only,
    supporting measurement dropout; with ``gate_threshold`` set, a pose failing
    the chi-square gate is skipped and counted in ``rejected_count``.
    Predictions whose covariance needed jitter to factor are counted in
    ``jitter_count``.

    Record interface shared with the observer: ``step``, ``wrench``,
    ``mean_vector()`` (19 logged entries), ``cov_diagonal()`` (18 variances).
    """

    name = "usque"

    def __init__(
        self,
        params: VehicleParams,
        noise: NoiseConfig,
        belief: GaussianBelief,
        gate_threshold: float | None = None,
    ):
        self.params = params
        self.noise = noise
        self.belief = belief
        self.gate_threshold = gate_threshold
        self.last_artifacts: CorrectionArtifacts | None = None
        self.rejected_count = 0
        self.jitter_count = 0

    def step(self, rotor_speeds: np.ndarray, measurement: PoseMeasurement | None = None) -> GaussianBelief:
        self.belief = predict(self.belief, rotor_speeds, self.noise, self.params)
        self.jitter_count += self.belief.jittered
        if measurement is not None:
            try:
                self.belief, self.last_artifacts = correct(
                    self.belief, measurement, self.noise, self.gate_threshold
                )
            except MeasurementRejected:
                self.rejected_count += 1
        return self.belief

    @property
    def wrench(self) -> tuple[np.ndarray, np.ndarray]:
        return self.belief.mean.f_e.copy(), self.belief.mean.tau_e.copy()

    def mean_vector(self) -> np.ndarray:
        return self.belief.mean.as_vector()

    def cov_diagonal(self) -> np.ndarray:
        return self.belief.cov_diagonal()
