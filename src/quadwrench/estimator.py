"""Unscented external wrench estimator.

Sigma-point Kalman filter over the 18-dimensional minimal vehicle state

    [d_rho (3), omega (3), pos (3), vel (3), tau_e (3), f_e (3)]

where the attitude mean is carried as a full unit quaternion and ``d_rho`` is
the MRP of a left-multiplied perturbation about it.  Prediction draws sigma
points from the 18-dim belief, injects each point's MRP as an error quaternion
onto the reference mean, pushes the set through the deterministic process
model in one batched call and converts relative quaternions against the
central point back to MRPs (short-arc sign) before recombination.  The process
noise enters in closed form, as ``G Q G'`` in the USQUE (Crassidis & Markley
2003), but as the square-root UKF forms it (van der Merwe & Wan 2001): the
rows ``sqrt(Q) G'``, G the process model's own noise gain at the prior mean,
stack under the weighted sigma deviations, and the predicted covariance is
one product ``S' S`` of the stacked rows.

The pose measurement reads position and the attitude MRP straight off the
minimal state and adds its noise, so the measurement model is linear in the
state.  The correction is therefore the closed-form Kalman update with H
selecting ``[pos, d_rho]``; an unscented transform of that model would give
the same moments at the cost of a second sigma-point set.  P is symmetric by
construction, never repaired; ``predict`` and ``correct`` silence numpy's
overflow warning and raise :class:`CovarianceNotPD` on a non-finite P.

The 37-row sigma-point set is a handful of array operations per step: the
sigma attitudes are ``mrp_to_error_quat`` of the points' MRPs composed with
the prior by one 4x4 matmul (:func:`quat_product_matrix`), and beside the
points' other columns, in the state record's layout, they are the records
of the set, which goes through the fused ``process_step`` kernel in one
call; the relative quaternions against the centre are one more 4x4 matmul,
and their short-arc MRPs one division, ``d_v / (d0 -+ 1)`` with the sign of
``d0`` (also ``correct``'s innovation); the minimal rows are one concatenate.
The filter written on the per-field ``attitude`` kernels and
``reference_process_step`` stays in the tests as the oracle.
Work on one quaternion (the rotation in G, the posterior mean of ``predict``
and ``correct``, the innovation) is done on Python floats with the
``*_floats`` forms, where a numpy call would cost more than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .attitude import (
    mrp_to_error_quat,
    mrp_to_error_quat_floats,
    quat_conjugate,
    quat_multiply_floats,
    quat_product_matrix,
    rotmat_body_to_global_floats,
)
from .rigid_body import NoiseConfig, VehicleParams, VehicleState, _Field, process_step

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
# minimal-state indices the pose measurement reads: position, then attitude
# MRP, and H, the 6x18 matrix that selects them
_POSE_IDX = np.r_[6:9, 0:3]
_H = np.eye(STATE_DIM)[_POSE_IDX]
_H.flags.writeable = False
_IDENTITY = np.eye(STATE_DIM)
_IDENTITY.flags.writeable = False


class CovarianceNotPD(np.linalg.LinAlgError):
    """Cholesky failed even after diagonal jitter, or a predicted or
    corrected covariance is not finite; offending matrix attached."""

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


class PoseMeasurement:
    """6-DoF pose sample: global position and attitude quaternion, given as
    sequences of three and four floats and stored as the ``(7,)`` record
    ``vector`` in the log's layout ``[pos, q]``, of which both are views.

    Validated and normalized on floats: another length, a non-finite
    position, or a quaternion that is non-finite or of zero norm, raises
    ``ValueError``; the norm sums the squares left to right, as
    ``attitude.quat_normalize`` does, so the quaternion is its result to the bit.
    """

    __slots__ = ("vector",)
    pos = _Field(0, 3)
    q = _Field(3, 4)

    def __init__(self, pos, q):
        px, py, pz = (float(v) for v in pos)
        w, x, y, z = (float(v) for v in q)
        # the sum of squares is NaN or inf for a non-finite q, and 0 for a
        # zero one
        norm2 = w * w + x * x + y * y + z * z
        if not (math.isfinite(px) and math.isfinite(py) and math.isfinite(pz) and 0.0 < norm2 < math.inf):
            raise ValueError("pose needs a finite position and a finite, nonzero quaternion")
        norm = math.sqrt(norm2)
        self.vector = np.array([px, py, pz, w / norm, x / norm, y / norm, z / norm])


def _std_variances(stds, setting: str = "std") -> np.ndarray:
    """The 18 variances of the per-block stds ``stds``, which map exactly the
    keys rho, omega, pos, vel, tau_e, f_e to finite stds >= 0; anything else
    raises ``ValueError`` naming ``setting`` and the key."""
    order = ("rho", "omega", "pos", "vel", "tau_e", "f_e")
    for key in set(stds) ^ set(order):
        raise ValueError(f"{setting} key {key!r} is unknown or missing; the keys are {', '.join(order)}")
    for key in order:
        if not 0.0 <= float(stds[key]) < np.inf:
            raise ValueError(f"{setting} {key!r} must be finite and >= 0, got {stds[key]!r}")
    return np.concatenate([np.full(3, float(stds[k]) ** 2) for k in order])


@dataclass
class GaussianBelief:
    """Mean vehicle state plus 18x18 covariance in minimal coordinates.

    The MRP block of ``cov`` expresses attitude uncertainty about ``mean.q``;
    the MRP coordinate of the mean itself is always zero (re-zeroed after
    every predict and correct).  ``cov`` must be symmetric; nothing checks it,
    and the filter factors it from its lower triangle.  ``jittered`` is set on a
    prediction whose prior covariance needed diagonal jitter to factor.
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

        ``stds`` maps exactly the keys rho, omega, pos, vel, tau_e, f_e to
        finite stds >= 0; anything else raises ``ValueError`` naming the key.
        """
        return cls(mean=mean, cov=np.diag(_std_variances(stds)))

    def minimal_mean(self) -> np.ndarray:
        return np.concatenate([np.zeros(3), self.mean.vector[4:]])

    def cov_diagonal(self) -> np.ndarray:
        """The 18 variances, a read-only view of ``cov``'s diagonal."""
        return self.cov.diagonal()


@dataclass
class SigmaPointSet:
    """2L+1 points of an L-dim Gaussian with their recombination weights and
    the weights' square roots as a column; ``jittered`` marks a covariance
    that needed diagonal jitter to factor."""

    points: np.ndarray   # (2L+1, L)
    weights: np.ndarray  # (2L+1,), read-only
    roots: np.ndarray    # (2L+1, 1), read-only
    jittered: bool = False


@lru_cache(maxsize=8)
def sigma_weights(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only recombination weights at :data:`KAPPA` and their square
    roots as a ``(2 dim + 1, 1)`` column, built once per ``dim``."""
    w = np.full(2 * dim + 1, 1.0 / (2.0 * (dim + KAPPA)))
    w[0] = KAPPA / (dim + KAPPA)
    roots = np.sqrt(w)[:, None]
    w.flags.writeable = roots.flags.writeable = False
    return w, roots


@lru_cache(maxsize=8)
def _stacking(dim: int) -> np.ndarray:
    """Read-only C of rows 0 and ``+-sqrt(L + KAPPA) e_j``: ``C @ chol'`` is the scaled columns to the bit."""
    c = np.sqrt(dim + KAPPA) * np.concatenate([np.zeros((1, dim)), np.eye(dim), -np.eye(dim)])
    c.flags.writeable = False
    return c


def generate_sigma_points(mean: np.ndarray, cov: np.ndarray) -> SigmaPointSet:
    """Points mean, mean +- sqrt(L + KAPPA) * columns of the Cholesky factor,
    which reads only the lower triangle of ``cov``.

    If the Cholesky decomposition fails, retries once after adding
    ``1e-9 * trace(cov)/L`` to the diagonal and marks the set ``jittered``; a
    second failure raises :class:`CovarianceNotPD` with the covariance
    attached.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
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

    points = mean + _stacking(dim) @ chol.T
    return SigmaPointSet(points, *sigma_weights(dim), jittered=jittered)


def recombine(points: np.ndarray, weights: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean and the rows ``S = roots * (points - mean)`` of the
    covariance ``S' S``, ``roots`` the weights' square roots (w > 0)."""
    mean = weights @ points
    return mean, roots * (points - mean)


def _mean_state(minimal: np.ndarray, reference_q) -> VehicleState:
    """One minimal-state row (18,) as the full state about ``reference_q``,
    a quaternion as floats; the attitude is composed on floats."""
    d_q = mrp_to_error_quat_floats(minimal[0:3].tolist())
    return VehicleState.from_vector(np.concatenate([quat_multiply_floats(d_q, reference_q), minimal[3:]]))


def _mrp_about(q, reference_q) -> tuple[float, float, float]:
    """MRP of the left-relative rotation from ``reference_q`` to ``q``, short
    arc, as in :func:`predict`; both one quaternion as floats."""
    w, x, y, z = reference_q
    d0, d1, d2, d3 = quat_multiply_floats(q, (w, -x, -y, -z))
    d = d0 - 1.0 if d0 < 0.0 else d0 + 1.0
    return (d1 / d, d2 / d, d3 / d)


def _noise_rows(q, noise: NoiseConfig, params: VehicleParams) -> np.ndarray:
    """The rows ``sqrt(Q) G'`` (12, 18) at the attitude ``q`` (floats).

    G is :func:`process_step`'s own noise gain: :attr:`VehicleParams.noise_map`
    takes the noise ``[tau_m, tau_e, ct, f_e]`` to ``[omega, pos, vel, tau_e,
    f_e]``, but its body-thrust rows hold only the ``-I`` of ``R + I``, so
    the thrust enters as ``-R(q)'`` times them.  No noise reaches the MRP.
    """
    gain = np.zeros((12, STATE_DIM))
    gain[:, 3:] = params.noise_map
    gain[6:9, 3:] = np.array(rotmat_body_to_global_floats(q)).T @ -params.noise_map[6:9]
    return noise.process_std[:, None] * gain


@np.errstate(over="ignore", invalid="ignore")
def predict(
    belief: GaussianBelief,
    rotor_speeds: np.ndarray,
    noise: NoiseConfig,
    params: VehicleParams,
) -> GaussianBelief:
    """Sigma-point propagation of the belief through the process model.

    The 37 points of the belief go through the deterministic model in one
    :func:`process_step` call.  The predicted covariance is ``S' S``, ``S``
    the 37 weighted deviations ``sqrt(w_i) (X_i - x)`` stacked over the 12
    rows ``sqrt(Q) G'`` (see :func:`_noise_rows`), Q the diagonal of the
    ``q_*`` variances of ``noise``; numpy forms it as a symmetric rank-k
    update, so it is exactly symmetric.  Given the state the noise enters
    linearly and never reaches q, so these are exactly the moments of the
    noise-augmented set.  The jitter rule of
    :func:`generate_sigma_points` sees the 18x18 prior's trace.  A non-finite
    predicted covariance, as an overflow leaves, raises :class:`CovarianceNotPD`.
    """
    prior_q = belief.mean.q
    sp = generate_sigma_points(belief.minimal_mean(), belief.cov)
    points = sp.points
    q = mrp_to_error_quat(points[:, 0:3]) @ quat_product_matrix(prior_q)
    propagated = process_step(VehicleState.from_vector(np.concatenate([q, points[:, 3:]], axis=1)),
                              rotor_speeds, None, params)

    # each point's attitude relative to the centre's, and its short-arc MRP
    # d_v / (d0 - 1) for d0 < 0, else d_v / (d0 + 1): the MRP of -d_q when
    # d0 < 0, so no NearSingularRotation guard can fire
    reference = propagated.q[0]
    d_q = propagated.q @ quat_product_matrix(quat_conjugate(reference))
    d0 = d_q[:, :1]
    minimal = np.concatenate([d_q[:, 1:] / (d0 + np.where(d0 < 0.0, -1.0, 1.0)), propagated.vector[:, 4:]], axis=1)
    mean_min, deviations = recombine(minimal, sp.weights, sp.roots)
    rows = np.concatenate([deviations, _noise_rows(prior_q.tolist(), noise, params)])
    cov = rows.T @ rows
    if not np.isfinite(cov).all():
        raise CovarianceNotPD("predicted covariance is not finite", cov)

    # the MRP coordinate is re-zeroed against the new reference quaternion;
    # the recombined covariance is kept unchanged (standard USQUE reset)
    return GaussianBelief(mean=_mean_state(mean_min, reference.tolist()), cov=cov, jittered=sp.jittered)


@np.errstate(over="ignore", invalid="ignore")
def correct(
    belief: GaussianBelief,
    measurement: PoseMeasurement,
    noise: NoiseConfig,
    gate_enabled: bool = False,
) -> GaussianBelief:
    """Posterior of a linear Kalman update from a 6-DoF pose measurement.

    The measurement is ``H x + v`` with H selecting ``[pos, d_rho]`` and
    ``v ~ N(0, R)``, R diagonal, so the cross covariance is ``P H'`` and the
    innovation covariance ``S = H P H' + R``.  One eigendecomposition
    ``S = V diag(l) V'`` serves the update: S with a non-finite entry,
    ``min(l) <= 0`` or ``max(l)/min(l) > 1e12`` raises
    :class:`InnovationCovarianceSingular`; ``W = V diag(l)^-1/2`` whitens the
    innovation ``nu`` into ``z = W' nu``, whose ``z . z`` is its Mahalanobis
    distance squared; with ``C = P H' W`` the mean moves by ``C z`` and the
    gain is ``K = C W' = P H' inv(S)``.  The covariance update is the Joseph
    form ``(I - K H) P (I - K H)' + K R K'``, symmetrized, which stays
    positive semidefinite under rounding; a non-finite one (an overflow, as
    in :func:`predict`) raises :class:`CovarianceNotPD`.

    The innovation is computed on floats: the position difference and the
    MRP of the left-relative quaternion between the measured and predicted
    attitude (short-arc sign).  With ``gate_enabled``, a Mahalanobis distance
    squared above :data:`GATE_THRESHOLD` raises :class:`MeasurementRejected`
    instead of updating.
    """
    meas_var = noise.meas_var
    cross_cov = belief.cov[:, _POSE_IDX]
    innovation_cov = cross_cov[_POSE_IDX]
    innovation_cov.flat[::7] += meas_var

    if not np.isfinite(innovation_cov).all():
        raise InnovationCovarianceSingular("predicted measurement covariance is not finite")
    eigvals, eigvecs = np.linalg.eigh(innovation_cov)
    low, high = float(eigvals[0]), float(eigvals[-1])
    if not low > 0.0 or high / low > _CONDITION_LIMIT:
        raise InnovationCovarianceSingular(
            f"predicted measurement covariance not positive definite or condition above {_CONDITION_LIMIT:g}"
        )
    whiten = eigvecs / np.sqrt(eigvals)

    mx, my, mz, *meas_q = measurement.vector.tolist()
    mean = belief.mean.vector.tolist()
    prior_q, (px, py, pz) = mean[0:4], mean[7:10]
    whitened = (mx - px, my - py, mz - pz, *_mrp_about(meas_q, prior_q)) @ whiten

    if gate_enabled:
        m2 = float(whitened @ whitened)
        if m2 > GATE_THRESHOLD:
            raise MeasurementRejected(m2)

    whitened_cross = cross_cov @ whiten
    delta = whitened_cross @ whitened
    gain = whitened_cross @ whiten.T
    i_kh = _IDENTITY - gain @ _H
    # R is diagonal, so K R K' is (K * r) K'
    joseph = i_kh @ belief.cov @ i_kh.T + (gain * meas_var) @ gain.T
    cov = 0.5 * (joseph + joseph.T)
    if not np.isfinite(cov).all():
        raise CovarianceNotPD("corrected covariance is not finite", cov)

    return GaussianBelief(mean=_mean_state(belief.minimal_mean() + delta, prior_q), cov=cov)


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
        return self.belief.mean.vector

    def cov_diagonal(self) -> np.ndarray:
        return self.belief.cov_diagonal()
