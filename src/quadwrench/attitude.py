"""Quaternion and Modified Rodrigues Parameter (MRP) algebra.

Conventions used throughout the package:

* Quaternions are scalar-first, ``q = [q0, qx, qy, qz]``, unit norm, with the
  Hamilton product for composition.  ``q`` encodes the attitude of the body
  frame relative to the global frame: a rotation by angle ``theta`` about the
  unit axis ``u`` is ``q = [cos(theta/2), u*sin(theta/2)]``.
* ``rotmat_body_to_global(q)`` is the active rotation matrix (body axes
  expressed in global coordinates); its transpose maps global vectors into
  body coordinates.
* Attitude perturbations compose on the left, ``q_perturbed = dq (x) q``, and
  are parametrized for filtering as MRPs, ``rho = dq_v / (1 + dq_0)``, which
  are singular only for rotations of +-2*pi.

All functions broadcast over leading axes: quaternions are ``(..., 4)``
arrays, vectors ``(..., 3)``.  Every public operation re-normalizes its
quaternion output, so unit norm holds to machine precision after each call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NearSingularRotation",
    "quat_identity",
    "quat_normalize",
    "quat_canonical",
    "quat_multiply",
    "quat_conjugate",
    "quat_from_axis_angle",
    "quat_from_rotvec",
    "quat_to_rotvec",
    "rotmat_body_to_global",
    "rotmat_global_to_body",
    "error_quat_to_mrp",
    "mrp_to_error_quat",
    "rate_transition_matrix",
    "quat_apply_body_rates",
]

# MRPs blow up as the error rotation approaches +-2*pi (dq0 -> -1); reject
# conversions inside this guard band instead of returning huge values.
_MRP_SINGULARITY_EPS = 1e-6
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class NearSingularRotation(ValueError):
    """Error-quaternion scalar part too close to -1 for an MRP conversion."""


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    # the sum-of-squares form np.linalg.norm evaluates, without its wrapper
    return q / np.sqrt(np.add.reduce(q * q, axis=-1, keepdims=True))


def quat_canonical(q: np.ndarray) -> np.ndarray:
    """Resolve the double cover: flip sign so the scalar part is >= 0.

    Apply to *relative* quaternions before an MRP conversion so perturbations
    stay on the short arc.
    """
    q = np.asarray(q, dtype=float)
    sign = np.where(q[..., :1] < 0.0, -1.0, 1.0)
    return q * sign


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-wise cross product of (..., 3) arrays.

    Same operations in the same order as ``np.cross``, so the result is
    bit-identical, without its per-call dispatch and axis handling.
    """
    out = np.empty(np.broadcast(a, b).shape)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b: rotation ``b`` followed by perturbation ``a``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, av = a[..., :1], a[..., 1:]
    b0, bv = b[..., :1], b[..., 1:]
    scalar = a0 * b0 - np.add.reduce(av * bv, axis=-1, keepdims=True)
    vector = a0 * bv + b0 * av + cross3(av, bv)
    return quat_normalize(np.concatenate([scalar, vector], axis=-1))


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate (q0, -qv); the inverse for unit quaternions."""
    q = np.asarray(q, dtype=float)
    return np.concatenate([q[..., :1], -q[..., 1:]], axis=-1)


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    return quat_from_rotvec(axis * angle)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Quaternion for a rotation vector (axis * angle), safe at zero angle."""
    v = np.asarray(v, dtype=float)
    angle = np.linalg.norm(v, axis=-1, keepdims=True)
    half = 0.5 * angle
    # sin(x)/x via np.sinc avoids the 0/0 at zero rotation
    vector = 0.5 * v * np.sinc(half / np.pi)
    scalar = np.cos(half)
    return quat_normalize(np.concatenate([scalar, vector], axis=-1))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a unit quaternion, angle in [0, pi]."""
    q = quat_canonical(quat_normalize(q))
    sin_half = np.linalg.norm(q[..., 1:], axis=-1, keepdims=True)
    angle = 2.0 * np.arctan2(sin_half, q[..., :1])
    scale = np.where(sin_half > 1e-12, angle / np.where(sin_half > 1e-12, sin_half, 1.0), 2.0)
    return q[..., 1:] * scale


def _skew(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def rotmat_body_to_global(q: np.ndarray) -> np.ndarray:
    """Active rotation matrix of ``q``: maps body-frame vectors to global."""
    q = np.asarray(q, dtype=float)
    q0 = q[..., :1, None]
    qv = q[..., 1:]
    outer = qv[..., :, None] * qv[..., None, :]
    return (2.0 * q0 * q0 - 1.0) * _EYE3 + 2.0 * outer + 2.0 * q0 * _skew(qv)


def rotmat_global_to_body(q: np.ndarray) -> np.ndarray:
    """Transpose orientation: maps global-frame vectors into body coordinates."""
    return np.swapaxes(rotmat_body_to_global(q), -1, -2)


def error_quat_to_mrp(dq: np.ndarray) -> np.ndarray:
    """MRP of an error quaternion: rho = dq_v / (1 + dq_0).

    ``|rho| = tan(theta/4)``.  Raises :class:`NearSingularRotation` when
    ``dq_0 <= -1 + 1e-6`` (perturbation of about +-2*pi), which is outside the
    filter's operating regime.
    """
    dq = np.asarray(dq, dtype=float)
    dq0 = dq[..., :1]
    if np.any(dq0 <= -1.0 + _MRP_SINGULARITY_EPS):
        raise NearSingularRotation(
            "error quaternion scalar part %r too close to -1 (rotation near +-2*pi)"
            % float(np.min(dq0))
        )
    return dq[..., 1:] / (1.0 + dq0)


def mrp_to_error_quat(rho: np.ndarray) -> np.ndarray:
    """Inverse of :func:`error_quat_to_mrp` on its domain; always unit norm."""
    rho = np.asarray(rho, dtype=float)
    s = np.add.reduce(rho * rho, axis=-1, keepdims=True)
    dq0 = (1.0 - s) / (1.0 + s)
    dqv = rho * (1.0 + dq0)
    return quat_normalize(np.concatenate([dq0, dqv], axis=-1))


def rate_transition_matrix(omega: np.ndarray, dt: float) -> np.ndarray:
    """Orthogonal 4x4 matrix propagating a quaternion under body rates.

    ``rate_transition_matrix(omega, dt) @ q`` equals the body-frame rotation of
    ``q`` by angle ``|omega|*dt`` about ``omega/|omega|``, i.e.
    ``quat_multiply(q, quat_from_rotvec(omega*dt))``.  A series-expanded branch
    below ``|omega|*dt < 1e-8`` avoids the 0/0 at zero rate.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    omega = np.asarray(omega, dtype=float)
    angle = np.linalg.norm(omega) * dt
    c = np.cos(0.5 * angle)
    if angle < 1e-8:
        psi = 0.5 * dt * omega
    else:
        psi = np.sin(0.5 * angle) * omega / np.linalg.norm(omega)
    out = np.empty((4, 4))
    out[0, 0] = c
    out[0, 1:] = -psi
    out[1:, 0] = psi
    out[1:, 1:] = c * np.eye(3) - _skew(psi)
    return out


def quat_apply_body_rates(q: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Rotate ``q`` by body rates over one step (batched form of the 4x4 map)."""
    return quat_multiply(q, quat_from_rotvec(np.asarray(omega, dtype=float) * dt))
