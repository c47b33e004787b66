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
arrays, vectors ``(..., 3)``.  Every public operation returns its quaternion
at unit norm to machine precision: re-normalized, or, for
``mrp_to_error_quat``, unit by construction.

The Hamilton product and the rotation matrix are both bilinear in quaternion
components.  Each is computed as the 16 component products
``a[..., :, None] * b[..., None, :]`` (row ``4*i + j`` holds ``a_i * b_j``)
times a constant signed map, (16, 4) for the product and (16, 9) for the
matrix, so a whole sigma-point set costs the same few numpy calls as one
quaternion.  The maps sum their terms in another order than the written-out
component formulas, so results agree with those to a few ulp, not bitwise.
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
    "quat_apply_body_rates",
]

# MRPs blow up as the error rotation approaches +-2*pi (dq0 -> -1); reject
# conversions inside this guard band instead of returning huge values.
_MRP_SINGULARITY_EPS = 1e-6


def _product_map(columns: list[str]) -> np.ndarray:
    """(16, len(columns)) map of the component products.

    Column ``k`` sums the signed terms of ``columns[k]``; ``"-12"`` stands for
    ``-a_1 * b_2``, the product in row ``4*1 + 2``.
    """
    out = np.zeros((16, len(columns)))
    for k, terms in enumerate(columns):
        for term in terms.split():
            out[4 * int(term[1]) + int(term[2]), k] = 1.0 if term[0] == "+" else -1.0
    return out


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# Hamilton product a (x) b, scalar-first
_QUAT_PRODUCT = _frozen(_product_map([
    "+00 -11 -22 -33",
    "+01 +10 +23 -32",
    "+02 -13 +20 +31",
    "+03 +12 -21 +30",
]))
# row-major R = (2 q0^2 - 1) I + 2 qv qv' + 2 q0 [qv]x from the products
# q_i * q_j; _EYE9 is the identity the map leaves on the diagonal
_ROTATION = _frozen(2.0 * _product_map([
    "+00 +11", "+12 -03", "+13 +02",
    "+12 +03", "+00 +22", "+23 -01",
    "+13 -02", "+23 +01", "+00 +33",
]))
_EYE9 = _frozen(np.eye(3).ravel())
_CONJUGATE = _frozen(np.array([1.0, -1.0, -1.0, -1.0]))
# cross3 operand orders: c_i = a_(i+1) b_(i+2) - a_(i+2) b_(i+1)
_NEXT = _frozen(np.array([1, 2, 0]))
_AFTER_NEXT = _frozen(np.array([2, 0, 1]))


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
    return a[..., _NEXT] * b[..., _AFTER_NEXT] - a[..., _AFTER_NEXT] * b[..., _NEXT]


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 16 products a_i * b_j of two (..., 4) arrays, as (..., 16)."""
    p = a[..., :, None] * b[..., None, :]
    return p.reshape(p.shape[:-2] + (16,))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b: rotation ``b`` followed by perturbation ``a``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return quat_normalize(_products(a, b) @ _QUAT_PRODUCT)


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate (q0, -qv); the inverse for unit quaternions."""
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    return quat_from_rotvec(axis * angle)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Quaternion for a rotation vector (axis * angle), safe at zero angle."""
    v = np.asarray(v, dtype=float)
    angle = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    half = 0.5 * angle
    # sin(x)/x via np.sinc avoids the 0/0 at zero rotation
    vector = 0.5 * v * np.sinc(half / np.pi)
    scalar = np.cos(half)
    return quat_normalize(np.concatenate([scalar, vector], axis=-1))


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a unit quaternion, angle in [0, pi]."""
    q = quat_canonical(quat_normalize(q))
    qv = q[..., 1:]
    sin_half = np.sqrt(np.add.reduce(qv * qv, axis=-1, keepdims=True))
    angle = 2.0 * np.arctan2(sin_half, q[..., :1])
    scale = np.where(sin_half > 1e-12, angle / np.where(sin_half > 1e-12, sin_half, 1.0), 2.0)
    return qv * scale


def rotmat_body_to_global(q: np.ndarray) -> np.ndarray:
    """Active rotation matrix of ``q``: maps body-frame vectors to global."""
    q = np.asarray(q, dtype=float)
    flat = _products(q, q) @ _ROTATION - _EYE9
    return flat.reshape(flat.shape[:-1] + (3, 3))


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
    """Inverse of :func:`error_quat_to_mrp` on its domain.

    ``[1 - s, 2 rho] / (1 + s)`` with ``s = |rho|^2`` is unit norm by
    construction, since ``(1 - s)^2 + 4 s = (1 + s)^2``.
    """
    rho = np.asarray(rho, dtype=float)
    s = np.add.reduce(rho * rho, axis=-1, keepdims=True)
    return np.concatenate([1.0 - s, 2.0 * rho], axis=-1) / (1.0 + s)


def quat_apply_body_rates(q: np.ndarray, omega: np.ndarray, dt: float) -> np.ndarray:
    """Rotate ``q`` in its body frame by the angle ``|omega| * dt`` about
    ``omega``: ``q (x) quat_from_rotvec(omega * dt)``."""
    return quat_multiply(q, quat_from_rotvec(np.asarray(omega, dtype=float) * dt))
