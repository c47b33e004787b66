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

The array functions broadcast over leading axes: quaternions are ``(..., 4)``
arrays, vectors ``(..., 3)``.  Every public operation returns its quaternion
at unit norm to machine precision: re-normalized, or, for
``mrp_to_error_quat``, unit by construction.  ``quat_product_matrix(b)`` is
the (4, 4) matrix M with ``a (x) b = a @ M``, so many quaternions compose
with one in a single matmul; that product is not renormalized, and is unit
to rounding for unit factors.

The Hamilton product and the rotation matrix are both bilinear in quaternion
components.  Each is computed as the 16 component products
``a[..., :, None] * b[..., None, :]`` (row ``4*i + j`` holds ``a_i * b_j``)
times a constant signed map, (16, 4) for the product and (16, 9) for the
matrix, so a whole sigma-point set costs the same few numpy calls as one
quaternion.  The maps sum their terms in another order than the written-out
component formulas, so results agree with those to a few ulp, not bitwise.

The ``*_floats`` functions are the written-out formulas on one quaternion or
vector held as Python floats, for the single-vehicle work (truth step,
controller, pose sensor, disturbances, momentum observer, and the filter's
own one-quaternion steps: the rotation in its process-noise map, its
posterior mean and its innovation), where one numpy call costs more than
the whole formula in floats.  They take any sequence of floats and return
tuples, and agree with the array kernels to a few ulp; the two share no
code, because each form is the slow one for the other's callers.

The filter's 37-row sigma-point sets use the array forms in two ways.
``estimator.predict`` calls ``mrp_to_error_quat`` and ``quat_product_matrix``
(with ``quat_conjugate`` on the centre's quaternion) on either side of
``process_step``; ``process_step`` calls no kernel here but folds the rotation
map, the product map and the zero-angle guard of ``quat_apply_body_rates``
into its own constant map (``rigid_body.VehicleParams.step_map``).  The other
array kernels (``quat_normalize``, ``quat_canonical``, ``quat_multiply``,
``quat_from_axis_angle``, ``quat_from_rotvec``, ``rotmat_body_to_global``,
``error_quat_to_mrp``, ``quat_apply_body_rates``, and ``cross3`` outside one
construction-time use in the fan model) are no longer on any per-step path:
they are the oracles that the tests hold the fused kernel and the float forms
to, through ``reference_process_step`` and the reference filter.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NearSingularRotation",
    "quat_normalize",
    "quat_canonical",
    "quat_multiply",
    "quat_product_matrix",
    "quat_conjugate",
    "quat_from_axis_angle",
    "quat_from_rotvec",
    "rotmat_body_to_global",
    "error_quat_to_mrp",
    "mrp_to_error_quat",
    "quat_apply_body_rates",
    "cross3_floats",
    "quat_multiply_floats",
    "rotmat_body_to_global_floats",
    "mrp_to_error_quat_floats",
    "quat_from_rotvec_floats",
    "quat_to_rotvec_floats",
]

# MRPs blow up as the error rotation approaches +-2*pi (dq0 -> -1); reject
# conversions inside this guard band instead of returning huge values.
_MRP_SINGULARITY_EPS = 1e-6
_TINY_HALF_ANGLE = 1e-20


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
# the product map as (4, 4, 4): [i, j, k] is the sign of a_i * b_j in component k
_QUAT_PRODUCT_3D = _frozen(_QUAT_PRODUCT.reshape(4, 4, 4))
_CONJUGATE = _frozen(np.array([1.0, -1.0, -1.0, -1.0]))
# cross3 operand orders: c_i = a_(i+1) b_(i+2) - a_(i+2) b_(i+1)
_NEXT = _frozen(np.array([1, 2, 0]))
_AFTER_NEXT = _frozen(np.array([2, 0, 1]))


class NearSingularRotation(ValueError):
    """Error-quaternion scalar part too close to -1 for an MRP conversion."""


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
    return (a.take(_NEXT, axis=-1) * b.take(_AFTER_NEXT, axis=-1)
            - a.take(_AFTER_NEXT, axis=-1) * b.take(_NEXT, axis=-1))


def _products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The 16 products a_i * b_j of two (..., 4) arrays, as (..., 16)."""
    p = a[..., :, None] * b[..., None, :]
    return p.reshape(p.shape[:-2] + (16,))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a (x) b: rotation ``b`` followed by perturbation ``a``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return quat_normalize(_products(a, b) @ _QUAT_PRODUCT)


def quat_product_matrix(b: np.ndarray) -> np.ndarray:
    """(4, 4) matrix M of the product with one quaternion ``b`` on the right,
    ``a (x) b = a @ M``, for composing many quaternions ``a`` with it.

    The product is not renormalized: two unit factors give a unit result to
    rounding.  Each entry of M is a component of ``b`` or its negative.
    """
    return np.asarray(b, dtype=float) @ _QUAT_PRODUCT_3D


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    """Conjugate (q0, -qv); the inverse for unit quaternions."""
    return np.asarray(q, dtype=float) * _CONJUGATE


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis, axis=-1, keepdims=True)
    return quat_from_rotvec(axis * angle)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Quaternion for a rotation vector (axis * angle), safe at zero angle."""
    return quat_normalize(_rotvec_quat(np.asarray(v, dtype=float)))


def _rotvec_quat(v: np.ndarray) -> np.ndarray:
    """:func:`quat_from_rotvec` before its renormalization (unit to rounding)."""
    half = 0.5 * np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))
    # sin(h)/h at h >= 1e-20: below that both round to h, so the ratio is
    # its limit 1 and there is no 0/0 at zero rotation
    h = np.maximum(half, _TINY_HALF_ANGLE)
    return np.concatenate([np.cos(half), 0.5 * v * (np.sin(h) / h)], axis=-1)


def rotmat_body_to_global(q: np.ndarray) -> np.ndarray:
    """Active rotation matrix of ``q``: maps body-frame vectors to global."""
    q = np.asarray(q, dtype=float)
    flat = _products(q, q) @ _ROTATION - _EYE9
    return flat.reshape(flat.shape[:-1] + (3, 3))


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
    ``omega``: ``q (x) quat_from_rotvec(omega * dt)``.

    The rate quaternion is not renormalized before the product, which
    renormalizes its result.
    """
    return quat_multiply(q, _rotvec_quat(np.asarray(omega, dtype=float) * dt))


# ---------------------------------------------------------------------------
# float forms: one quaternion or vector as Python floats

def cross3_floats(a, b) -> tuple[float, float, float]:
    """Cross product ``a x b`` of two 3-sequences, with ``cross3``'s operations."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def quat_multiply_floats(a, b) -> tuple[float, float, float, float]:
    """Hamilton product a (x) b, renormalized, like :func:`quat_multiply`."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    w = a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
    x = a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
    y = a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
    z = a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / norm, x / norm, y / norm, z / norm)


def rotmat_body_to_global_floats(q) -> tuple[tuple[float, float, float], ...]:
    """Rows of :func:`rotmat_body_to_global` for one quaternion."""
    w, x, y, z = q
    return (
        (2.0 * (w * w + x * x) - 1.0, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 2.0 * (w * w + y * y) - 1.0, 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 2.0 * (w * w + z * z) - 1.0),
    )


def mrp_to_error_quat_floats(rho) -> tuple[float, float, float, float]:
    """:func:`mrp_to_error_quat` of one MRP, with the same operations."""
    r0, r1, r2 = rho
    s = r0 * r0 + r1 * r1 + r2 * r2
    d = 1.0 + s
    return ((1.0 - s) / d, 2.0 * r0 / d, 2.0 * r1 / d, 2.0 * r2 / d)


def quat_from_rotvec_floats(v) -> tuple[float, float, float, float]:
    """:func:`quat_from_rotvec` of one rotation vector, with the same operations."""
    x, y, z = v
    half = 0.5 * math.sqrt(x * x + y * y + z * z)
    h = max(half, _TINY_HALF_ANGLE)
    ratio = math.sin(h) / h
    w, x, y, z = math.cos(half), 0.5 * x * ratio, 0.5 * y * ratio, 0.5 * z * ratio
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    return (w / norm, x / norm, y / norm, z / norm)


def quat_to_rotvec_floats(q) -> tuple[float, float, float]:
    """Rotation vector (axis * angle) of one unit quaternion, short arc, angle in [0, pi].

    Not renormalized: the axis and ``atan2`` angle do not depend on the norm.
    """
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    sin_half = math.sqrt(x * x + y * y + z * z)
    scale = 2.0 * math.atan2(sin_half, w) / sin_half if sin_half > 1e-12 else 2.0
    return (x * scale, y * scale, z * scale)
