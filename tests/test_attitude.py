"""Attitude algebra tests against an independent axis-angle oracle (scipy)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from quadwrench import attitude as att


def oracle_quat(axis, angle):
    """Scalar-first unit quaternion from scipy's rotvec representation."""
    r = Rotation.from_rotvec(np.asarray(axis, dtype=float) * angle)
    x, y, z, w = r.as_quat()
    return np.array([w, x, y, z])


def oracle_matrix(axis, angle):
    return Rotation.from_rotvec(np.asarray(axis, dtype=float) * angle).as_matrix()


def random_unit_quats(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def finite_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def broadcast_pair(draw, width):
    shapes = draw(hnp.mutually_broadcastable_shapes(signature=f"({width}),({width})->({width})"))
    return tuple(draw(finite_arrays(shape)) for shape in shapes.input_shapes)


class TestFastKernelsMatchNumpy:
    """The hand-written kernels repeat numpy's operations, so they are
    bit-identical to it, overflow to inf and 0/0 to nan included."""

    @given(broadcast_pair(3))
    def test_cross3_is_np_cross(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(att.cross3(a, b), np.cross(a, b), strict=True)

    @given(hnp.array_shapes(min_dims=1, max_dims=3).flatmap(
        lambda shape: finite_arrays(shape[:-1] + (4,))))
    def test_quat_normalize_is_norm_division(self, q):
        with np.errstate(all="ignore"):
            want = q / np.linalg.norm(q, axis=-1, keepdims=True)
            np.testing.assert_array_equal(att.quat_normalize(q), want, strict=True)


class TestQuatMultiply:
    def test_identity(self):
        q = oracle_quat([0, 1, 0], 0.7)
        np.testing.assert_allclose(att.quat_multiply(att.quat_identity(), q), q, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        for q in random_unit_quats(rng, 20):
            prod = att.quat_multiply(q, att.quat_conjugate(q))
            np.testing.assert_allclose(att.quat_canonical(prod), att.quat_identity(), atol=1e-12)

    def test_compose_two_90deg_z(self):
        # axis-angle oracle: Rz(90) * Rz(90) = Rz(180) -> q = (0, 0, 0, 1)
        q90 = oracle_quat([0, 0, 1], np.pi / 2)
        q180 = att.quat_multiply(q90, q90)
        np.testing.assert_allclose(q180, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_rotmat_homomorphism(self):
        rng = np.random.default_rng(2)
        a = random_unit_quats(rng, 50)
        b = random_unit_quats(rng, 50)
        lhs = att.rotmat_body_to_global(att.quat_multiply(a, b))
        rhs = att.rotmat_body_to_global(a) @ att.rotmat_body_to_global(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_unit_norm_preserved(self):
        rng = np.random.default_rng(3)
        a = random_unit_quats(rng, 100)
        b = random_unit_quats(rng, 100)
        norms = np.linalg.norm(att.quat_multiply(a, b), axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)


class TestQuatConjugate:
    def test_identity(self):
        np.testing.assert_allclose(att.quat_conjugate(att.quat_identity()), att.quat_identity())

    def test_z_rotation(self):
        c = np.cos(np.pi / 4)
        s = np.sin(np.pi / 4)
        np.testing.assert_allclose(att.quat_conjugate([c, 0, 0, s]), [c, 0, 0, -s])


class TestRotationMatrix:
    def test_identity(self):
        np.testing.assert_allclose(att.rotmat_body_to_global(att.quat_identity()), np.eye(3), atol=1e-12)

    def test_90deg_z_maps_body_x_to_global_y(self):
        q = oracle_quat([0, 0, 1], np.pi / 2)
        R_bg = att.rotmat_body_to_global(q)
        np.testing.assert_allclose(R_bg @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(att.rotmat_global_to_body(q) @ [0, 1, 0], [1, 0, 0], atol=1e-12)

    def test_matches_oracle_on_random_rotations(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(-np.pi, np.pi)
            np.testing.assert_allclose(
                att.rotmat_body_to_global(oracle_quat(axis, angle)),
                oracle_matrix(axis, angle),
                atol=1e-9,
            )

    def test_double_cover(self):
        rng = np.random.default_rng(5)
        q = random_unit_quats(rng, 20)
        np.testing.assert_allclose(
            att.rotmat_body_to_global(q), att.rotmat_body_to_global(-q), atol=1e-12
        )

    def test_orthonormal_det_plus_one(self):
        rng = np.random.default_rng(6)
        R = att.rotmat_body_to_global(random_unit_quats(rng, 50))
        np.testing.assert_allclose(R @ np.swapaxes(R, -1, -2), np.broadcast_to(np.eye(3), R.shape), atol=1e-9)
        np.testing.assert_allclose(np.linalg.det(R), 1.0, atol=1e-9)


class TestMrpConversions:
    def test_identity(self):
        np.testing.assert_allclose(att.error_quat_to_mrp(att.quat_identity()), np.zeros(3))
        np.testing.assert_allclose(att.mrp_to_error_quat(np.zeros(3)), att.quat_identity())

    def test_180deg_about_x(self):
        # tan(pi/4) = 1, forced by the formula
        np.testing.assert_allclose(att.error_quat_to_mrp([0.0, 1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(att.mrp_to_error_quat([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0, 0.0], atol=1e-12)

    def test_90deg_about_z(self):
        # evaluate rho = qv/(1+q0) by hand: tan(22.5 deg) on the z component
        q = oracle_quat([0, 0, 1], np.pi / 2)
        np.testing.assert_allclose(
            att.error_quat_to_mrp(q), [0.0, 0.0, np.tan(np.pi / 8)], atol=1e-12
        )

    def test_mrp_norm_is_tan_quarter_angle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, 1.9 * np.pi)
            rho = att.error_quat_to_mrp(oracle_quat(axis, angle))
            assert np.linalg.norm(rho) == pytest.approx(np.tan(angle / 4.0), abs=1e-9)

    def test_round_trip_quat_first(self):
        rng = np.random.default_rng(8)
        q = att.quat_canonical(random_unit_quats(rng, 200))
        np.testing.assert_allclose(
            att.mrp_to_error_quat(att.error_quat_to_mrp(q)), q, atol=1e-12
        )

    def test_round_trip_mrp_first(self):
        # bijection for |rho| <= 10
        rng = np.random.default_rng(9)
        rho = rng.uniform(-1, 1, size=(200, 3))
        rho *= (rng.uniform(0, 10, size=(200, 1)) / np.linalg.norm(rho, axis=1, keepdims=True))
        np.testing.assert_allclose(
            att.error_quat_to_mrp(att.mrp_to_error_quat(rho)), rho, atol=1e-12
        )

    def test_near_singular_rejected(self):
        almost_2pi = att.quat_normalize([-1.0 + 1e-9, 1e-6, 0.0, 0.0])
        with pytest.raises(att.NearSingularRotation):
            att.error_quat_to_mrp(almost_2pi)


class TestRateTransition:
    def test_zero_rate_is_identity(self):
        np.testing.assert_allclose(att.rate_transition_matrix(np.zeros(3), 0.005), np.eye(4), atol=1e-12)

    def test_z_spin_matches_quat_multiply(self):
        omega = np.array([0.0, 0.0, 2.0])
        dt = 0.005
        rng = np.random.default_rng(10)
        q = random_unit_quats(rng, 1)[0]
        dq = oracle_quat([0, 0, 1], 0.01)  # theta = |omega| * dt
        np.testing.assert_allclose(
            att.rate_transition_matrix(omega, dt) @ q,
            att.quat_multiply(q, dq),
            atol=1e-12,
        )

    def test_orthogonal_preserves_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            omega = rng.standard_normal(3) * 10.0
            M = att.rate_transition_matrix(omega, 0.005)
            np.testing.assert_allclose(M.T @ M, np.eye(4), atol=1e-12)

    def test_body_frame_rotation_against_oracle(self):
        # 1000 random (omega, dt): applying the transition must equal rotating
        # the body frame by theta = |omega|*dt about omega/|omega|
        rng = np.random.default_rng(12)
        for _ in range(1000):
            omega = rng.standard_normal(3) * rng.uniform(0.0, 20.0)
            dt = rng.uniform(1e-4, 0.05)
            q = random_unit_quats(rng, 1)[0]
            q_next = att.rate_transition_matrix(omega, dt) @ q
            R_next = att.rotmat_body_to_global(att.quat_normalize(q_next))
            R_oracle = att.rotmat_body_to_global(q) @ Rotation.from_rotvec(omega * dt).as_matrix()
            np.testing.assert_allclose(R_next, R_oracle, atol=1e-9)

    def test_batched_rate_application_matches_matrix(self):
        rng = np.random.default_rng(13)
        q = random_unit_quats(rng, 40)
        omega = rng.standard_normal((40, 3)) * 5.0
        batched = att.quat_apply_body_rates(q, omega, 0.005)
        for i in range(40):
            single = att.rate_transition_matrix(omega[i], 0.005) @ q[i]
            np.testing.assert_allclose(batched[i], att.quat_normalize(single), atol=1e-12)


class TestRotvec:
    def test_round_trip(self):
        # rotation vectors with |v| < pi, where the map is a bijection
        rng = np.random.default_rng(14)
        v = rng.standard_normal((100, 3))
        v *= rng.uniform(0.0, 0.95 * np.pi, size=(100, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        np.testing.assert_allclose(att.quat_to_rotvec(att.quat_from_rotvec(v)), v, atol=1e-9)

    def test_zero(self):
        np.testing.assert_allclose(att.quat_from_rotvec(np.zeros(3)), att.quat_identity())
        np.testing.assert_allclose(att.quat_to_rotvec(att.quat_identity()), np.zeros(3))
