"""Attitude algebra tests against an independent axis-angle oracle (scipy)."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from quadwrench import attitude as att
from quadwrench import estimator, observer, rigid_body, simulator
from quadwrench.simulator import Hover, RunSetup, Scenario, SteppedMass, run_scenario


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


def _unit(q):
    # rows too short to normalize accurately become a fixed unit quaternion
    q = np.where(np.linalg.norm(q, axis=-1, keepdims=True) >= 0.1, q, 0.5)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def unit_quats(shape):
    """Unit quaternions of ``shape`` (last axis 4), normalized from draws in
    [-1, 1]."""
    return hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)).map(_unit)


@st.composite
def unit_quat_pair(draw):
    shapes = draw(hnp.mutually_broadcastable_shapes(signature="(4),(4)->(4)", max_dims=3))
    return tuple(draw(unit_quats(shape)) for shape in shapes.input_shapes)


# The product maps sum the component products in another order than the
# written-out formulas; on unit quaternions the outputs are O(1), so the two
# agree within a few ulp of 1.
KERNEL_ATOL = 4 * np.finfo(float).eps
# A closed-loop run on the product maps against the same run on the formulas,
# speed quantization off (it can turn an ulp into a different speed level):
# truth and measurements within TRAJECTORY_ATOL, every logged estimator column
# within ESTIMATE_RTOL of its largest magnitude.
TRAJECTORY_ATOL = 1e-12
ESTIMATE_RTOL = 1e-11
IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _skew(v):
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def oracle_quat_multiply(a, b):
    """Hamilton product from its scalar/vector formula."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a0, av = a[..., :1], a[..., 1:]
    b0, bv = b[..., :1], b[..., 1:]
    scalar = a0 * b0 - np.sum(av * bv, axis=-1, keepdims=True)
    vector = a0 * bv + b0 * av + np.cross(av, bv)
    return att.quat_normalize(np.concatenate([scalar, vector], axis=-1))


def oracle_rotmat_body_to_global(q):
    """R = (2 q0^2 - 1) I + 2 qv qv' + 2 q0 [qv]x."""
    q = np.asarray(q, dtype=float)
    q0 = q[..., :1, None]
    qv = q[..., 1:]
    outer = qv[..., :, None] * qv[..., None, :]
    return (2.0 * q0 * q0 - 1.0) * np.eye(3) + 2.0 * outer + 2.0 * q0 * _skew(qv)


def oracle_mrp_to_error_quat(rho):
    """dq0 = (1 - s)/(1 + s), dqv = rho (1 + dq0), renormalized."""
    rho = np.asarray(rho, dtype=float)
    s = np.sum(rho * rho, axis=-1, keepdims=True)
    dq0 = (1.0 - s) / (1.0 + s)
    return att.quat_normalize(np.concatenate([dq0, rho * (1.0 + dq0)], axis=-1))


def quat_to_rotvec(q):
    """Rotation vector (axis * angle) of a unit quaternion, angle in [0, pi]:
    the array form, oracle of ``quat_to_rotvec_floats``."""
    q = att.quat_canonical(att.quat_normalize(q))
    qv = q[..., 1:]
    sin_half = np.sqrt(np.add.reduce(qv * qv, axis=-1, keepdims=True))
    angle = 2.0 * np.arctan2(sin_half, q[..., :1])
    scale = np.where(sin_half > 1e-12, angle / np.where(sin_half > 1e-12, sin_half, 1.0), 2.0)
    return qv * scale


def rate_transition_matrix(omega, dt):
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


class TestProductMapsMatchFormulas:
    """The product-map kernels against the written-out component formulas."""

    @given(unit_quat_pair())
    def test_quat_multiply(self, pair):
        a, b = pair
        got = att.quat_multiply(a, b)
        want = oracle_quat_multiply(a, b)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=KERNEL_ATOL)

    @given(hnp.array_shapes(min_dims=0, max_dims=2).flatmap(lambda shape: unit_quats(shape + (4,))))
    def test_rotmat_body_to_global(self, q):
        got = att.rotmat_body_to_global(q)
        want = oracle_rotmat_body_to_global(q)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=KERNEL_ATOL)

    @given(unit_quats((3, 4)), unit_quats((4,)))
    def test_quat_product_matrix(self, a, b):
        # entry (i, k) is +-b_(i xor k), exactly; the matmul is the product,
        # which the formula renormalizes and the matrix does not
        m = att.quat_product_matrix(b)
        np.testing.assert_array_equal(np.abs(m), np.abs(b)[np.bitwise_xor.outer(np.arange(4), np.arange(4))])
        np.testing.assert_allclose(a @ m, oracle_quat_multiply(a, b), rtol=0, atol=KERNEL_ATOL)

    # short-arc MRPs have |rho| <= 1; far beyond, the oracle's 1 + dq0 loses
    # digits to cancellation and it becomes the less accurate of the two
    @given(hnp.array_shapes(min_dims=0, max_dims=2).flatmap(
        lambda shape: hnp.arrays(np.float64, shape + (3,), elements=st.floats(-1.0, 1.0))))
    def test_mrp_to_error_quat(self, rho):
        got = att.mrp_to_error_quat(rho)
        want = oracle_mrp_to_error_quat(rho)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=KERNEL_ATOL)


def _within_unit_ball(rho):
    return rho / max(1.0, float(np.linalg.norm(rho)))


class TestFloatFormsMatchKernels:
    """The float forms on one quaternion or vector against the array kernels.

    Forms that repeat the kernel's operations (cross product, MRP to
    quaternion, the rotor map of ``rigid_body``) are bit-identical; the others
    sum in another order, or take ``math``'s sine and cosine, and agree within
    KERNEL_ATOL on unit inputs, of the angle's scale for the rotation vector.
    """

    @given(hnp.arrays(np.float64, (2, 3), elements=st.floats(-1.0, 1.0)))
    def test_cross3(self, pair):
        a, b = pair
        assert att.cross3_floats(a.tolist(), b.tolist()) == tuple(att.cross3(a, b).tolist())

    # negative scalar parts: the product of two and of one
    @example(np.array([[-0.5, 0.5, 0.5, 0.5], [-0.6, 0.0, 0.8, 0.0]]))
    @example(np.array([[-0.5, 0.5, 0.5, 0.5], [0.6, 0.0, 0.8, 0.0]]))
    @given(unit_quats((2, 4)))
    def test_quat_multiply(self, pair):
        a, b = pair
        got = att.quat_multiply_floats(a.tolist(), b.tolist())
        np.testing.assert_allclose(got, att.quat_multiply(a, b), rtol=0, atol=KERNEL_ATOL)

    @example(np.array([-0.5, 0.5, -0.5, 0.5]))
    @given(unit_quats((4,)))
    def test_rotmat_body_to_global(self, q):
        got = att.rotmat_body_to_global_floats(q.tolist())
        np.testing.assert_allclose(got, att.rotmat_body_to_global(q), rtol=0, atol=KERNEL_ATOL)

    # the short-arc MRPs, |rho| <= 1
    @example(np.zeros(3))
    @example(np.array([0.0, -1.0, 0.0]))
    @given(hnp.arrays(np.float64, (3,), elements=st.floats(-1.0, 1.0)).map(_within_unit_ball))
    def test_mrp_to_error_quat(self, rho):
        assert att.mrp_to_error_quat_floats(rho.tolist()) == tuple(att.mrp_to_error_quat(rho).tolist())

    # a half turn, and a scalar part just clear of the guard band at -1
    @example(np.array([0.0, 0.6, 0.0, 0.8]))
    @example(att.quat_normalize([-1.0 + 2e-6, 2e-3, 0.0, 0.0]))
    @given(unit_quats((4,)).filter(lambda dq: dq[0] > -1.0 + 1e-6))
    def test_error_quat_to_mrp(self, dq):
        assert att.error_quat_to_mrp_floats(dq.tolist()) == tuple(att.error_quat_to_mrp(dq).tolist())

    def test_error_quat_to_mrp_rejects_the_same_near_singular_rotation(self):
        almost_2pi = att.quat_normalize([-1.0 + 1e-9, 1e-6, 0.0, 0.0])
        with pytest.raises(att.NearSingularRotation):
            att.error_quat_to_mrp_floats(almost_2pi.tolist())

    # the zero rotation of either sign, a negative scalar part (the short-arc
    # flip) and a half turn
    @example(IDENTITY)
    @example(-IDENTITY)
    @example(np.array([-0.6, 0.0, 0.8, 0.0]))
    @example(np.array([0.0, 0.6, 0.0, 0.8]))
    @given(unit_quats((4,)))
    def test_quat_to_rotvec(self, q):
        # entries reach pi, and the kernel renormalizes first: the bound is
        # KERNEL_ATOL of the angle's scale
        want = quat_to_rotvec(q)
        got = att.quat_to_rotvec_floats(q.tolist())
        np.testing.assert_allclose(got, want, rtol=0, atol=KERNEL_ATOL * max(1.0, np.linalg.norm(want)))

    # the zero rotation (the half-angle guard), squares that underflow to a
    # zero angle, and a half turn
    @example(np.zeros(3))
    @example(np.full(3, 1e-170))
    @example(np.array([0.0, 0.0, np.pi]))
    @given(hnp.arrays(np.float64, (3,), elements=st.floats(-4.0, 4.0)))
    def test_quat_from_rotvec(self, v):
        # the same operations; only the sine and cosine may round apart
        got = att.quat_from_rotvec_floats(v.tolist())
        np.testing.assert_allclose(got, att.quat_from_rotvec(v), rtol=0, atol=KERNEL_ATOL)

    # a vehicle whose motors all differ, so a motor or output taken out of
    # order shows; stopped motors and the limit
    ROTOR_PARAMS = rigid_body.VehicleParams(thrust_coeff=[3.3e-7, 3.5e-7, 3.6e-7, 3.8e-7],
                                            drag_coeff=[5.4e-9, 5.6e-9, 5.7e-9, 5.9e-9])

    @example(np.zeros(4))
    @example(np.full(4, 2550.0))
    @given(hnp.arrays(np.float64, (4,), elements=st.floats(0.0, 2550.0)))
    def test_rotor_wrench(self, speeds):
        for params in (rigid_body.VehicleParams(), self.ROTOR_PARAMS):
            got = np.array(rigid_body.rotor_wrench_floats(params, speeds.tolist()))
            assert got.tobytes() == rigid_body.rotor_wrench(params, speeds).tobytes()


class TestQuatMultiply:
    def test_identity(self):
        q = oracle_quat([0, 1, 0], 0.7)
        np.testing.assert_allclose(att.quat_multiply(IDENTITY, q), q, atol=1e-12)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        for q in random_unit_quats(rng, 20):
            prod = att.quat_multiply(q, att.quat_conjugate(q))
            np.testing.assert_allclose(att.quat_canonical(prod), IDENTITY, atol=1e-12)

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
        np.testing.assert_allclose(att.quat_conjugate(IDENTITY), IDENTITY)

    def test_z_rotation(self):
        c = np.cos(np.pi / 4)
        s = np.sin(np.pi / 4)
        np.testing.assert_allclose(att.quat_conjugate([c, 0, 0, s]), [c, 0, 0, -s])


class TestRotationMatrix:
    def test_identity(self):
        np.testing.assert_allclose(att.rotmat_body_to_global(IDENTITY), np.eye(3), atol=1e-12)

    def test_90deg_z_maps_body_x_to_global_y(self):
        q = oracle_quat([0, 0, 1], np.pi / 2)
        R_bg = att.rotmat_body_to_global(q)
        np.testing.assert_allclose(R_bg @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(R_bg.T @ [0, 1, 0], [1, 0, 0], atol=1e-12)

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
        np.testing.assert_allclose(att.error_quat_to_mrp(IDENTITY), np.zeros(3))
        np.testing.assert_allclose(att.mrp_to_error_quat(np.zeros(3)), IDENTITY)

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
        np.testing.assert_allclose(rate_transition_matrix(np.zeros(3), 0.005), np.eye(4), atol=1e-12)

    def test_z_spin_matches_quat_multiply(self):
        omega = np.array([0.0, 0.0, 2.0])
        dt = 0.005
        rng = np.random.default_rng(10)
        q = random_unit_quats(rng, 1)[0]
        dq = oracle_quat([0, 0, 1], 0.01)  # theta = |omega| * dt
        np.testing.assert_allclose(
            rate_transition_matrix(omega, dt) @ q,
            att.quat_multiply(q, dq),
            atol=1e-12,
        )

    def test_orthogonal_preserves_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            omega = rng.standard_normal(3) * 10.0
            M = rate_transition_matrix(omega, 0.005)
            np.testing.assert_allclose(M.T @ M, np.eye(4), atol=1e-12)

    def test_body_frame_rotation_against_oracle(self):
        # 1000 random (omega, dt): applying the transition must equal rotating
        # the body frame by theta = |omega|*dt about omega/|omega|
        rng = np.random.default_rng(12)
        for _ in range(1000):
            omega = rng.standard_normal(3) * rng.uniform(0.0, 20.0)
            dt = rng.uniform(1e-4, 0.05)
            q = random_unit_quats(rng, 1)[0]
            q_next = rate_transition_matrix(omega, dt) @ q
            R_next = att.rotmat_body_to_global(att.quat_normalize(q_next))
            R_oracle = att.rotmat_body_to_global(q) @ Rotation.from_rotvec(omega * dt).as_matrix()
            np.testing.assert_allclose(R_next, R_oracle, atol=1e-9)

    def test_batched_rate_application_matches_matrix(self):
        rng = np.random.default_rng(13)
        q = random_unit_quats(rng, 40)
        omega = rng.standard_normal((40, 3)) * 5.0
        batched = att.quat_apply_body_rates(q, omega, 0.005)
        for i in range(40):
            single = rate_transition_matrix(omega[i], 0.005) @ q[i]
            np.testing.assert_allclose(batched[i], att.quat_normalize(single), atol=1e-12)


class TestRotvec:
    def test_round_trip(self):
        # rotation vectors with |v| < pi, where the map is a bijection
        rng = np.random.default_rng(14)
        v = rng.standard_normal((100, 3))
        v *= rng.uniform(0.0, 0.95 * np.pi, size=(100, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
        np.testing.assert_allclose(quat_to_rotvec(att.quat_from_rotvec(v)), v, atol=1e-9)

    def test_zero(self):
        np.testing.assert_allclose(att.quat_from_rotvec(np.zeros(3)), IDENTITY)
        np.testing.assert_allclose(quat_to_rotvec(IDENTITY), np.zeros(3))


def test_stepped_mass_run_matches_formula_kernels(monkeypatch):
    def run():
        scenario = Scenario(duration_s=2.0, seed=5, trajectory=Hover(),
                            disturbance=SteppedMass(offset_body=[0.05, 0.0, 0.0], onset_s=1.0))
        setup = RunSetup(estimators=("usque", "observer"), quant_bits=0)
        return run_scenario(scenario, setup)

    got = run()
    oracles = {
        att.quat_multiply: oracle_quat_multiply,
        att.rotmat_body_to_global: oracle_rotmat_body_to_global,
        att.mrp_to_error_quat: oracle_mrp_to_error_quat,
    }
    # every module that binds a kernel under its own name, attitude included
    for module in (att, rigid_body, estimator, observer, simulator):
        for name, fn in list(vars(module).items()):
            if callable(fn) and fn in oracles:
                monkeypatch.setattr(module, name, oracles[fn])
    want = run()

    np.testing.assert_allclose(got.truth, want.truth, rtol=0, atol=TRAJECTORY_ATOL)
    np.testing.assert_allclose(got.meas, want.meas, rtol=0, atol=TRAJECTORY_ATOL)
    for g, w in ((got.estimates["usque"], want.estimates["usque"]),
                 (got.cov_diags["usque"], want.cov_diags["usque"]),
                 (got.estimates["observer"], want.estimates["observer"])):
        drift = np.abs(g - w).max(axis=0)
        assert np.all(drift <= ESTIMATE_RTOL * np.abs(w).max(axis=0))
