"""Process-model tests: hand values, physical limits, Monte-Carlo moments."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.transform import Rotation

from quadwrench import attitude as att
from quadwrench.logio import STATE_FIELDS
from quadwrench.rigid_body import (
    NoiseConfig,
    VehicleParams,
    VehicleState,
    process_step,
    rotor_wrench,
)


EPS = np.finfo(float).eps
# process_step against reference_process_step: per entry of the state record,
# KERNEL_RTOL of the largest term the entry sums.  That is max(1, |entry|),
# and for the body rates also the gyroscopic scale dt |omega|^2 cond(J), the
# bound on the gyroscopic term dt inv(J) (omega x J omega): the fused kernel
# sums that term from the products omega_i omega_j in another order, a few
# ulp of it, and the scale is ~50 rad/s at |omega_i| = 50 rad/s, far above
# the rate it changes.  Over 8000 random draws, half of them 16-row
# batches, the error reached 3 ulp of that scale.
KERNEL_RTOL = 8 * EPS
FULL_INERTIA = [[3.4e-3, 1e-4, -2e-4], [1e-4, 3.5e-3, 5e-5], [-2e-4, 5e-5, 4.7e-3]]


@pytest.fixture
def params():
    return VehicleParams()


def hover_speeds(params):
    """Equal motor speeds whose thrust balances gravity, sqrt(m g / sum k)."""
    return np.full(4, np.sqrt(params.mass * params.gravity[2] / np.sum(params.thrust_coeff)))


def process_cov(noise):
    """The diagonal 12x12 process-noise covariance of ``noise``, ordered like
    ``process_step``'s noise block ``[tau_m, tau_e, ct, f_e]``."""
    return np.diag(np.concatenate([noise.q_tau_m, noise.q_tau_e, noise.q_ct, noise.q_f_e]))


def measurement_cov(noise):
    """The diagonal 6x6 pose-noise covariance of ``noise``, ordered [position, mrp]."""
    return np.diag(np.concatenate([noise.g_x, noise.g_rho]))


def oracle_rotor_wrench(params, rotor_speeds):
    """[thrust, tau] from the per-motor formulas, summed left to right."""
    w = np.asarray(rotor_speeds, dtype=float)
    c = params.thrust_coeff * w * w
    drag = params.drag_coeff * w * w
    l = params.arm_length
    return np.stack([
        np.sum(c, axis=-1),
        l * (c[..., 0] + c[..., 1] - c[..., 2] - c[..., 3]),
        l * (-c[..., 0] + c[..., 1] + c[..., 2] - c[..., 3]),
        drag[..., 0] - drag[..., 1] + drag[..., 2] - drag[..., 3],
    ], axis=-1)


def reference_process_step(state, rotor_speeds, noise, params):
    """``process_step`` written per field on the ``attitude`` array kernels:
    the rotation matrix, ``quat_apply_body_rates`` and ``cross3`` each on
    their own, the rotor wrench through ``rotor_wrench``."""
    T = params.dt
    m = params.mass

    wrench = rotor_wrench(params, rotor_speeds)

    R_bg = att.rotmat_body_to_global(state.q)
    if noise is None:
        thrust = R_bg[..., 2] * wrench[..., :1]  # R (0, 0, T)
    else:
        thrust = np.einsum("...ij,...j->...i", R_bg, wrench[..., :1] * np.array([0.0, 0.0, 1.0]) + noise[..., 6:9])
    acc = thrust / m - params.gravity + state.f_e / m
    pos = state.pos + T * state.vel + 0.5 * T * T * acc
    vel = state.vel + T * acc

    q = att.quat_apply_body_rates(state.q, state.omega, T)

    tau_e_body = (state.tau_e[..., None, :] @ R_bg)[..., 0, :]  # R' tau_e: global into body axes
    inertia_rate = state.omega @ params.inertia.T
    torque_sum = tau_e_body + wrench[..., 1:]
    if noise is None:
        tau_e, f_e = state.tau_e + 0.0, state.f_e + 0.0
    else:
        torque_sum = torque_sum + noise[..., 0:3]
        tau_e, f_e = state.tau_e + noise[..., 3:6], state.f_e + noise[..., 9:12]
    omega = state.omega + T * ((torque_sum - att.cross3(state.omega, inertia_rate)) @ params.inertia_inv.T)

    return VehicleState(q=q, omega=omega, pos=pos, vel=vel, tau_e=tau_e, f_e=f_e)


# each field of the state record and the log columns it fills
RECORD_COLUMNS = {
    "q": [f"q{i}" for i in range(4)],
    "omega": [f"w{a}" for a in "xyz"],
    **{name: [f"{name}_{a}" for a in "xyz"] for name in ("pos", "vel", "tau_e", "f_e")},
}


class TestStateRecord:
    def test_record_layout_matches_state_fields(self):
        # the fields tile the record in the log's column order
        assert [c for columns in RECORD_COLUMNS.values() for c in columns] == STATE_FIELDS
        assert VehicleState.WIDTH == len(STATE_FIELDS)
        for name, columns in RECORD_COLUMNS.items():
            assert STATE_FIELDS[getattr(VehicleState, name).columns] == columns

    def test_fields_are_views_of_the_record(self):
        s = VehicleState.at_rest(pos=(1.0, 2.0, 3.0))
        s.omega = [0.1, 0.2, 0.3]
        s.f_e[2] = 4.0
        np.testing.assert_array_equal(
            s.vector, [1.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0])
        for name, columns in RECORD_COLUMNS.items():
            np.testing.assert_array_equal(getattr(s, name), s.vector[[STATE_FIELDS.index(c) for c in columns]])

    def test_keyword_constructor_broadcasts_leading_axes(self):
        q = att.quat_normalize(np.random.default_rng(1).standard_normal((5, 4)))
        s = VehicleState(q=q, omega=np.zeros(3), pos=np.ones((5, 3)), vel=np.zeros(3), tau_e=np.zeros(3),
                         f_e=np.zeros(3))
        assert s.vector.shape == (5, 19)
        np.testing.assert_array_equal(s.q, q)
        np.testing.assert_array_equal(s.pos, np.ones((5, 3)))

    @pytest.mark.parametrize("name", list(RECORD_COLUMNS))
    @pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
    def test_field_of_wrong_width_is_rejected(self, name, change):
        # a short field would shift every later one in the record
        fields = {field: np.zeros(len(columns)) for field, columns in RECORD_COLUMNS.items()}
        fields[name] = np.zeros(len(RECORD_COLUMNS[name]) + change)
        with pytest.raises(ValueError, match=f"VehicleState.{name}"):
            VehicleState(**fields)
        s = VehicleState.at_rest()
        with pytest.raises(ValueError, match=f"VehicleState.{name}"):
            setattr(s, name, fields[name])
        np.testing.assert_array_equal(s.vector, VehicleState.at_rest().vector)

    def test_at_rest_rejects_a_short_position(self):
        with pytest.raises(ValueError, match="VehicleState.pos"):
            VehicleState.at_rest(pos=(0.0, 0.0))

    def test_from_vector_adopts_the_record(self):
        record = np.arange(2 * 19, dtype=float).reshape(2, 19)
        s = VehicleState.from_vector(record)
        assert s.vector is record
        s.copy().vel[:] = 0.0
        assert s.vel[1, 0] == 29.0
        with pytest.raises(ValueError, match="19 entries"):
            VehicleState.from_vector(record[:, :18])


class TestParams:
    def test_defaults_valid(self, params):
        assert params.mass == pytest.approx(0.48)
        assert params.dt == pytest.approx(0.005)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": 0.0},
            {"arm_length": -1.0},
            {"dt": 0.0},
            {"inertia": np.diag([1.0, 1.0, -1.0])},
            {"thrust_coeff": np.zeros(4)},
            {"omega_max": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            VehicleParams(**kwargs)

    def test_run_constants_read_only(self, params):
        for name in ("rotor_coeffs", "rotor_scale", "mixer_inv", "step_map", "carry_map", "noise_map"):
            assert not getattr(params, name).flags.writeable

    def test_floats_are_the_array_constants(self, params):
        for name in ("gravity", "inertia", "inertia_inv", "rotor_coeffs", "rotor_scale", "mixer_inv",
                     "motor_thrust_max", "thrust_coeff"):
            value = getattr(params, name).tolist()
            assert getattr(params.floats, name) == (tuple(map(tuple, value)) if type(value[0]) is list
                                                    else tuple(value))

    def test_hover_balance(self, params):
        ct = rotor_wrench(params, hover_speeds(params))[..., 0]
        assert ct == pytest.approx(params.mass * 9.81, rel=1e-12)


class TestThrustAndTorque:
    def test_zero_speeds(self, params):
        assert rotor_wrench(params, np.zeros(4))[..., 0] == 0.0
        np.testing.assert_allclose(rotor_wrench(params, np.zeros(4))[..., 1:], np.zeros(3))

    def test_direct_substitution(self):
        p = VehicleParams(thrust_coeff=np.full(4, 2e-8), drag_coeff=np.full(4, 1e-9))
        assert rotor_wrench(p, np.full(4, 1000.0))[..., 0] == pytest.approx(0.08)

    def test_quadratic_homogeneity(self, params):
        rng = np.random.default_rng(0)
        w = rng.uniform(100, 2000, size=4)
        assert rotor_wrench(params, 2 * w)[..., 0] == pytest.approx(4 * rotor_wrench(params, w)[..., 0])

    def test_single_motor_torque(self):
        p = VehicleParams(thrust_coeff=np.full(4, 2e-8), drag_coeff=np.full(4, 1e-9), arm_length=0.13)
        w = np.array([1000.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(rotor_wrench(p, w)[..., 1:], [0.0026, -0.0026, 0.001], atol=1e-12)

    def test_equal_speeds_no_torque(self, params):
        np.testing.assert_allclose(rotor_wrench(params, np.full(4, 1500.0))[..., 1:], np.zeros(3), atol=1e-12)

    @pytest.mark.parametrize("rows", [(), (61,)])
    def test_rotor_wrench_is_the_per_motor_formulas(self, rows):
        # same terms added in the same order: bit-identical
        rng = np.random.default_rng(7)
        p = VehicleParams(thrust_coeff=rng.uniform(3e-7, 4e-7, 4), drag_coeff=rng.uniform(5e-9, 6e-9, 4))
        for params_ in (VehicleParams(), p):
            for _ in range(300):
                w = rng.uniform(0.0, 2550.0, size=rows + (4,))
                want = oracle_rotor_wrench(params_, w)
                np.testing.assert_array_equal(rotor_wrench(params_, w), want, strict=True)

    def test_equal_speeds_give_exactly_zero_torque(self, params):
        rng = np.random.default_rng(8)
        speeds = np.repeat(rng.uniform(0.0, 2550.0, size=(200, 1)), 4, axis=1)
        thrust = np.sum(params.thrust_coeff * speeds * speeds, axis=-1)
        want = np.stack([thrust, *np.zeros((3, 200))], axis=-1)
        np.testing.assert_array_equal(rotor_wrench(params, speeds), want)

    def test_swap_pairs_negates_roll(self, params):
        rng = np.random.default_rng(1)
        w = rng.uniform(500, 2000, size=4)
        swapped = w[[2, 3, 0, 1]]
        assert rotor_wrench(params, swapped)[..., 1] == pytest.approx(-rotor_wrench(params, w)[..., 1])


class TestProcessStep:
    def test_hover_equilibrium(self, params):
        s = VehicleState.at_rest(pos=(0, 0, 1))
        out = process_step(s, hover_speeds(params), None, params)
        np.testing.assert_allclose(out.vector, s.vector, atol=1e-12)

    def test_noise_block_order(self, params):
        # columns [tau_m, tau_e, ct, f_e], as in process_cov()
        s = VehicleState.at_rest(pos=(0, 0, 1))
        w = hover_speeds(params)
        base = process_step(s, w, None, params)
        np.testing.assert_array_equal(process_step(s, w, np.zeros(12), params).vector, base.vector)
        eta = np.arange(1.0, 13.0) * 1e-3
        out = process_step(s, w, eta, params)
        np.testing.assert_array_equal(out.tau_e, eta[3:6])
        np.testing.assert_array_equal(out.f_e, eta[9:12])
        np.testing.assert_allclose(out.omega - base.omega, params.dt * params.inertia_inv @ eta[0:3], rtol=1e-12)
        np.testing.assert_allclose(out.vel - base.vel, params.dt * eta[6:9] / params.mass, rtol=1e-9)

    def test_free_fall(self, params):
        s = VehicleState.at_rest()
        out = process_step(s, np.zeros(4), None, params)
        assert out.vel[2] == pytest.approx(-9.81 * params.dt)
        assert out.pos[2] == pytest.approx(-0.5 * 9.81 * params.dt**2)

    def test_external_force_cancels_gravity(self, params):
        s = VehicleState.at_rest()
        s.f_e = np.array([0.0, 0.0, params.mass * 9.81])
        out = process_step(s, np.zeros(4), None, params)
        np.testing.assert_allclose(out.vel, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(out.pos, np.zeros(3), atol=1e-12)

    def test_pure_z_spin(self, params):
        # diagonal inertia: omega x I omega = 0, attitude advances 2*dt rad
        s = VehicleState.at_rest()
        s.omega = np.array([0.0, 0.0, 2.0])
        s.f_e = np.array([0.0, 0.0, params.mass * 9.81])
        out = process_step(s, np.zeros(4), None, params)
        np.testing.assert_allclose(out.omega, s.omega, atol=1e-12)
        expected = Rotation.from_rotvec([0, 0, 2.0 * params.dt]).as_matrix()
        np.testing.assert_allclose(att.rotmat_body_to_global(out.q), expected, atol=1e-12)

    def test_wrench_is_fixed_point_without_noise(self, params):
        rng = np.random.default_rng(2)
        s = VehicleState.at_rest()
        s.f_e = rng.standard_normal(3)
        s.tau_e = rng.standard_normal(3)
        out = process_step(s, hover_speeds(params), None, params)
        np.testing.assert_allclose(out.f_e, s.f_e)
        np.testing.assert_allclose(out.tau_e, s.tau_e)

    def test_quaternion_stays_unit(self, params):
        rng = np.random.default_rng(3)
        s = VehicleState.at_rest()
        for _ in range(200):
            s.omega = rng.standard_normal(3) * 5.0
            s = process_step(s, hover_speeds(params), None, params)
            assert np.linalg.norm(s.q) == pytest.approx(1.0, abs=1e-9)

    def test_yaw_frame_consistency(self, params):
        # rotating the global frame by a fixed yaw commutes with the step
        rng = np.random.default_rng(4)
        s = VehicleState(
            q=att.quat_normalize(rng.standard_normal(4)),
            omega=rng.standard_normal(3),
            pos=rng.standard_normal(3),
            vel=rng.standard_normal(3),
            tau_e=rng.standard_normal(3) * 0.1,
            f_e=rng.standard_normal(3) * 0.5,
        )
        w = rng.uniform(500, 2000, size=4)
        yaw = att.quat_from_axis_angle([0, 0, 1], 0.83)
        Rz = att.rotmat_body_to_global(yaw)

        def rotate(st):
            return VehicleState(
                q=att.quat_multiply(yaw, st.q),
                omega=st.omega.copy(),
                pos=Rz @ st.pos,
                vel=Rz @ st.vel,
                tau_e=Rz @ st.tau_e,
                f_e=Rz @ st.f_e,
            )

        stepped_then_rotated = rotate(process_step(s, w, None, params))
        rotated_then_stepped = process_step(rotate(s), w, None, params)
        np.testing.assert_allclose(
            stepped_then_rotated.vector, rotated_then_stepped.vector, atol=1e-10
        )

    def test_batched_matches_scalar(self, params):
        rng = np.random.default_rng(5)
        n = 16
        batch = VehicleState(
            q=att.quat_normalize(rng.standard_normal((n, 4))),
            omega=rng.standard_normal((n, 3)),
            pos=rng.standard_normal((n, 3)),
            vel=rng.standard_normal((n, 3)),
            tau_e=rng.standard_normal((n, 3)) * 0.1,
            f_e=rng.standard_normal((n, 3)),
        )
        w = rng.uniform(500, 2000, size=4)
        eta = rng.standard_normal((n, 12)) * 0.01
        out = process_step(batch, w, eta, params)
        for i in range(n):
            single = process_step(
                VehicleState(batch.q[i], batch.omega[i], batch.pos[i], batch.vel[i], batch.tau_e[i], batch.f_e[i]),
                w,
                eta[i],
                params,
            )
            np.testing.assert_allclose(out.vector[i], single.vector, atol=1e-12)


def _blocks(rows, width, low, high):
    return hnp.arrays(np.float64, rows + (width,), elements=st.floats(low, high))


def _units(q):
    # draws too short to normalize accurately become a fixed unit quaternion
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    return np.where(norm >= 0.1, q / np.maximum(norm, 0.1), 0.5)


@st.composite
def _flight_states(draw, rows):
    """A state in the flight envelope, with ``rows`` leading axes."""
    return VehicleState(q=_units(draw(_blocks(rows, 4, -1.0, 1.0))), omega=draw(_blocks(rows, 3, -50.0, 50.0)),
                        pos=draw(_blocks(rows, 3, -10.0, 10.0)), vel=draw(_blocks(rows, 3, -5.0, 5.0)),
                        tau_e=draw(_blocks(rows, 3, -0.2, 0.2)), f_e=draw(_blocks(rows, 3, -2.0, 2.0)))


class TestFusedKernel:
    """process_step against reference_process_step, its per-field form."""

    @pytest.mark.parametrize("inertia", [np.diag([3.4e-3, 3.4e-3, 4.7e-3]), FULL_INERTIA], ids=["diagonal", "full"])
    @pytest.mark.parametrize("with_noise", [False, True], ids=["no-noise", "noise"])
    @pytest.mark.parametrize("rows", [(), (16,)], ids=["single", "batch16"])
    @given(data=st.data())
    def test_matches_the_per_field_form(self, rows, with_noise, inertia, data):
        params = VehicleParams(inertia=inertia)
        state = data.draw(_flight_states(rows))
        speeds = data.draw(_blocks((), 4, 0.0, params.omega_max))
        # noise draws up to ~10x each block's default std: motor torque,
        # torque walk, thrust and force walk
        noise = data.draw(_blocks(rows, 12, -1.0, 1.0)) * np.repeat([0.05, 5e-4, 0.5, 6e-3], 3) if with_noise else None
        got = process_step(state, speeds, noise, params).vector
        want = reference_process_step(state, speeds, noise, params).vector
        scale = np.maximum(1.0, np.abs(want))
        omega = slice(4, 7)
        gyro = params.dt * np.sum(state.omega * state.omega, axis=-1, keepdims=True) * np.linalg.cond(params.inertia)
        scale[..., omega] = np.maximum(scale[..., omega], gyro)
        assert np.all(np.abs(got - want) <= KERNEL_RTOL * scale), (got - want) / scale
        # the carried wrench to the value: it is an exact sum
        np.testing.assert_array_equal(got[..., 13:], want[..., 13:])


class TestMonteCarloMoments:
    def test_mean_and_covariance_of_noisy_step(self, params):
        rng = np.random.default_rng(6)
        noise = NoiseConfig.default()
        n = 100_000
        s0 = VehicleState.at_rest(pos=(0, 0, 1))
        s0.q = att.quat_from_axis_angle([1, 0, 0], 0.05)
        w = hover_speeds(params)

        draws = rng.multivariate_normal(np.zeros(12), process_cov(noise), size=n)
        batch = VehicleState(
            q=np.broadcast_to(s0.q, (n, 4)),
            omega=np.broadcast_to(s0.omega, (n, 3)),
            pos=np.broadcast_to(s0.pos, (n, 3)),
            vel=np.broadcast_to(s0.vel, (n, 3)),
            tau_e=np.broadcast_to(s0.tau_e, (n, 3)),
            f_e=np.broadcast_to(s0.f_e, (n, 3)),
        )
        out = process_step(batch, w, draws, params)
        det = process_step(s0, w, None, params)

        # sample mean within 3 standard errors of the zero-noise step
        for name in ("omega", "vel", "f_e", "tau_e", "pos"):
            samples = getattr(out, name)
            se = samples.std(axis=0, ddof=1) / np.sqrt(n)
            np.testing.assert_array_less(
                np.abs(samples.mean(axis=0) - getattr(det, name)), 3.0 * se + 1e-15
            )

        # sample covariances within 5% of the linear propagation
        T, m = params.dt, params.mass
        R = att.rotmat_body_to_global(s0.q)
        cov_vel = (T / m) ** 2 * R @ np.diag(noise.q_ct) @ R.T
        cov_omega = T**2 * params.inertia_inv @ np.diag(noise.q_tau_m) @ params.inertia_inv.T
        for samples, expected in [
            (out.vel, cov_vel),
            (out.omega, cov_omega),
            (out.f_e, np.diag(noise.q_f_e)),
            (out.tau_e, np.diag(noise.q_tau_e)),
        ]:
            got = np.cov(samples.T)
            np.testing.assert_allclose(np.diag(got), np.diag(expected), rtol=0.05)


class TestNoiseConfig:
    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            NoiseConfig(
                q_ct=np.zeros(3), q_tau_m=np.ones(3), q_f_e=np.ones(3),
                q_tau_e=np.ones(3), g_x=np.ones(3), g_rho=np.ones(3),
            )

    def test_block_layout(self, params):
        # the stacked Q of the tests draws each block into process_step's
        # slot of that noise: one std of every variance, read back
        cfg = NoiseConfig.default()
        eta = np.sqrt(np.diag(process_cov(cfg)))
        s = VehicleState.at_rest(pos=(0, 0, 1))
        out = process_step(s, hover_speeds(params), eta, params)
        np.testing.assert_array_equal(out.tau_e, np.sqrt(cfg.q_tau_e))
        np.testing.assert_array_equal(out.f_e, np.sqrt(cfg.q_f_e))
        base = process_step(s, hover_speeds(params), None, params)
        motor_only = process_step(s, hover_speeds(params), np.concatenate([eta[:3], np.zeros(9)]), params)
        np.testing.assert_allclose((motor_only.omega - base.omega) / params.dt,
                                   params.inertia_inv @ np.sqrt(cfg.q_tau_m), rtol=1e-12)
        thrust_only = process_step(s, hover_speeds(params), np.concatenate([np.zeros(6), eta[6:9], np.zeros(3)]),
                                   params)
        np.testing.assert_allclose((thrust_only.vel - base.vel) * params.mass / params.dt, np.sqrt(cfg.q_ct),
                                   rtol=1e-9)

    @pytest.mark.parametrize("value", [
        pytest.param(np.array([[1e-6, 1e-7, 0.0], [0.0, 1e-6, 0.0], [0.0, 0.0, 1e-6]]), id="asymmetric"),
        pytest.param(np.eye(3) * 1e-6, id="diagonal-matrix"),
        pytest.param(np.array([[1e-6, np.nan, 0.0], [np.nan, 1e-6, 0.0], [0.0, 0.0, 1e-6]]),
                     id="g_x-off-diagonal-nan"),
        pytest.param(1e-6, id="scalar"),
        pytest.param([1e-6] * 4, id="four"),
    ])
    def test_rejects_a_matrix_or_other_than_three_variances(self, value):
        # a block is three variances: a matrix was checked on its diagonal
        # only, so an asymmetric or indefinite one constructed
        with pytest.raises(ValueError, match=r"NoiseConfig\.g_x must have shape \(3,\)"):
            dataclasses.replace(NoiseConfig.default(), g_x=value)

    def test_derived_constants_are_the_variances(self):
        cfg = NoiseConfig.default()
        np.testing.assert_array_equal(cfg.meas_var, np.concatenate([cfg.g_x, cfg.g_rho]), strict=True)
        assert not cfg.meas_var.flags.writeable
        # the process stds in the order of process_step's noise block
        np.testing.assert_array_equal(cfg.process_std, np.sqrt(np.diag(process_cov(cfg))), strict=True)
        assert not cfg.process_std.flags.writeable
        # rebuilt with the blocks they come from
        assert dataclasses.replace(cfg, g_x=np.full(3, 2.0)).meas_var[:3].tolist() == [2.0, 2.0, 2.0]

    def test_frozen_read_only_and_copied(self):
        diag = np.ones(3)
        cfg = NoiseConfig(q_ct=diag, q_tau_m=diag, q_f_e=diag, q_tau_e=diag, g_x=diag, g_rho=diag)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.g_x = np.eye(3)
        for name in ("q_ct", "q_tau_m", "q_f_e", "q_tau_e", "g_x", "g_rho"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(cfg, name)[0] = 2.0
        # the caller's array is copied, not frozen in place
        diag[0] = 2.0
        assert cfg.q_ct[0] == 1.0
