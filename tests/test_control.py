import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftlab
from ftlab import mathx
from ftlab.control import (CompositeAdaptGains, CompositeFtController,
                           FtPdGains, SlotineLiLsController,
                           SwitchingTsmController, TsmParams,
                           composite_adapt_rate, excitation_gain, ftpd_torque,
                           prediction_error_vector, saturation,
                           slotine_li_regressor)
from ftlab.drem import LsDreParams, MixedRegression
from ftlab.regression import RegressionPair


class TestFtPdGains:
    def test_default_exponents(self):
        g = FtPdGains()
        assert g.m_c == pytest.approx(0.5)
        assert g.a == pytest.approx(1.0 / 3.0)
        assert g.b == pytest.approx(0.5)
        assert 1.0 > g.b > g.a > 0.0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            FtPdGains(r1=1.0, r2=1.0)      # needs r1 > r2
        with pytest.raises(ValueError):
            FtPdGains(r1=2.5, r2=1.0)      # needs 2 r2 > r1
        with pytest.raises(ValueError):
            FtPdGains(kp=np.array([3.0, -1.0]))


class TestFtPdTorque:
    def test_gravity_compensation_at_target(self, plant):
        q_d = np.array([2.0, 2.0])
        gains = FtPdGains()
        tau = ftpd_torque(np.zeros(2), np.zeros(2), plant.psi(q_d),
                          plant.theta.theta_u, gains)
        # independent evaluation from the lumped coefficients
        d4, d5 = plant.theta.theta_u
        expected = np.array([d4 * np.sin(4.0) + d5 * np.sin(2.0), d4 * np.sin(4.0)])
        np.testing.assert_allclose(tau, expected, rtol=1e-12)
        np.testing.assert_allclose(tau, plant.gravity(q_d), atol=1e-14)

    def test_unit_errors_bypass_the_exponent(self, plant):
        gains = FtPdGains()
        tau = ftpd_torque(np.array([1.0, -1.0]), np.zeros(2),
                          plant.psi([0.0, 0.0]), np.zeros(2), gains)
        np.testing.assert_allclose(tau, [-3.0, 3.0], atol=1e-15)

    def test_unit_exponents_recover_linear_pd(self, plant):
        gains = FtPdGains()
        e1 = np.array([0.3, -0.7])
        e2 = np.array([-1.2, 0.4])
        psi = plant.psi([1.0, 0.5])
        th = np.array([0.5, 1.0])
        tau = ftpd_torque(e1, e2, psi, th, gains, a=1.0, b=1.0)
        expected = -gains.kp * e1 - gains.kd * e2 - gains.kd_lin * e2 + psi @ th
        np.testing.assert_allclose(tau, expected, atol=1e-15)

    def test_odd_symmetry_of_feedback_part(self, plant):
        gains = FtPdGains()
        psi = plant.psi([0.7, -0.2])
        rng = np.random.default_rng(1)
        for _ in range(50):
            e1 = rng.uniform(-2, 2, 2)
            e2 = rng.uniform(-2, 2, 2)
            plus = ftpd_torque(e1, e2, psi, np.zeros(2), gains)
            minus = ftpd_torque(-e1, -e2, psi, np.zeros(2), gains)
            np.testing.assert_array_equal(plus, -minus)


class TestSaturationAndGain:
    def test_zero(self):
        assert saturation(0.0, 0.5, 0.5) == 0.0
        assert excitation_gain(0.0, 0.5, 0.5) == 0.0

    def test_unit_point(self):
        assert saturation(1.0, 0.5, 0.5) == pytest.approx(0.5)
        assert excitation_gain(1.0, 0.5, 0.5) == pytest.approx(0.5)

    @given(delta=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_odd_and_bounded(self, delta):
        assert saturation(-delta, 0.5, 0.5) == -saturation(delta, 0.5, 0.5)
        gain = excitation_gain(delta, 0.5, 0.5)
        assert 0.0 <= gain < 1.0

    def test_range_on_dense_sweep(self):
        deltas = np.linspace(-1e6, 1e6, 1_000_001)
        mags = np.abs(deltas)
        gains = mags / (1.0 + mags)     # closed form for c = b, b + d = 1
        sampled = [excitation_gain(d, 0.5, 0.5) for d in deltas[::9973]]
        for d, g in zip(deltas[::9973], sampled):
            assert g == pytest.approx(abs(d) / (1.0 + abs(d)), rel=1e-12)
        assert gains.min() >= 0.0 and gains.max() < 1.0

    def test_monotone_in_magnitude(self):
        vals = [excitation_gain(d, 0.5, 0.5) for d in (0.0, 0.1, 0.5, 2.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestPredictionError:
    def test_examples(self):
        np.testing.assert_allclose(
            prediction_error_vector(1.0, [2.0, 0.0], [1.0, 1.0], 0.5), [1.0, -1.0])
        np.testing.assert_array_equal(
            prediction_error_vector(0.0, [1.0, 2.0], [0.0, 0.0], 0.5), [0.0, 0.0])

    @given(delta=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
           u1=st.floats(-5, 5), u2=st.floats(-5, 5),
           d1=st.floats(1e-3, 10), d2=st.floats(1e-3, 10),
           s1=st.sampled_from([-1.0, 1.0]), s2=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=200)
    def test_factorization_identity(self, delta, u1, u2, d1, d2, s1, s2):
        # with y_u = delta * theta_u the error factors elementwise; the
        # parameter error is kept away from zero, where the algebraic identity
        # is exact but float cancellation inside the half power is not
        theta_u = np.array([u1, u2])
        tilde = np.array([s1 * d1, s2 * d2])
        theta_hat = theta_u + tilde
        c = 0.5
        xi = prediction_error_vector(delta, theta_hat, delta * theta_u, c)
        expected = mathx.signed_power(delta, c) * mathx.signed_power_vec(theta_hat - theta_u, c) \
            if delta != 0.0 else np.zeros(2)
        np.testing.assert_allclose(xi, expected, atol=1e-12)


class TestCompositeAdaptation:
    def test_equilibrium_rate_is_zero(self, plant):
        gains = CompositeAdaptGains()
        th = np.array([1.0, 2.0])
        mixed = MixedRegression(Y=np.zeros(5), delta=0.7, Y_u=0.7 * th)
        rate = composite_adapt_rate(np.zeros(2), np.zeros(2), plant.psi([2.0, 2.0]),
                                    th, mixed, gains, FtPdGains().b)
        np.testing.assert_allclose(rate, np.zeros(2), atol=1e-15)

    def test_zero_delta_leaves_direct_term(self, plant):
        gains = CompositeAdaptGains()
        psi = plant.psi([1.0, 0.3])
        e1 = np.array([0.2, -0.1])
        e2 = np.array([0.05, 0.4])
        mixed = MixedRegression(Y=np.zeros(5), delta=0.0, Y_u=np.zeros(2))
        rate = composite_adapt_rate(e1, e2, psi, np.array([5.0, -3.0]), mixed, gains,
                                    FtPdGains().b)
        direct = -gains.gamma_diag * (psi.T @ (gains.gamma1 * gains.d1 * np.tanh(e1)
                                               + (gains.gamma1 + gains.gamma2) * e2))
        np.testing.assert_allclose(rate, direct, atol=1e-15)

    def test_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            CompositeAdaptGains(gamma1=-0.1)
        with pytest.raises(ValueError):
            CompositeAdaptGains(sat_d=0.0)


class TestSlotineLiRegressor:
    def test_linear_in_parameters_identity(self, plant):
        rng = np.random.default_rng(7)
        for _ in range(300):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-3, 3, 2)
            qd_r = rng.uniform(-3, 3, 2)
            qdd_r = rng.uniform(-10, 10, 2)
            w = slotine_li_regressor(q, qd, qd_r, qdd_r)
            lhs = plant.inertia(q) @ qdd_r + plant.coriolis(q, qd) @ qd_r \
                + plant.gravity(q)
            np.testing.assert_allclose(w @ plant.theta.stacked, lhs, atol=1e-8)

    def test_rest_regressor_is_gravity_only(self, plant):
        q = np.array([2.0, 2.0])
        w = slotine_li_regressor(q, np.zeros(2), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(w[:, :3], np.zeros((2, 3)), atol=1e-15)
        np.testing.assert_allclose(w[:, 3:], plant.psi(q), atol=1e-15)


class TestSwitchingTsm:
    def make(self):
        return SwitchingTsmController(TsmParams(), exponent_a=1.0 / 3.0)

    def test_zero_velocity_selects_nonlinear_branch(self, plant):
        ctrl = self.make()
        q = np.array([1.0, 0.5])
        ctrl.torque(np.array([0.5, -0.2]), np.zeros(2), q, np.zeros(2),
                    plant.psi(q), plant.inertia(q))
        assert ctrl.branch == "tsm"

    def test_fast_motion_selects_linear_branch(self, plant):
        ctrl = self.make()
        q = np.array([1.0, 0.5])
        ctrl.torque(np.array([1e-4, 0.0]), np.array([3.0, -2.0]), q,
                    np.array([3.0, -2.0]), plant.psi(q), plant.inertia(q))
        assert ctrl.branch == "linear"

    def test_branch_is_deterministic(self, plant):
        ctrl = self.make()
        rng = np.random.default_rng(9)
        for _ in range(100):
            e1 = rng.uniform(-2, 2, 2)
            e2 = rng.uniform(-2, 2, 2)
            q = e1 + np.array([2.0, 2.0])
            f1 = ctrl.switching_function(e1, e2, plant.inertia(q))
            f2 = ctrl.switching_function(e1, e2, plant.inertia(q))
            assert f1 == f2

    def test_unit_vector_term_vanishes_at_zero_sliding(self, plant):
        ctrl = self.make()
        # e2 = -k2 <e1>^a makes s = 0 on the nonlinear branch
        e1 = np.array([0.2, -0.4])
        s_ref = -ctrl.params.k2 * mathx.signed_power_vec(e1, ctrl.a)
        q = e1 + np.array([2.0, 2.0])
        tau = ctrl.torque(e1, s_ref, q, s_ref, plant.psi(q), plant.inertia(q))
        assert ctrl.branch == "tsm"
        w = ctrl._w
        np.testing.assert_allclose(tau, w @ ctrl.theta_hat, atol=1e-12)

    def test_normalized_drift_term_zero_at_zero(self, plant):
        ctrl = self.make()
        q = np.array([1.0, 0.5])
        ctrl.torque(np.array([0.5, -0.2]), np.zeros(2), q, np.zeros(2),
                    plant.psi(q), plant.inertia(q))
        rate = ctrl.adapt_rate(np.zeros(5), np.zeros((5, 5)))
        # phi2 theta_hat - phi1 = 0: the normalized term must be defined as 0
        expected = -ctrl.params.gamma_tsm * (np.array(ctrl._w).T @ ctrl._s)
        np.testing.assert_allclose(rate, expected, atol=1e-15)

    def test_reference_acceleration_is_clamped(self, plant):
        ctrl = self.make()
        q = np.array([2.0, 2.0])
        tau = ctrl.torque(np.zeros(2), np.array([1e-9, 0.0]), q,
                          np.array([1e-9, 0.0]), plant.psi(q), plant.inertia(q))
        assert np.all(np.isfinite(tau))


class TestSlotineLiLs:
    def test_zero_error_zero_rate(self, plant):
        ctrl = SlotineLiLsController(TsmParams(), LsDreParams())
        q = np.array([2.0, 2.0])
        ctrl.torque(np.zeros(2), np.zeros(2), q, np.zeros(2), plant.psi(q),
                    plant.inertia(q))
        pair = RegressionPair(y=np.zeros(2), omega=np.zeros((2, 5)))
        theta_rate, _ = ctrl.rates(pair)
        np.testing.assert_allclose(theta_rate, np.zeros(5), atol=1e-15)

    def test_equilibrium_hold(self, plant):
        q_d = np.array([2.0, 2.0])
        ctrl = SlotineLiLsController(TsmParams(), LsDreParams())
        ctrl.theta_hat = plant.theta.stacked.copy()
        tau = ctrl.torque(np.zeros(2), np.zeros(2), q_d, np.zeros(2),
                          plant.psi(q_d), plant.inertia(q_d))
        np.testing.assert_allclose(tau, plant.gravity(q_d), atol=1e-12)

    def test_gain_matrix_stays_positive_definite(self, c4_case1):
        eigs = np.linalg.eigvalsh(c4_case1.diagnostics["P"])
        assert eigs[:, 0].min() > 0.0

    def test_rejects_bad_params(self):
        # c4 reads its gains from the parameter objects of c3 and of the
        # least-squares extension, and their checks are its checks
        with pytest.raises(ValueError):
            LsDreParams(f0=1.0, gain_cap=0.5)
        with pytest.raises(ValueError):
            TsmParams(k1=0.0)


class TestControllerWrappers:
    def test_composite_controller_advance(self, plant):
        ctrl = CompositeFtController(FtPdGains(), CompositeAdaptGains())
        before = ctrl.theta_hat.copy()
        ctrl.advance(np.array([1.0, -1.0]), 1e-3)
        np.testing.assert_allclose(ctrl.theta_hat - before, [1e-3, -1e-3])

    def test_theta0_length_checked(self):
        with pytest.raises(ValueError):
            CompositeFtController(FtPdGains(), CompositeAdaptGains(),
                                  theta_hat0=np.zeros(5))
