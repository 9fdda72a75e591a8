import decimal
import inspect
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ftlab
import reference as ref
from conftest import (DT, composite_rate, composite_step, history, recorded_branch,
                      step_once)
from ftlab import mathx
from ftlab.control import (FAMILIES, CompositeAdaptGains, CompositeFtController,
                           FtPdGains, SlotineLiLsController,
                           SwitchingTsmController, TsmParams, _slotine_li,
                           excitation_gain, saturation)
from reference import prediction_error as _prediction_error, sat
from ftlab.drem import KreisselmeierDre, LsDreParams
from ftlab.regression import RegressionPair
from ftlab.sim import SimConfig


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


def ftpd_torque(e1, e2, psi, theta_hat_u, gains):
    """The composite controller's torque at e1, e2 = qd and Psi, from the
    estimate theta_hat_u, by one step of a fresh controller."""
    ctrl = CompositeFtController(gains, CompositeAdaptGains(), theta_hat0=theta_hat_u)
    return composite_step(ctrl, e1, e2, psi, 0.0, [0.0, 0.0], 5e-4)


class TestFtPdTorque:
    def test_gravity_compensation_at_target(self, plant):
        q_d = np.array([2.0, 2.0])
        gains = FtPdGains()
        tau = ftpd_torque(np.zeros(2), np.zeros(2), plant.psi_rows(q_d),
                          plant.theta.theta_u, gains)
        # independent evaluation from the lumped coefficients
        d4, d5 = plant.theta.theta_u
        expected = np.array([d4 * np.sin(4.0) + d5 * np.sin(2.0), d4 * np.sin(4.0)])
        np.testing.assert_allclose(tau, expected, rtol=1e-12)
        np.testing.assert_allclose(tau, ref.gravity(plant.theta.theta_u, q_d), atol=1e-14)

    def test_unit_errors_bypass_the_exponent(self, plant):
        gains = FtPdGains()
        tau = ftpd_torque(np.array([1.0, -1.0]), np.zeros(2),
                          plant.psi_rows([0.0, 0.0]), np.zeros(2), gains)
        np.testing.assert_allclose(tau, [-3.0, 3.0], atol=1e-15)

    def test_unit_exponents_recover_linear_pd(self, plant):
        # a = b = 1 is outside the gains' range, so the exponents the
        # controller binds at construction are set past the check
        gains = FtPdGains()
        gains.__dict__.update(a=1.0, b=1.0)
        e1 = np.array([0.3, -0.7])
        e2 = np.array([-1.2, 0.4])
        psi = ref.psi([1.0, 0.5])
        th = np.array([0.5, 1.0])
        tau = ftpd_torque(e1, e2, psi, th, gains)
        expected = -np.asarray(gains.kp) * e1 - gains.kd * e2 - gains.kd_lin * e2 + psi @ th
        np.testing.assert_allclose(tau, expected, atol=1e-15)

    def test_odd_symmetry_of_feedback_part(self, plant):
        gains = FtPdGains()
        psi = plant.psi_rows([0.7, -0.2])
        rng = np.random.default_rng(1)
        for _ in range(50):
            e1 = rng.uniform(-2, 2, 2)
            e2 = rng.uniform(-2, 2, 2)
            plus = np.array(ftpd_torque(e1, e2, psi, np.zeros(2), gains))
            minus = np.array(ftpd_torque(-e1, -e2, psi, np.zeros(2), gains))
            np.testing.assert_array_equal(plus, -minus)


# (c or b, d): the default composite law's, a b = 0.6 law's, and one whose
# c + d > 1 overflows the denominator at |delta| = 1e300, where the gain is
# <delta>^-c
KERNEL_EXPONENTS = [(0.5, 0.5), (0.6, 0.5), (1.0 / 3.0, 0.25), (0.9, 0.7)]


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

    @given(delta=st.floats(allow_nan=False, allow_infinity=False),
           exponents=st.sampled_from(KERNEL_EXPONENTS))
    @settings(max_examples=500)
    def test_in_unit_interval_and_a_few_ulp_from_the_closed_form(self, delta, exponents):
        # x / (1 + x) with x = |delta|^(b+d), from 50 significant digits;
        # the exponent is the sum b + d of the two floats, as the product
        # <delta>^d <delta>^b takes it
        b, d = exponents
        with decimal.localcontext(prec=50):
            x = Decimal(abs(delta)) ** (Decimal(b) + Decimal(d))
            want = float(x / (1 + x))
        for gain in (excitation_gain(delta, b, d), excitation_gain(np.array([delta]), b, d)[0]):
            assert 0.0 <= gain <= 1.0
            assert abs(gain - want) <= 4.0 * np.spacing(want), (gain, want)

    @pytest.mark.parametrize("delta", [1e300, -1e300, 1.7976931348623157e308, 1e200])
    def test_saturation_where_the_denominator_overflows(self, delta):
        # |delta|^1.6 overflows: the gain is <delta>^-c, odd and finite
        want = np.copysign(abs(delta) ** -0.9, delta)
        for gain in (saturation(delta, 0.9, 0.7), saturation(np.array([delta, 1.0]), 0.9, 0.7)[0],
                     sat(delta, 0.9, 0.7)):
            assert gain == want and gain.hex() == want.hex()
        assert saturation(-delta, 0.9, 0.7) == -saturation(delta, 0.9, 0.7)
        # the array's other entries keep the vectorised form's bits
        assert saturation(np.array([delta, 1.0]), 0.9, 0.7)[1] == saturation(1.0, 0.9, 0.7)

    @pytest.mark.parametrize("delta", [3.7e15, 1e16, 1e17, 1e300, 1.7976931348623157e308])
    def test_never_above_one(self, delta):
        # the product form gave 1.0000000000000002 at 1e17
        for value in (delta, -delta):
            assert 0.0 < excitation_gain(value, 0.5, 0.5) <= 1.0
        assert _gain_kernel(1e17, 0.5, 0.5) > 1.0


def _outcome(fn, *args):
    """The float's exact bits, or the type of the exception raised."""
    try:
        return fn(*args).hex()
    except ArithmeticError as exc:
        return type(exc)


def _gain_kernel(delta, b, d):
    """The excitation gain as the float kernels compose it."""
    return sat(delta, b, d) * ref.spow(delta, b)


def _gain_of_record(delta, b, d):
    """excitation_gain over a one-entry record, as the zeta1 monitor calls it."""
    return excitation_gain(np.array([delta]), b, d)[0]


def _saturation_of_record(delta, c, d):
    """saturation over a one-entry array."""
    return saturation(np.array([delta]), c, d)[0]


def _assert_kernels_match(delta, c, d):
    assert _outcome(sat, delta, c, d) == _outcome(saturation, delta, c, d)
    assert _outcome(sat, delta, c, d) == _outcome(_saturation_of_record, delta, c, d)
    # the gain is the kernels' product up to |delta| = 1, its other form above
    want = (_outcome(_gain_kernel, delta, c, d) if abs(delta) <= 1.0
            else _outcome(_gain_of_record, delta, c, d))
    assert _outcome(excitation_gain, delta, c, d) == want
    assert _outcome(_gain_of_record, delta, c, d) == want


class TestUncheckedKernels:
    """``sat`` is the composite update's unchecked saturation of a float (its
    layered form, which ``test_kernels.py`` holds the update to bit for bit),
    and ``saturation`` its checked form: same bits on every finite delta.
    ``excitation_gain``, of a float or over a record, is the float kernels'
    ``sat(delta, b, d) * spow(delta, b)`` bit for bit for |delta| <= 1, and
    the same bits of a float and of a record everywhere."""

    @pytest.mark.parametrize("c, d", KERNEL_EXPONENTS)
    @pytest.mark.parametrize("delta", [0.0, -0.0, 5e-324, -5e-324, 1e-12, -1e-12,
                                       1.0, -1.0, 1e300, -1e300])
    def test_edge_values_bitwise(self, delta, c, d):
        _assert_kernels_match(delta, c, d)

    @given(delta=st.floats(allow_nan=False, allow_infinity=False),
           exponents=st.sampled_from(KERNEL_EXPONENTS))
    @settings(max_examples=500)
    def test_drawn_sweep_bitwise(self, delta, exponents):
        _assert_kernels_match(delta, *exponents)

    def test_checked_forms_reject_what_the_kernels_skip(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError):
                saturation(bad, 0.5, 0.5)
            with pytest.raises(ValueError):
                excitation_gain(bad, 0.5, 0.5)
            with pytest.raises(ValueError):
                excitation_gain(np.array([1.0, bad]), 0.5, 0.5)
        with pytest.raises(ValueError):
            saturation(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            excitation_gain(1.0, -0.5, 0.5)
        with pytest.raises(ValueError):
            excitation_gain(np.zeros(3), 0.5, float("nan"))


class TestPredictionError:
    def test_examples(self):
        np.testing.assert_allclose(
            _prediction_error(1.0, [2.0, 0.0], [1.0, 1.0], 0.5), [1.0, -1.0])
        np.testing.assert_array_equal(
            _prediction_error(0.0, [1.0, 2.0], [0.0, 0.0], 0.5), [0.0, 0.0])

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
        xi = _prediction_error(delta, theta_hat, delta * theta_u, c)
        expected = ref.spow(delta, c) * mathx.signed_power_vec(theta_hat - theta_u, c) \
            if delta != 0.0 else np.zeros(2)
        np.testing.assert_allclose(xi, expected, atol=1e-12)


class TestCompositeAdaptation:
    def test_equilibrium_rate_is_zero(self, plant):
        gains = CompositeAdaptGains()
        th = np.array([1.0, 2.0])
        ctrl = CompositeFtController(FtPdGains(), gains, theta_hat0=th)
        rate = composite_rate(ctrl, np.zeros(2), np.zeros(2), plant.psi_rows([2.0, 2.0]), 0.7,
                              (0.7 * th).tolist())
        np.testing.assert_allclose(rate, np.zeros(2), atol=1e-15)

    def test_zero_delta_leaves_direct_term(self, plant):
        gains = CompositeAdaptGains()
        psi = ref.psi([1.0, 0.3])
        e1 = np.array([0.2, -0.1])
        e2 = np.array([0.05, 0.4])
        ctrl = CompositeFtController(FtPdGains(), gains, theta_hat0=[5.0, -3.0])
        rate = composite_rate(ctrl, e1, e2, psi, 0.0, [0.0, 0.0])
        gamma = np.asarray(gains.gamma_diag)
        direct = -gamma * (psi.T @ (gains.gamma1 * gains.d1 * np.tanh(e1)
                                    + (gains.gamma1 + gains.gamma2) * e2))
        np.testing.assert_allclose(rate, direct, atol=1e-15)

    def test_rejects_bad_gains(self):
        with pytest.raises(ValueError):
            CompositeAdaptGains(gamma1=-0.1)
        with pytest.raises(ValueError):
            CompositeAdaptGains(sat_d=0.0)


def slotine_li_rows(q, qd, psi, qd_r, qdd_r):
    """The rows of the tracking regressor W, read off the Slotine-Li kernel's
    W' s at the unit vectors s."""
    zero = (0.0,) * 5
    return np.array([_slotine_li(q, qd, psi, qd_r, qdd_r, s, zero, 0.0, 0.0)[1]
                     for s in ((1.0, 0.0), (0.0, 1.0))])


def slotine_li_states():
    """300 random (q, qd, qd_r, qdd_r) of the Slotine-Li kernel, each a
    float64 array of length 2."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        yield (rng.uniform(-np.pi, np.pi, 2), rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2),
               rng.uniform(-10, 10, 2))


class TestSlotineLiRegressor:
    def test_linear_in_parameters_identity(self, plant):
        for q, qd, qd_r, qdd_r in slotine_li_states():
            psi = plant.psi_rows(q)
            # at s = 0 the torque is W theta_hat
            w_theta, _ = _slotine_li(q, qd, psi, qd_r, qdd_r, (0.0, 0.0),
                                     plant.theta.stacked.tolist(), 1.0, 1.0)
            lhs = np.array(plant.inertia_rows(q)) @ qdd_r \
                + np.array(plant.coriolis_rows(q, qd)) @ qd_r \
                + np.array(psi) @ plant.theta.theta_u
            np.testing.assert_allclose(w_theta, lhs, atol=1e-8)
            np.testing.assert_allclose(slotine_li_rows(q, qd, psi, qd_r, qdd_r)
                                       @ plant.theta.stacked, lhs, atol=1e-8)

    def test_gravity_columns_are_the_psi_passed_in_bitwise(self, plant):
        # the kernel takes W's gravity columns from its caller's Psi(q), the
        # runner's one evaluation per step, which is the closed form
        # sin(q1 + q2), sin(q1) the kernel once formed itself
        for q, qd, qd_r, qdd_r in slotine_li_states():
            psi = plant.psi_rows(q)
            q1, q2 = q.tolist()
            assert psi == ((math.sin(q1 + q2), math.sin(q1)), (math.sin(q1 + q2), 0.0))
            w = slotine_li_rows(q, qd, psi, qd_r, qdd_r)
            assert w[:, 3:].tobytes() == np.array(psi).tobytes()

    def test_rest_regressor_is_gravity_only(self, plant):
        q = np.array([2.0, 2.0])
        w = slotine_li_rows(q, np.zeros(2), plant.psi_rows(q), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(w[:, :3], np.zeros((2, 3)), atol=1e-15)
        np.testing.assert_allclose(w[:, 3:], plant.psi_rows(q), atol=1e-15)


class TestSwitchingTsm:
    def make(self, plant):
        return SwitchingTsmController(TsmParams(), exponent_a=1.0 / 3.0, plant=plant)

    def test_zero_velocity_selects_nonlinear_branch(self, plant):
        ctrl = self.make(plant)
        q = np.array([1.0, 0.5])
        step_once(ctrl, np.array([0.5, -0.2]), q, np.zeros(2), plant.psi_rows(q))
        assert recorded_branch(ctrl) == "tsm"

    def test_fast_motion_selects_linear_branch(self, plant):
        ctrl = self.make(plant)
        q = np.array([1.0, 0.5])
        step_once(ctrl, np.array([1e-4, 0.0]), q, np.array([3.0, -2.0]), plant.psi_rows(q))
        assert recorded_branch(ctrl) == "linear"

    def test_branch_is_deterministic(self, plant):
        ctrl = self.make(plant)
        rng = np.random.default_rng(9)
        for _ in range(100):
            e1 = rng.uniform(-2, 2, 2)
            e2 = rng.uniform(-2, 2, 2)
            q = e1 + np.array([2.0, 2.0])
            # the same estimate before each step; the extension stays at zero
            # on the zero pair
            before = ctrl.estimate
            tau1, _ = step_once(ctrl, e1, q, e2, plant.psi_rows(q))
            branch1 = recorded_branch(ctrl)
            ctrl.estimate = before
            tau2, _ = step_once(ctrl, e1, q, e2, plant.psi_rows(q))
            assert tau1 == tau2 and branch1 == recorded_branch(ctrl)

    def test_reassigned_extension_drives_the_rate(self, plant):
        # the rate reads phi1 and phi2 of the extension the controller holds
        # now, not of the one it was built with
        rng = np.random.default_rng(4)
        pair = RegressionPair(y=rng.uniform(-1, 1, 2), omega=rng.uniform(-1, 1, (2, 5)))
        e1, q, e2 = np.array([0.5, -0.2]), np.array([1.0, 0.5]), np.array([0.3, 0.1])
        th = tuple(rng.uniform(-2, 2, 5).tolist())
        state = rng.uniform(-1, 1, (5, 6))
        estimates = []
        for reassign in (False, True):
            extension = KreisselmeierDre(5, dt=DT)
            extension.phi2, extension.phi1 = state[:, :5], state[:, 5]
            built = KreisselmeierDre(5, dt=DT) if reassign else extension
            ctrl = SwitchingTsmController(TsmParams(), 1.0 / 3.0, theta_hat0=th, plant=plant,
                                          extension=built)
            if reassign:
                ctrl.extension = extension
            step_once(ctrl, e1, q, e2, plant.psi_rows(q), pair=pair)
            estimates.append(ctrl.estimate)
        assert estimates[0] == estimates[1]
        assert estimates[1] != th

    def test_unit_vector_term_vanishes_at_zero_sliding(self, plant):
        ctrl = self.make(plant)
        # e2 = -k2 <e1>^a makes s = 0 on the nonlinear branch
        e1 = np.array([0.2, -0.4])
        s_ref = -ctrl.params.k2 * mathx.signed_power_vec(e1, ctrl.a)
        q = e1 + np.array([2.0, 2.0])
        m = plant.inertia_rows(q)
        before = ctrl.estimate
        tau, _ = step_once(ctrl, e1, q, s_ref, plant.psi_rows(q))
        assert recorded_branch(ctrl) == "tsm"
        w = ref.tsm_torque_layered(ctrl.params, ctrl.a, before, e1, q, s_ref, m)[2]
        np.testing.assert_allclose(tau, np.array(w) @ np.array(before), atol=1e-12)

    def test_normalized_drift_term_zero_at_zero(self, plant):
        ctrl = self.make(plant)
        q = np.array([1.0, 0.5])
        e1, m = np.array([0.5, -0.2]), plant.inertia_rows(q)
        # the extension starts at and stays at zero on the zero pair, so
        # phi2 theta_hat - phi1 = 0: the normalized term must be defined as
        # 0; one unit step from theta_hat = 0 is the rate
        step_once(ctrl, e1, q, np.zeros(2), plant.psi_rows(q), dt=1.0)
        assert recorded_branch(ctrl) == "tsm"
        _, _, w, s = ref.tsm_torque_layered(ctrl.params, ctrl.a, np.zeros(5), e1, q,
                                            np.zeros(2), m)
        expected = -ctrl.params.gamma_tsm * (np.array(w).T @ np.array(s))
        np.testing.assert_allclose(ctrl.estimate, expected, atol=1e-15)

    def test_reference_acceleration_is_clamped(self, plant):
        ctrl = self.make(plant)
        q = np.array([2.0, 2.0])
        tau, _ = step_once(ctrl, np.zeros(2), q, np.array([1e-9, 0.0]), plant.psi_rows(q))
        assert np.all(np.isfinite(tau))


class TestSlotineLiLs:
    def test_zero_error_zero_rate(self, plant):
        ctrl = SlotineLiLsController(TsmParams(), LsDreParams(), dt=DT)
        q = np.array([2.0, 2.0])
        pair = RegressionPair(y=np.zeros(2), omega=np.zeros((2, 5)))
        _, delta = step_once(ctrl, np.zeros(2), q, np.zeros(2), plant.psi_rows(q), pair=pair)
        assert delta == 0.0
        np.testing.assert_array_equal(np.array(ctrl.estimate), np.zeros(5))

    def test_equilibrium_hold(self, plant):
        q_d = np.array([2.0, 2.0])
        ctrl = SlotineLiLsController(TsmParams(), LsDreParams(), dt=DT)
        ctrl.estimate = tuple(plant.theta.stacked.tolist())
        tau, _ = step_once(ctrl, np.zeros(2), q_d, np.zeros(2), plant.psi_rows(q_d))
        np.testing.assert_allclose(tau, ref.gravity(plant.theta.theta_u, q_d), atol=1e-12)

    def test_gain_matrix_stays_positive_definite(self, c4_case1):
        # F = R^-1 has the eigenvalues 1/w of the replayed eigenvalues w of R
        assert history(c4_case1)["w"].min() > 0.0

    def test_rejects_bad_params(self):
        # c4 reads its gains from the parameter objects of c3 and of the
        # least-squares extension, and their checks are its checks
        with pytest.raises(ValueError):
            LsDreParams(f0=1.0, gain_cap=0.5)
        for name in ("k1", "k2", "gamma_tsm", "k_tsm", "gamma_lin", "k_lin", "clamp"):
            for value in (0.0, -1.0):
                with pytest.raises(ValueError, match=name):
                    TsmParams(**{name: value})
        with pytest.raises(ValueError, match="ks"):
            TsmParams(ks=-1.0)


# the runner's protocol: method -> its parameters after self
PROTOCOL = {"step": ["k", "e1", "q", "qd", "psi"], "diagnostics": ["n_rec"]}


class TestControllerProtocol:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_every_family_has_the_one_protocol(self, name, plant):
        cls = FAMILIES[name]
        for method, params in PROTOCOL.items():
            assert list(inspect.signature(getattr(cls, method)).parameters) == ["self", *params]
        for gone in ("torque", "update", "record"):
            assert not hasattr(cls, gone)
        config = SimConfig(controller=name)
        cls.check_config(config, plant.theta.theta_u)
        ctrl = cls.from_config(config, plant)
        assert type(ctrl) is cls
        assert type(ctrl.estimate) is tuple and all(type(x) is float for x in ctrl.estimate)
        assert ctrl.dre in ("least_squares", "kreisselmeier", "none")
        # the family's own regression filter, whose buffer the runner records
        assert ctrl.regression.pair.aug.shape == (2, 6) and ctrl.dt == config.dt
        ctrl.diagnostics(2)
        q = tuple(config.q0.tolist())
        qd = tuple(config.qd0.tolist())
        e1 = tuple((config.q0 - config.q_d).tolist())
        tau, delta = ctrl.step(0, e1, q, qd, plant.psi_rows(q))
        assert type(tau) is tuple and all(type(x) is float for x in tau) and len(tau) == 2
        assert type(delta) is float
        assert type(ctrl.estimate) is tuple and all(type(x) is float for x in ctrl.estimate)


class TestControllerWrappers:
    def test_composite_controller_advance(self, plant):
        # update Euler-steps the estimate: at e1 = 0, Delta = 0 and Psi = I
        # the rate is -gamma g12 e2
        gains = CompositeAdaptGains()
        ctrl = CompositeFtController(FtPdGains(), gains)
        before = np.array(ctrl.estimate)
        e2 = np.array([1.0, -1.0]) / gains.g12
        composite_step(ctrl, np.zeros(2), e2, ((1.0, 0.0), (0.0, 1.0)), 0.0, [0.0, 0.0], 1e-3)
        np.testing.assert_allclose(np.array(ctrl.estimate) - before,
                                   -1e-3 * np.asarray(gains.gamma_diag) * [1.0, -1.0])

    def test_theta0_length_checked(self):
        with pytest.raises(ValueError):
            CompositeFtController(FtPdGains(), CompositeAdaptGains(),
                                  theta_hat0=np.zeros(5))
