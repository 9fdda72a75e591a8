"""The float kernels of the step loop against the numpy formulations in
``reference.py``, over drawn states.

The two differ by rounding only: BLAS products fuse multiply-adds and sum in
their own order, and numpy's vectorised ``power`` is not the C library's
``pow``.  Each tolerance is a multiple of float64's eps (2.2e-16) times the
magnitude of the terms that are summed, so a test fails on a wrong term,
sign or index but not on the last bits:

* n = 2 kernels: 1e-13 (about 450 eps) times max(1, the largest term);
* the 2x2 solve of the forward dynamics: the same, divided by lambda_min(M);
* the least-squares gain F = R^-1: cond(R) * 1e-14 times |F|, per step taken,
  and c4's estimate rate -F x within the same times |F| |x|;
* the least-squares mixing: Delta, which lies in [0, 1), within the same
  cond(R) * 1e-14 per step; Y and rho_hat within it times |F| |u|, the size
  of the vector v = rho_hat = F u that is mixed;
* the Kreisselmeier filters: 1e-13 times their largest term, per step taken.

The two direct LAPACK calls of ``mathx`` are held to the public
``np.linalg`` functions bit for bit, and so are the flattened float forms
of the step path (the forward dynamics with friction, the energy terms,
the regression filters, the least-squares forgetting rate, the noise of a
run's samples, the composite step, and c3's and c4's steps) to the
layered forms in ``reference.py`` that they replaced.
"""

import itertools
import math
from collections import namedtuple
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from conftest import (DT, PairStub, composite_rate, composite_step, recorded_branch,
                      step_once)
from ftlab.control import (CompositeAdaptGains, CompositeFtController,
                           FtPdGains, SlotineLiLsController,
                           SwitchingTsmController, TsmParams)
from ftlab import mathx
from ftlab.drem import (KreisParams, KreisselmeierDre, LeastSquaresDre,
                        LsDreParams, replay)
from ftlab.plant import NoiseModel, Plant
from ftlab.regression import (ForceBalanceRegression, PowerBalanceRegression,
                              RegressionPair)

N2 = 1e-13          # n = 2 kernels, relative to the largest summed term
LS = 1e-14          # least-squares gain, times cond(R)

PLANT = Plant.two_link()
THETA = PLANT.theta


def vec(n, bound):
    return st.lists(st.floats(-bound, bound, allow_nan=False), min_size=n,
                    max_size=n).map(np.array)


angles = vec(2, 2.0 * math.pi)
rates = vec(2, 5.0)
torques = vec(2, 20.0)
errors = vec(2, 3.0)
estimates = vec(2, 10.0)
full_estimates = vec(5, 10.0)


def assert_close(got, want, scale, rel=N2):
    got = np.asarray(got, dtype=float)
    assert got.shape == np.shape(want)
    worst = float(np.max(np.abs(got - want)))
    assert worst <= rel * max(1.0, scale), (worst, scale)


# -- plant ---------------------------------------------------------------------

@given(q=angles)
def test_inertia_matches_basis_product(q):
    want = ref.inertia(THETA.theta_m, q)
    assert_close(PLANT.inertia_rows(q), want, np.max(np.abs(want)))


@given(q=angles, qd=rates)
def test_coriolis_times_velocity_matches(q, qd):
    want = ref.coriolis(THETA.theta_m, q, qd) @ qd
    scale = THETA.theta_m[1] * 2.0 * float(np.max(np.abs(qd))) ** 2
    assert_close(np.array(PLANT.coriolis_rows(q, qd)) @ qd, want, scale)


@given(q=angles)
def test_gravity_and_psi_match(q):
    assert_close(PLANT.psi_rows(q), ref.psi(q), 1.0)
    assert_close(ref.matvec2(PLANT.psi_rows(q), THETA.theta_u), ref.gravity(THETA.theta_u, q),
                 float(np.sum(THETA.theta_u)))


@given(q=angles, qd=rates, tau=torques, coulomb=vec(2, 1.0).map(np.abs),
       friction=st.booleans())
def test_forward_dynamics_matches(q, qd, tau, coulomb, friction):
    coulomb = tuple(coulomb.tolist()) if friction else None
    tau_f = np.array(ref.friction_torque(coulomb, qd)) if friction else None
    want = ref.forward_dynamics(THETA, q, qd, tau, tau_f)
    m = ref.inertia(THETA.theta_m, q)
    terms = (np.abs(tau) + np.abs(ref.coriolis(THETA.theta_m, q, qd)) @ np.abs(qd)
             + np.abs(ref.psi(q)) @ THETA.theta_u
             + (np.abs(tau_f) if friction else 0.0))
    scale = float(np.max(terms)) / float(np.linalg.eigvalsh(m)[0])
    assert_close(PLANT.forward_dynamics(q, qd, tau, coulomb), want, scale)


@given(q=angles, qd=rates)
def test_energy_regressor_matches(q, qd):
    want = ref.energy_regressor(q, qd)
    assert_close(PLANT.energy_terms(q, qd), want, float(np.max(np.abs(want))))


# -- controllers ---------------------------------------------------------------

def ftpd_scale(gains, e1, e2, psi_q, th):
    terms = (gains.kp * np.abs(e1) ** gains.a + gains.kd * np.abs(e2) ** gains.b
             + gains.kd_lin * np.abs(e2) + np.abs(psi_q) @ np.abs(th))
    return float(np.max(terms))


@given(e1=errors, e2=rates, q=angles, th=estimates)
def test_ftpd_torque_matches(e1, e2, q, th):
    gains = FtPdGains()
    psi_q = ref.psi(q)
    want = ref.ftpd_torque(e1, e2, psi_q, th, gains)
    scale = ftpd_scale(gains, e1, e2, psi_q, th)
    ctrl = CompositeFtController(gains, CompositeAdaptGains(), theta_hat0=th)
    got = composite_step(ctrl, e1, e2, psi_q, 0.0, [0.0, 0.0], 5e-4)
    assert_close(got, want, scale)


@given(e1=errors, e2=rates, q=angles, th=estimates,
       delta=st.floats(-50.0, 50.0, allow_nan=False), y_u=vec(2, 500.0),
       r1=st.sampled_from([1.2, 1.4, 1.5, 1.8]))
def test_composite_adapt_rate_matches(e1, e2, q, th, delta, y_u, r1):
    ftpd, gains = FtPdGains(r1=r1), CompositeAdaptGains()
    c = ftpd.b
    psi_q = ref.psi(q)
    want = ref.composite_adapt_rate(e1, e2, psi_q, th, delta, y_u, gains, c)
    direct = np.abs(psi_q).T @ (gains.g1d1 + gains.g12 * np.abs(e2))
    indirect = gains.g12 * np.asarray(gains.upsilon_diag) * np.abs(delta * th - y_u) ** c
    scale = float(np.max(gains.gamma_diag * (direct + indirect)))
    ctrl = CompositeFtController(ftpd, gains, theta_hat0=th)
    # the rate as a unit Euler step of the estimate, which adds the rounding
    # of th + rate, a few eps of |th| <= 10
    assert_close(composite_rate(ctrl, e1, e2, psi_q, delta, y_u.tolist()), want, scale)


def slotine_li_scale(w, th, s, k1, ks):
    return float(np.max(np.abs(w) @ np.abs(th) + k1 * np.abs(s))) + ks


@given(e1=errors, e2=rates, q=angles, th=full_estimates)
def test_switching_torque_matches(e1, e2, q, th):
    params, a = TsmParams(), FtPdGains().a
    m = ref.inertia(THETA.theta_m, q)
    f_want = ref.switching_function(params, a, e1, e2, m)
    f_scale = float(np.max(np.abs(m))) * float(e2 @ e2 + 4.0 * params.k2 ** 2
                                                * np.sum(np.abs(e1) ** (2 * a)))
    ctrl = SwitchingTsmController(params, a, theta_hat0=th, plant=PLANT)
    got, _ = step_once(ctrl, e1, q, e2, ref.psi(q))
    # the controller takes the branch of the layered switching value, bit for
    # bit (test_switching_torque_and_branch_are_the_layered_form_bitwise)
    assert_close(ref.switching_value_layered(params, a, e1, e2, m), f_want, f_scale)
    if abs(f_want) <= N2 * max(1.0, f_scale):
        return    # on the switching surface either branch is right
    want, nonlinear, w, s = ref.tsm_torque(params, a, th, e1, e2, q, e2, m)
    assert recorded_branch(ctrl) == ("tsm" if nonlinear else "linear")
    assert_close(got, want, slotine_li_scale(w, th, s, params.k1, params.ks))


@given(e1=errors, qd=rates, q=angles, th=full_estimates)
def test_slotine_li_torque_matches(e1, qd, q, th):
    params = TsmParams()
    want, w, s = ref.slotine_li_torque(params, th, e1, q, qd)
    ctrl = SlotineLiLsController(params, LsDreParams(), theta_hat0=th, dt=DT)
    got, _ = step_once(ctrl, e1, q, qd, ref.psi(q))
    assert_close(got, want, slotine_li_scale(w, th, s, params.k1, params.ks))


# -- the flattened step path against its layered form, bit for bit --------------

def bits(x):
    return np.array(x, dtype=float).tobytes()


def edgy(n, bound):
    """n floats in [-bound, bound], a quarter of them drawn from the signed
    zeros and subnormals, where a dropped or reordered zero term shows in the
    sign of a zero result."""
    drawn = st.floats(-bound, bound, allow_nan=False)
    return st.lists(st.one_of(drawn, drawn, drawn, st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
                    min_size=n, max_size=n)


def friction_of(coulomb, qd):
    """The friction torque the layered form took, or None without friction."""
    return None if coulomb is None else ref.friction_torque(coulomb, qd)


@given(q=edgy(2, 2.0 * math.pi), qd=edgy(2, 5.0), tau=edgy(2, 20.0), coulomb=edgy(2, 1.0),
       friction=st.booleans(), given_terms=st.sampled_from(["none", "psi", "both"]))
@settings(max_examples=500)
def test_forward_dynamics_is_the_layered_form_bitwise(q, qd, tau, coulomb, friction,
                                                      given_terms):
    # the Coulomb term c sign(v), c v at v = +-0.0, is the friction model's
    # torque; M(q) formed inline is inertia_rows'
    coulomb = coulomb if friction else None
    terms = {"none": {}, "psi": {"psi": PLANT.psi_rows(q)},
             "both": {"psi": PLANT.psi_rows(q), "inertia": PLANT.inertia_rows(q)}}[given_terms]
    assert bits(PLANT.forward_dynamics(q, qd, tau, coulomb, **terms)) \
        == bits(ref.forward_dynamics_layered(PLANT, q, qd, tau, friction_of(coulomb, qd),
                                             **terms))


def test_forward_dynamics_and_energy_at_signed_zeros_bitwise():
    # every sign pattern of an all-zero state, torque and friction: the zero
    # products of C qd, Psi theta_u, the friction and the energy terms carry
    # their signs into a zero result
    for q1, q2, v1, v2, t1, t2, f1, f2 in itertools.product((0.0, -0.0), repeat=8):
        q, qd, tau, coulomb = (q1, q2), (v1, v2), (t1, t2), (f1, f2)
        for friction in (None, coulomb):
            assert bits(PLANT.forward_dynamics(q, qd, tau, friction)) \
                == bits(ref.forward_dynamics_layered(PLANT, q, qd, tau,
                                                     friction_of(friction, qd)))
        assert bits(PLANT.energy_terms(q, qd)) == bits(ref.energy_terms_layered(PLANT, q, qd))


@given(q=edgy(2, 2.0 * math.pi), qd=edgy(2, 5.0))
@settings(max_examples=500)
def test_energy_terms_are_the_layered_form_bitwise(q, qd):
    assert bits(PLANT.energy_terms(q, qd)) == bits(ref.energy_terms_layered(PLANT, q, qd))


@given(t=st.floats(0.0, 1e3), amplitude=st.floats(0.0, 1.0), frequency=st.floats(0.0, 1e3),
       steps=st.integers(1, 50), dt=st.sampled_from([5e-4, 1e-3, 0.05]))
def test_noise_sample_is_the_two_calls_bitwise(t, amplitude, frequency, steps, dt):
    noise = NoiseModel(amplitude, frequency)
    (n1, n2), = noise.sample([t]).tolist()
    position, velocity = ref.noise_layered(noise, t)
    assert bits((n1, n2)) == bits(position) and bits((n1, n1)) == bits(velocity)
    # the noise of a run's samples k dt, drawn at once as the runner does,
    # is that of each sample time, the float k * dt
    for k, row in enumerate(noise.sample(np.arange(steps) * dt).tolist()):
        assert bits(row) == bits(ref.noise_layered(noise, k * dt)[0])


# 1e300 and the largest float overflow |Delta|^(c + d) where c + d > 1
deltas = st.floats(-50.0, 50.0, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e-300, 1e300, -1.7976931348623157e308])


@given(e1=edgy(2, 3.0), e2=edgy(2, 5.0), q=edgy(2, 2.0 * math.pi), th=edgy(2, 10.0),
       delta=deltas, y_u=edgy(2, 500.0), r1=st.sampled_from([1.2, 1.4, 1.5, 1.8]),
       dt=st.sampled_from([5e-4, 1e-3, 0.05]))
@settings(max_examples=500)
def test_composite_torque_and_update_are_the_layered_form_bitwise(e1, e2, q, th, delta,
                                                                  y_u, r1, dt):
    ftpd, gains = FtPdGains(r1=r1), CompositeAdaptGains()
    psi_q = PLANT.psi_rows(q)
    ctrl = CompositeFtController(ftpd, gains, theta_hat0=th)
    tau = composite_step(ctrl, e1, e2, psi_q, delta, y_u, dt)
    assert bits(tau) == bits(ref.ftpd_layered(e1, e2, psi_q, th, ftpd, ftpd.a, ftpd.b))
    rate = ref.composite_rate(e1, e2, psi_q, th, delta, y_u, gains, ftpd.b)
    assert bits(ctrl.estimate) == bits(ref.advance(th, rate, dt))


def kreis_with_state(flat, dt):
    """A Kreisselmeier extension at the step size ``dt`` whose state
    [phi2 | phi1] is ``flat``."""
    dre = KreisselmeierDre(5, KreisParams(lambda3=1.0), dt=dt)
    dre._state[...] = np.reshape(flat, (5, 6))
    return dre


@given(e1=edgy(2, 3.0), e2=edgy(2, 5.0), q=edgy(2, 2.0 * math.pi), th=edgy(5, 10.0),
       state=edgy(30, 3.0), aug=edgy(12, 3.0))
@settings(max_examples=500)
def test_switching_torque_and_branch_are_the_layered_form_bitwise(e1, e2, q, th, state, aug):
    params, a, dt = TsmParams(), FtPdGains().a, 5e-4
    m = PLANT.inertia_rows(q)
    pair = RegressionPair(y=np.array(aug[5::6]), omega=np.reshape(aug, (2, 6))[:, :5])
    ctrl = SwitchingTsmController(params, a, theta_hat0=th, plant=PLANT,
                                  extension=kreis_with_state(state, dt))
    dre = kreis_with_state(state, dt)
    row = np.empty(6)
    # a drawn phi2 may be singular, where the LU divides by zero
    with np.errstate(all="ignore"):
        tau, delta = step_once(ctrl, e1, q, e2, PLANT.psi_rows(q), pair=pair, dt=dt)
        # the extension as its own step and mix leave it
        dre.step(pair)
        dre.mix(row)
    want, nonlinear, w, s = ref.tsm_torque_layered(params, a, th, e1, q, e2, m)
    assert bits(tau) == bits(want)
    assert recorded_branch(ctrl) == ("tsm" if nonlinear else "linear")
    assert bits(delta) == bits(row[0])
    # the rate of the controller's adapt_rate, from the stepped phi1 and phi2
    rate = ref.tsm_rate_layered(params, th, w, s, nonlinear, dre.phi1, dre.phi2)
    assert bits(ctrl.estimate) == bits(ref.advance(th, rate, dt))


@given(e1=edgy(2, 3.0), qd=edgy(2, 5.0), q=edgy(2, 2.0 * math.pi), th=edgy(5, 10.0),
       aug=edgy(12, 3.0))
@settings(max_examples=300)
def test_slotine_li_ls_step_is_the_layered_form_bitwise(e1, qd, q, th, aug):
    params, dt = TsmParams(), 5e-4
    pair = RegressionPair(y=np.array(aug[5::6]), omega=np.reshape(aug, (2, 6))[:, :5])
    ctrl = SlotineLiLsController(params, LsDreParams(), theta_hat0=th, dt=dt)
    gain = LeastSquaresDre(5, LsDreParams(), dt=dt)
    tau, delta = step_once(ctrl, e1, q, qd, PLANT.psi_rows(q), pair=pair, dt=dt)
    want, w, s = ref.slotine_li_ls_torque_layered(params, th, e1, q, qd)
    assert bits(tau) == bits(want) and delta == 0.0
    f_drive = gain.gain_times(ref.slotine_li_ls_drive(w, s, th, pair.y, pair.omega))
    assert bits(ctrl.estimate) == bits(ref.advance(th, (-f_drive).tolist(), dt))


# -- regression filters --------------------------------------------------------

steps = st.lists(st.tuples(angles, rates, torques), min_size=1, max_size=4)


@pytest.mark.parametrize("kind", ["power_balance", "force_balance"])
@given(q0=angles, qd0=rates, samples=steps, lambda0=st.sampled_from([0.3, 1.0, 1.5]))
@settings(max_examples=60)
def test_regression_step_matches(kind, q0, qd0, samples, lambda0):
    cls, ref_cls = {"power_balance": (PowerBalanceRegression, ref.PowerBalanceRegression),
                    "force_balance": (ForceBalanceRegression, ref.ForceBalanceRegression)}[kind]
    dt = 5e-4
    reg = cls(PLANT, q0, qd0, lambda0, 1.0, dt=dt)
    want_reg = ref_cls(q0, qd0, lambda0, 1.0)
    for q, qd, tau in samples:
        pair = reg.step(q, qd, tau, ref.psi(q))
        y, omega = want_reg.step(q, qd, tau, dt)
        scale = float(np.max(np.abs(omega))) + float(np.max(np.abs(y)))
        assert_close(pair.y, y, scale)
        assert_close(pair.omega, omega, scale)
    assert_close(np.reshape(reg.y, np.shape(want_reg.y)), want_reg.y,
                 float(np.max(np.abs(want_reg.y))))
    assert_close(reg.z, want_reg.z, float(np.max(np.abs(want_reg.z))))


def sampled_pair(reg, q, qd):
    """(y, Omega) that ``reg.step(q, qd, ...)`` samples, built from the
    filter's float state as separate arrays, the way the filters built
    their pairs before they owned one [Omega | y] buffer."""
    l0 = reg.lambda0
    if isinstance(reg, PowerBalanceRegression):
        z1, z2, z3, z4, z5 = reg._z
        w1, w2, w3, w4, w5 = PLANT.energy_terms(q, qd)
        return (np.array([reg._y]), np.array([[z1 + l0 * w1, z2 + l0 * w2, z3 + l0 * w3,
                                               z4 + l0 * w4, z5 + l0 * w5]]))
    (f11, f12, f13), (f21, f22, f23) = PLANT.basis_force_rows(q, qd)
    (z11, z12, z13), (z21, z22, z23) = reg._z
    (w11, w12), (w21, w22) = reg._omega_d2
    return (np.array(reg._y),
            np.array([[z11 + l0 * f11, z12 + l0 * f12, z13 + l0 * f13, w11, w12],
                      [z21 + l0 * f21, z22 + l0 * f22, z23 + l0 * f23, w21, w22]]))


float_steps = st.lists(st.tuples(angles, rates, torques).map(
    lambda s: tuple(x.tolist() for x in s)), min_size=2, max_size=5)


@pytest.mark.parametrize("cls", [PowerBalanceRegression, ForceBalanceRegression])
@given(q0=angles, qd0=rates, samples=float_steps, lambda0=st.sampled_from([0.3, 1.0, 1.5]))
@settings(max_examples=60)
def test_regression_pair_is_one_buffer_rewritten_in_place(cls, q0, qd0, samples, lambda0):
    reg = cls(PLANT, q0, qd0, lambda0, 1.0, dt=5e-4)
    first = None
    for q, qd, tau in samples:
        want_y, want_omega = sampled_pair(reg, q, qd)
        pair = reg.step(q, qd, tau, PLANT.psi_rows(q))
        assert same_bits(pair.y, want_y) and same_bits(pair.omega, want_omega)
        # y and Omega are views of the one [Omega | y] buffer of the run
        first = first or pair
        assert pair.aug is first.aug
        assert pair.omega.base is pair.aug and pair.y.base is pair.aug


edgy_steps = st.lists(st.tuples(edgy(2, 2.0 * math.pi), edgy(2, 5.0), edgy(2, 20.0)),
                     min_size=1, max_size=4)


@pytest.mark.parametrize("cls", [PowerBalanceRegression, ForceBalanceRegression])
@given(q0=edgy(2, 2.0 * math.pi), qd0=edgy(2, 5.0), samples=edgy_steps,
       lambda0=st.sampled_from([0.3, 1.0, 1.5]))
@settings(max_examples=200)
def test_regression_step_is_the_layered_form_bitwise(cls, q0, qd0, samples, lambda0):
    # each filter writes out the plant's basis terms it used to call, the
    # zero entries of the kinetic gradient included
    reg = cls(PLANT, q0, qd0, lambda0, 1.0, dt=5e-4)
    for q, qd, tau in samples:
        psi = PLANT.psi_rows(q)
        rows, y, z, omega_d2 = ref.regression_step_layered(reg, PLANT, q, qd, tau, 5e-4, psi)
        pair = reg.step(q, qd, tau, psi)
        assert bits(pair.aug) == bits(rows)
        assert bits(reg._y) == bits(y) and bits(reg._z) == bits(z)
        if omega_d2 is not None:
            assert bits(reg._omega_d2) == bits(omega_d2)


# -- least-squares extension ---------------------------------------------------

@given(omegas=st.lists(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=15,
                                max_size=15), min_size=1, max_size=12),
       norm=st.sampled_from(["spectral", "frobenius"]))
@settings(max_examples=100)
def test_least_squares_step_matches(omegas, norm):
    params = LsDreParams(norm=norm)
    dt = 5e-4
    dre = LeastSquaresDre(5, params, dt=dt)
    r, u, z, f = params.f0 * np.eye(5), np.zeros(5), 1.0, np.eye(5) / params.f0
    theta = THETA.stacked
    for k, flat in enumerate(omegas, start=1):
        omega = np.reshape(flat, (3, 5))[:2]
        y = omega @ theta + np.reshape(flat, (3, 5))[2, :2]
        b, r, u, z, f, rho_hat = ref.ls_step(r, u, z, f, params, y, omega, dt)
        # the rate this step uses
        b_got = ref.ls_beta_of(dre)
        dre.step(RegressionPair(y=y, omega=omega))
        tol = LS * k * np.linalg.cond(r)
        assert b_got == pytest.approx(b, rel=tol, abs=tol)
        assert dre.z == pytest.approx(z, rel=tol)
        assert_close(dre.F, f, float(np.max(np.abs(f))), rel=tol)
        assert_close(dre.rho_hat, rho_hat, float(np.max(np.abs(f)) * np.max(np.abs(u))),
                     rel=tol)
    assert ref.ls_beta_of(dre) == pytest.approx(ref.ls_beta(f, params), rel=tol, abs=tol)


class RateProbe(SlotineLiLsController):
    """c4 with the estimate rate of its last update, -F x with F x its
    extension's ``gain_times``, kept as ``rate``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        gain_times = self.extension.gain_times

        def probe(x):
            f_x = gain_times(x)
            self.rate = -f_x
            return f_x

        self.extension.gain_times = probe


@given(steps=st.lists(st.tuples(st.lists(st.floats(-3.0, 3.0, allow_nan=False),
                                         min_size=15, max_size=15),
                                errors, rates, angles), min_size=1, max_size=12),
       th=full_estimates, norm=st.sampled_from(["spectral", "frobenius"]))
@settings(max_examples=100)
def test_slotine_li_rate_uses_the_least_squares_gain(steps, th, norm):
    # c4's estimate rate is -F (W' s + Omega' e_p), e_p = Omega theta_hat - y,
    # with F the gain the least-squares step has reached before this step
    params, ls = TsmParams(), LsDreParams(norm=norm)
    dt = 5e-4
    ctrl = RateProbe(params, ls, theta_hat0=th, dt=dt)
    r, u, z, f = ls.f0 * np.eye(5), np.zeros(5), 1.0, np.eye(5) / ls.f0
    tol = LS
    ctrl.diagnostics(len(steps))
    for k, (flat, e1, qd, q) in enumerate(steps, start=1):
        omega, y = np.reshape(flat, (3, 5))[:2], np.reshape(flat, (3, 5))[2, :2]
        theta_hat = np.array(ctrl.estimate)
        _, w, s = ref.slotine_li_torque(params, theta_hat, e1, q, qd)
        ctrl.regression = PairStub(RegressionPair(y=y, omega=omega))
        ctrl.step(k - 1, e1, q, qd, ref.psi(q))
        e_p = omega @ theta_hat - y
        want = -f @ (w.T @ s + omega.T @ e_p)
        x_scale = float(np.max(np.abs(w).T @ np.abs(s)
                               + np.abs(omega).T @ (np.abs(omega) @ np.abs(theta_hat)
                                                    + np.abs(y))))
        assert_close(ctrl.rate, want, 5.0 * float(np.max(np.abs(f))) * x_scale, rel=tol)
        _, r, u, z, f, _ = ref.ls_step(r, u, z, f, ls, y, omega, dt)
        tol = LS * k * np.linalg.cond(r)


LsStep = namedtuple("LsStep",
                    "delta Y F rho_hat want_delta want_Y want_R want_F want_rho_hat tol scale")


def ls_drive(rows, params):
    """Step a LeastSquaresDre and the reference step side by side, each step
    on two regressor rows and a residual row of ``rows`` (15 floats), mixing
    as the run does.  Returns the extension's history, which ``replay``
    rebuilds from the pairs, and one LsStep per step."""
    dt = 5e-4
    dre = LeastSquaresDre(5, params, dt=dt)
    r, u, z, f = params.f0 * np.eye(5), np.zeros(5), 1.0, np.eye(5) / params.f0
    theta = THETA.stacked
    mixing = np.empty((len(rows), 6))
    omegas, ys, steps = [], [], []
    for k, flat in enumerate(rows):
        omega, resid = np.reshape(flat, (3, 5))[:2], np.reshape(flat, (3, 5))[2, :2]
        y = omega @ theta + resid
        omegas.append(omega)
        ys.append(y)
        _, r, u, z, f, rho_hat = ref.ls_step(r, u, z, f, params, y, omega, dt)
        dre.step(RegressionPair(y=y, omega=omega))
        dre.mix(mixing[k])
        delta, Y = ref.ls_mix(f, rho_hat, z, params)
        scale = float(np.max(np.abs(f))) * float(np.max(np.abs(u)))
        steps.append(LsStep(mixing[k, 0], mixing[k, 1:], dre.F, dre.rho_hat, delta, Y, r, f,
                            rho_hat, LS * (k + 1) * np.linalg.cond(r), scale))
    return replay(dre, np.array(omegas), np.array(ys)), steps


ls_rows = st.lists(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=15, max_size=15),
                   min_size=1, max_size=12)


@given(rows=ls_rows, norm=st.sampled_from(["spectral", "frobenius"]))
@settings(max_examples=100)
def test_least_squares_mix_matches(rows, norm):
    diag, steps = ls_drive(rows, LsDreParams(norm=norm))
    for k, s in enumerate(steps):
        assert abs(s.delta - s.want_delta) <= s.tol, (s.delta, s.want_delta)
        assert_close(s.Y, s.want_Y, s.scale, rel=s.tol)
        assert_close(s.F, s.want_F, float(np.max(np.abs(s.want_F))), rel=s.tol)
        assert_close(s.rho_hat, s.want_rho_hat, s.scale, rel=s.tol)
        # the history holds the eigenvalues of R = F^-1, ascending
        assert_close(diag["w"][k], np.linalg.eigvalsh(s.want_R),
                     float(np.max(np.abs(s.want_R))), rel=s.tol)


@given(rows=ls_rows, column=st.integers(0, 4))
@settings(max_examples=30)
def test_least_squares_never_excited_direction_mixes_to_zero(rows, column):
    # a regressor column that stays 0 leaves R - z f0 I singular: Delta = 0
    rows = np.array(rows).reshape(-1, 3, 5)
    rows[:, :2, column] = 0.0
    _, steps = ls_drive(rows.reshape(-1, 15), LsDreParams())
    for s in steps:
        assert abs(s.want_delta) <= s.tol
        assert abs(s.delta) <= s.tol


def test_least_squares_setters_round_trip():
    params = LsDreParams()
    dre = LeastSquaresDre(5, params, dt=DT)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5))
    f = a @ a.T + 0.5 * np.eye(5)
    rho_hat = rng.normal(size=5)
    dre.z = 0.25
    dre.F = f
    dre.rho_hat = rho_hat
    tol = LS * np.linalg.cond(f)
    f_max = float(np.max(np.abs(f)))
    assert_close(dre.F, f, f_max, rel=tol)
    assert_close(dre.rho_hat, rho_hat,
                 f_max * float(np.max(np.abs(np.linalg.solve(f, rho_hat)))), rel=tol)
    assert ref.ls_beta_of(dre) == pytest.approx(ref.ls_beta(f, params), rel=tol)
    # the mixing reads the assigned state
    delta, Y = ref.ls_mix(f, rho_hat, 0.25, params)
    row = np.empty(6)
    dre.mix(row)
    assert row[0] == pytest.approx(delta, rel=tol, abs=tol)
    assert_close(row[1:], Y, float(np.max(np.abs(Y))), rel=tol)


# -- Kreisselmeier extension ---------------------------------------------------

@given(omegas=st.lists(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=15,
                                max_size=15), min_size=1, max_size=12),
       lambda3=st.sampled_from([1.0, 1.3]))
@settings(max_examples=100)
def test_kreisselmeier_step_matches(omegas, lambda3):
    dt = 5e-4
    dre = KreisselmeierDre(5, KreisParams(lambda3=lambda3), dt=dt)
    phi1, phi2 = np.zeros(5), np.zeros((5, 5))
    for k, flat in enumerate(omegas, start=1):
        omega = np.reshape(flat, (3, 5))[:2]
        y = np.reshape(flat, (3, 5))[2, :2]
        phi1, phi2 = ref.kreis_step(phi1, phi2, 1.0, lambda3, y, omega, dt)
        dre.step(RegressionPair(y=y, omega=omega))
        scale = k * dt * lambda3 * 9.0 * 2    # |omega' omega| <= 2 rows of 3 x 3
        assert_close(dre.phi1, phi1, scale, rel=N2 * k)
        assert_close(dre.phi2, phi2, scale, rel=N2 * k)


@pytest.mark.parametrize("extension", [KreisselmeierDre, LeastSquaresDre])
@pytest.mark.parametrize("cls", [PowerBalanceRegression, ForceBalanceRegression])
@given(q0=angles, qd0=rates, samples=float_steps)
@settings(max_examples=60)
def test_extension_step_on_the_buffer_is_the_step_on_copies(extension, cls, q0, qd0,
                                                            samples):
    # the pair's Omega and y are views of [Omega | y], y a strided column
    # for 2 rows; each step must round as it does on contiguous copies
    reg = cls(PLANT, q0, qd0, 1.5, 1.0, dt=DT)
    on_buffer, on_copies = extension(5, dt=DT), extension(5, dt=DT)
    for q, qd, tau in samples:
        pair = reg.step(q, qd, tau, PLANT.psi_rows(q))
        omega = pair.omega.copy()
        copies = SimpleNamespace(y=pair.y.copy(), omega=omega, aug=pair.aug.copy(),
                                 omega_t=omega.T)
        on_buffer.step(pair)
        on_copies.step(copies)
        assert same_bits(on_buffer._state, on_copies._state)


@pytest.mark.parametrize("extension", [KreisselmeierDre, LeastSquaresDre])
@pytest.mark.parametrize("cls", [PowerBalanceRegression, ForceBalanceRegression])
@given(q0=angles, qd0=rates, samples=float_steps)
@settings(max_examples=60)
def test_extension_step_is_one_product_affine_step(extension, cls, q0, qd0, samples):
    # both extensions advance decay * state + gain * Omega' [Omega | y], the
    # product one gemm on 1 (power balance) or 2 (force balance) rows; its
    # leading block, phi2 or R, stays exactly symmetric, which the final
    # phi2's eigvalsh in compute_metrics relies on
    dt = 5e-4
    reg = cls(PLANT, q0, qd0, 1.5, 1.0, dt=dt)
    dre = extension(5, dt=dt)
    for q, qd, tau in samples:
        pair = reg.step(q, qd, tau, PLANT.psi_rows(q))
        if extension is KreisselmeierDre:
            decay, gain = 1.0 - dt * dre.params.lambda2, dt * dre.params.lambda3
        else:
            decay, gain = 1.0 - dt * ref.ls_beta_of(dre), dt * dre.params.alpha
        want = decay * dre._state + gain * (pair.omega.T @ pair.aug)
        dre.step(pair)
        assert same_bits(dre._state, want)
        block = dre._state[:, :5]
        assert same_bits(block, block.T.copy())


@pytest.mark.parametrize("norm", ["spectral", "frobenius"])
@given(rows=ls_rows)
@settings(max_examples=40)
def test_least_squares_decay_is_the_layered_forgetting_rate_bitwise(norm, rows):
    # each step decays z by 1 - beta dt, with beta as the extension's
    # ``beta`` formed it from the eigenvalues the last step left
    dt, z = 5e-4, 1.0
    dre = LeastSquaresDre(5, LsDreParams(norm=norm), dt=dt)
    for flat in rows:
        omega, y = np.reshape(flat, (3, 5))[:2], np.reshape(flat, (3, 5))[2, :2]
        z = z * (1.0 - dt * ref.ls_beta_of(dre))
        dre.step(RegressionPair(y=y, omega=omega))
        assert dre.z.hex() == z.hex()


# -- direct LAPACK calls -------------------------------------------------------

def stacked_state(flat, shift):
    """A (5, 6) stacked state [phi | v] with phi = A A' + shift I: symmetric
    positive semidefinite at shift 0, positive definite above it."""
    a = np.reshape(flat[:25], (5, 5))
    state = np.empty((5, 6))
    state[:, :5] = a @ a.T + shift * np.eye(5)
    state[:, 5] = flat[25:]
    return state


stacked_states = st.builds(
    stacked_state, st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=30, max_size=30),
    st.sampled_from([0.0, 1e-6, 1.0, 1e3]))


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


# no skip and no fallback: a numpy without these loops fails here, loudly

@given(state=stacked_states)
@settings(max_examples=100)
def test_eigh_sym_is_numpy_eigh_bitwise(state):
    # the strided view state[:, :5] is how the least-squares step hands R over
    for r in (state[:, :5], np.ascontiguousarray(state[:, :5])):
        w, v = mathx.eigh_sym(r)
        w_want, v_want = np.linalg.eigh(r)
        assert same_bits(w, w_want) and same_bits(v, v_want)


@given(state=stacked_states)
@settings(max_examples=100)
def test_det_stack_is_numpy_det_bitwise(state):
    # the (6, 5, 5) Cramer stack of the Kreisselmeier mixing: phi, then phi
    # with column j replaced by v
    stack = np.repeat(state[None, :, :5], 6, axis=0)
    for j in range(5):
        stack[j + 1, :, j] = state[:, 5]
    want = np.linalg.det(stack)
    assert same_bits(mathx.det_stack(stack), want)
    delta, cramer = ref.kreis_mix(state[:, 5], state[:, :5])
    assert same_bits(np.float64(delta), want[0]) and same_bits(cramer, want[1:])
    # the Kreisselmeier mixing makes the same gather and call into its row
    dre = KreisselmeierDre(5, dt=DT)
    dre.phi2, dre.phi1 = state[:, :5], state[:, 5]
    row = np.empty(6)
    assert dre.mix(row) == want.tolist() and same_bits(row, want)
