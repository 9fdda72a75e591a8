import numpy as np
import pytest

import reference as ref
from conftest import run
from ftlab import verify
from ftlab.drem import KreisselmeierDre, LeastSquaresDre
from ftlab.control import make_controller
from ftlab.regression import (FILTERS, ForceBalanceRegression, PowerBalanceRegression,
                              make_regression)
from ftlab.sim import SimConfig

DT = 5e-4


class TestPowerBalance:
    def test_zero_transient_initialization(self, plant):
        reg = PowerBalanceRegression(plant, [3.0, 0.0], [0.0, 0.0], 1.0, 1.0, dt=DT)
        pair = reg.step([3.0, 0.0], [0.0, 0.0], [0.0, 0.0], None)
        assert pair.y[0] == 0.0
        np.testing.assert_allclose(pair.omega, np.zeros((1, 5)), atol=1e-15)

    def test_rejects_nonpositive_constants(self, plant):
        with pytest.raises(ValueError):
            PowerBalanceRegression(plant, [0.0, 0.0], [0.0, 0.0], 0.0, 1.0, dt=DT)
        with pytest.raises(ValueError):
            PowerBalanceRegression(plant, [0.0, 0.0], [0.0, 0.0], 1.0, -1.0, dt=DT)
        with pytest.raises(ValueError):
            PowerBalanceRegression(plant, [0.0, 0.0], [0.0, 0.0], 1.0, 1.0, dt=0.0)

    def test_single_euler_step_of_y(self, plant):
        # unit power input: qd' tau = 1
        reg = PowerBalanceRegression(plant, [0.0, 0.0], [1.0, 0.0], 1.0, 1.0, dt=DT)
        reg.step([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], None)
        assert reg.y == DT
        reg.step([0.0, 0.0], [1.0, 0.0], [1.0, 0.0], None)
        assert reg.y == DT + DT * (1.0 - DT)

    def test_unforced_filters_stay_zero(self, plant):
        reg = PowerBalanceRegression(plant, [0.0, 0.0], [0.0, 0.0], 1.0, 1.0, dt=DT)
        for _ in range(100):
            pair = reg.step([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], None)
        assert pair.y[0] == 0.0
        # inertia columns see no motion; potential columns track the filter
        np.testing.assert_allclose(pair.omega[0, :3], np.zeros(3), atol=1e-15)

    def test_residual_along_closed_loop(self, c1_case1_pb):
        trace = c1_case1_pb
        result = verify.check_regression_residual(trace)
        assert result.passed and result.name == "regression_residual_power_balance"
        theta = trace.meta["theta_true"]
        resid = np.abs(trace.diagnostics["y"][:, 0]
                       - trace.diagnostics["omega"][:, 0, :] @ theta)
        # after the transient has been flushed the identity is tight
        k5 = int(round(5.0 / DT))
        tail = resid[k5:] / (1.0 + np.abs(trace.diagnostics["y"][k5:, 0]))
        assert tail.max() <= 5e-5


class TestForceBalance:
    def test_zero_velocity_initialization(self, plant):
        reg = ForceBalanceRegression(plant, [3.0, 0.0], [0.0, 0.0], 1.0, 1.0, dt=DT)
        np.testing.assert_array_equal(reg.z, np.zeros((2, 3)))
        pair = reg.step([3.0, 0.0], [0.0, 0.0], [0.0, 0.0], plant.psi_rows([3.0, 0.0]))
        np.testing.assert_array_equal(pair.y, np.zeros(2))
        np.testing.assert_allclose(pair.omega, np.zeros((2, 5)), atol=1e-15)

    def test_nonzero_initial_velocity_still_zero_residual(self, plant):
        q0, qd0 = np.array([1.0, -0.5]), np.array([2.0, 1.0])
        reg = ForceBalanceRegression(plant, q0, qd0, 1.5, 1.0, dt=DT)
        pair = reg.step(q0, qd0, np.zeros(2), plant.psi_rows(q0))
        resid = pair.y - pair.omega @ plant.theta.stacked
        np.testing.assert_allclose(resid, np.zeros(2), atol=1e-14)

    def test_potential_block_is_filtered_gravity_regressor(self, plant):
        q = np.array([np.pi / 2, 0.0])
        reg = ForceBalanceRegression(plant, q, np.zeros(2), 1.0, 1.0, dt=DT)
        # one Euler step loads the potential block with dt * lambda0 * Psi
        reg.step(q, np.zeros(2), np.zeros(2), plant.psi_rows(q))
        pair = reg.step(q, np.zeros(2), np.zeros(2), plant.psi_rows(q))
        np.testing.assert_allclose(pair.omega[:, 3:], DT * np.array([[1.0, 1.0], [1.0, 0.0]]),
                                   atol=1e-15)

    def test_kinetic_gradient_against_finite_difference(self, plant):
        rng = np.random.default_rng(11)
        h = 1e-7
        for _ in range(200):
            q = rng.uniform(-np.pi, np.pi, 2)
            qd = rng.uniform(-3.0, 3.0, 2)
            # the filter's step writes this gradient out, bit for bit
            # (test_kernels.py::test_regression_step_is_the_layered_form_bitwise)
            grad = np.array(ref.kinetic_grad_rows(q, qd))
            for k in range(3):
                for i in range(2):
                    eq = np.zeros(2)
                    eq[i] = h
                    mk_p = ref.inertia_basis(q + eq)[k]
                    mk_m = ref.inertia_basis(q - eq)[k]
                    fd = (qd @ mk_p @ qd - qd @ mk_m @ qd) / (2 * h)
                    assert grad[i, k] == pytest.approx(fd, abs=1e-6)

    def test_residual_along_closed_loop(self, c1_case1):
        trace = c1_case1
        result = verify.check_regression_residual(trace)
        assert result.passed and result.name == "regression_residual_force_balance"
        theta = trace.meta["theta_true"]
        resid = np.linalg.norm(trace.diagnostics["y"]
                               - trace.diagnostics["omega"] @ theta, axis=1)
        k5 = int(round(5.0 / DT))
        y_norm = np.linalg.norm(trace.diagnostics["y"][k5:], axis=1)
        assert np.max(resid[k5:] / (1.0 + y_norm)) <= 1e-6

    def test_residual_line_of_the_reference_run_is_its_5s_prefix(self, c1_case1):
        # verify checks force balance on its 10 s reference run, where it once
        # ran a 5 s loop of its own: the residual peaks in the first 5 s
        assert verify.check_regression_residual(c1_case1).line() \
            == verify.check_regression_residual(run("c1", t_final=5.0)).line()

    def test_omega_bounded_on_bounded_signals(self, c1_case1):
        assert np.isfinite(c1_case1.diagnostics["omega"]).all()
        assert np.max(np.abs(c1_case1.diagnostics["omega"])) < 50.0


def test_factory_dispatch(plant):
    assert isinstance(make_regression(SimConfig(parameterization="power_balance"), plant),
                      PowerBalanceRegression)
    assert isinstance(make_regression(SimConfig(parameterization="force_balance"), plant),
                      ForceBalanceRegression)


# each controller family builds its filter from the config; c4 runs force
# balance alone
FAMILY_FILTERS = [("c1", "power_balance"), ("c1", "force_balance"), ("c2", "power_balance"),
                  ("c3", "power_balance"), ("c3", "force_balance"), ("c4", "force_balance")]


@pytest.mark.parametrize("lambda0", [None, 0.7], ids=["default", "set"])
@pytest.mark.parametrize("controller, kind", FAMILY_FILTERS)
def test_a_run_builds_its_filter_at_the_config_gains(plant, controller, kind, lambda0):
    # a config without lambda0 runs its filter class's default_lambda0
    cfg = SimConfig(controller=controller, parameterization=kind, lambda0=lambda0, lambda1=0.8)
    reg = make_controller(cfg, plant).regression
    assert type(reg) is FILTERS[kind]
    assert reg.lambda0 == (FILTERS[kind].default_lambda0 if lambda0 is None else lambda0)
    assert reg.lambda1 == cfg.lambda1


@pytest.mark.parametrize("gains", [{}, {"lambda0": 1.0}, {"lambda1": 1.0}],
                         ids=["neither", "no_lambda1", "no_lambda0"])
@pytest.mark.parametrize("kind", list(FILTERS))
def test_a_filter_is_not_built_without_both_gains(plant, kind, gains):
    # the config's lambda0 default and its lambda1 are the only statements of
    # the gains: a direct caller names them
    with pytest.raises(TypeError):
        FILTERS[kind](plant, [0.0, 0.0], [0.0, 0.0], dt=DT, **gains)


@pytest.mark.parametrize("kind", ["power_balance", "force_balance"])
def test_step_returns_the_filters_own_pair(plant, kind):
    # the step loop records pair.aug through a view taken before its first step
    reg = FILTERS[kind](plant, [0.3, -0.2], [0.1, 0.4], 1.0, 1.0, dt=DT)
    pair, aug = reg.pair, reg.pair.aug
    for k in range(3):
        assert reg.step([0.3, -0.2], [0.1 * k, 0.4], [1.0, -1.0],
                        plant.psi_rows([0.3, -0.2])) is pair
        assert reg.pair is pair and pair.aug is aug


@pytest.mark.parametrize("dt", [0.0, -DT, float("nan")])
@pytest.mark.parametrize("build", [
    lambda plant, dt: PowerBalanceRegression(plant, [0.0, 0.0], [0.0, 0.0], 1.0, 1.0, dt=dt),
    lambda plant, dt: ForceBalanceRegression(plant, [0.0, 0.0], [0.0, 0.0], 1.0, 1.0, dt=dt),
    lambda plant, dt: LeastSquaresDre(5, dt=dt),
    lambda plant, dt: KreisselmeierDre(5, dt=dt),
], ids=["power_balance", "force_balance", "least_squares", "kreisselmeier"])
def test_each_part_rejects_a_nonpositive_dt_when_built(plant, build, dt):
    # the step size is checked once, at construction; step takes no dt
    with pytest.raises(ValueError, match="dt must be positive"):
        build(plant, dt)
