import numpy as np
import pytest

import reference as ref
from ftlab import mathx, verify
from ftlab.drem import (KreisParams, KreisselmeierDre, LeastSquaresDre,
                        LsDreParams, excitation_gramian, make_dre)
from ftlab.errors import NumericalDegeneracyError
from ftlab.regression import RegressionPair

DT = 5e-4


def zero_pair(n_out=2, dim=5):
    return RegressionPair(y=np.zeros(n_out), omega=np.zeros((n_out, dim)))


class TestLeastSquares:
    def test_initial_state(self):
        dre = LeastSquaresDre(5, 2)
        np.testing.assert_array_equal(dre.rho_hat, np.zeros(5))
        np.testing.assert_allclose(dre.F, np.eye(5))
        assert dre.z == 1.0

    def test_initial_forgetting_rate(self):
        # f0 = 1, cap 10: |F(0)| = 1 spectrally, so beta = 10 (1 - 1/10) = 9
        dre = LeastSquaresDre(5, 2)
        assert dre.beta() == pytest.approx(9.0)

    def test_unexcited_dynamics(self):
        dre = LeastSquaresDre(5, 2, LsDreParams(rho0=np.array([1.0, 0, 0, 0, -2.0])))
        norms = []
        for _ in range(4000):
            dre.step(zero_pair(), DT)
            norms.append(np.linalg.eigvalsh(dre.F)[-1])
        # estimate frozen exactly, gain norm grows toward the cap, z decays
        np.testing.assert_allclose(dre.rho_hat, [1.0, 0, 0, 0, -2.0], atol=1e-12)
        assert 9.0 < norms[-1] < 10.0
        assert np.all(np.diff(norms) >= -1e-12)
        # without data the product z * f0 * F is invariant, so z tracks 1/|F|
        assert dre.z == pytest.approx(1.0 / norms[-1], rel=1e-9)

    def test_mix_starts_at_zero(self):
        dre = LeastSquaresDre(5, 2, LsDreParams(rho0=np.array([0.5, 1, 2, 3, 4.0])))
        mixed = dre.mix()
        assert mixed.delta == 0.0
        np.testing.assert_allclose(mixed.Y, np.zeros(5), atol=1e-18)
        np.testing.assert_allclose(mixed.Y_u, np.zeros(2), atol=1e-18)

    def test_diagonal_cramer_structure(self):
        dre = LeastSquaresDre(3, 1)
        # force a diagonal mixing matrix by hand
        dre.z = 0.5
        dre.F = np.diag([0.4, 1.0, 1.6])
        dre.rho_hat = np.array([1.0, 2.0, 3.0])
        mixed = dre.mix()
        d = 1.0 - 0.5 * np.array([0.4, 1.0, 1.6])
        for j in range(3):
            expected = dre.rho_hat[j] * np.prod([d[i] for i in range(3) if i != j])
            assert mixed.Y[j] == pytest.approx(expected, rel=1e-12)
        assert mixed.delta == pytest.approx(np.prod(d), rel=1e-12)

    def test_identity_under_exact_regression(self):
        # synthetic trace: y = Omega theta exactly, time-varying Omega
        rng = np.random.default_rng(21)
        theta = np.array([0.16, 0.03, 0.013, 0.98, 5.9])
        dre = LeastSquaresDre(5, 2)
        t = 0.0
        for k in range(6000):
            omega = np.vstack([np.sin(np.array([1, 2, 3, 4, 5]) * t + 0.3),
                               np.cos(np.array([2, 3, 4, 5, 6]) * t)])
            pair = RegressionPair(y=omega @ theta, omega=omega)
            dre.step(pair, DT)
            t += DT
            if k % 500 == 0:
                mixed = dre.mix()
                err = np.linalg.norm(mixed.Y - mixed.delta * theta)
                assert err <= 1e-9 * (1.0 + abs(mixed.delta) * np.linalg.norm(theta))

    def test_z_monotone_and_f_positive_definite(self, c1_case1):
        z = c1_case1.diagnostics["z_forget"]
        assert np.all(np.diff(z) < 0.0)
        assert z[-1] > 0.0 and z[0] <= 1.0
        eigs = np.linalg.eigvalsh(c1_case1.diagnostics["F"])
        assert eigs[:, 0].min() > 0.0

    def test_degeneracy_detection(self):
        dre = LeastSquaresDre(5, 2)
        dre.F = -np.eye(5)
        with pytest.raises(NumericalDegeneracyError):
            dre.beta()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LsDreParams(alpha=0.0)
        with pytest.raises(ValueError):
            LsDreParams(f0=2.0, gain_cap=0.4)   # cap below 1/f0
        with pytest.raises(ValueError):
            LsDreParams(norm="manhattan")


class TestKreisselmeier:
    def test_decay_without_excitation(self):
        dre = KreisselmeierDre(5, 2)
        dre.phi1 = np.ones(5)
        dre.phi2 = np.eye(5)
        for _ in range(2000):
            dre.step(zero_pair(), DT)
        # one second at unit decay rate: norms shrink to about e^-1
        assert np.linalg.norm(dre.phi1) == pytest.approx(np.exp(-1.0) * np.sqrt(5.0), rel=1e-3)
        assert np.linalg.norm(dre.phi2) == pytest.approx(np.exp(-1.0) * np.sqrt(5.0), rel=1e-3)

    def test_single_step_from_zero(self):
        dre = KreisselmeierDre(5, 2, KreisParams(lambda2=1.0, lambda3=1.3))
        omega = np.array([[1.0, 0.0, 2.0, 0.0, 1.0], [0.0, 1.0, 0.0, 2.0, 0.0]])
        pair = RegressionPair(y=np.array([1.0, 2.0]), omega=omega)
        dre.step(pair, DT)
        np.testing.assert_allclose(dre.phi2, DT * 1.3 * omega.T @ omega, atol=1e-15)
        np.testing.assert_allclose(dre.phi1, DT * 1.3 * omega.T @ np.array([1.0, 2.0]),
                                   atol=1e-15)

    def test_identity_mixing(self):
        dre = KreisselmeierDre(5, 2)
        dre.phi2 = np.eye(5)
        dre.phi1 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        mixed = dre.mix()
        assert mixed.delta == 1.0
        np.testing.assert_allclose(mixed.Y, dre.phi1)
        np.testing.assert_allclose(mixed.Y_u, [4.0, 5.0])

    def test_zero_state_mixes_to_zero(self):
        mixed = KreisselmeierDre(5, 2).mix()
        assert mixed.delta == 0.0
        np.testing.assert_array_equal(mixed.Y, np.zeros(5))

    @pytest.mark.parametrize("n_out", [1, 2])
    @pytest.mark.parametrize("params", [KreisParams(), KreisParams(lambda3=1.0)])
    def test_stacked_state_matches_two_arrays_bitwise(self, n_out, params):
        # 1 x 5 pairs are power balance, 2 x 5 force balance; magnitudes span
        # four decades so that the products round in their last bits
        rng = np.random.default_rng(31 + n_out)
        dre = KreisselmeierDre(5, 2, params)
        phi1, phi2 = np.zeros(5), np.zeros((5, 5))
        for k in range(600):
            omega = rng.standard_normal((n_out, 5)) * 10.0 ** rng.uniform(-2, 2, (n_out, 1))
            y = rng.standard_normal(n_out) * 10.0 ** rng.uniform(-2, 2)
            phi1, phi2 = ref.kreis_update(phi1, phi2, params, y, omega, DT)
            dre.step(RegressionPair(y=y, omega=omega), DT)
            assert dre.phi1.tobytes() == phi1.tobytes()
            assert dre.phi2.tobytes() == phi2.tobytes()
            assert np.array_equal(dre.phi2, dre.phi2.T)
            delta, Y = ref.kreis_mix(phi1, phi2)
            mixed = dre.mix()
            assert np.float64(mixed.delta).tobytes() == np.float64(delta).tobytes()
            assert mixed.Y.tobytes() == Y.tobytes()

    def test_record_holds_the_state_of_every_step(self):
        rng = np.random.default_rng(5)
        dre = KreisselmeierDre(5, 2)
        diag = dre.diagnostics(20)
        want1, want2 = [], []
        for k in range(20):
            omega = rng.standard_normal((2, 5))
            dre.step(RegressionPair(y=rng.standard_normal(2), omega=omega), DT)
            dre.record(diag, k)
            want1.append(dre.phi1.copy())
            want2.append(dre.phi2.copy())
        dre.finish(diag)
        assert diag["phi1"].shape == (20, 5) and diag["phi2"].shape == (20, 5, 5)
        assert diag["phi1"].dtype == diag["phi2"].dtype == np.float64
        assert diag["phi1"].tobytes() == np.array(want1).tobytes()
        assert diag["phi2"].tobytes() == np.array(want2).tobytes()

    def test_setters_write_through_to_the_mixing(self):
        rng = np.random.default_rng(8)
        dre = KreisselmeierDre(5, 2)
        a = rng.standard_normal((5, 5))
        phi2, phi1 = a @ a.T, rng.standard_normal(5)
        dre.phi2 = phi2
        dre.phi1 = phi1
        np.testing.assert_array_equal(dre.phi2, phi2)
        np.testing.assert_array_equal(dre.phi1, phi1)
        delta, Y = ref.kreis_mix(phi1, phi2)
        mixed = dre.mix()
        assert mixed.delta == delta
        assert mixed.Y.tobytes() == Y.tobytes()
        # the next step starts from the assigned state
        dre.step(zero_pair(), DT)
        decay = 1.0 - DT * dre.params.lambda2
        assert dre.phi1.tobytes() == (decay * phi1).tobytes()
        assert dre.phi2.tobytes() == (decay * phi2).tobytes()

    def test_phi2_stays_positive_semidefinite(self, c2_case1):
        eigs = np.linalg.eigvalsh(c2_case1.diagnostics["phi2"])
        assert eigs[:, 0].min() >= -1e-9
        assert c2_case1.delta.min() >= -1e-9


class TestMixingIdentityOnTraces:
    def test_least_squares_along_run(self, c1_case1):
        result = verify.check_mixing_identity("c1", c1_case1)
        assert result.passed, result.line()

    def test_kreisselmeier_along_run(self, c2_case1):
        result = verify.check_mixing_identity("c2", c2_case1)
        assert result.passed, result.line()

    def test_cramer_equals_adjugate_along_run(self, c1_case1):
        # reconstruct the mixing matrix at sampled steps and compare routes
        f0 = 1.0
        for k in range(0, len(c1_case1), 997):
            phi = np.eye(5) - c1_case1.diagnostics["z_forget"][k] * f0 \
                * c1_case1.diagnostics["F"][k]
            v = c1_case1.diagnostics["rho_hat"][k]
            ref = verify.adjugate(phi) @ v
            got = mathx.det_and_cramer(np.column_stack((phi, v)))[1]
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


class TestExcitationGramian:
    def test_zero_window(self):
        t = np.arange(11) * DT
        omega = np.zeros((11, 2, 5))
        gram = excitation_gramian(t, omega, 0.0, 10 * DT)
        np.testing.assert_array_equal(gram, np.zeros((5, 5)))

    def test_constant_window(self):
        t = np.arange(101) * DT
        row = np.array([[1.0, 0.5, 0.0, 2.0, -1.0]])
        omega = np.broadcast_to(row, (101, 1, 5)).copy()
        gram = excitation_gramian(t, omega, 0.0, 100 * DT)
        np.testing.assert_allclose(gram, 100 * DT * row.T @ row, rtol=1e-12)

    def test_rejects_window_outside_trace(self):
        t = np.arange(11) * DT
        omega = np.zeros((11, 1, 5))
        with pytest.raises(ValueError):
            excitation_gramian(t, omega, 0.0, 1.0)
        with pytest.raises(ValueError):
            excitation_gramian(t, omega, -1.0, 5 * DT)

    def test_excitation_grows_along_run(self, c1_case1):
        gram_early = excitation_gramian(c1_case1.t, c1_case1.diagnostics["omega"],
                                        0.0, 0.5)
        gram_late = excitation_gramian(c1_case1.t, c1_case1.diagnostics["omega"],
                                       0.0, 4.0)
        assert mathx.min_eig_sym(gram_late, sym_tol=1e-6) > \
            mathx.min_eig_sym(gram_early, sym_tol=1e-6)


class TestQualitativeMonitors:
    def test_ls_gain_keeps_gramian_growing(self, c4_case1):
        # under the norm-capped least-squares gain the regressor keeps
        # exciting: the excitation level of growing windows keeps rising
        levels = []
        for window in (1.0, 2.5, 5.0, 9.0):
            gram = excitation_gramian(c4_case1.t, c4_case1.diagnostics["omega"],
                                      0.0, window)
            levels.append(mathx.min_eig_sym(gram, sym_tol=1e-6))
        assert all(b > a for a, b in zip(levels, levels[1:]))
        assert levels[0] > 0.0

    def test_switching_controller_extension_health(self, c3_case1):
        import ftlab
        m = ftlab.compute_metrics(c3_case1)
        assert m.min_eig_phi2 is not None
        assert m.min_eig_phi2.min() >= -1e-9
        # the extension carries enough excitation mid-run to estimate
        k2 = int(round(2.0 / c3_case1.meta["dt"]))
        assert m.min_eig_phi2[k2] > 1e-3

    def test_switching_controller_estimates_all_parameters(self, c3_case1):
        tilde = np.linalg.norm(c3_case1.theta_hat - c3_case1.meta["theta_true"],
                               axis=1)
        k5 = int(round(5.0 / c3_case1.meta["dt"]))
        assert tilde[k5:].max() <= 0.05 * tilde[0]


def test_factory_dispatch():
    assert isinstance(make_dre("least_squares", 5, 2), LeastSquaresDre)
    assert isinstance(make_dre("kreisselmeier", 5, 2), KreisselmeierDre)
    with pytest.raises(ValueError):
        make_dre("gradient", 5, 2)
