import itertools

import numpy as np
import pytest

import ftlab
import reference as ref
from conftest import history
from ftlab import cli, control, drem, mathx, verify
from ftlab.drem import (KreisParams, KreisselmeierDre, LeastSquaresDre,
                        LsDreParams, excitation_gramian, replay)
from ftlab.errors import NumericalDegeneracyError
from ftlab.regression import RegressionPair

DT = 5e-4


def zero_pair(n_out=2, dim=5):
    return RegressionPair(y=np.zeros(n_out), omega=np.zeros((n_out, dim)))


def mix(dre):
    """(Delta, Y) of the extension's mix into a fresh row, after checking that
    the floats it returns are that row."""
    row = np.empty(dre.dim + 1)
    mixed = dre.mix(row)
    assert mixed == row.tolist()
    return row[0], row[1:]


class TestLeastSquares:
    def test_initial_state(self):
        dre = LeastSquaresDre(5, dt=DT)
        np.testing.assert_array_equal(dre.rho_hat, np.zeros(5))
        np.testing.assert_allclose(dre.F, np.eye(5))
        assert dre.z == 1.0

    def test_initial_forgetting_rate(self):
        # f0 = 1, cap 10: |F(0)| = 1 spectrally, so beta = 10 (1 - 1/10) = 9
        dre = LeastSquaresDre(5, dt=DT)
        assert ref.ls_beta_of(dre) == pytest.approx(9.0)
        # the first step decays z by 1 - beta dt
        dre.step(zero_pair())
        assert dre.z == pytest.approx(1.0 - 9.0 * DT)

    def test_unexcited_dynamics(self):
        dre = LeastSquaresDre(5, dt=DT)
        dre.rho_hat = np.array([1.0, 0, 0, 0, -2.0])
        norms = []
        for _ in range(4000):
            dre.step(zero_pair())
            norms.append(np.linalg.eigvalsh(dre.F)[-1])
        # estimate frozen exactly, gain norm grows toward the cap, z decays
        np.testing.assert_allclose(dre.rho_hat, [1.0, 0, 0, 0, -2.0], atol=1e-12)
        assert 9.0 < norms[-1] < 10.0
        assert np.all(np.diff(norms) >= -1e-12)
        # without data the product z * f0 * F is invariant, so z tracks 1/|F|
        assert dre.z == pytest.approx(1.0 / norms[-1], rel=1e-9)

    def test_finite_row_whose_sum_overflows_passes_the_mix_check(self, monkeypatch):
        # the one-sum test overflows; the exact tests then find every entry
        # finite, in the Kreisselmeier mix and in the least-squares one
        row = np.array([1e308, 1e308, -1.0, 1e308, 0.0, 2.0])
        kreis = KreisselmeierDre(5, dt=DT)
        monkeypatch.setattr(drem, "det_stack", lambda stack, out: out.__setitem__(
            slice(None), row))
        out = np.empty(6)
        assert kreis.mix(out) == out.tolist() == ref.checked_mix(row)
        # at z = 0, w = 1 and V = I: Delta = 1 and Y = u~
        ls = LeastSquaresDre(5, dt=DT)
        ls.z, ls._w = 0.0, [1.0] * 5
        ls._u[...] = row[1:]
        assert ls.mix(out) == [1.0, *row[1:].tolist()] == ref.checked_mix(out)

    def test_mix_starts_at_zero(self):
        dre = LeastSquaresDre(5, dt=DT)
        delta, Y = mix(dre)
        assert delta == 0.0
        np.testing.assert_allclose(Y, np.zeros(5), atol=1e-18)

    def test_diagonal_cramer_structure(self):
        dre = LeastSquaresDre(3, dt=DT)
        # force a diagonal mixing matrix by hand
        dre.z = 0.5
        dre.F = np.diag([0.4, 1.0, 1.6])
        dre.rho_hat = np.array([1.0, 2.0, 3.0])
        delta, Y = mix(dre)
        d = 1.0 - 0.5 * np.array([0.4, 1.0, 1.6])
        for j in range(3):
            expected = dre.rho_hat[j] * np.prod([d[i] for i in range(3) if i != j])
            assert Y[j] == pytest.approx(expected, rel=1e-12)
        assert delta == pytest.approx(np.prod(d), rel=1e-12)

    def test_identity_under_exact_regression(self):
        # synthetic trace: y = Omega theta exactly, time-varying Omega
        rng = np.random.default_rng(21)
        theta = np.array([0.16, 0.03, 0.013, 0.98, 5.9])
        dre = LeastSquaresDre(5, dt=DT)
        t = 0.0
        for k in range(6000):
            omega = np.vstack([np.sin(np.array([1, 2, 3, 4, 5]) * t + 0.3),
                               np.cos(np.array([2, 3, 4, 5, 6]) * t)])
            pair = RegressionPair(y=omega @ theta, omega=omega)
            dre.step(pair)
            t += DT
            if k % 500 == 0:
                delta, Y = mix(dre)
                err = np.linalg.norm(Y - delta * theta)
                assert err <= 1e-9 * (1.0 + abs(delta) * np.linalg.norm(theta))

    def test_z_monotone_and_f_positive_definite(self, c1_case1):
        replayed = history(c1_case1)
        z = replayed["z_forget"]
        assert np.all(np.diff(z) < 0.0)
        assert z[-1] > 0.0 and z[0] <= 1.0
        # F = R^-1 has the eigenvalues 1/w of the replayed eigenvalues w of R
        assert replayed["w"].min() > 0.0

    def test_replayed_row_is_the_eigh_array(self):
        # the replayed w row is the array eigh_sym returned for R after the
        # step, and the floats beta and mix read agree; the replay's last
        # row is the live extension's state
        rng = np.random.default_rng(13)
        dre = LeastSquaresDre(5, dt=DT)
        omega, y, eighs, floats = rng.standard_normal((8, 2, 5)), rng.standard_normal((8, 2)), [], []
        for k in range(8):
            dre.step(RegressionPair(y=y[k], omega=omega[k]))
            eighs.append(mathx.eigh_sym(dre._r)[0].tobytes())
            floats.append(dre._w)
        replayed = replay(dre, omega, y)
        for k in range(8):
            assert replayed["w"][k].tobytes() == eighs[k]
            assert replayed["w"][k].tolist() == floats[k]
        assert replayed["w"][-1].tobytes() == dre._w_arr.tobytes()
        assert replayed["z_forget"][-1] == dre.z
        # an assignment of F writes the eigenvalue array and its floats alike
        a = rng.standard_normal((5, 5))
        dre.F = a @ a.T + np.eye(5)
        assert dre._w_arr.tolist() == dre._w
        np.testing.assert_allclose(dre._w_arr, np.linalg.eigvalsh(dre._r), rtol=1e-12)

    def test_degeneracy_detection(self):
        dre = LeastSquaresDre(5, dt=DT)
        dre.F = -np.eye(5)
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            dre.step(zero_pair())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "1e200"])
    def test_non_finite_information_matrix_is_degenerate(self, bad):
        # LAPACK hands back NaN eigenvalues without an error (1e200 overflows
        # R to inf); the step names R before the mixing could name Delta
        dre = LeastSquaresDre(5, dt=DT)
        omega = np.ones((2, 5))
        omega[0, 1] = bad
        with np.errstate(all="ignore"), pytest.raises(
                NumericalDegeneracyError, match="^least-squares information matrix R has no "
                                                "eigendecomposition$"):
            dre.step(RegressionPair(y=np.ones(2), omega=omega))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "1e200"])
    def test_non_finite_information_matrix_exit_code(self, tmp_path, monkeypatch, capsys,
                                                     bad):
        # a regressor that turns non-finite at step 3 of a run ends it in the
        # degeneracy exit code, with step and time, and leaves no output
        real = control.make_regression

        def corrupted(*args, **kwargs):
            regression = real(*args, **kwargs)
            step, count = regression.step, itertools.count()

            def bad_step(*step_args):
                pair = step(*step_args)
                if next(count) == 3:
                    pair.omega[0, 1] = bad
                return pair

            regression.step = bad_step
            return regression

        monkeypatch.setattr(control, "make_regression", corrupted)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("controller = c1\nsim.t_final = 0.01\n")
        out = tmp_path / "o"
        assert cli.main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3
        assert capsys.readouterr().err == (
            "numerical degeneracy: step 3 (t = 0.0015 s): least-squares information "
            "matrix R has no eigendecomposition\n")
        assert not out.exists()

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LsDreParams(alpha=0.0)
        with pytest.raises(ValueError):
            LsDreParams(f0=2.0, gain_cap=0.4)   # cap below 1/f0
        with pytest.raises(ValueError):
            LsDreParams(norm="manhattan")


class TestKreisselmeier:
    def test_decay_without_excitation(self):
        dre = KreisselmeierDre(5, dt=DT)
        dre.phi1 = np.ones(5)
        dre.phi2 = np.eye(5)
        for _ in range(2000):
            dre.step(zero_pair())
        # one second at unit decay rate: norms shrink to about e^-1
        assert np.linalg.norm(dre.phi1) == pytest.approx(np.exp(-1.0) * np.sqrt(5.0), rel=1e-3)
        assert np.linalg.norm(dre.phi2) == pytest.approx(np.exp(-1.0) * np.sqrt(5.0), rel=1e-3)

    def test_single_step_from_zero(self):
        dre = KreisselmeierDre(5, KreisParams(lambda2=1.0, lambda3=1.3), dt=DT)
        omega = np.array([[1.0, 0.0, 2.0, 0.0, 1.0], [0.0, 1.0, 0.0, 2.0, 0.0]])
        pair = RegressionPair(y=np.array([1.0, 2.0]), omega=omega)
        dre.step(pair)
        np.testing.assert_allclose(dre.phi2, DT * 1.3 * omega.T @ omega, atol=1e-15)
        np.testing.assert_allclose(dre.phi1, DT * 1.3 * omega.T @ np.array([1.0, 2.0]),
                                   atol=1e-15)

    def test_identity_mixing(self):
        dre = KreisselmeierDre(5, dt=DT)
        dre.phi2 = np.eye(5)
        dre.phi1 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        delta, Y = mix(dre)
        assert delta == 1.0
        np.testing.assert_allclose(Y, dre.phi1)

    def test_zero_state_mixes_to_zero(self):
        delta, Y = mix(KreisselmeierDre(5, dt=DT))
        assert delta == 0.0
        np.testing.assert_array_equal(Y, np.zeros(5))

    @pytest.mark.parametrize("n_out", [1, 2])
    @pytest.mark.parametrize("params", [KreisParams(), KreisParams(lambda3=1.0)])
    def test_stacked_state_matches_two_arrays_bitwise(self, n_out, params):
        # 1 x 5 pairs are power balance, 2 x 5 force balance; magnitudes span
        # four decades so that the products round in their last bits
        rng = np.random.default_rng(31 + n_out)
        dre = KreisselmeierDre(5, params, dt=DT)
        phi1, phi2 = np.zeros(5), np.zeros((5, 5))
        for k in range(600):
            omega = rng.standard_normal((n_out, 5)) * 10.0 ** rng.uniform(-2, 2, (n_out, 1))
            y = rng.standard_normal(n_out) * 10.0 ** rng.uniform(-2, 2)
            phi1, phi2 = ref.kreis_update(phi1, phi2, params, y, omega, DT)
            dre.step(RegressionPair(y=y, omega=omega))
            assert dre.phi1.tobytes() == phi1.tobytes()
            assert dre.phi2.tobytes() == phi2.tobytes()
            assert np.array_equal(dre.phi2, dre.phi2.T)
            delta, Y = ref.kreis_mix(phi1, phi2)
            got_delta, got_Y = mix(dre)
            assert got_delta.tobytes() == np.float64(delta).tobytes()
            assert got_Y.tobytes() == Y.tobytes()

    def test_replay_holds_the_state_of_every_step(self):
        # the replay takes the extension's own lambda2 and lambda3
        rng = np.random.default_rng(5)
        omega, y = rng.standard_normal((20, 2, 5)), rng.standard_normal((20, 2))
        for params in (KreisParams(), KreisParams(lambda2=0.7, lambda3=1.0)):
            dre = KreisselmeierDre(5, params, dt=DT)
            want1, want2 = [], []
            for k in range(20):
                dre.step(RegressionPair(y=y[k], omega=omega[k]))
                want1.append(dre.phi1.copy())
                want2.append(dre.phi2.copy())
            replayed = replay(dre, omega, y)
            assert replayed["phi1"].shape == (20, 5) and replayed["phi2"].shape == (20, 5, 5)
            assert replayed["phi1"].dtype == replayed["phi2"].dtype == np.float64
            assert replayed["phi1"].tobytes() == np.array(want1).tobytes()
            assert replayed["phi2"].tobytes() == np.array(want2).tobytes()

    def test_setters_write_through_to_the_mixing(self):
        rng = np.random.default_rng(8)
        dre = KreisselmeierDre(5, dt=DT)
        a = rng.standard_normal((5, 5))
        phi2, phi1 = a @ a.T, rng.standard_normal(5)
        dre.phi2 = phi2
        dre.phi1 = phi1
        np.testing.assert_array_equal(dre.phi2, phi2)
        np.testing.assert_array_equal(dre.phi1, phi1)
        delta, Y = ref.kreis_mix(phi1, phi2)
        got_delta, got_Y = mix(dre)
        assert got_delta == delta
        assert got_Y.tobytes() == Y.tobytes()
        # the next step starts from the assigned state
        dre.step(zero_pair())
        decay = 1.0 - DT * dre.params.lambda2
        assert dre.phi1.tobytes() == (decay * phi1).tobytes()
        assert dre.phi2.tobytes() == (decay * phi2).tobytes()

    def test_phi2_stays_positive_semidefinite(self, c2_case1):
        eigs = np.linalg.eigvalsh(history(c2_case1)["phi2"])
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
        # re-drive the extension on the run's recorded regression pairs and
        # compare the two routes on its mixing matrix at sampled steps; the
        # re-driven extension ends in the run's final state
        dre = LeastSquaresDre(5, dt=DT)
        f0 = dre.params.f0
        diag = c1_case1.diagnostics
        for k in range(len(c1_case1)):
            dre.step(RegressionPair(y=diag["y"][k], omega=diag["omega"][k]))
            if k % 997:
                continue
            phi = np.eye(5) - dre.z * f0 * dre.F
            v = dre.rho_hat
            want = verify.adjugate(phi) @ v
            got = ref.kreis_mix(v, phi)[1]
            assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
        assert dre.z == c1_case1.extension.z
        assert dre._state.tobytes() == c1_case1.extension._state.tobytes()


class TestReplay:
    """``replay`` rebuilds a run's extension history from the recorded pairs
    with the bits of the run's own extension: a probe copies the live state
    after every ``step`` of the run."""

    @pytest.mark.parametrize("controller, parameterization", [
        ("c1", "force_balance"), ("c2", "force_balance"), ("c2", "power_balance"),
        ("c3", "force_balance"), ("c4", "force_balance")])
    def test_replay_is_the_live_state_of_every_step(self, monkeypatch, controller,
                                                    parameterization):
        live = []
        ls_step, kreis_step = LeastSquaresDre.step, KreisselmeierDre.step

        def ls_probe(dre, pair):
            ls_step(dre, pair)
            live.append(np.append(dre._w_arr, dre.z))

        def kreis_probe(dre, pair):
            kreis_step(dre, pair)
            live.append(dre._state.copy())

        monkeypatch.setattr(LeastSquaresDre, "step", ls_probe)
        monkeypatch.setattr(KreisselmeierDre, "step", kreis_probe)
        trace = ftlab.run_closed_loop(ftlab.SimConfig(
            controller=controller, parameterization=parameterization, t_final=0.05))
        monkeypatch.undo()
        live = np.array(live)
        ext, replayed = trace.extension, history(trace)
        n, l_dim = len(trace), ext.dim
        assert len(live) == n
        if controller in ("c1", "c4"):
            assert ext.kind == "least_squares" and sorted(replayed) == ["w", "z_forget"]
            assert replayed["w"].shape == (n, l_dim) and replayed["z_forget"].shape == (n,)
            assert replayed["w"].tobytes() == live[:, :l_dim].tobytes()
            assert replayed["z_forget"].tobytes() == live[:, l_dim].tobytes()
            # the last replayed state is the trace's extension's
            assert replayed["w"][-1].tobytes() == ext._w_arr.tobytes()
            assert replayed["z_forget"][-1].tobytes() == np.float64(ext.z).tobytes()
        else:
            assert ext.kind == "kreisselmeier" and sorted(replayed) == ["phi1", "phi2"]
            assert replayed["phi1"].shape == (n, l_dim)
            assert replayed["phi2"].shape == (n, l_dim, l_dim)
            assert replayed["phi1"].tobytes() == live[:, :, l_dim].tobytes()
            assert replayed["phi2"].tobytes() == np.ascontiguousarray(live[:, :, :l_dim]).tobytes()
            assert replayed["phi1"][-1].tobytes() == ext.phi1.tobytes()
            assert replayed["phi2"][-1].tobytes() == np.ascontiguousarray(ext.phi2).tobytes()
        # c3 estimates from the classical extension, and the replay takes its
        # lambda3 = 1 from the trace's extension
        if ext.kind == "kreisselmeier":
            assert ext.params.lambda3 == (1.0 if controller == "c3" else KreisParams().lambda3)


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

    @pytest.mark.parametrize("fixture", ["c1_case1", "c2_case1_pb"])
    @pytest.mark.parametrize("window", ["2s", "whole", "snapped"])
    def test_is_numpys_trapezoid_bitwise(self, window, fixture, request):
        # the 2 s window from 0.3 s (4001 samples), the whole 10 s run (20 001
        # samples), and one shorter than the snapping slack, which snaps to
        # one sample and has no area
        trace = request.getfixturevalue(fixture)
        omega = trace.diagnostics["omega"]
        if window == "snapped":
            assert excitation_gramian(trace.t, omega, trace.t[600], 1e-13).tobytes() \
                == np.zeros((5, 5)).tobytes()
            return
        t1, span, (i0, i1) = {"2s": (0.3, 2.0, (600, 4600)),
                              "whole": (0.0, trace.t[-1], (0, len(trace) - 1))}[window]
        want = np.trapezoid(np.einsum("ski,skj->sij", omega[i0:i1 + 1], omega[i0:i1 + 1]),
                            trace.t[i0:i1 + 1], axis=0)
        assert excitation_gramian(trace.t, omega, t1, span).tobytes() == want.tobytes()

    def test_excitation_grows_along_run(self, c1_case1):
        gram_early = excitation_gramian(c1_case1.t, c1_case1.diagnostics["omega"],
                                        0.0, 0.5)
        gram_late = excitation_gramian(c1_case1.t, c1_case1.diagnostics["omega"],
                                       0.0, 4.0)
        assert np.linalg.eigvalsh(gram_late)[0] > np.linalg.eigvalsh(gram_early)[0]


class TestQualitativeMonitors:
    def test_ls_gain_keeps_gramian_growing(self, c4_case1):
        # under the norm-capped least-squares gain the regressor keeps
        # exciting: the excitation level of growing windows keeps rising
        levels = []
        for window in (1.0, 2.5, 5.0, 9.0):
            gram = excitation_gramian(c4_case1.t, c4_case1.diagnostics["omega"],
                                      0.0, window)
            levels.append(np.linalg.eigvalsh(gram)[0])
        assert all(b > a for a, b in zip(levels, levels[1:]))
        assert levels[0] > 0.0

    def test_switching_controller_extension_health(self, c3_case1):
        eigs = np.linalg.eigvalsh(history(c3_case1)["phi2"])[:, 0]
        assert eigs.min() >= -1e-9
        # the extension carries enough excitation mid-run to estimate
        k2 = int(round(2.0 / c3_case1.meta["dt"]))
        assert eigs[k2] > 1e-3
        assert ftlab.compute_metrics(c3_case1).min_eig_phi2 == eigs[-1]

    def test_switching_controller_estimates_all_parameters(self, c3_case1):
        tilde = np.linalg.norm(c3_case1.theta_hat - c3_case1.meta["theta_true"],
                               axis=1)
        k5 = int(round(5.0 / c3_case1.meta["dt"]))
        assert tilde[k5:].max() <= 0.05 * tilde[0]
