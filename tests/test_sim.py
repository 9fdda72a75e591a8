import io
import itertools
import math

import numpy as np
import pytest

import ftlab
import reference as ref
from ftlab import _g17, mathx, verify
from ftlab.control import (CompositeAdaptGains, FtPdGains, excitation_gain,
                           make_controller, sat)
from ftlab.drem import KreisselmeierDre, LeastSquaresDre
from ftlab.errors import ConfigError, NumericalDegeneracyError
from ftlab.plant import FrictionModel, NoiseModel, Plant
from ftlab.regression import RegressionPair
from ftlab.sim import (SimConfig, Trace, compute_metrics, lyapunov_v1,
                       read_trace_csv, run_closed_loop, trace_columns, trace_csv_string)

DT = 5e-4


class TestConfig:
    def test_defaults_validate(self):
        SimConfig().validate()

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=-1.0).validate()
        with pytest.raises(ConfigError):
            SimConfig(t_final=1e-4).validate()
        with pytest.raises(ConfigError):
            SimConfig(controller="c9").validate()
        with pytest.raises(ConfigError):
            SimConfig(controller="c4", parameterization="power_balance").validate()
        with pytest.raises(ConfigError):
            SimConfig(theta_bar=np.array([0.5, 0.5])).validate()

    def test_dre_defaults_follow_controller(self, plant):
        dre = lambda **kwargs: make_controller(SimConfig(**kwargs), plant).dre
        assert dre(controller="c1") == "least_squares"
        assert dre(controller="c2") == "kreisselmeier"

    NONFINITE = {
        "t_final_inf": ({"t_final": np.inf}, "t_final"),
        "noise_amplitude_nan_case2": ({"scenario": "case2",
                                       "noise": NoiseModel(amplitude=np.nan)},
                                      "noise.amplitude"),
        "noise_frequency_nan_case2": ({"scenario": "case2",
                                       "noise": NoiseModel(frequency=np.nan)},
                                      "noise.frequency"),
        "q0_nan": ({"q0": [np.nan, 0.0]}, "q0"),
        "theta_bar_inf": ({"theta_bar": [np.inf, 8.0]}, "theta_bar"),
        "gramian_window_inf": ({"gramian_window": np.inf}, "gramian_window"),
        "ftpd_kp_inf": ({"ftpd": FtPdGains(kp=[np.inf, 3.0])}, "ftpd.kp"),
    }

    @pytest.mark.parametrize("case", sorted(NONFINITE))
    def test_nonfinite_value_is_a_config_error(self, case):
        # the library path rejects what the CLI parser rejects, naming the key
        kwargs = {"t_final": 0.05, **self.NONFINITE[case][0]}
        key = self.NONFINITE[case][1]
        with pytest.raises(ConfigError, match=rf"^{key} must be finite"):
            run_closed_loop(SimConfig(**kwargs))

    BAD_LENGTH = {
        "theta_bar_1": ({"theta_bar": [8.0]}, "theta_bar", 2),
        "theta_bar_3": ({"theta_bar": [1.0, 2.0, 9.0]}, "theta_bar", 2),
        "ftpd_kp_1": ({"ftpd": FtPdGains(kp=[3.0])}, "ftpd.kp", 2),
        "ftpd_kd_3": ({"ftpd": FtPdGains(kd=[2.0, 2.0, 2.0])}, "ftpd.kd", 2),
        "ftpd_kd_lin_1": ({"ftpd": FtPdGains(kd_lin=[0.5])}, "ftpd.kd_lin", 2),
        "adapt_gamma_diag_3": ({"adapt": CompositeAdaptGains(gamma_diag=[1.0, 1.0, 1.0])},
                               "adapt.gamma_diag", 2),
        "adapt_upsilon_diag_1": ({"adapt": CompositeAdaptGains(upsilon_diag=[50.0])},
                                 "adapt.upsilon_diag", 2),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LENGTH))
    def test_wrong_vector_length_is_a_config_error(self, case):
        # the CLI parsers force these lengths; the library path checks them,
        # naming the key, before any step runs
        kwargs, key, n = self.BAD_LENGTH[case]
        with pytest.raises(ConfigError, match=rf"^{key} must have length {n}$"):
            run_closed_loop(SimConfig(t_final=0.05, **kwargs))

    def test_estimate_dimension_checked(self):
        with pytest.raises(ConfigError):
            SimConfig(controller="c1", theta_hat0=np.zeros(5)).validate()
        with pytest.raises(ConfigError):
            SimConfig(controller="c3", theta_hat0=np.zeros(2)).validate()


class TestRunClosedLoop:
    def test_grid_and_record_count(self):
        trace = run_closed_loop(SimConfig(t_final=0.1))
        assert len(trace) == 201
        np.testing.assert_allclose(trace.t, np.arange(201) * DT, rtol=0, atol=1e-15)

    def test_partial_final_step_is_dropped(self):
        # horizon not divisible by dt: records stop at the last full step
        trace = run_closed_loop(SimConfig(t_final=0.00085))
        assert len(trace) == 2

    def test_velocity_error_is_the_recorded_velocity(self):
        # set-point regulation makes e2 = qd: the trace keeps one array of it
        trace = run_closed_loop(SimConfig(t_final=0.01))
        assert trace.e2 is trace.qd
        back = read_trace_csv(io.StringIO(trace_csv_string(trace)))
        assert back.e2 is back.qd

    def test_equilibrium_is_preserved(self, plant):
        cfg = SimConfig(controller="c1", q0=np.array([2.0, 2.0]),
                        qd0=np.zeros(2), theta_hat0=np.array(plant.theta.theta_u),
                        t_final=2.0)
        trace = run_closed_loop(cfg)
        assert np.max(np.linalg.norm(trace.e1, axis=1)) <= 1e-9

    def test_determinism_bit_identical(self):
        cfg_a = SimConfig(controller="c2", scenario="case2", t_final=0.5)
        cfg_b = SimConfig(controller="c2", scenario="case2", t_final=0.5)
        tr_a = run_closed_loop(cfg_a)
        tr_b = run_closed_loop(cfg_b)
        for field in ("q", "qd", "tau", "theta_hat", "delta", "v1"):
            np.testing.assert_array_equal(getattr(tr_a, field), getattr(tr_b, field))

    def test_case2_applies_noise_to_measurements_only(self):
        # with zero friction the true state must stay smooth even though the
        # controller sees noisy signals; the recorded q is the true state
        cfg = SimConfig(controller="c1", scenario="case2", t_final=0.2,
                        friction=FrictionModel((0.0, 0.0)))
        trace = run_closed_loop(cfg)
        assert np.isfinite(trace.q).all()
        # true positions move continuously: per-step increment = dt * qd
        np.testing.assert_allclose(np.diff(trace.q, axis=0), DT * trace.qd[:-1],
                                   atol=1e-15)

    @pytest.mark.parametrize("controller", ["c1", "c2", "c3", "c4"])
    def test_step_path_calls_no_linalg_wrapper(self, monkeypatch, controller):
        # the extensions call LAPACK through mathx's direct kernels; a run
        # that reached np.linalg's eigh or det wrapper would fail here
        def wrapper_called(*args, **kwargs):
            raise AssertionError("np.linalg wrapper called on the step path")

        monkeypatch.setattr(np.linalg, "eigh", wrapper_called)
        monkeypatch.setattr(np.linalg, "det", wrapper_called)
        trace = run_closed_loop(SimConfig(controller=controller, t_final=0.05))
        assert len(trace) == 101 and np.isfinite(trace.delta).all()

    @pytest.mark.parametrize("controller, parameterization",
                             [("c1", None), ("c2", None), ("c3", None), ("c4", None),
                              ("c2", "power_balance")])
    def test_a_run_builds_one_regression_pair(self, monkeypatch, controller,
                                              parameterization):
        # the filter builds its [Omega | y] pair once and rewrites it every step
        built = []
        init = RegressionPair.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RegressionPair, "__init__", counting_init)
        trace = run_closed_loop(SimConfig(controller=controller, t_final=0.05,
                                          parameterization=parameterization))
        assert len(trace) == 101 and len(built) == 1

    def test_coarse_step_ends_in_named_degeneracy(self):
        # at dt = 0.05 the Kreisselmeier determinant overflows; the run must
        # stop with the quantity, step and time, not a bare ValueError
        with pytest.raises(NumericalDegeneracyError,
                           match=r"step 9 \(t = 0\.45 s\): mixing factor Delta is not finite"):
            run_closed_loop(SimConfig(controller="c2", dt=0.05))

    def test_nonfinite_state_ends_run_with_degeneracy(self, monkeypatch):
        # a plant step that returns NaN must be caught before the torque's
        # signed powers see it
        monkeypatch.setattr(Plant, "forward_dynamics",
                            lambda self, *args, **kwargs: np.array([np.nan, 0.0]))
        with pytest.raises(NumericalDegeneracyError,
                           match=r"step 1 \(t = 0\.0005 s\): velocity qd is not finite"):
            run_closed_loop(SimConfig(t_final=0.01))

    def test_asymptotic_controller_still_decaying_late(self, c4_case1):
        e1 = np.linalg.norm(c4_case1.e1, axis=1)
        k = lambda t: int(round(t / DT))
        assert e1[k(4.0)] > e1[k(7.0)] > e1[k(10.0)] > 0.0

    def test_energy_audit_case1(self, plant, c1_case1):
        result = verify.check_energy_audit(c1_case1, plant)
        assert result.passed, result.line()


def _eigenpair_mix(dre):
    """(Delta, Y) of a least-squares extension by the eigenpair formula of its
    docstring, in the order the mix multiplies: Delta = prod_i r_i and
    Y = V diag(prod_{j < i} r_j / w_i prod_{j > i} r_j) V' u~, with
    r_i = (w_i - z f0) / w_i."""
    zf = dre.z * dre.params.f0
    w = dre._w
    ratios = [(x - zf) / x for x in w]
    coef = [math.prod(ratios[:i]) / x * math.prod(reversed(ratios[i + 1:]))
            for i, x in enumerate(w)]
    v = dre._v
    return math.prod(ratios), v.dot(np.multiply(coef, dre._state[:, dre.dim].dot(v)))


class TestMixingRecord:
    """Each step's mix writes [Delta | Y] into the run's mixing record, whose
    [:, 1:] is ``Y_mixed``; the recorded Delta is its first entry."""

    @pytest.mark.parametrize("fixture", ["c2_case1", "c2_case1_pb", "c3_case2"])
    def test_kreisselmeier_row_is_det_and_cramer_of_the_recorded_state(self, fixture,
                                                                      request):
        trace = request.getfixturevalue(fixture)
        # the reference builds the Cramer stack with np.where and takes
        # np.linalg.det, the same bits as the mix's gather and det_stack
        want = [ref.kreis_mix(phi1, phi2) for phi1, phi2
                in zip(trace.diagnostics["phi1"], trace.diagnostics["phi2"])]
        assert trace.delta.tobytes() == np.array([d for d, _ in want]).tobytes()
        assert trace.diagnostics["Y_mixed"].tobytes() == np.array([y for _, y in want]).tobytes()

    def test_least_squares_row_is_the_eigenpair_formula(self, monkeypatch):
        want = []
        mix = LeastSquaresDre.mix

        def formula_then_mix(dre, out):
            want.append(_eigenpair_mix(dre))
            return mix(dre, out)

        monkeypatch.setattr(LeastSquaresDre, "mix", formula_then_mix)
        trace = run_closed_loop(SimConfig(controller="c1", t_final=1.0))
        assert len(want) == len(trace)
        assert trace.delta.tobytes() == np.array([d for d, _ in want]).tobytes()
        assert trace.diagnostics["Y_mixed"].tobytes() == np.array([y for _, y in want]).tobytes()

    # (controller, extension, attribute, index, value, quantity named); index
    # None assigns the attribute itself
    @pytest.mark.parametrize("controller, extension, attribute, index, value, quantity", [
        ("c2", KreisselmeierDre, "phi2", (0, 0), np.nan, "mixing factor Delta"),
        ("c3", KreisselmeierDre, "phi2", (slice(None), 1), np.inf, "mixing factor Delta"),
        ("c2", KreisselmeierDre, "phi1", 2, np.inf, "mixed regression Y"),
        ("c1", LeastSquaresDre, "z", None, np.nan, "mixing factor Delta"),
        ("c1", LeastSquaresDre, "_state", (3, 5), np.nan, "mixed regression Y"),
    ], ids=["c2-delta-nan", "c3-delta-inf", "c2-y-inf", "c1-delta-nan", "c1-y-nan"])
    def test_non_finite_mix_is_named_with_step_and_time(self, monkeypatch, controller,
                                                        extension, attribute, index, value,
                                                        quantity):
        step, count = extension.step, itertools.count()

        def corrupted(dre, pair, dt):
            step(dre, pair, dt)
            if next(count) == 3:
                if index is None:
                    setattr(dre, attribute, value)
                else:
                    getattr(dre, attribute)[index] = value

        monkeypatch.setattr(extension, "step", corrupted)
        with pytest.raises(NumericalDegeneracyError,
                           match=rf"^step 3 \(t = 0\.0015 s\): {quantity} is not finite$"):
            run_closed_loop(SimConfig(controller=controller, t_final=0.01))


class TestArrayMonitors:
    """zeta1 and V1's signed power run over whole arrays, with the bits of
    the float kernels taken sample by sample."""

    @pytest.mark.parametrize("fixture", ["c1_case1", "c2_case2", "c3_case2", "c4_case1"])
    def test_zeta1_is_the_float_kernel_bitwise(self, fixture, request):
        trace = request.getfixturevalue(fixture)
        b, d = trace.meta["exponent_b"], trace.meta["sat_d"]
        deltas = trace.delta.tolist()
        want = np.array([sat(x, b, d) * mathx.spow(x, b) for x in deltas])
        assert trace.zeta1.tobytes() == want.tobytes()
        # Delta = 0 of either sign gives +0.0, as spow does
        got = excitation_gain(np.array(deltas[:5] + [0.0, -0.0]), b, d)
        assert got.tobytes() == np.concatenate((want[:5], [0.0, 0.0])).tobytes()

    @pytest.mark.parametrize("fixture", ["c1_case1", "c2_case2"])
    def test_signed_power_of_e1_is_spow_bitwise(self, fixture, request):
        a = FtPdGains().a
        e1 = np.vstack((request.getfixturevalue(fixture).e1,
                        [[0.0, -0.0], [-0.0, 1e-300], [-1e-300, 0.0]]))
        want = np.array([[mathx.spow(x, a) for x in row] for row in e1.tolist()])
        assert mathx.signed_power_vec(e1, a).tobytes() == want.tobytes()


class TestLyapunovMonitor:
    @pytest.mark.parametrize("fixture", ["c1_case1", "c3_case2"])
    def test_rebuilt_psi_and_inertia_are_the_step_kernels_bitwise(self, plant, fixture,
                                                                 request):
        # the monitors rebuild Psi(q) and M(q) after the loop from the
        # recorded q; they must be the values the step computed
        q = request.getfixturevalue(fixture).q
        rows = q.tolist()
        want_psi = np.array([plant.psi_rows(x) for x in rows])
        want_inertia = np.array([plant.inertia_rows(x) for x in rows])
        assert plant.psi_stack(q).tobytes() == want_psi.tobytes()
        assert plant.inertia_stack(q).tobytes() == want_inertia.tobytes()

    def test_leading_axis_equals_per_sample_bitwise(self, plant):
        rng = np.random.default_rng(8)
        e1 = rng.standard_normal((500, 2)) * 10.0 ** rng.integers(-9, 1, (500, 2))
        e2 = rng.standard_normal((500, 2))
        tt = rng.standard_normal((500, 2))
        inertia = np.array([plant.inertia_rows(q) for q in rng.uniform(-4.0, 4.0, (500, 2))])
        gains, adapt = FtPdGains(), CompositeAdaptGains()
        batch = lyapunov_v1(e1, e2, tt, inertia, gains, adapt)
        single = [lyapunov_v1(e1[k], e2[k], tt[k], inertia[k], gains, adapt)
                  for k in range(500)]
        assert all(isinstance(v, float) for v in single)
        assert batch.tobytes() == np.array(single).tobytes()

    def test_zero_at_origin(self, plant):
        v = lyapunov_v1(np.zeros(2), np.zeros(2), np.zeros(2),
                        plant.inertia_rows([2.0, 2.0]), FtPdGains(), CompositeAdaptGains())
        assert v == 0.0

    def test_hand_value(self, plant):
        # e2 = 0, theta_tilde = 0, e1 = [1, 0]:
        # V0 = (r1 / 2 r2) * kp1 = 0.75 * 3, plus the ln cosh barrier term
        gains = FtPdGains()
        adapt = CompositeAdaptGains()
        e1 = np.array([1.0, 0.0])
        v = lyapunov_v1(e1, np.zeros(2), np.zeros(2),
                        plant.inertia_rows(e1 + np.array([2.0, 2.0])), gains, adapt)
        expected = (adapt.gamma1 + adapt.gamma2) * 0.75 * 3.0 \
            + adapt.gamma1 * adapt.d1 * 0.5 * np.log(np.cosh(1.0))
        assert v == pytest.approx(expected, rel=1e-12)

    def test_monotone_along_reference_run(self, c1_case1):
        result = verify.check_v1_monotone(c1_case1)
        assert result.passed, result.line()

    def test_overflow_safe_barrier(self, plant):
        v = lyapunov_v1(np.array([500.0, -800.0]), np.zeros(2), np.zeros(2),
                        plant.inertia_rows([0.0, 0.0]), FtPdGains(), CompositeAdaptGains())
        assert np.isfinite(v)


class TestMetrics:
    def synthetic_trace(self, e1_norm, tau):
        n = e1_norm.size
        z = np.zeros((n, 2))
        e1 = np.column_stack([e1_norm, np.zeros(n)])
        return Trace(t=np.arange(n) * DT, q=e1 + 2.0, qd=z, e1=e1,
                     tau=tau, theta_hat=np.zeros((n, 2)),
                     delta=np.zeros(n), zeta1=np.zeros(n), v1=np.zeros(n),
                     z1norm=np.zeros(n),
                     diagnostics={"omega": np.zeros((n, 2, 5))},
                     meta={"dt": DT, "theta_u_true": np.array([1.0, 2.0]),
                           "settle_tol": 1e-3, "param_tol": 0.05})

    def test_zero_error_trace(self):
        trace = self.synthetic_trace(np.zeros(100), np.ones((100, 2)))
        m = compute_metrics(trace, gramian_window=40 * DT)
        assert m.settling_time == 0.0
        assert m.chattering_amplitude == 0.0
        assert m.steady_state_error == 0.0

    def test_settling_is_last_exceedance(self):
        e1 = np.zeros(100)
        e1[:50] = 0.1
        e1[70] = 0.002
        trace = self.synthetic_trace(e1, np.zeros((100, 2)))
        m = compute_metrics(trace, gramian_window=40 * DT)
        assert m.settling_time == pytest.approx(70 * DT)

    def test_chattering_window(self):
        tau = np.zeros((1000, 2))
        tau[990, 0] = 0.25            # one late jump of 0.25 then back
        trace = self.synthetic_trace(np.zeros(1000), tau)
        m = compute_metrics(trace, gramian_window=400 * DT)
        assert m.chattering_amplitude == pytest.approx(0.25)

    def test_reference_run_metrics(self, c1_case1):
        m = compute_metrics(c1_case1)
        assert m.settling_time <= 4.5
        assert m.param_convergence_time <= 3.0
        assert m.zeta1_integral > 1.0
        assert m.gramian_min_eig > 0.0
        assert m.min_eig_phi2 is None

    def test_phi2_series_present_for_kreisselmeier(self, c2_case1):
        m = compute_metrics(c2_case1)
        eigs = np.linalg.eigvalsh(c2_case1.diagnostics["phi2"])[:, 0]
        assert eigs.min() >= -1e-9
        # the final step's eigenvalue, as the batched solve gives it
        assert m.min_eig_phi2 == eigs[-1]

    def test_default_gramian_window_fits_a_short_run(self):
        # the default 2 s window ends at the end of a 1 s trace
        trace = run_closed_loop(SimConfig(t_final=1.0))
        m = compute_metrics(trace)
        assert m.gramian_min_eig == compute_metrics(trace, gramian_window=1.0).gramian_min_eig
        assert m.gramian_min_eig > 0.0

    def test_empty_trace_rejected(self):
        trace = self.synthetic_trace(np.zeros(0), np.zeros((0, 2)))
        with pytest.raises(ValueError):
            compute_metrics(trace)

    def test_text_rendering(self, c1_case1):
        text = compute_metrics(c1_case1).to_text()
        assert "settling_time=" in text and "chattering_amplitude=" in text


class TestCsvRoundTrip:
    def test_all_fields_reproduced_exactly(self):
        trace = run_closed_loop(SimConfig(t_final=0.05))
        text = trace_csv_string(trace)
        back = read_trace_csv(io.StringIO(text))
        np.testing.assert_array_equal(back.t, trace.t)
        np.testing.assert_array_equal(back.q, trace.q)
        np.testing.assert_array_equal(back.qd, trace.qd)
        np.testing.assert_array_equal(back.e1, trace.e1)
        np.testing.assert_array_equal(back.tau, trace.tau)
        np.testing.assert_array_equal(back.theta_hat, trace.theta_hat)
        np.testing.assert_array_equal(back.delta, trace.delta)
        np.testing.assert_array_equal(back.zeta1, trace.zeta1)
        np.testing.assert_array_equal(back.v1, trace.v1)
        np.testing.assert_array_equal(back.z1norm, trace.z1norm)

    @pytest.mark.parametrize("estimate_dim", [2, 5], ids=["c1_c2", "c3_c4"])
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
    def test_blocks_write_the_row_loop_bytes(self, rows, estimate_dim):
        # less than one 256-row block, exactly one, one and a row, two and a row
        assert _g17.BLOCK_ROWS == 256
        rng = np.random.default_rng(rows + estimate_dim)
        col = lambda *shape: rng.standard_normal((rows, *shape)) * 10.0 ** rng.integers(
            -12, 12, (rows, *shape))
        trace = Trace(np.arange(rows) * DT, col(2), col(2), col(2), col(2),
                      col(estimate_dim), col(), col(), col(), col())
        trace.tau[::7, 0] = 0.0
        trace.v1[::5] = -0.0
        header, data = trace_columns(trace)
        assert data.shape == (rows, 13 + estimate_dim)
        assert trace_csv_string(trace) == ",".join(header) + "\n" + ref.csv_rows(data)

    def test_column_layout(self):
        trace = run_closed_loop(SimConfig(controller="c3", t_final=0.01))
        header = trace_csv_string(trace).splitlines()[0].split(",")
        assert header[:9] == ["t", "q1", "q2", "qd1", "qd2", "e11", "e12", "tau1", "tau2"]
        assert header[9:14] == [f"theta_hat_{i}" for i in range(1, 6)]
        assert header[14:] == ["Delta", "zeta1", "V1", "z1norm"]
