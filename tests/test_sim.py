import dataclasses
import io
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ftlab
import reference as ref
from conftest import (calls_per_step, history, run_staging, trace_buffers, trace_bytes,
                      traced_peak)
from ftlab import _g17, control, mathx, verify
from ftlab.control import (CompositeAdaptGains, FtPdGains, TsmParams, excitation_gain,
                           make_controller)
from reference import sat
from test_golden import FIXTURE_RUNS
from ftlab.drem import KreisParams, KreisselmeierDre, LeastSquaresDre, excitation_gramian
from ftlab.errors import ConfigError, NumericalDegeneracyError
from ftlab.plant import FrictionModel, NoiseModel, Plant, ThetaVector
from ftlab.regression import RegressionPair
from ftlab.sim import (VECTORS, SimConfig, Trace, compute_metrics, lyapunov_v1,
                       read_trace_csv, run_closed_loop, trace_columns, trace_csv_string,
                       write_trace_csv)

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

    def test_fields_cannot_be_assigned(self):
        config = SimConfig(t_final=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.q0 = [3.0, 0.0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.dt = 1e-3

    @pytest.mark.parametrize("name", VECTORS)
    def test_vectors_are_read_only(self, name):
        config = SimConfig(t_final=0.01, theta_hat0=[0.0, 0.0])
        with pytest.raises(ValueError, match="read-only"):
            getattr(config, name)[0] = 1.0

    @pytest.mark.parametrize("name, value", [
        ("q0", [3.0, 0.0]), ("qd0", (0.0, 0.0)), ("q_d", [2, 2]), ("theta_bar", [2.0, 8.0]),
        ("theta_hat0", (0, 0))])
    def test_vector_given_as_a_sequence_is_a_float_array(self, name, value):
        vec = getattr(SimConfig(t_final=0.01, **{name: value}), name)
        assert type(vec) is np.ndarray and vec.dtype == np.float64
        assert vec.tolist() == [float(x) for x in value]

    def test_vector_is_a_copy_of_the_given_array(self):
        q0 = np.array([3.0, 0.5])
        config = SimConfig(q0=q0)
        q0[0] = 1.0
        assert config.q0.tolist() == [3.0, 0.5] and q0.flags.writeable

    @pytest.mark.parametrize("change, message", [
        ({"q0": [np.nan, 0.0]}, "q0 must be finite, got [nan  0.]"),
        ({"dt": -1.0}, "dt must be positive, got -1.0"),
        ({"controller": "c3", "theta_hat0": [0.0, 0.0]}, "theta_hat0 must have length 5 for c3"),
        ({"scenario": "case3"}, "scenario must be one of ('case1', 'case2'), got 'case3'"),
        ({"parameterization": "energy"},
         "parameterization must be one of ('power_balance', 'force_balance')"),
        ({"lambda1": 0.0}, "lambda0 and lambda1 must be positive"),
        ({"settle_tol": 0.0}, "settle_tol must be positive"),
        ({"q0": 3.0}, "q0 must have length 2"),
    ], ids=["q0_nan", "dt_negative", "theta_hat0_length", "scenario", "parameterization",
            "lambda1", "settle_tol", "q0_scalar"])
    @pytest.mark.parametrize("build", ["construction", "replace"])
    def test_invalid_field_is_a_config_error_when_built(self, change, message, build):
        with pytest.raises(ConfigError) as info:
            if build == "construction":
                SimConfig(**change)
            else:
                dataclasses.replace(SimConfig(), **change)
        assert str(info.value) == message

    def test_replace_gives_the_config_built_with_its_fields(self):
        varied = dataclasses.replace(SimConfig(), q0=[1, 0], dt=1e-3)
        assert varied == SimConfig(q0=np.array([1.0, 0.0]), dt=1e-3)
        assert not varied.q0.flags.writeable
        varied.validate()    # a built config passes its checks again

    def test_equality_compares_vectors_by_value(self):
        assert SimConfig() == SimConfig()
        assert SimConfig(q0=[3, 0], theta_hat0=(1.0, 2.0)) == SimConfig(theta_hat0=[1, 2])
        assert SimConfig() != SimConfig(q0=[3.0, 0.5])
        assert SimConfig() != SimConfig(dt=1e-3)
        # None and an array differ, whatever the array holds
        assert SimConfig() != SimConfig(theta_hat0=[0.0, 0.0])
        assert SimConfig(theta_hat0=[0.0, 0.0]) != SimConfig()

    def test_config_is_not_hashable(self):
        with pytest.raises(TypeError, match="unhashable type: 'SimConfig'"):
            hash(SimConfig())

    def test_estimate_dimension_checked(self):
        with pytest.raises(ConfigError):
            SimConfig(controller="c1", theta_hat0=np.zeros(5)).validate()
        with pytest.raises(ConfigError):
            SimConfig(controller="c3", theta_hat0=np.zeros(2)).validate()


# checks of the library's own arguments, which no config reaches:
# name -> (the call, its ValueError's message)
LIBRARY_CHECKS = {
    "tsm_exponent": (lambda: control.SwitchingTsmController(TsmParams(), 1.0, Plant.two_link()),
                     "exponent a must lie in (0, 1)"),
    "kreis_lambda": (lambda: KreisParams(lambda2=0.0), "lambda2 and lambda3 must be positive"),
    "gramian_window": (lambda: excitation_gramian(np.arange(3.0), np.zeros((3, 2, 5)), 0.0, 0.0),
                       "window length must be positive"),
    "plant_theta": (lambda: Plant(ThetaVector((1.0, 2.0), (3.0, 4.0))),
                    "the closed forms are those of the two-link arm: three inertia and two "
                    "potential parameters"),
}


@pytest.mark.parametrize("name", sorted(LIBRARY_CHECKS))
def test_library_argument_check_names_its_error(name):
    call, message = LIBRARY_CHECKS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


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

    @pytest.mark.parametrize("controller, scenario, parameterization, budget", [
        ("c1", "case1", None, 9), ("c2", "case1", None, 9),
        ("c3", "case1", None, 10), ("c4", "case1", None, 14),
        ("c1", "case2", None, 9), ("c2", "case2", None, 9),
        ("c3", "case2", None, 11), ("c4", "case2", None, 14),
        ("c2", "case2", "power_balance", 8)])
    def test_a_step_makes_a_fixed_budget_of_python_calls(self, controller, scenario,
                                                         parameterization, budget):
        # per sample the loop measures, calls the controller's step once and
        # steps the plant; the step's stages are written out in it, so the
        # count is a small constant per family
        calls = calls_per_step({"controller": controller, "scenario": scenario,
                                "parameterization": parameterization})
        assert calls == int(calls) and calls <= budget, calls

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


def _numpy_scalars(obj):
    """``obj`` rebuilt with every float field a numpy scalar, recursively."""
    return dataclasses.replace(obj, **{
        f.name: (_numpy_scalars(v) if dataclasses.is_dataclass(v)
                 else np.float64(v) if type(v) is float else v)
        for f in dataclasses.fields(obj) for v in [getattr(obj, f.name)]})


def _leaves(value):
    """The scalars of a number or of nested tuples and lists of them."""
    if isinstance(value, (tuple, list)):
        return [x for item in value for x in _leaves(item)]
    return [value]


class TestFloatStepState:
    # every number the step path carries from one sample to the next is a
    # Python float, converted once where it is bound: numpy scalars in a
    # library caller's config would otherwise make every operation on the
    # state a numpy scalar operation, several times slower
    @pytest.mark.parametrize("controller, scenario, parameterization", [
        (c, s, p) for c in ("c1", "c2", "c3", "c4") for s in ("case1", "case2")
        for p in ("power_balance", "force_balance")
        if c != "c4" or p == "force_balance"])
    def test_numpy_settings_give_float_state(self, monkeypatch, controller, scenario,
                                              parameterization):
        kept = []

        def keep(config, plant):
            kept.append(make_controller(config, plant))
            return kept[-1]

        monkeypatch.setattr(control, "make_controller", keep)
        config = _numpy_scalars(SimConfig(controller=controller, scenario=scenario,
                                          parameterization=parameterization,
                                          t_final=0.01))
        assert type(config.dt) is np.float64 and type(config.ftpd.r1) is np.float64
        assert type(config.q0) is np.ndarray
        run_closed_loop(config)
        ctrl, = kept
        reg, ext = ctrl.regression, ctrl.extension
        held = {"estimate": ctrl.estimate, "dt": ctrl.dt, "_gains": ctrl._gains,
                "regression._z": reg._z, "regression._y": reg._y}
        if parameterization == "force_balance":
            held["regression._omega_d2"] = reg._omega_d2
        if isinstance(ext, LeastSquaresDre):
            held.update({"extension._w": ext._w, "extension.z": ext.z})
        for name, value in held.items():
            leaves = _leaves(value)
            assert leaves and all(type(x) is float for x in leaves), (name, value)


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
    [:, 1:] is ``Y_mixed``; the recorded Delta is its first entry.  c3 takes
    Delta alone and keeps no mixing record."""

    @pytest.mark.parametrize("fixture", ["c2_case1", "c2_case1_pb", "c3_case2"])
    def test_kreisselmeier_row_is_det_and_cramer_of_the_recorded_state(self, fixture,
                                                                      request):
        trace = request.getfixturevalue(fixture)
        # the reference builds the Cramer stack with np.where and takes
        # np.linalg.det, the same bits as the mix's gather and det_stack
        replayed = history(trace)
        want = [ref.kreis_mix(phi1, phi2) for phi1, phi2
                in zip(replayed["phi1"], replayed["phi2"])]
        assert trace.delta.tobytes() == np.array([d for d, _ in want]).tobytes()
        if trace.meta["controller"] == "c3":
            # its law reads phi1 and phi2, not Y: no Y and no (steps, l + 1) row
            assert "Y_mixed" not in trace.diagnostics
            row = (trace.extension.dim + 1,)
            assert not [b for b in trace_buffers(trace) if b.shape[1:] == row]
            return
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

        def corrupted(dre, pair):
            step(dre, pair)
            if next(count) == 3:
                if index is None:
                    setattr(dre, attribute, value)
                else:
                    getattr(dre, attribute)[index] = value

        monkeypatch.setattr(extension, "step", corrupted)
        with pytest.raises(NumericalDegeneracyError,
                           match=rf"^step 3 \(t = 0\.0015 s\): {quantity} is not finite$"):
            run_closed_loop(SimConfig(controller=controller, t_final=0.01))


# signed zeros, the smallest subnormals, infinities, NaNs of both signs and the
# largest float
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, -math.nan,
               1.7976931348623157e308]


class TestNoExtensionRecord:
    """The trace keeps the run's extension and no per-step copy of its
    state: ``drem.replay`` rebuilds that history from the pair record."""

    @pytest.mark.parametrize("controller, parameterization", [
        ("c1", "force_balance"), ("c2", "force_balance"), ("c2", "power_balance"),
        ("c3", "force_balance"), ("c4", "force_balance")])
    def test_trace_holds_no_per_step_extension_state(self, controller, parameterization):
        trace = run_closed_loop(SimConfig(controller=controller, t_final=0.05,
                                          parameterization=parameterization))
        n, l_dim = len(trace), trace.extension.dim
        assert not {"w", "z_forget", "phi1", "phi2"} & set(trace.diagnostics)
        buffers = trace_buffers(trace)
        assert not [b for b in buffers if b.shape == (n, l_dim, l_dim + 1)]
        # the one (steps, l + 1) buffer is the controller's mixing record
        wide = [b for b in buffers if b.shape == (n, l_dim + 1)]
        mixed = "Y_mixed" in trace.diagnostics
        assert len(wide) == mixed
        if mixed:
            assert trace.diagnostics["Y_mixed"].base is wide[0]
        # bytes per step: the packed row (q, qd, tau, the estimate, Delta),
        # the pair [Omega | y], the mixing row, t, e1, the Delta copy, the
        # three monitors and c3's one-byte branch
        n_out = trace.diagnostics["omega"].shape[1]
        floats = (7 + trace.theta_hat.shape[1] + n_out * (l_dim + 1)
                  + mixed * (l_dim + 1) + 1 + 2 + 1 + 3)
        per_step = 8 * floats + ("branch" in trace.diagnostics)
        assert trace_bytes(trace) <= n * per_step, (trace_bytes(trace), n * per_step)


class TestPackedRecord:
    """The loop packs each record row, and each regression filter its
    [Omega | y] rows, with ``struct`` into the record's own buffer: the bytes
    are those of the floats as a numpy float64 row."""

    @staticmethod
    def pack(row):
        record = np.zeros((3, len(row)))
        struct.Struct(f"{len(row)}d").pack_into(memoryview(record), record.itemsize * len(row),
                                                *row)
        assert not record[0].any() and not record[2].any()
        return record[1].tobytes()

    def test_edge_values_bytewise(self):
        assert self.pack(EDGE_FLOATS) == np.array(EDGE_FLOATS).tobytes()

    @given(row=st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), min_size=1, max_size=13))
    def test_packed_row_is_the_array_row_bytewise(self, row):
        assert self.pack(row) == np.array(row).tobytes()


class TestArrayMonitors:
    """zeta1 and V1's signed power run over whole arrays, with the bits of
    the float kernels taken sample by sample (zeta1 where |Delta| <= 1;
    above it the gain takes its other form, which ``test_control.py``
    holds to x / (1 + x))."""

    @pytest.mark.parametrize("fixture", ["c1_case1", "c2_case2", "c3_case2", "c4_case1"])
    def test_zeta1_is_the_float_kernel_bitwise(self, fixture, request):
        trace = request.getfixturevalue(fixture)
        b, d = trace.meta["exponent_b"], trace.meta["sat_d"]
        deltas = trace.delta.tolist()
        want = np.array([sat(x, b, d) * ref.spow(x, b) for x in deltas])
        small = np.abs(trace.delta) <= 1.0
        assert trace.zeta1[small].tobytes() == want[small].tobytes()
        # Delta = 0 of either sign gives +0.0, as spow does
        got = excitation_gain(np.array(deltas[:5] + [0.0, -0.0]), b, d)
        assert got.tobytes() == np.concatenate((want[:5], [0.0, 0.0])).tobytes()

    @pytest.mark.parametrize("controller, scenario", [("c1", "case1"), ("c3", "case2")])
    def test_blocks_give_the_bits_of_one_pass(self, monkeypatch, controller, scenario):
        # 1001 samples in blocks of 7 rows (the last one short) against one
        # block of all of them
        config = SimConfig(controller=controller, scenario=scenario, t_final=0.5)
        monkeypatch.setattr(ftlab.sim, "MONITOR_ROWS", 7)
        blocked = run_closed_loop(config)
        monkeypatch.setattr(ftlab.sim, "MONITOR_ROWS", len(blocked))
        whole = run_closed_loop(config)
        for name in ("v1", "z1norm", "zeta1"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), name

    @pytest.mark.parametrize("fixture", ["c1_case1", "c2_case2"])
    def test_signed_power_of_e1_is_spow_bitwise(self, fixture, request):
        a = FtPdGains().a
        e1 = np.vstack((request.getfixturevalue(fixture).e1,
                        [[0.0, -0.0], [-0.0, 1e-300], [-1e-300, 0.0]]))
        want = np.array([[ref.spow(x, a) for x in row] for row in e1.tolist()])
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
        eigs = np.linalg.eigvalsh(history(c2_case1)["phi2"])[:, 0]
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

    def test_trace_read_back_from_csv_is_refused(self):
        # the CSV keeps the series but not the run's metadata or omega
        back = read_trace_csv(io.StringIO(trace_csv_string(run_closed_loop(
            SimConfig(t_final=0.05)))))
        with pytest.raises(ValueError, match="read back from CSV"):
            compute_metrics(back)

    def test_non_finite_figure_is_a_named_degeneracy(self):
        # an error whose squares overflow: the norms are inf, without a
        # numpy warning, and the first figure they reach is named
        trace = self.synthetic_trace(np.full(100, 1e200), np.zeros((100, 2)))
        with pytest.raises(NumericalDegeneracyError,
                           match=r"^metric steady_state_error is not finite \(inf\)$"):
            compute_metrics(trace, gramian_window=40 * DT)

    def test_text_rendering(self, c1_case1):
        text = compute_metrics(c1_case1).to_text()
        assert "settling_time=" in text and "chattering_amplitude=" in text

    @staticmethod
    def figures(m):
        return struct.pack("5d", m.settling_time, m.steady_state_error,
                           m.param_convergence_time, m.chattering_amplitude, m.zeta1_integral)

    @pytest.mark.parametrize("fixture", ["c1_case1", "c2_case2", "c3_case2", "c4_case1"])
    def test_figures_are_the_whole_array_reference_bitwise(self, fixture, request):
        trace = request.getfixturevalue(fixture)
        want = ref.trace_figures(trace, trace.meta["settle_tol"], trace.meta["param_tol"],
                                 ftlab.sim.STEADY_FRACTION)
        assert self.figures(compute_metrics(trace)) == struct.pack("5d", *want)

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 15, 36])
    def test_short_trace_figures_are_the_whole_array_reference_bitwise(self, n):
        # the shortest traces and a few longer ones, with exceedances anywhere
        rng = np.random.default_rng(n)
        trace = self.synthetic_trace(rng.uniform(0.0, 2e-3, n), rng.standard_normal((n, 2)))
        trace.theta_hat = np.array([1.0, 2.0]) + rng.uniform(-0.1, 0.1, (n, 2))
        trace.zeta1 = rng.uniform(0.0, 1.0, n)
        want = ref.trace_figures(trace, 1e-3, 0.05, ftlab.sim.STEADY_FRACTION)
        assert self.figures(compute_metrics(trace)) == struct.pack("5d", *want)

    @pytest.mark.parametrize("fixture", sorted(FIXTURE_RUNS))
    def test_excitation_matrices_are_exactly_symmetric(self, fixture, request):
        # what lets the metrics take eigvalsh of the Gramian and of phi2 as
        # they are, with no symmetrisation
        trace = request.getfixturevalue(fixture)
        gram = excitation_gramian(trace.t, trace.diagnostics["omega"], 0.0, 2.0)
        assert gram.tobytes() == np.ascontiguousarray(gram.T).tobytes()
        assert compute_metrics(trace).gramian_min_eig == np.linalg.eigvalsh(gram)[0]
        if trace.extension.kind == "kreisselmeier":
            phi2 = np.ascontiguousarray(trace.extension.phi2)
            assert phi2.tobytes() == np.ascontiguousarray(phi2.T).tobytes()


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

    @pytest.mark.parametrize("estimate_dim, packed",
                             [(2, False), (5, False), (2, True), (5, True)],
                             ids=["c1_c2", "c3_c4", "c1_c2_packed", "c3_c4_packed"])
    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
    def test_blocks_write_the_row_loop_bytes(self, rows, estimate_dim, packed):
        # less than one 256-row block, exactly one, one and a row, two and a
        # row; "packed" series are column views of one buffer, as a run's
        # trace holds the record's columns, laid out in another order than
        # the CSV's
        assert _g17.BLOCK_ROWS == 256
        rng = np.random.default_rng(rows + estimate_dim)
        widths = [2, 2, 2, 2, estimate_dim, 1, 1, 1, 1]
        drawn = lambda n: rng.standard_normal((rows, n)) * 10.0 ** rng.integers(
            -12, 12, (rows, n))
        if packed:
            # the series from the last column backwards, after two unused ones
            buffer, end, views = drawn(sum(widths) + 2), sum(widths) + 2, []
            for w in widths:
                views.append(buffer[:, end - w:end])
                end -= w
        else:
            views = [drawn(w) for w in widths]
        series = [v if w > 1 else v[:, 0] for v, w in zip(views, widths)]
        if packed and rows > 1:
            assert not any(v.flags.c_contiguous for v in series)
        trace = Trace(np.arange(rows) * DT, *series)
        trace.tau[::7, 0] = 0.0
        trace.v1[::5] = -0.0
        header, columns = trace_columns(trace)
        data = np.column_stack(columns)
        assert data.shape == (rows, 13 + estimate_dim)
        assert trace_csv_string(trace) == ",".join(header) + "\n" + ref.csv_rows(data)

    def test_column_layout(self):
        trace = run_closed_loop(SimConfig(controller="c3", t_final=0.01))
        header = trace_csv_string(trace).splitlines()[0].split(",")
        assert header[:9] == ["t", "q1", "q2", "qd1", "qd2", "e11", "e12", "tau1", "tau2"]
        assert header[9:14] == [f"theta_hat_{i}" for i in range(1, 6)]
        assert header[14:] == ["Delta", "zeta1", "V1", "z1norm"]


class _Discard:
    def write(self, text):
        pass


class TestBoundedStaging:
    """After the loop a run stages a bounded block of temporaries beyond
    the trace: the monitors and the CSV work a block of rows at a time.
    The bounds are stated from the data's size, not from a measurement."""

    def test_csv_stages_less_than_one_copy_of_its_columns(self, c1_case1):
        # bound: one float64 copy of the CSV's 15 columns (2.4 MB at 20 001
        # rows), which a column_stack of the trace alone would take
        header, _ = trace_columns(c1_case1)
        bound = len(c1_case1) * len(header) * 8
        assert len(c1_case1) == 20001 and len(header) == 15
        write_trace_csv(c1_case1, _Discard())    # warm numpy's and _g17's caches
        _, peak = traced_peak(write_trace_csv, c1_case1, _Discard())
        assert peak < bound, (peak, bound)

    def test_run_stages_less_than_its_row_record_beyond_the_trace(self):
        # bound: the bytes of the packed row record, one (7 + estimate)
        # float64 row per sample; a run that copied the trace's series out
        # of the row and pair records, rather than handing out views of
        # them, would stage more than that beside the records
        trace, staged = run_staging(SimConfig())
        row_record = len(trace) * (7 + trace.theta_hat.shape[1]) * 8
        assert staged < row_record, (staged, row_record)
