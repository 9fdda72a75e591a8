import contextlib
import dataclasses
import io
import math
import re
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ftlab
from ftlab import cli, verify
from ftlab.cli import CONFIG_KEYS, main, parse_config
from ftlab.control import CompositeAdaptGains, FtPdGains, make_controller
from ftlab.drem import KreisselmeierDre
from ftlab.errors import ConfigError
from ftlab.plant import FrictionModel, Plant, ThetaVector
from ftlab.sim import CONTROLLERS, PARAMETERIZATIONS, SCENARIOS, SimConfig, read_trace_csv


class TestParseConfig:
    def test_empty_gives_reference_defaults(self, plant):
        cfg = parse_config("")
        assert cfg.controller == "c1"
        assert cfg.scenario == "case1"
        assert cfg.effective_parameterization == "force_balance"
        assert make_controller(cfg, plant).dre == "least_squares"
        assert cfg.dt == 5e-4 and cfg.t_final == 10.0
        np.testing.assert_array_equal(cfg.q_d, [2.0, 2.0])
        np.testing.assert_array_equal(cfg.q0, [3.0, 0.0])
        np.testing.assert_allclose(cfg.ftpd.kp, [3.0, 3.0])
        np.testing.assert_allclose(cfg.adapt.upsilon_diag, [50.0, 50.0])
        assert cfg.ls.alpha == 10.0 and cfg.ls.gain_cap == 10.0

    def test_controller_only_pulls_its_gains(self):
        cfg = parse_config("controller=c3")
        assert cfg.controller == "c3"
        assert cfg.tsm.k1 == 2.0 and cfg.tsm.k2 == 1.5 and cfg.tsm.ks == 0.6
        assert cfg.tsm.gamma_tsm == 0.001 and cfg.tsm.k_tsm == 5000.0
        assert cfg.tsm.gamma_lin == 1.0 and cfg.tsm.k_lin == 50.0

    def test_c2_defaults(self, plant):
        cfg = parse_config("controller=c2")
        assert make_controller(cfg, plant).dre == "kreisselmeier"
        assert cfg.kreis.lambda2 == 1.0 and cfg.kreis.lambda3 == 1.3

    def test_negative_dt_names_key(self):
        with pytest.raises(ConfigError, match="dt"):
            parse_config("dt=-1")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("controller=c1\n\nwhatever=1\n")
        # the controller name fixes the extension: no key selects it
        with pytest.raises(ConfigError, match="line 2: unknown key 'dre'"):
            parse_config("controller = c2\ndre = least_squares\n")

    def test_repeated_field_names_both_lines(self):
        # a field set twice, under its bare or its sectioned key, is an error
        # rather than the last value silently winning
        with pytest.raises(ConfigError, match=r"^sim\.dt \(line 2\) sets the same field "
                                              r"as dt \(line 1\)$"):
            parse_config("dt = 1e-3\nsim.dt = 2e-3\n")
        with pytest.raises(ConfigError, match=r"^gains\.P \(line 3\) sets the same field "
                                              r"as gains\.P \(line 1\)$"):
            parse_config("gains.P = 3\ncontroller = c1\ngains.P = 9\n")

    def test_sectioned_and_comments(self):
        cfg = parse_config("""
            # a run with heavier links
            controller = c2
            scenario = case2
            sim.t_final = 4.0
            plant.m2 = 1.4
            gains.P = 4
            gains.D = 3,2
            dre.lambda3 = 1.1
        """)
        assert cfg.scenario == "case2" and cfg.t_final == 4.0
        assert cfg.params.m2 == 1.4
        np.testing.assert_allclose(cfg.ftpd.kp, [4.0, 4.0])
        np.testing.assert_allclose(cfg.ftpd.kd, [3.0, 2.0])
        assert cfg.kreis.lambda3 == 1.1

    def test_same_text_gives_equal_parameter_objects(self):
        text = ("gains.P = 4, 3\ngains.Gamma = 2\nplant.friction = 0.2, 0.1\n"
                "plant.noise_amplitude = 0.01\n")
        first, second = parse_config(text), parse_config(text)
        for attr in ("ftpd", "adapt", "ls", "friction", "noise"):
            a, b = getattr(first, attr), getattr(second, attr)
            assert a == b and hash(a) == hash(b)

    def test_plant_completion_overridable(self):
        cfg = parse_config("plant.lc2 = 0.2\nplant.I2 = 0.01\n")
        assert cfg.params.lc2 == 0.2 and cfg.params.I2 == 0.01
        assert cfg.params.lc1 == 0.15   # untouched entries keep uniform-rod values

    def test_malformed_lines(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("this is not a config")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("dt=")
        with pytest.raises(ConfigError, match="q_d"):
            parse_config("q_d=1,2,3")

    @pytest.mark.parametrize("text, message", [
        ("sim.dt = fast\n", "line 1: sim.dt: expected a number, got 'fast'"),
        ("gains.P = 1, 2, 3\n", "line 1: gains.P: expected 1 or 2 entries, got 3"),
        ("controller = c9\n",
         "line 1: controller: must be one of ('c1', 'c2', 'c3', 'c4'), got 'c9'"),
    ], ids=["not_a_number", "diagonal_length", "enum_value"])
    def test_value_check_names_line_and_key(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_bad_gain_combination(self):
        with pytest.raises(ConfigError, match="gains"):
            parse_config("gains.r1=1.0\ngains.r2=1.0")

    def test_c4_reads_the_shared_gains(self, plant):
        # c4 shares K1 K2 Ks with c3 and alpha beta0 f0 xi norm with the
        # least-squares extension
        cfg = parse_config("controller = c4\ngains.K1 = 3.5\ndre.alpha = 7\ndre.f0 = 2\n")
        ctrl = make_controller(cfg, plant)
        assert ctrl.tsm.k1 == 3.5 and ctrl.ls.alpha == 7.0
        # the gain c4 applies is the extension's F, from F(0) = I / f0
        assert ctrl.extension.params is cfg.ls
        np.testing.assert_array_equal([ctrl.extension.gain_times(e) for e in np.eye(5)],
                                      np.eye(5) / 2.0)
        np.testing.assert_allclose(ctrl.extension.F, np.eye(5) / 2.0, rtol=1e-15)


class TestParameterObjects:
    """The frozen parameter objects hold their vectors as tuples of floats,
    so twins compare and hash equal."""

    @pytest.mark.parametrize("make", [
        lambda: FtPdGains(kp=np.array([4.0, 3.0]), kd=[2, 2]),
        lambda: CompositeAdaptGains(gamma_diag=np.array([1.0, 2.0])),
        lambda: FrictionModel(np.array([0.5, 0.4])),
        lambda: ThetaVector(np.array([1.0, 2.0, 3.0]), [4, 5]),
    ], ids=["FtPdGains", "CompositeAdaptGains", "FrictionModel", "ThetaVector"])
    def test_twins_compare_and_hash_equal(self, make):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        vectors = [v for v in dataclasses.astuple(a) if isinstance(v, tuple)]
        assert vectors and all(type(x) is float for v in vectors for x in v)


def settable_fields() -> list:
    """(SimConfig attribute or None, field) of every field of SimConfig and of
    the parameter dataclasses it holds; None stands for SimConfig itself."""
    default = SimConfig()
    fields = []
    for f in dataclasses.fields(SimConfig):
        value = getattr(default, f.name)
        if dataclasses.is_dataclass(value):
            fields += [(f.name, g.name) for g in dataclasses.fields(value)]
        else:
            fields.append((None, f.name))
    return fields


def field_value(config, target):
    attr, name = target
    return getattr(config if attr is None else getattr(config, attr), name)


def same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return bool(np.array_equal(a, b))


# valid non-default values where scaling the default by 1.25 does not give one
SAMPLES = {
    "controller": "c2", "scenario": "case2", "parameterization": "power_balance",
    "sim.qd0": "0.5, -0.5", "sim.gramian_start": "0.5",
    "gains.theta_hat0": "1, 5", "dre.norm": "frobenius",
    "dre.lambda0": "0.7",
}

# the uniform-rod completion, the one rule by which a key moves other fields
COMPLETED = {"m1": {"I1"}, "m2": {"I2"}, "l1": {"lc1", "I1"}, "l2": {"lc2", "I2"}}


def sample(key: str) -> str:
    if key in SAMPLES:
        return SAMPLES[key]
    default = np.atleast_1d(field_value(SimConfig(), CONFIG_KEYS[key][:2]))
    return ", ".join(repr(1.25 * x) for x in default.tolist())


# the short run (controller, scenario, t_final) in which a key shows, where
# the default c1/case2 run at 0.2 s does not: the extension and controller
# gains of the other families; c3's linear-branch gains and TSM clamp, which
# act only once c3 switches branch or |e1| falls below the clamp; and the
# metric tolerances and Gramian window, which need a run that settles and
# outlasts the window
MOVES_IN = {
    **dict.fromkeys(("dre.lambda2", "dre.lambda3"), ("c2", "case2", 0.2)),
    **dict.fromkeys(("gains.K1", "gains.K2", "gains.Ks", "gains.tsm_gamma", "gains.tsm_k"),
                    ("c3", "case2", 0.2)),
    **dict.fromkeys(("gains.lin_gamma", "gains.lin_k", "gains.tsm_clamp"), ("c3", "case1", 2.0)),
    **dict.fromkeys(("sim.settle_tol", "sim.param_tol", "sim.gramian_start",
                     "sim.gramian_window"), ("c1", "case1", 3.0)),
}

# keys that need not move an output: the two selectors, which every run of the
# table sets, and theta_bar, a validation bound (the known-bound assumption)
# that a valid run never reads
NO_OUTPUT = {"controller", "scenario", "plant.theta_bar"}


def run_text(run, skip: str = "") -> str:
    """The config lines of a (controller, scenario, t_final) run, without
    the line of key ``skip``, which the caller sets instead."""
    lines = dict(zip(("controller", "scenario", "sim.t_final"), run))
    return "".join(f"{key} = {value}\n" for key, value in lines.items() if key != skip)


def run_outputs(root: Path, text: str) -> str:
    """trace.csv then metrics.txt of ``ftlab simulate`` on a config text."""
    root.mkdir(parents=True)
    out = root / "out"
    assert main(["--config", str(_write(root, text)), "--out", str(out), "simulate"]) == 0
    return (out / "trace.csv").read_text() + (out / "metrics.txt").read_text()


class TestOneHomePerSetting:
    @pytest.mark.parametrize("target", settable_fields(),
                             ids=lambda t: f"{t[0] or 'SimConfig'}.{t[1]}")
    def test_every_field_has_one_key(self, target):
        keys = [key for key, (attr, name, _) in CONFIG_KEYS.items() if (attr, name) == target]
        assert len(keys) == 1, keys

    @pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
    def test_each_key_sets_exactly_its_field(self, key):
        attr, name, parse = CONFIG_KEYS[key]
        raw = sample(key)
        config, default = parse_config(f"{key} = {raw}\n"), SimConfig()
        moved = {t for t in settable_fields()
                 if not same(field_value(config, t), field_value(default, t))}
        allowed = {(attr, other) for other in COMPLETED.get(name, ())} if attr == "params" else set()
        assert (attr, name) in moved
        assert moved - {(attr, name)} <= allowed
        assert same(field_value(config, (attr, name)), parse(key, raw))
        if key.startswith("sim."):    # the bare alias sets the same field
            bare = parse_config(f"{key[4:]} = {raw}\n")
            assert all(same(field_value(bare, t), field_value(config, t))
                       for t in settable_fields())

    def test_each_key_moves_an_output(self, tmp_path):
        # a key that moves no byte of trace.csv or metrics.txt is a knob the
        # run ignores; each key runs where it acts, against that run's baseline
        baselines = {}
        idle = []
        for key in sorted(set(CONFIG_KEYS) - NO_OUTPUT):
            run = MOVES_IN.get(key, ("c1", "case2", 0.2))
            if run not in baselines:
                baselines[run] = run_outputs(tmp_path / f"base{len(baselines)}", run_text(run))
            text = run_text(run, skip=key) + f"{key} = {sample(key)}\n"
            if run_outputs(tmp_path / key, text) == baselines[run]:
                idle.append(key)
        assert idle == []


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_keys() -> list:
    """The keys of the README's configuration table: the run selectors bare,
    the sim row ``sim.``-prefixed, every other row under its group prefix."""
    text = README.read_text()
    table = text[text.index("| group | keys |"):].split("\n\n", 1)[0]
    keys = []
    for row in table.splitlines()[2:]:
        group, cell = (part.strip() for part in row.strip("|").split("|"))
        if group == "run selectors":
            prefix = ""
        elif group.startswith("sim "):
            prefix = "sim."
        else:
            prefix = group.strip("`")
        keys += [prefix + name for quoted in re.findall(r"`([^`]+)`", cell)
                 for name in quoted.split()]
    return keys


def test_readme_key_table_is_config_keys():
    assert sorted(readme_config_keys()) == sorted(CONFIG_KEYS)


class TestCliCommands:
    def test_simulate_writes_outputs(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final=0.2\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 0
        trace_file = tmp_path / "out" / "trace.csv"
        metrics_file = tmp_path / "out" / "metrics.txt"
        assert trace_file.exists() and metrics_file.exists()
        header = trace_file.read_text().splitlines()[0]
        assert header.startswith("t,q1,q2,")
        assert "settling_time=" in metrics_file.read_text()

    def test_controller_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final=0.1\n")
        code = main(["--config", str(cfg), "--controller", "c4",
                     "--out", str(tmp_path / "o2"), "simulate"])
        assert code == 0
        header = (tmp_path / "o2" / "trace.csv").read_text().splitlines()[0]
        assert "theta_hat_5" in header

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dt=-1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path), "simulate"]) == 2

    def test_degeneracy_exit_code(self, tmp_path):
        cfg = tmp_path / "explode.cfg"
        # an absurd forgetting rate (beta dt > 1) destabilizes the c4 gain
        # update; no alpha can, since the information form adds alpha Omega' Omega
        cfg.write_text("controller=c4\nt_final=1.0\ndre.beta0=1e4\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate"]) == 3

    @pytest.mark.parametrize("controller", ["c2", "c3"])
    def test_coarse_step_blow_up_exit_code(self, tmp_path, capsys, controller):
        # the extension determinant overflows at dt = 0.05; this must end in
        # the degeneracy exit code with step and time, not a traceback
        out = tmp_path / "o"
        assert main(["--config", str(_write(tmp_path, "dt=0.05\n")), "--controller",
                     controller, "--out", str(out), "simulate"]) == 3
        err = capsys.readouterr().err
        assert "is not finite" in err and "step " in err and "(t = " in err
        assert not out.exists()

    def test_coarse_step_prints_only_the_degeneracy_line(self, tmp_path, capsys):
        # numpy's overflow warning from the extension determinant stays off stderr
        assert main(["--config", str(_write(tmp_path, "controller=c2\ndt=0.05\n")),
                     "--out", str(tmp_path / "o"), "simulate"]) == 3
        assert capsys.readouterr().err == (
            "numerical degeneracy: step 9 (t = 0.45 s): mixing factor Delta is not finite\n")

    def test_monitor_overflow_is_a_degeneracy(self, tmp_path, capsys):
        # the loop's states stay finite, but V1 and |z1| overflow under a
        # 1e300 link mass and a 1e308 bound: the run ends in the degeneracy
        # exit with one line naming the monitor, step and time, and no output
        cfg = _write(tmp_path, "plant.m1 = 1e300\nplant.theta_bar = 1e308, 1e308\n"
                               "sim.t_final = 0.01\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3
        assert capsys.readouterr().err == (
            "numerical degeneracy: step 0 (t = 0 s): monitor V1 is not finite\n")
        assert not out.exists()

    def test_non_finite_metric_is_a_degeneracy(self, tmp_path, capsys):
        # the run's states stay finite, but the norm of a 1e200 position
        # error overflows in the steady-state figure: simulate ends in the
        # degeneracy exit naming the figure, with no numpy warning and no
        # output, and sweep counts the job as failed
        cfg = _write(tmp_path, "controller = c2\nparameterization = power_balance\n"
                               "sim.q0 = 1e200,1e150\nplant.lc2 = 1e-320\nsim.t_final = 0.01\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3
        assert capsys.readouterr().err == (
            "numerical degeneracy: metric steady_state_error is not finite (inf)\n")
        assert not out.exists()
        assert main(["--config", str(cfg), "--controller", "c2", "--scenario", "case1",
                     "--out", str(out), "sweep"]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == "1 of 1 runs failed"
        assert not out.exists()

    def test_huge_initial_velocity_prints_only_the_degeneracy_line(self, tmp_path, capsys):
        # the power-balance filter starts from the energy terms of q0 and
        # qd0 as floats, whose overflow is inf without a numpy warning
        cfg = _write(tmp_path, "controller = c1\nparameterization = power_balance\n"
                               "sim.qd0 = 0,-1e300\nsim.t_final = 0.01\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3
        assert capsys.readouterr().err == (
            "numerical degeneracy: step 0 (t = 0 s): least-squares information matrix R "
            "has no eigendecomposition\n")
        assert not out.exists()

    def test_initial_error_bound_prints_no_numpy_warning(self, tmp_path, capsys):
        # the bound's norms overflow without a warning: stderr holds the
        # config error alone, and a huge valid bound prints nothing
        cfg = _write(tmp_path, "gains.theta_hat0 = 1e308, 0\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 2
        assert capsys.readouterr().err == (
            "config error: theta_hat0 violates the initial-error bound "
            "|theta_tilde(0)| <= 2 |theta_bar|\n")
        cfg = _write(tmp_path, "plant.theta_bar = 1e308, 1e308\nsim.t_final = 0.01\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "simulate"]) == 0
        assert capsys.readouterr().err == ""

    def test_lost_definiteness_names_its_cause(self, tmp_path, capsys):
        # beta dt >= 1 only where the step's decay 1 - beta dt was not
        # positive (beta0 = 1e6); a huge drive (alpha or q0 = 1e300) rounds
        # R indefinite at a decay of about 0.9955, and the error names R's
        # smallest eigenvalue
        causes = {"dre.alpha = 1e300\n": r"R's smallest eigenvalue is -\S+",
                  "sim.q0 = 1e300, 0\n": r"R's smallest eigenvalue is -\S+",
                  "dre.beta0 = 1e6\n": re.escape("beta dt >= 1: the forgetting factor "
                                                 "1 - beta dt is not positive")}
        for text, cause in causes.items():
            out = tmp_path / "o"
            cfg = _write(tmp_path, text + "sim.t_final = 0.05\n")
            assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3, text
            err = capsys.readouterr().err
            assert re.fullmatch(r"numerical degeneracy: step \d+ \(t = [^)]+ s\): least-squares "
                                r"gain matrix lost positive definiteness \(" + cause + r"\)\n",
                                err), err
            assert not out.exists()

    def test_singular_inertia_names_step_and_time(self, tmp_path, capsys):
        # link masses of 1e-160 validate, but M(q)'s determinant falls below
        # the plant step's singularity floor; the plant step is inside the
        # loop's step and time report like every other degeneracy
        cfg = _write(tmp_path, "controller = c2\nplant.m1 = 1e-160\nplant.m2 = 1e-160\n"
                               "plant.theta_bar = 1, 1\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3
        err = capsys.readouterr().err
        assert re.match(r"numerical degeneracy: step \d+ \(t = [^)]+ s\): inertia matrix is "
                        r"singular", err), err
        assert not out.exists()

    @pytest.mark.parametrize("clamp", ["5e-324", "1e-320"])
    def test_float_overflow_exit_code(self, tmp_path, capsys, clamp):
        # c3's reference acceleration takes max(|e1|, clamp)^(a - 1): at e1 = 0
        # with a subnormal clamp and a near 0 (r1 near 2 r2) the power
        # overflows a float at step 0; the run ends in the degeneracy exit
        # code with step and time, not a traceback
        cfg = _write(tmp_path, f"controller = c3\ngains.tsm_clamp = {clamp}\n"
                               "gains.r1 = 1.99\nsim.q0 = 2, 0\nsim.t_final = 0.01\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical degeneracy: step 0 (t = 0 s): float overflow")
        assert not out.exists()
        assert main(["--config", str(cfg), "--scenario", "case1", "--controller", "c3",
                     "--out", str(tmp_path / "grid"), "sweep"]) == 3
        assert "numerical degeneracy in " in capsys.readouterr().err

    @pytest.mark.parametrize("lambda3", ["1e30", "1e40"])
    def test_huge_extension_gain_saturates_without_overflow(self, tmp_path, lambda3):
        # |Delta|^(c + d) overflows a float here, where the composite law's
        # saturation is <Delta>^-c: the run completes with a finite trace
        cfg = _write(tmp_path, f"controller = c2\ndre.lambda3 = {lambda3}\n"
                               "gains.sat_d = 3\nsim.t_final = 0.01\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        trace = read_trace_csv(io.StringIO((out / "trace.csv").read_text()))
        assert np.isfinite(trace.theta_hat).all() and np.isfinite(trace.tau).all()
        # c + d = 0.5 + 3: the denominator's power overflowed
        assert np.abs(trace.delta).max() > np.finfo(float).max ** (1.0 / 3.5)

    def test_failed_write_leaves_neither_output(self, tmp_path, monkeypatch):
        from ftlab import cli as cli_mod

        def half_written(trace, stream):
            stream.write("t,q1\n0,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli_mod, "write_trace_csv", half_written)
        out = tmp_path / "o"
        code = main(["--config", str(_write(tmp_path, "t_final=0.05\n")),
                     "--out", str(out), "simulate"])
        assert code == 2
        assert list(out.iterdir()) == []

    def test_failed_run_leaves_neither_output(self, tmp_path):
        out = tmp_path / "o"
        code = main(["--config", str(_write(tmp_path, "controller=c4\nt_final=1.0\n"
                                                       "dre.beta0=1e4\n")),
                     "--out", str(out), "simulate"])
        assert code == 3
        assert not out.exists()

    @pytest.mark.parametrize("text, key", [
        ("q0 = nan, 0\n", "q0"),
        ("q_d = inf, 0\n", "q_d"),
        ("t_final = inf\n", "t_final"),
        ("scenario = case2\nplant.noise_amplitude = nan\n", "noise_amplitude"),
        ("scenario = case2\nplant.friction = -1, 0\n", "friction"),
        ("plant.friction = -1, 0\n", "friction"),
    ], ids=["q0_nan", "q_d_inf", "t_final_inf", "noise_nan_case2", "friction_negative_case2",
            "friction_negative_case1"])
    def test_bad_value_is_a_config_error(self, tmp_path, capsys, text, key):
        out = tmp_path / "o"
        assert main(["--config", str(_write(tmp_path, "sim.t_final = 0.05\n" + text)),
                     "--out", str(out), "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("text, named", [
        ("plant.theta_bar = 0, 8\n", "theta_bar"),
        ("plant.theta_bar = -1, 8\n", "theta_bar"),
        ("plant.l1 = 1e-300\n", "plant"),   # I1 underflows to 0
        ("plant.l2 = 1e-300\n", "plant"),
        ("plant.l1 = 1e308\n", "plant"),    # a square overflows
        ("plant.l2 = 1e308\n", "plant"),
        ("plant.lc1 = 1e308\n", "plant"),
        ("plant.lc2 = 1e308\n", "plant"),
    ], ids=["theta_bar_zero", "theta_bar_negative", "l1_tiny", "l2_tiny", "l1_huge",
            "l2_huge", "lc1_huge", "lc2_huge"])
    def test_bad_plant_value_is_a_config_error(self, tmp_path, capsys, text, named, command):
        out = tmp_path / "o"
        assert main(["--config", str(_write(tmp_path, "sim.t_final = 0.05\n" + text)),
                     "--out", str(out), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_repeated_key_exit_code(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        cfg = _write(tmp_path, "sim.t_final = 0.05\ndt = 1e-3\nsim.dt = 2e-3\n")
        assert main(["--config", str(cfg), "--out", str(out), command]) == 2
        assert capsys.readouterr().err == ("config error: sim.dt (line 3) sets the same "
                                           "field as dt (line 2)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_record_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys,
                                                           command):
        # 1e13 steps need a 1.2 PiB record, beyond any address space, so the
        # allocator refuses it at once
        out = tmp_path / "o"
        cfg = _write(tmp_path, "sim.dt = 1e-12\n")
        assert main(["--config", str(cfg), "--out", str(out), command]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sim.t_final / sim.dt gives 10000000000000 "
                              "steps, too many to record")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("text", ["sim.t_final = 1e308\n", "sim.dt = 5e-324\n",
                                      "sim.dt = 1e-300\n", "sim.t_final = 1e300\n"],
                             ids=["t_final_1e308", "dt_5e-324", "dt_1e-300", "t_final_1e300"])
    def test_step_count_out_of_range_is_a_config_error(self, tmp_path, capsys, text, command):
        # the first two overflow t_final / dt to inf; the last two give a
        # finite count beyond numpy's index range, which np.empty refuses
        # with a ValueError
        out = tmp_path / "o"
        assert main(["--config", str(_write(tmp_path, text)), "--out", str(out),
                     command]) == 2
        assert capsys.readouterr().err.startswith("config error: sim.t_final / sim.dt ")
        assert not out.exists()

    def test_gramian_start_past_the_last_sample_is_a_config_error(self, tmp_path, capsys):
        # t_final = 1.0003 leaves the last sample at 1.0 s, before gramian_start
        out = tmp_path / "o"
        cfg = _write(tmp_path, "sim.t_final = 1.0003\nsim.gramian_start = 1.0001\n")
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "gramian_start" in err
        assert not out.exists()

    def test_property_failure_exit_code(self, tmp_path, monkeypatch):
        from ftlab import cli as cli_mod
        broken = [verify.PropertyResult("synthetic", False, "injected failure")]
        monkeypatch.setattr(cli_mod.verify, "run_all", lambda t_final: broken)
        assert main(["--out", str(tmp_path), "verify"]) == 4

    def test_verify_success_exit_code(self, tmp_path, monkeypatch, capsys):
        from ftlab import cli as cli_mod
        passing = [verify.PropertyResult("synthetic", True, "holds")]
        monkeypatch.setattr(cli_mod.verify, "run_all", lambda t_final: passing)
        assert main(["--out", str(tmp_path), "verify"]) == 0
        assert capsys.readouterr().out == "[PASS] synthetic: holds\nall 1 properties passed\n"

    def test_sweep_writes_grid(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final=0.05\n")
        code = main(["--config", str(cfg), "--scenario", "case1",
                     "--out", str(tmp_path / "grid"), "sweep"])
        assert code == 0
        for controller in ("c1", "c2", "c3", "c4"):
            assert (tmp_path / "grid" / f"{controller}_case1" / "trace.csv").exists()

    def test_sweep_runs_on_after_a_failed_job(self, tmp_path, monkeypatch, capsys):
        from ftlab import cli as cli_mod
        real = cli_mod.run_closed_loop

        def flaky(config):
            if config.controller == "c2":
                raise ValueError("argument must be finite")
            if config.controller == "c3":
                raise FloatingPointError("overflow")
            return real(config)

        monkeypatch.setattr(cli_mod, "run_closed_loop", flaky)
        code = main(["--config", str(_write(tmp_path, "t_final=0.05\n")), "--scenario",
                     "case1", "--out", str(tmp_path / "grid"), "sweep"])
        assert code == 3
        err = capsys.readouterr().err
        assert "2 of 4 runs failed" in err
        assert "c2_case1" in err and "c3_case1" in err
        for controller in ("c1", "c4"):
            assert (tmp_path / "grid" / f"{controller}_case1" / "trace.csv").exists()
        for controller in ("c2", "c3"):
            assert not (tmp_path / "grid" / f"{controller}_case1").exists()

    def test_sweep_runs_its_jobs_in_order_on_the_calling_thread(self, tmp_path,
                                                                monkeypatch, capsys):
        from ftlab import cli as cli_mod
        real = cli_mod.run_closed_loop
        ran = []

        def recording(config):
            ran.append((threading.current_thread(), (config.controller, config.scenario)))
            return real(config)

        monkeypatch.setattr(cli_mod, "run_closed_loop", recording)
        grid = tmp_path / "grid"
        assert main(["--config", str(_write(tmp_path, "t_final=0.01\n")),
                     "--out", str(grid), "sweep"]) == 0
        order = [(c, s) for c in CONTROLLERS for s in SCENARIOS]
        assert [job for _, job in ran] == order
        assert all(thread is threading.main_thread() for thread, _ in ran)
        done = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("done ")]
        assert done == [f"done {grid / f'{c}_{s}'}" for c, s in order]

    def test_sweep_ends_at_a_failed_write(self, tmp_path, monkeypatch, capsys):
        from ftlab import cli as cli_mod
        real = cli_mod.run_closed_loop
        ran = []

        def recording(config):
            ran.append(config.controller)
            if config.controller == "c2":
                raise OSError(28, "No space left on device", "trace.csv")
            return real(config)

        monkeypatch.setattr(cli_mod, "run_closed_loop", recording)
        code = main(["--config", str(_write(tmp_path, "t_final=0.01\n")), "--scenario",
                     "case1", "--out", str(tmp_path / "grid"), "sweep"])
        assert code == 2
        assert ran == ["c1", "c2"]
        assert capsys.readouterr().err.startswith("i/o failure:")

    @pytest.mark.parametrize("controller_line", ["controller=c3\n", ""],
                             ids=["controller_c3", "no_controller"])
    def test_sweep_applies_theta_hat0_where_its_length_fits(self, tmp_path, capsys,
                                                            controller_line):
        # each job is validated for its own controller, whatever the file names
        cfg = _write(tmp_path, controller_line + "t_final=0.01\n"
                               "gains.theta_hat0=0.1,0.2,0.3,0.4,0.5\n")
        code = main(["--config", str(cfg), "--scenario", "case1",
                     "--out", str(tmp_path / "grid"), "sweep"])
        assert code == 0
        err = capsys.readouterr().err
        first = {}
        for controller in ("c1", "c2", "c3", "c4"):
            trace_file = tmp_path / "grid" / f"{controller}_case1" / "trace.csv"
            with trace_file.open() as stream:
                first[controller] = ftlab.read_trace_csv(stream).theta_hat[0]
        np.testing.assert_array_equal(first["c3"], [0.1, 0.2, 0.3, 0.4, 0.5])
        np.testing.assert_array_equal(first["c4"], [0.1, 0.2, 0.3, 0.4, 0.5])
        np.testing.assert_array_equal(first["c1"], [0.0, 0.0])
        np.testing.assert_array_equal(first["c2"], [0.0, 0.0])
        assert "c1_case1" in err and "c2_case1" in err and "starting from zeros" in err
        assert "c3_case1" not in err and "c4_case1" not in err


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestVerifySuite:
    def test_clean_build_passes(self):
        results = verify.run_all(t_final=2.0)
        failed = [r.name for r in results if not r.passed]
        assert failed == []

    def test_sign_flip_in_coriolis_trips_skew_symmetry(self):
        plant = Plant.two_link()
        broken = lambda q, qd: -np.array(plant.coriolis_rows(q, qd))
        result = verify.check_skew_symmetry(plant, coriolis_fn=broken, n_samples=100)
        assert not result.passed

    def test_wrong_regressor_trips_gravity_factorization(self):
        plant = Plant.two_link()
        broken = lambda q: np.array(plant.psi_rows(q))[:, ::-1]   # swapped columns
        result = verify.check_gravity_factorization(plant, psi_fn=broken, n_samples=100)
        assert not result.passed

    def test_wrong_adjugate_trips_cramer_equivalence(self):
        broken = lambda a: verify.adjugate(a).T    # forgot the transpose
        result = verify.check_cramer_matches_adjugate(n_samples=20, adjugate_fn=broken)
        assert not result.passed

    @pytest.mark.parametrize("where", ["row", "floats"])
    def test_broken_kreisselmeier_mix_trips_cramer_equivalence(self, monkeypatch, where):
        # the check drives the run's mix: two Y entries swapped in the record
        # row, or in the floats the law takes, must trip it
        mix = KreisselmeierDre.mix

        def swapped(dre, out):
            mixed = mix(dre, out)
            if where == "row":
                out[[1, 2]] = out[[2, 1]]
            else:
                mixed[1], mixed[2] = mixed[2], mixed[1]
            return mixed

        monkeypatch.setattr(KreisselmeierDre, "mix", swapped)
        result = verify.check_cramer_matches_adjugate(n_samples=20)
        assert not result.passed

    def test_adjugate_of_a_scalar_is_one(self):
        # the 1x1 case has no minors: A adj(A) = det(A) I needs adj(A) = [[1]]
        np.testing.assert_array_equal(verify.adjugate([[5.0]]), [[1.0]])

    def test_gain_range_sweep_reaches_zero(self):
        # the default sweep covers Delta = 0 and the subnormals around it
        result = verify.check_excitation_gain_range()
        assert result.passed
        assert result.detail == "range over sweep = [0.000e+00, 0.999999]"

    def test_result_lines_render(self):
        result = verify.check_signed_power_odd(n_samples=50)
        assert result.line().startswith("[PASS]")


# the failure-contract fuzzer's values for a number; an enum key draws from
# its options instead, and a vector key a count of these its parser takes
# (a wrong count is a parse error, which TestParseConfig covers)
FUZZ_NUMBERS = ("0", "1", "-1", "3", "-3", "1e9", "1e-9", "1e150", "1e-150", "1e100",
                "1e200", "1e-200", "1e300", "-1e300", "1e-320")
FUZZ_ENUMS = {"controller": CONTROLLERS, "scenario": SCENARIOS,
              "parameterization": PARAMETERIZATIONS, "dre.norm": ("spectral", "frobenius")}
FUZZ_SIZES = {cli._pair: (2,), cli._parse_diag: (1, 2), cli._parse_vector: (2, 5)}
# an example whose step count lies between these is not run: sim.dt = 1e-9
# makes a valid run of 10^7 steps, minutes long, and no other drawn setting
# comes near; a count beyond numpy's index range is refused before any step
FUZZ_MAX_STEPS, FUZZ_UNINDEXABLE_STEPS = 10_000, 2 ** 63


@st.composite
def fuzzed_config(draw) -> str:
    """A config text at sim.t_final = 0.01 or 0.05 that sets 1-6 other keys."""
    keys = draw(st.lists(st.sampled_from(sorted(set(CONFIG_KEYS) - {"sim.t_final"})),
                         min_size=1, max_size=6, unique=True))
    lines = [f"sim.t_final = {draw(st.sampled_from(('0.01', '0.05')))}"]
    for key in keys:
        if key in FUZZ_ENUMS:
            value = draw(st.sampled_from(FUZZ_ENUMS[key]))
        else:
            size = draw(st.sampled_from(FUZZ_SIZES.get(CONFIG_KEYS[key][2], (1,))))
            value = ", ".join(draw(st.lists(st.sampled_from(FUZZ_NUMBERS),
                                            min_size=size, max_size=size)))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


class TestFailureContract:
    """Every run ends in exit 0, 2 or 3.  Exit 0 writes both files, with
    finite metrics, and nothing on stderr; any other exit prints one stderr
    line and leaves no output directory.  A warning counts as stderr."""

    @settings(max_examples=100, derandomize=True, database=None)
    @given(text=fuzzed_config())
    def test_a_run_keeps_the_failure_contract(self, text):
        try:
            steps = parse_config(text).n_steps
        except ConfigError:
            steps = 0
        assume(not FUZZ_MAX_STEPS < steps < FUZZ_UNINDEXABLE_STEPS)
        with tempfile.TemporaryDirectory() as root:
            cfg, out = Path(root) / "run.cfg", Path(root) / "out"
            cfg.write_text(text)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["--config", str(cfg), "--out", str(out), "simulate"])
            err = err.getvalue()
            assert code in (0, 2, 3), (code, err)
            assert caught == [], [str(w.message) for w in caught]
            if code == 0:
                assert err == "" and (out / "trace.csv").is_file()
                metrics = dict(line.split("=") for line in
                               (out / "metrics.txt").read_text().splitlines())
                assert all(math.isfinite(float(v)) for v in metrics.values()), metrics
            else:
                assert err.endswith("\n") and err.count("\n") == 1, err
                assert not out.exists()
