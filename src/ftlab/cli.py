"""Command-line front end: config parsing, run orchestration, file output.

Config format: flat ``key = value`` lines with ``#`` comments.  Keys are
either bare run selectors (controller, scenario, parameterization, dre and
the common sim keys) or section-prefixed (sim., plant., gains., dre.).
Vectors are comma-separated; every number must be finite.  Unknown keys
are rejected with their line number.  An empty file reproduces the
reference c1/case1 study.

Exit codes: 0 success, 2 configuration error, 3 numerical degeneracy,
4 property failure (verify).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import control, drem, verify
from .errors import ConfigError, NumericalDegeneracyError
from .plant import PhysicalParams
from .sim import (CONTROLLERS, DRES, PARAMETERIZATIONS, SCENARIOS, SimConfig,
                  compute_metrics, run_closed_loop, write_trace_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERACY = 3
EXIT_PROPERTY = 4


def _parse_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _parse_positive(key: str, raw: str) -> float:
    value = _parse_float(key, raw)
    if not value > 0.0:
        raise ConfigError(f"{key}: must be positive, got {value}")
    return value


def _parse_vector(key: str, raw: str, length: int | None = None) -> np.ndarray:
    vec = np.array([_parse_float(key, part) for part in raw.split(",")], dtype=float)
    if length is not None and vec.size != length:
        raise ConfigError(f"{key}: expected {length} entries, got {vec.size}")
    return vec


def _parse_diag(key: str, raw: str, length: int = 2) -> np.ndarray:
    """Scalar (uniform diagonal) or full comma-separated diagonal."""
    vec = _parse_vector(key, raw)
    if vec.size == 1:
        return np.full(length, vec[0])
    if vec.size != length:
        raise ConfigError(f"{key}: expected 1 or {length} entries, got {vec.size}")
    return vec


def _parse_enum(key: str, raw: str, options: tuple) -> str:
    if raw not in options:
        raise ConfigError(f"{key}: must be one of {options}, got {raw!r}")
    return raw


# key -> (target dict, field, parser); "plain" keys land on SimConfig directly
_SIM_KEYS = {
    "dt": ("sim", "dt", lambda k, v: _parse_positive(k, v)),
    "t_final": ("sim", "t_final", lambda k, v: _parse_positive(k, v)),
    "q_d": ("sim", "q_d", lambda k, v: _parse_vector(k, v, 2)),
    "q0": ("sim", "q0", lambda k, v: _parse_vector(k, v, 2)),
    "qd0": ("sim", "qd0", lambda k, v: _parse_vector(k, v, 2)),
    "settle_tol": ("sim", "settle_tol", lambda k, v: _parse_positive(k, v)),
    "param_tol": ("sim", "param_tol", lambda k, v: _parse_positive(k, v)),
    "gramian_start": ("sim", "gramian_start", lambda k, v: _parse_float(k, v)),
    "gramian_window": ("sim", "gramian_window", lambda k, v: _parse_positive(k, v)),
}

_TOP_KEYS = {
    "controller": lambda k, v: _parse_enum(k, v, CONTROLLERS),
    "scenario": lambda k, v: _parse_enum(k, v, SCENARIOS),
    "parameterization": lambda k, v: _parse_enum(k, v, PARAMETERIZATIONS),
    "dre": lambda k, v: _parse_enum(k, v, DRES),
}

_PLANT_KEYS = {name: _parse_positive for name in
               ("m1", "m2", "l1", "l2", "g", "lc1", "lc2", "I1", "I2")}

_GAIN_KEYS = {
    "P": lambda k, v: _parse_diag(k, v),
    "D": lambda k, v: _parse_diag(k, v),
    "DL": lambda k, v: _parse_diag(k, v),
    "r1": _parse_positive,
    "r2": _parse_positive,
    "gamma1": _parse_positive,
    "gamma2": _parse_positive,
    "d1": _parse_positive,
    "Gamma": lambda k, v: _parse_diag(k, v),
    "Upsilon": lambda k, v: _parse_diag(k, v),
    "sat_d": _parse_positive,
    "theta_hat0": lambda k, v: _parse_vector(k, v),
    "K1": _parse_positive,
    "K2": _parse_positive,
    "Ks": lambda k, v: _parse_float(k, v),
    "tsm_gamma": _parse_positive,
    "tsm_k": _parse_positive,
    "lin_gamma": _parse_positive,
    "lin_k": _parse_positive,
    "tsm_clamp": _parse_positive,
}

_DRE_KEYS = {
    "alpha": _parse_positive,
    "beta0": _parse_positive,
    "f0": _parse_positive,
    "xi": _parse_positive,
    "rho0": lambda k, v: _parse_vector(k, v, 5),
    "norm": lambda k, v: _parse_enum(k, v, ("spectral", "frobenius")),
    "lambda0": _parse_positive,
    "lambda1": _parse_positive,
    "lambda2": _parse_positive,
    "lambda3": _parse_positive,
}


def parse_config(text: str) -> SimConfig:
    """Parse a key=value config into a fully populated, validated SimConfig."""
    config = _read_config(text)
    config.validate()
    return config


def _read_config(text: str) -> SimConfig:
    """The SimConfig of a key=value config, checked key by key but not yet
    validated as a whole."""
    top: dict = {}
    sim_kv: dict = {}
    plant_kv: dict = {}
    gain_kv: dict = {}
    dre_kv: dict = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")

        section, _, field = key.partition(".")
        try:
            if key in _TOP_KEYS:
                top[key] = _TOP_KEYS[key](key, raw)
            elif key in _SIM_KEYS:   # bare alias for sim keys
                sim_kv[_SIM_KEYS[key][1]] = _SIM_KEYS[key][2](key, raw)
            elif section == "sim" and field in _SIM_KEYS:
                sim_kv[field] = _SIM_KEYS[field][2](key, raw)
            elif section == "plant" and field in _PLANT_KEYS:
                plant_kv[field] = _PLANT_KEYS[field](key, raw)
            elif section == "plant" and field == "friction":
                sim_kv["friction"] = _parse_vector(key, raw, 2)
            elif section == "plant" and field == "noise_amplitude":
                sim_kv["noise_amplitude"] = _parse_float(key, raw)
            elif section == "plant" and field == "noise_frequency":
                sim_kv["noise_frequency"] = _parse_positive(key, raw)
            elif section == "plant" and field == "theta_bar":
                sim_kv["theta_bar"] = _parse_vector(key, raw, 2)
            elif section == "gains" and field in _GAIN_KEYS:
                gain_kv[field] = _GAIN_KEYS[field](key, raw)
            elif section == "dre" and field in _DRE_KEYS:
                dre_kv[field] = _DRE_KEYS[field](key, raw)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError as exc:
            if str(exc).startswith("line "):
                raise
            raise ConfigError(f"line {lineno}: {exc}") from None

    return _build_config(top, sim_kv, plant_kv, gain_kv, dre_kv)


def _build(section: str, cls, kv: dict, **fields):
    """``cls`` from the entries of ``kv`` that ``fields`` names (config key =
    field name); its ValueError becomes a ConfigError of ``section``."""
    try:
        return cls(**{name: kv[key] for key, name in fields.items() if key in kv})
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _build_config(top, sim_kv, plant_kv, gain_kv, dre_kv) -> SimConfig:
    base = {k: plant_kv[k] for k in ("m1", "m2", "l1", "l2", "g") if k in plant_kv}
    params = PhysicalParams.uniform_rods(**base)
    explicit = {k: plant_kv[k] for k in ("lc1", "lc2", "I1", "I2") if k in plant_kv}
    if explicit:
        params = dataclasses.replace(params, **explicit)

    ftpd = _build("gains", control.FtPdGains, gain_kv,
                  P="kp", D="kd", DL="kd_lin", r1="r1", r2="r2")
    adapt = _build("gains", control.CompositeAdaptGains, gain_kv,
                   gamma1="gamma1", gamma2="gamma2", d1="d1", Gamma="gamma_diag",
                   Upsilon="upsilon_diag", sat_d="sat_d")
    tsm = _build("gains", control.TsmParams, gain_kv,
                 K1="k1", K2="k2", Ks="ks", tsm_gamma="gamma_tsm", tsm_k="k_tsm",
                 lin_gamma="gamma_lin", lin_k="k_lin", tsm_clamp="clamp")
    sl = _build("gains/dre", control.SlotineLiLsParams, {**gain_kv, **dre_kv},
                K1="k1", K2="k2", Ks="ks", alpha="alpha", beta0="beta0", f0="p0",
                xi="gain_cap", norm="norm")
    ls = _build("dre", drem.LsDreParams, dre_kv, alpha="alpha", beta0="beta0", f0="f0",
                xi="gain_cap", rho0="rho0", norm="norm")
    kreis = _build("dre", drem.KreisParams, dre_kv, lambda2="lambda2", lambda3="lambda3")

    cfg_kv = dict(sim_kv)
    cfg_kv.update(top)
    if "lambda0" in dre_kv:
        cfg_kv["lambda0"] = dre_kv["lambda0"]
    if "lambda1" in dre_kv:
        cfg_kv["lambda1"] = dre_kv["lambda1"]
    if "theta_hat0" in gain_kv:
        cfg_kv["theta_hat0"] = gain_kv["theta_hat0"]

    return SimConfig(params=params, ftpd=ftpd, adapt=adapt, tsm=tsm, sl=sl,
                     ls=ls, kreis=kreis, **cfg_kv)


def _read_file(path: str | None) -> SimConfig:
    return _read_config(Path(path).read_text() if path else "")


def load_config(path: str | None, controller: str | None = None,
                scenario: str | None = None) -> SimConfig:
    """The config file's SimConfig with the command line's overrides,
    validated after they are applied."""
    config = _read_file(path)
    if controller is not None:
        config.controller = _parse_enum("controller", controller, CONTROLLERS)
    if scenario is not None:
        config.scenario = _parse_enum("scenario", scenario, SCENARIOS)
    config.validate()
    return config


def _run_and_write(config: SimConfig, out_dir: Path) -> None:
    """Run one closed loop and write trace.csv and metrics.txt into out_dir.

    Both files are written under temporary names in out_dir and renamed into
    place once both are complete, so a run that fails, in the loop or while
    writing, leaves neither file behind.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = run_closed_loop(config)
    metrics = compute_metrics(trace, gramian_start=config.gramian_start,
                              gramian_window=min(config.gramian_window,
                                                 config.t_final - config.gramian_start))
    trace_tmp = out_dir / f".trace.csv.{os.getpid()}.tmp"
    metrics_tmp = out_dir / f".metrics.txt.{os.getpid()}.tmp"
    try:
        with open(trace_tmp, "w") as stream:
            write_trace_csv(trace, stream)
        metrics_tmp.write_text(metrics.to_text())
        os.replace(trace_tmp, out_dir / "trace.csv")
        os.replace(metrics_tmp, out_dir / "metrics.txt")
    finally:
        trace_tmp.unlink(missing_ok=True)
        metrics_tmp.unlink(missing_ok=True)


def cmd_simulate(args) -> int:
    config = load_config(args.config, args.controller, args.scenario)
    out_dir = Path(args.out)
    try:
        _run_and_write(config, out_dir)
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except OSError as exc:
        print(f"i/o failure at {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {out_dir / 'trace.csv'} and {out_dir / 'metrics.txt'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args.config, args.controller, args.scenario)
    results = verify.run_all(t_final=config.t_final)
    for result in results:
        print(result.line())
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} properties failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_PROPERTY
    print(f"all {len(results)} properties passed")
    return EXIT_OK


def cmd_sweep(args) -> int:
    """Run every controller x scenario job; a job that fails numerically is
    reported and the others run on.  Each job is validated for its own
    controller: a configured theta_hat0 goes to the controllers whose
    estimate has its length, and the others start from zeros."""
    base = _read_file(args.config)
    scenarios = [args.scenario] if args.scenario else SCENARIOS
    controllers = [args.controller] if args.controller else CONTROLLERS
    jobs = []
    for controller in controllers:
        dim = control.FAMILIES[controller].estimate_dim
        for scenario in scenarios:
            config = dataclasses.replace(base, controller=controller, scenario=scenario)
            out = Path(args.out) / f"{controller}_{scenario}"
            if base.theta_hat0 is not None and base.theta_hat0.size != dim:
                config.theta_hat0 = None
                print(f"{out}: theta_hat0 has {base.theta_hat0.size} entries and "
                      f"{controller} estimates {dim}; starting from zeros",
                      file=sys.stderr)
            config.validate()
            jobs.append((config, out))
    workers = int(os.environ.get("FTLAB_THREADS", "0")) or min(len(jobs), os.cpu_count() or 1)
    failed = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {pool.submit(_run_and_write, config, out): out for config, out in jobs}
        for future in concurrent.futures.as_completed(futures):
            out = futures[future]
            try:
                future.result()
                print(f"done {out}")
            except NumericalDegeneracyError as exc:
                print(f"numerical degeneracy in {out}: {exc}", file=sys.stderr)
                failed += 1
            except (ValueError, ArithmeticError) as exc:
                print(f"{type(exc).__name__} in {out}: {exc}", file=sys.stderr)
                failed += 1
    if failed:
        print(f"{failed} of {len(jobs)} runs failed", file=sys.stderr)
        return EXIT_DEGENERACY
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ftlab",
        description="Composite adaptive finite-time control laboratory")
    parser.add_argument("--config", help="path to a key=value run configuration")
    parser.add_argument("--controller", choices=CONTROLLERS,
                        help="override the configured controller")
    parser.add_argument("--scenario", choices=SCENARIOS,
                        help="override the configured scenario")
    parser.add_argument("--out", default="out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", help="run one closed loop, write trace.csv + metrics.txt")
    sub.add_parser("verify", help="run the numerical property suite")
    sub.add_parser("sweep", help="run the controller/scenario grid concurrently")
    args = parser.parse_args(argv)

    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_sweep(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
