"""Command-line front end: config parsing, run orchestration, file output.

Config format: flat ``key = value`` lines with ``#`` comments.  Keys are
either bare run selectors (controller, scenario, parameterization and the
common sim keys) or section-prefixed (sim., plant., gains., dre.).
``CONFIG_KEYS`` maps each key to the one field it sets.  Vectors are
comma-separated; every number must be finite.  Unknown keys, and a field
set twice, are rejected with their line numbers.  An empty file reproduces
the reference c1/case1 study.

Exit codes: 0 success, 2 configuration error (also a record too large to
allocate), 3 numerical degeneracy, 4 property failure (verify).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import control, verify
from .errors import ConfigError, NumericalDegeneracyError
from .plant import PhysicalParams
from .sim import (CONTROLLERS, PARAMETERIZATIONS, SCENARIOS, SimConfig,
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


def _pair(key: str, raw: str) -> np.ndarray:
    return _parse_vector(key, raw, 2)


def _enum(options: tuple):
    return lambda key, raw: _parse_enum(key, raw, options)


# config key -> (the SimConfig attribute whose dataclass holds the field, or
# None for a field of SimConfig itself; field; parser).  Every settable field
# has one key; a bare key is an alias of its sim. key.
CONFIG_KEYS = {
    "controller": (None, "controller", _enum(CONTROLLERS)),
    "scenario": (None, "scenario", _enum(SCENARIOS)),
    "parameterization": (None, "parameterization", _enum(PARAMETERIZATIONS)),
    "sim.dt": (None, "dt", _parse_positive),
    "sim.t_final": (None, "t_final", _parse_positive),
    "sim.q_d": (None, "q_d", _pair),
    "sim.q0": (None, "q0", _pair),
    "sim.qd0": (None, "qd0", _pair),
    "sim.settle_tol": (None, "settle_tol", _parse_positive),
    "sim.param_tol": (None, "param_tol", _parse_positive),
    "sim.gramian_start": (None, "gramian_start", _parse_float),
    "sim.gramian_window": (None, "gramian_window", _parse_positive),
    **{f"plant.{name}": ("params", name, _parse_positive)
       for name in ("m1", "m2", "l1", "l2", "g", "lc1", "lc2", "I1", "I2")},
    "plant.friction": ("friction", "coulomb", _pair),
    "plant.noise_amplitude": ("noise", "amplitude", _parse_float),
    "plant.noise_frequency": ("noise", "frequency", _parse_positive),
    "plant.theta_bar": (None, "theta_bar", _pair),
    "gains.P": ("ftpd", "kp", _parse_diag),
    "gains.D": ("ftpd", "kd", _parse_diag),
    "gains.DL": ("ftpd", "kd_lin", _parse_diag),
    "gains.r1": ("ftpd", "r1", _parse_positive),
    "gains.r2": ("ftpd", "r2", _parse_positive),
    "gains.gamma1": ("adapt", "gamma1", _parse_positive),
    "gains.gamma2": ("adapt", "gamma2", _parse_positive),
    "gains.d1": ("adapt", "d1", _parse_positive),
    "gains.Gamma": ("adapt", "gamma_diag", _parse_diag),
    "gains.Upsilon": ("adapt", "upsilon_diag", _parse_diag),
    "gains.sat_d": ("adapt", "sat_d", _parse_positive),
    "gains.theta_hat0": (None, "theta_hat0", _parse_vector),
    "gains.K1": ("tsm", "k1", _parse_positive),
    "gains.K2": ("tsm", "k2", _parse_positive),
    "gains.Ks": ("tsm", "ks", _parse_float),
    "gains.tsm_gamma": ("tsm", "gamma_tsm", _parse_positive),
    "gains.tsm_k": ("tsm", "k_tsm", _parse_positive),
    "gains.lin_gamma": ("tsm", "gamma_lin", _parse_positive),
    "gains.lin_k": ("tsm", "k_lin", _parse_positive),
    "gains.tsm_clamp": ("tsm", "clamp", _parse_positive),
    "dre.alpha": ("ls", "alpha", _parse_positive),
    "dre.beta0": ("ls", "beta0", _parse_positive),
    "dre.f0": ("ls", "f0", _parse_positive),
    "dre.xi": ("ls", "gain_cap", _parse_positive),
    "dre.norm": ("ls", "norm", _enum(("spectral", "frobenius"))),
    "dre.lambda0": (None, "lambda0", _parse_positive),
    "dre.lambda1": (None, "lambda1", _parse_positive),
    "dre.lambda2": ("kreis", "lambda2", _parse_positive),
    "dre.lambda3": ("kreis", "lambda3", _parse_positive),
}

# the link data the uniform-rod model completes lc1, lc2, I1 and I2 from
_ROD_FIELDS = ("m1", "m2", "l1", "l2", "g")


def parse_config(text: str) -> SimConfig:
    """Parse a key=value config into a fully populated, validated SimConfig."""
    config = _read_config(text)
    config.validate()
    return config


def _read_config(text: str) -> SimConfig:
    """The SimConfig of a key=value config, checked key by key but not yet
    validated as a whole.  A field set twice, under one spelling or two, is
    an error naming both lines."""
    fields: dict = {}    # attribute -> {field: value}
    sources: dict = {}   # (attribute, field) -> "key (line n)"
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
        entry = CONFIG_KEYS.get(key) or CONFIG_KEYS.get(f"sim.{key}")
        if entry is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, name, parse = entry
        where = f"{key} (line {lineno})"
        first = sources.setdefault((attr, name), where)
        if first != where:
            raise ConfigError(f"{where} sets the same field as {first}")
        try:
            fields.setdefault(attr, {})[name] = parse(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None

    config = SimConfig(**fields.pop(None, {}))
    for attr, values in fields.items():
        try:
            base = getattr(config, attr)
            if attr == "params":
                base = PhysicalParams.uniform_rods(**{k: values[k] for k in _ROD_FIELDS
                                                      if k in values})
            setattr(config, attr, dataclasses.replace(base, **values))
        except (ValueError, ArithmeticError) as exc:
            keys = [source for (held, _), source in sources.items() if held == attr]
            raise ConfigError(f"{', '.join(keys)}: {exc}") from None
    return config


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

    out_dir is made only once the run and its metrics have succeeded, so a
    run that fails there leaves no directory.  Both files are written under
    temporary names in out_dir and renamed into place once both are
    complete, so a run that fails while writing leaves neither file behind.
    """
    trace = run_closed_loop(config)
    metrics = compute_metrics(trace, gramian_start=config.gramian_start,
                              gramian_window=config.gramian_window)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    """Run every controller x scenario job, one after another in that order;
    a job that fails numerically is reported and the others run on, and an
    i/o failure ends the sweep.  Each job is validated for its own
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
    failed = 0
    for config, out in jobs:
        try:
            _run_and_write(config, out)
            print(f"done {out}")
        except NumericalDegeneracyError as exc:
            print(f"numerical degeneracy in {out}: {exc}", file=sys.stderr)
            failed += 1
        except ConfigError:
            raise
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
    sub.add_parser("sweep", help="run the controller/scenario grid, one job after another")
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
