"""The benchmark's three workloads: inputs made from the seed, the timed
call into ftlab, and the checks on what it produced.

`prepare(name, seed, work_dir)` is the set-up (it builds the configs);
`job.run()` is the timed region; `job.check(outcome)` runs afterwards and
returns one `RunCheck` per closed-loop run, and the problems that belong to
no single run.

* `reference`: `ftlab simulate` with an empty config, i.e. the c1 / case1
  study over its full 10 s horizon, writing trace.csv and metrics.txt.
* `grid`: `ftlab sweep` over the 4 controllers x 2 scenarios at
  `t_final = GRID_T_FINAL`, with the program's own worker count.
* `ensemble`: `ENSEMBLE_MEMBERS` c2 / case2 / power-balance members through
  the library API (`run_closed_loop` then `compute_metrics`), no file output.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import types
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ftlab import cli, sim, verify
from ftlab.plant import Plant

WORKLOADS = ("reference", "grid", "ensemble")
GRID_T_FINAL = 3.0   # c1 and c2 settle in case1 at 2.36 s and 2.59 s
ENSEMBLE_T_FINAL = 1.0
ENSEMBLE_MEMBERS = 16
# q0 offsets from q_d per joint; members take each of the 4 x 4 pairs
ENSEMBLE_Q0_OFFSETS = (-0.75, -0.25, 0.25, 0.75)
# estimate error radius, as a share of the validated bound 2 |theta_bar|
ENSEMBLE_ERROR_SHARE = 0.5
# how far the seed moves a member inside its cell: +-JITTER/2 of the q0 cell
# (0.5 rad wide), of the error direction's sector, and of the error radius
ENSEMBLE_JITTER = 0.1

DIGESTS = Path(__file__).with_name("digests.json")

# metrics.txt key (and Metrics attribute) -> quality metric; each workload
# reports the worst run
QUALITY = {"chattering_amplitude": "chatter_Nm", "settling_time": "settling_s",
           "param_convergence_time": "param_conv_s", "steady_state_error": "steady_err"}
# last instant over tolerance, so capped at the run's horizon
SETTLING = ("settling_s", "param_conv_s")


@dataclass
class RunCheck:
    """Outcome of the checks on one closed-loop run."""

    key: str
    problems: list = field(default_factory=list)
    digest: str | None = None
    steps: int = 0
    quality: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def ensemble_configs(seed: int) -> list:
    """The ensemble's members for `seed`; the same seed gives the same list.

    Each member regulates to the reference q_d from q0 = q_d + offset and
    starts its estimate at theta_u + error.  Offsets sit on the 4 x 4 design
    of ENSEMBLE_Q0_OFFSETS; member i's error points into the i-th of 16 equal
    sectors at ENSEMBLE_ERROR_SHARE of the initial-error bound.  The seed
    jitters each member inside its cell, so every seed covers the same
    design and the worst member stays comparable between seeds.
    """
    rng = np.random.default_rng(seed)
    base = sim.SimConfig(controller="c2", scenario="case2",
                         parameterization="power_balance", t_final=ENSEMBLE_T_FINAL)
    theta_u = Plant.two_link(base.params).theta.theta_u
    bound = 2.0 * float(np.linalg.norm(base.theta_bar))
    configs = []
    for i in range(ENSEMBLE_MEMBERS):
        offset = np.array([ENSEMBLE_Q0_OFFSETS[i // 4], ENSEMBLE_Q0_OFFSETS[i % 4]])
        offset += 0.25 * ENSEMBLE_JITTER * rng.uniform(-1.0, 1.0, 2)
        angle = 2.0 * math.pi * (i + 0.5 + 0.5 * ENSEMBLE_JITTER * rng.uniform(-1.0, 1.0)) \
            / ENSEMBLE_MEMBERS
        radius = ENSEMBLE_ERROR_SHARE * bound \
            * (1.0 + 0.5 * ENSEMBLE_JITTER * rng.uniform(-1.0, 1.0))
        error = radius * np.array([math.cos(angle), math.sin(angle)])
        configs.append(sim.SimConfig(
            controller="c2", scenario="case2", parameterization="power_balance",
            t_final=ENSEMBLE_T_FINAL, q0=base.q_d + offset, theta_hat0=theta_u + error))
    return configs


def member_key(config) -> str:
    """Digest key of an ensemble member: its drawn inputs, exactly."""
    drawn = ",".join(f"{x:.17g}" for x in np.concatenate([config.q0, config.theta_hat0]))
    return "ensemble/" + hashlib.sha256(drawn.encode()).hexdigest()[:16]


def run_member(config):
    """One ensemble member, as `ftlab simulate` runs it, without file output."""
    trace = sim.run_closed_loop(config)
    metrics = sim.compute_metrics(
        trace, gramian_start=config.gramian_start,
        gramian_window=min(config.gramian_window, config.t_final - config.gramian_start))
    return trace, metrics


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(trace) -> bool:
    return all(np.all(np.isfinite(getattr(trace, name))) for name in
               ("t", "q", "qd", "e1", "e2", "tau", "theta_hat", "delta", "zeta1",
                "v1", "z1norm"))


def _check_mixing(check: RunCheck, mixing, controller: str, scenario: str) -> None:
    # Y = Delta theta is exact only on noise-free measurements without
    # friction; case2 breaks y = Omega theta by design (criterion 4 likewise
    # checks case1 runs only)
    if controller not in ("c1", "c2") or scenario != "case1":
        return
    if mixing is None:
        check.problems.append("no mixed regression captured")
        return
    result = verify.check_mixing_identity(controller, mixing)
    if not result.passed:
        check.problems.append(result.line())


class CliJob:
    """`reference` and `grid`: one `ftlab` command line; its outputs on disk."""

    def __init__(self, command: str, config_text: str, runs: list, work_dir: Path):
        config_path = work_dir / "run.cfg"
        config_path.write_text(config_text)
        # set-up builds the config once; the timed command parses it again
        self.config = cli.parse_config(config_text)
        self.out = work_dir / "out"
        self.argv = ["--config", str(config_path), "--out", str(self.out), command]
        self.runs = runs   # (key, output dir relative to out, controller, scenario)

    def run(self):
        """Run the command; keep what the mixing check needs of each trace."""
        mixing = {}
        compute_metrics = cli.compute_metrics

        def capture(trace, *args, **kwargs):
            meta = trace.meta
            mixing[(meta["controller"], meta["scenario"])] = types.SimpleNamespace(
                delta=trace.delta, meta=meta,
                diagnostics={"Y_mixed": trace.diagnostics.get("Y_mixed")})
            return compute_metrics(trace, *args, **kwargs)

        cli.compute_metrics = capture
        try:
            status = cli.main(self.argv)
        except Exception as exc:   # the runs it cut short fail their own checks
            status = f"{type(exc).__name__}: {exc}"
        finally:
            cli.compute_metrics = compute_metrics
        return status, mixing

    def check(self, outcome) -> tuple:
        """A run fails on its own outputs; ftlab's exit status is a problem
        of the command (a sweep exits non-zero when any one job fails)."""
        status, mixing = outcome
        general = [] if status == 0 else [f"ftlab {self.argv[-1]} ended with {status}"]
        checks = []
        for key, rel, controller, scenario in self.runs:
            check = RunCheck(key)
            checks.append(check)
            run_dir = self.out / rel
            try:
                text = (run_dir / "trace.csv").read_text()
                metrics_text = (run_dir / "metrics.txt").read_text()
            except OSError as exc:
                check.problems.append(f"missing output: {exc}")
                continue
            check.digest = _digest(text)
            trace = sim.read_trace_csv(io.StringIO(text))
            check.steps = len(trace) - 1
            if not _finite(trace):
                check.problems.append("trace.csv holds a non-finite value")
            if sim.trace_csv_string(trace) != text:
                check.problems.append("trace.csv does not read back bit-exact")
            values = _parse_metrics(metrics_text, check)
            figures = {QUALITY[k]: values[k] for k in QUALITY if k in values}
            check.quality = _watched(check, figures, controller, scenario,
                                     self.config.t_final)
            _check_mixing(check, mixing.get((controller, scenario)), controller, scenario)
        return checks, general


def _watched(check: RunCheck, figures: dict, controller: str, scenario: str,
             t_final: float) -> dict:
    """The quality figures of a `reference` or `grid` run that count.

    Only c1 and c2 count: c3 and c4 are comparison laws whose torque chatters
    by design, and a worst-of figure would show them in place of c1 and c2.  Settling and convergence times stop at the
    horizon, so only case1 runs give them, and these must settle inside it;
    measurement noise keeps case2 runs from settling.
    """
    if controller not in ("c1", "c2"):
        return {}
    if scenario != "case1":
        return {k: v for k, v in figures.items() if k not in SETTLING}
    for name in SETTLING:
        if figures.get(name, 0.0) >= t_final:
            check.problems.append(f"{name} reached the {t_final:g} s horizon")
    return figures


def _parse_metrics(text: str, check: RunCheck) -> dict:
    values = {}
    for line in text.splitlines():
        key, _, raw = line.partition("=")
        try:
            values[key] = float(raw)
        except ValueError:
            check.problems.append(f"metrics.txt line does not parse: {line!r}")
            continue
        if not math.isfinite(values[key]):
            check.problems.append(f"metrics.txt holds a non-finite {key}")
    missing = [k for k in QUALITY if k not in values]
    if missing:
        check.problems.append(f"metrics.txt lacks {', '.join(missing)}")
    return values


class EnsembleJob:
    """`ensemble`: the members through the library API, traces kept in memory."""

    def __init__(self, seed: int):
        self.configs = ensemble_configs(seed)
        for config in self.configs:
            config.validate()

    def run(self):
        outcome = []
        for config in self.configs:
            try:
                outcome.append(run_member(config))
            except (ArithmeticError, ValueError, RuntimeError) as exc:
                outcome.append(exc)
        return outcome

    def check(self, outcome) -> list:
        checks = []
        for config, result in zip(self.configs, outcome):
            check = RunCheck(member_key(config))
            checks.append(check)
            if isinstance(result, Exception):
                check.problems.append(f"run failed: {type(result).__name__}: {result}")
                continue
            trace, metrics = result
            check.steps = len(trace) - 1
            if not _finite(trace):
                check.problems.append("trace holds a non-finite value")
            text = sim.trace_csv_string(trace)
            check.digest = _digest(text)
            back = sim.read_trace_csv(io.StringIO(text))
            if not all(np.array_equal(getattr(back, n), getattr(trace, n)) for n in
                       ("t", "q", "qd", "e1", "tau", "theta_hat", "delta", "zeta1",
                        "v1", "z1norm")):
                check.problems.append("trace does not read back bit-exact")
            # no member settles inside the horizon (member 0 of seed 1 is still
            # 0.4 rad off at 8 s), so settling_s and param_conv_s read it
            check.quality = {QUALITY[k]: getattr(metrics, k) for k in QUALITY}
            if not all(math.isfinite(v) for v in check.quality.values()):
                check.problems.append("non-finite metric")
            _check_mixing(check, trace, config.controller, config.scenario)
        return checks, []


def prepare(name: str, seed: int, work_dir: Path):
    """Build the workload's inputs from `seed` (the benchmark's set-up)."""
    if name == "reference":
        return CliJob("simulate", "", [("reference/c1_case1", ".", "c1", "case1")],
                      work_dir)
    if name == "grid":
        runs = [(f"grid/{c}_{s}", f"{c}_{s}", c, s)
                for c in sim.CONTROLLERS for s in sim.SCENARIOS]
        return CliJob("sweep", f"sim.t_final = {GRID_T_FINAL!r}\n", runs, work_dir)
    if name == "ensemble":
        return EnsembleJob(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
