"""Fixed-step closed-loop simulation, runtime monitors and trace metrics.

One run wires plant + regression + regressor extension + controller and
advances everything with a shared explicit-Euler step.  Per step:

1. form measurements (exact in case1; in case2 with the noise of the
   sample, which ``NoiseModel.sample`` gives for every sample before the
   loop);
2. call the controller's ``step``, the one call of the control layer per
   sample: it evaluates the torque from the measurements, advances its
   regression filter with the measured signals and the commanded torque,
   steps its regressor extension, mixes, Euler-steps its estimate and
   records the sample of the series it forms;
3. pack the record row, and copy the pair's [Omega | y] into its record;
4. Euler-update the plant state, whose forward dynamics apply the
   friction from the true velocity (case2).

The runner knows the controllers only through the protocol of
``control`` (see its module docstring), and takes the friction and noise
models from the config as they are.  The trace keeps the series each
step records and nothing built after the loop but the monitors; the
metrics of a trace are scalars.  Its series are views of the loop's
records, not copies: q, qd, tau and the estimate are columns of the
packed row record, and y and omega of the pair record; only Delta is
copied out; the run's extension is kept as it ends, and ``drem.replay``
rebuilds its history from the pair record.  After the loop a run holds
no more than one block of temporaries beyond the trace: the monitors V1,
|z1| and zeta1 run over ``MONITOR_ROWS`` rows at a time into
preallocated series, checked finite as the loop's states are, and
``write_trace_csv`` gathers each 256-row block of ``trace.csv`` straight
from the series.  ``compute_metrics`` scores a trace in one pass over each
series; its largest temporaries are the Gramian window's product stack
and its trapezoids.

The loop binds the methods it calls once, before it starts, and writes
its record without numpy's per-call cost: each step's row of floats is
packed with ``struct`` into its slot of the record's buffer, the bytes a
float64 row assignment gives; ``controller.regression.pair.aug`` is copied
byte for byte into its slot of the pair record.

Runs are deterministic: the only "noise" is a fixed sinusoid, so identical
configurations produce bit-identical traces.  ``write_trace_csv`` writes
each float in the exact bytes of ``'%.17g' % x``, through the vectorised
formatter of ``_g17``.
"""

from __future__ import annotations

import dataclasses
import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import control, drem, mathx
from ._g17 import csv_blocks
from .control import CONTROLLERS
from .errors import ConfigError, NumericalDegeneracyError
from .plant import FrictionModel, NoiseModel, PhysicalParams, Plant

SCENARIOS = ("case1", "case2")
PARAMETERIZATIONS = ("power_balance", "force_balance")
VECTORS = ("q_d", "q0", "qd0", "theta_bar", "theta_hat0")


@dataclass(frozen=True, eq=False)    # __eq__ below; arrays do not hash
class SimConfig:
    """Complete description of one run; defaults reproduce the reference
    c1/case1 study (regulation to q_d = [2, 2] from q0 = [3, 0]).

    Each setting is one field; ``friction`` and ``noise`` are the models the
    run applies.  A config is frozen and valid: the parameter objects check
    their own ranges when they are made, and ``__post_init__`` copies the
    vectors (``VECTORS``, any float sequences) into read-only float64
    arrays, compared by value in ``==``, then calls ``validate``.  So
    ``dataclasses.replace`` varies a config and checks it again.  The
    scalars stay as given: a run converts each number it steps with to a
    float where it binds it (``run_closed_loop``).
    """

    controller: str = "c1"
    scenario: str = "case1"
    parameterization: str | None = None     # default: force_balance
    dt: float = 5e-4
    t_final: float = 10.0
    q_d: np.ndarray = (2.0, 2.0)
    q0: np.ndarray = (3.0, 0.0)
    qd0: np.ndarray = (0.0, 0.0)
    params: PhysicalParams = PhysicalParams.uniform_rods()
    theta_bar: np.ndarray = (2.0, 8.0)
    theta_hat0: np.ndarray | None = None
    friction: FrictionModel = FrictionModel()
    noise: NoiseModel = NoiseModel()
    ftpd: control.FtPdGains = control.FtPdGains()
    adapt: control.CompositeAdaptGains = control.CompositeAdaptGains()
    tsm: control.TsmParams = control.TsmParams()
    ls: drem.LsDreParams = drem.LsDreParams()
    kreis: drem.KreisParams = drem.KreisParams()
    lambda0: float | None = None
    lambda1: float = 1.0
    settle_tol: float = 1e-3
    param_tol: float = 0.05
    gramian_start: float = 0.0
    gramian_window: float = 2.0

    def __post_init__(self):
        for name in VECTORS:
            value = getattr(self, name)
            if value is not None or name != "theta_hat0":
                value = np.array(value, dtype=float)
                value.flags.writeable = False
                object.__setattr__(self, name, value)
        self.validate()

    def __eq__(self, other):
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) if f.name in VECTORS
            else getattr(self, f.name) == getattr(other, f.name) for f in dataclasses.fields(self))

    @property
    def effective_parameterization(self) -> str:
        return self.parameterization or "force_balance"

    @property
    def effective_lambda0(self) -> float:
        # parameterization-specific default: the power signal carries the
        # integrator's full kinetic-energy discretization defect, so its
        # pipeline runs at a lower filter gain to keep the mixed regression
        # identity tight; the force signals tolerate (and the extension
        # convergence wants) a larger one
        if self.lambda0 is not None:
            return self.lambda0
        return 0.3 if self.effective_parameterization == "power_balance" else 1.5

    @property
    def n_steps(self) -> int:
        """Euler steps of the run, floor(t_final / dt), with slack for float
        division noise on exact multiples; the last sample is at n_steps dt."""
        return int(math.floor(self.t_final / self.dt + 1e-9))

    def validate(self):
        """Range, finiteness, length and cross-field checks, which every built
        config has passed; raises ConfigError naming the key.  The rules of
        one controller family are its class's check_config."""
        for key, value in _numeric_fields(self):
            if not all(map(math.isfinite, np.ravel(value).tolist())):
                raise ConfigError(f"{key} must be finite, got {value}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"controller must be one of {CONTROLLERS}, got {self.controller!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.effective_parameterization not in PARAMETERIZATIONS:
            raise ConfigError(f"parameterization must be one of {PARAMETERIZATIONS}")
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.t_final > self.dt:
            raise ConfigError("t_final must exceed dt")
        if not self.effective_lambda0 > 0.0 or not self.lambda1 > 0.0:
            raise ConfigError("lambda0 and lambda1 must be positive")
        for name in ("settle_tol", "param_tol", "gramian_window"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigError(f"sim.t_final / sim.dt must be a finite step count, got "
                              f"{self.t_final} / {self.dt}")
        t_last = self.n_steps * self.dt
        if not 0.0 <= self.gramian_start < t_last:
            raise ConfigError(f"gramian_start must lie inside [0, {t_last:.17g}), before the "
                              f"last sample at floor(t_final / dt) dt, got {self.gramian_start}")
        # every vector is a joint vector or a theta_u bound, except theta_hat0
        # (the family's check)
        for key, value in _numeric_fields(self):
            if (key in VECTORS or np.ndim(value)) and key != "theta_hat0" \
                    and np.shape(value) != (2,):
                raise ConfigError(f"{key} must have length 2")
        # the arm's closed forms take the sine and cosine of q1 + q2
        if not math.isfinite(sum(self.q0.tolist())):
            raise ConfigError(f"q0's joint sum q1 + q2 must be finite, got {self.q0}")
        if not np.all(self.theta_bar > 0.0):
            raise ConfigError(f"theta_bar entries must be positive, got {self.theta_bar}")
        try:
            theta_u = Plant.two_link(self.params).theta.theta_u
        except ArithmeticError as exc:
            raise ConfigError(f"plant parameters put theta out of float range: {exc}") from None
        if not np.all(np.abs(theta_u) <= self.theta_bar):
            raise ConfigError("theta_bar does not contain the plant's potential "
                              "parameters (violates the known-bound assumption)")
        control.FAMILIES[self.controller].check_config(self, theta_u)


def _numeric_fields(obj, prefix: str = ""):
    """(dotted key, value) of every number, tuple of floats or array in a
    dataclass and the dataclasses it holds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _numeric_fields(value, f"{prefix}{f.name}.")
        elif isinstance(value, (int, float, tuple, np.ndarray)):
            yield prefix + f.name, value


@dataclass
class Trace:
    """Per-step records on the uniform grid t_k = k dt (inclusive of both
    endpoints).  ``diagnostics`` holds controller-family specific series and
    ``meta`` the run description needed to interpret them.  In a trace from
    ``run_closed_loop`` q, qd, tau, theta_hat, y and omega are views of the
    run's records, so a write to one of them writes to that record, and
    ``extension`` is the run's extension as it ended (``drem.replay``
    rebuilds its history; None in a trace read back from CSV)."""

    t: np.ndarray
    q: np.ndarray
    qd: np.ndarray
    e1: np.ndarray
    tau: np.ndarray
    theta_hat: np.ndarray
    delta: np.ndarray
    zeta1: np.ndarray
    v1: np.ndarray
    z1norm: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    extension: object = None

    def __len__(self) -> int:
        return self.t.size

    @property
    def e2(self) -> np.ndarray:
        """The velocity error, which set-point regulation makes qd itself."""
        return self.qd


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x_i . y_i over the leading axes, as the 1-D product ``x @ y`` computes
    it for one sample (a stacked matmul makes the same BLAS dot per row)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def lyapunov_v1(e1, e2, theta_tilde_u, inertia, ftpd: control.FtPdGains,
                adapt: control.CompositeAdaptGains):
    """Runtime Lyapunov monitor of the composite loop.

    V1 = (g1+g2) V0 + g1 d1 tanh(e1)' M e2 + g1 d1 sum_i kd_lin_i ln cosh(e1_i)
         + (1/2) tt' Gamma^-1 tt,
    V0 = (r1 / 2 r2) e1' Kp <e1>^a + (1/2) e2' M e2.

    Takes one sample (e1, e2, tt of length n, M of shape (n, n)) and returns
    a float, or samples along a leading axis and returns an array.
    """
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    tt = np.asarray(theta_tilde_u, dtype=float)
    inertia = np.asarray(inertia, dtype=float)
    m_e2 = (inertia @ e2[..., None])[..., 0]
    v0 = (ftpd.r1 / (2.0 * ftpd.r2)) * _row_dot(e1, ftpd.kp * mathx.signed_power_vec(e1, ftpd.a)) \
        + 0.5 * _row_dot(e2, m_e2)
    # ln(cosh(x)) via logaddexp for overflow safety at large |x|
    ln_cosh = np.logaddexp(e1, -e1) - np.log(2.0)
    v1 = (adapt.g12 * v0
          + adapt.g1d1 * _row_dot(np.tanh(e1), m_e2)
          + adapt.g1d1 * _row_dot(np.asarray(ftpd.kd_lin), ln_cosh)
          + 0.5 * _row_dot(tt, tt / adapt.gamma_diag))
    return float(v1) if v1.ndim == 0 else v1


# rows per block of the post-loop monitors: Psi(q) and M(q) stacked over a
# whole 10 s run add about 1.3 MB to the reference run's peak RSS
MONITOR_ROWS = 1024


def _monitors(plant: Plant, config: SimConfig, q, qd, e1, theta_u, theta_u_true,
              delta) -> tuple:
    """V1, |z1| = |Psi(q) theta~_u| and zeta1 of every sample, evaluated
    ``MONITOR_ROWS`` rows at a time into preallocated series, with Psi(q)
    and M(q) stacked per block.  Each sample's value is a function of its
    own row alone, so the blocks give the bits of one pass over the run."""
    n_rec = len(delta)
    v1, z1norm, zeta1 = np.empty(n_rec), np.empty(n_rec), np.empty(n_rec)
    b_exp, d_exp = config.ftpd.b, config.adapt.sat_d
    for start in range(0, n_rec, MONITOR_ROWS):
        block = slice(start, start + MONITOR_ROWS)
        q_blk = q[block]
        tt = theta_u[block] - theta_u_true
        v1[block] = lyapunov_v1(e1[block], qd[block], tt, plant.inertia_stack(q_blk),
                                config.ftpd, config.adapt)
        z1 = (plant.psi_stack(q_blk) @ tt[:, :, None])[:, :, 0]
        z1norm[block] = np.sqrt(_row_dot(z1, z1))
        zeta1[block] = control.excitation_gain(delta[block], b_exp, d_exp)
    return v1, z1norm, zeta1


def run_closed_loop(config: SimConfig) -> Trace:
    """Integrate the closed loop and return the full trace.

    The loop carries q, qd and the estimate as Python floats, whatever
    number types the config holds: it takes q0, qd0 and q_d as lists of
    floats and dt as a float, and the controller, its regression filter and
    its extension convert what they bind when they are built.  Psi(q) is
    evaluated once per step (at the true and, in case2, at the measured
    configuration) and passed to the controller, which passes it to its
    regression filter, and to the plant step; M(q) is formed by the plant
    step and, in c3, by the controller.  The regression pair is
    the filter's one [Omega | y] buffer, ``controller.regression.pair``,
    recorded whole each step through a view taken before the first.  The
    trace hands out the records themselves: q, qd, tau and the estimate
    are column views of the row record, y and omega views of the pair
    record, and only Delta is copied out.  The
    monitors V1, zeta1 and |z1| feed nothing back, so they are evaluated
    after the loop, over the recorded series in blocks of rows
    (``_monitors``).  A non-finite state, mixing output or monitor sample,
    or a singular M(q) in the plant step, ends the run with a
    NumericalDegeneracyError naming it, the step and the time, and so does
    a float overflow within a step.  A record too large to
    allocate, or beyond numpy's index range, is a ConfigError naming the
    step count; the config itself was checked when it was built.
    """
    plant = Plant.two_link(config.params)
    theta_true = plant.theta
    l_dim = theta_true.size
    j_dim = len(theta_true.theta_u)
    n = plant.n

    noisy = config.scenario == "case2"
    friction, noise = config.friction, config.noise

    controller = control.make_controller(config, plant)

    n_steps = config.n_steps
    n_rec = n_steps + 1

    # per step: one row of q, qd, tau (2 each), the estimate and Delta, and
    # the regression pair's [Omega | y] buffer
    j_est = len(controller.estimate)
    n_out = 1 if config.effective_parameterization == "power_balance" else n
    try:
        rows = np.empty((n_rec, 6 + j_est + 1))
        aug_rec = np.empty((n_rec, n_out, l_dim + 1))
        diag = controller.diagnostics(n_rec)
        # each sample's (position noise of joint 1, of joint 2), the first
        # also the velocity noise of both joints, unpacked one sample a step
        next_noise = (struct.iter_unpack("2d", noise.sample(np.arange(n_rec) * config.dt))
                      .__next__ if noisy else None)
    except (MemoryError, ValueError) as exc:
        # numpy refuses a shape beyond its index range with a ValueError
        raise ConfigError(f"sim.t_final / sim.dt gives {n_steps} steps, too many to "
                          f"record: {exc}") from None

    q1, q2 = config.q0.tolist()
    qd1, qd2 = config.qd0.tolist()
    qdes1, qdes2 = config.q_d.tolist()
    dt = float(config.dt)
    coulomb = friction.coulomb if noisy else None

    psi_rows, forward_dynamics, step = plant.psi_rows, plant.forward_dynamics, controller.step
    pack_row = struct.Struct(f"{rows.shape[1]}d").pack_into
    rows_buf, row_bytes = memoryview(rows), rows.itemsize * rows.shape[1]
    aug_buf = memoryview(aug_rec).cast("B")
    aug_src = memoryview(controller.regression.pair.aug).cast("B")
    aug_bytes = aug_src.nbytes

    # every state and mixing output is checked below, so numpy's
    # floating-point warnings would only repeat what the check names
    with np.errstate(all="ignore"):
        for k in range(n_rec):
            try:
                estimate = controller.estimate
                # fast test first; a finite sum that overflows falls through to
                # the exact check, which then finds nothing
                if not math.isfinite(q1 + q2 + qd1 + qd2 + sum(estimate)):
                    for name, value in (("position q", (q1, q2)), ("velocity qd", (qd1, qd2)),
                                        ("estimate theta_hat", estimate)):
                        if not all(map(math.isfinite, value)):
                            raise NumericalDegeneracyError(f"{name} is not finite")
                q = (q1, q2)
                qd = (qd1, qd2)
                psi = psi_rows(q)
                if noisy:
                    n1, n2 = next_noise()
                    q_m = (q1 + n1, q2 + n2)
                    qd_m = (qd1 + n1, qd2 + n1)
                    psi_m = psi_rows(q_m)
                else:
                    q_m, qd_m, psi_m = q, qd, psi
                tau, delta = step(k, (q_m[0] - qdes1, q_m[1] - qdes2), q_m, qd_m, psi_m)

                pack_row(rows_buf, k * row_bytes, q1, q2, qd1, qd2, *tau, *estimate, delta)
                aug_buf[k * aug_bytes:(k + 1) * aug_bytes] = aug_src

                if k < n_steps:
                    a1, a2 = forward_dynamics(q, qd, tau, coulomb, psi)
                    q1, q2 = q1 + dt * qd1, q2 + dt * qd2
                    qd1, qd2 = qd1 + dt * a1, qd2 + dt * a2
            except NumericalDegeneracyError as exc:
                raise NumericalDegeneracyError(f"step {k} (t = {k * dt:.6g} s): {exc}") from exc
            except OverflowError as exc:
                raise NumericalDegeneracyError(f"step {k} (t = {k * dt:.6g} s): float overflow "
                                               f"{exc}") from exc
            except ValueError as exc:
                # math.sin and math.cos refuse the joint sum q1 + q2 of finite
                # joints when it overflows: the true position's, checked first,
                # or in case2 the measured one's
                name = "position q" if not math.isfinite(q1 + q2) else "measured position"
                raise NumericalDegeneracyError(f"step {k} (t = {k * dt:.6g} s): joint sum "
                                               f"q1 + q2 of the {name} is not finite "
                                               f"({exc})") from exc

    # the trace's series are views of the two records; Delta is a compact
    # copy, so that a caller keeping it alone does not keep the row record
    q_rec, qd_rec, tau_rec = rows[:, 0:2], rows[:, 2:4], rows[:, 4:6]
    theta_rec = rows[:, 6:6 + j_est]
    delta_rec = rows[:, 6 + j_est].copy()
    diag = {"y": aug_rec[:, :, l_dim], "omega": aug_rec[:, :, :l_dim], **diag}

    theta_u_true = np.array(theta_true.theta_u)
    e1_rec = q_rec - config.q_d
    with np.errstate(all="ignore"):    # the series are checked below
        v1, z1norm, zeta1 = _monitors(plant, config, q_rec, qd_rec, e1_rec,
                                      theta_rec[:, -j_dim:], theta_u_true, delta_rec)
    bad = [(int(np.argmin(np.isfinite(x))), name) for name, x in
           (("V1", v1), ("|z1|", z1norm), ("zeta1", zeta1)) if not np.isfinite(x).all()]
    if bad:
        k, name = min(bad, key=lambda entry: entry[0])
        raise NumericalDegeneracyError(f"step {k} (t = {k * dt:.6g} s): monitor {name} "
                                       "is not finite")

    meta = {
        "controller": config.controller, "scenario": config.scenario,
        "parameterization": config.effective_parameterization,
        "dre": controller.dre,
        "dt": dt, "t_final": config.t_final,
        "theta_true": theta_true.stacked, "theta_u_true": theta_u_true,
        "q_d": config.q_d.copy(), "exponent_b": config.ftpd.b, "sat_d": config.adapt.sat_d,
        "settle_tol": config.settle_tol, "param_tol": config.param_tol,
    }
    return Trace(np.arange(n_rec) * dt, q_rec, qd_rec, e1_rec, tau_rec, theta_rec, delta_rec,
                 zeta1, v1, z1norm, diagnostics=diag, meta=meta,
                 extension=controller.extension)


@dataclass
class Metrics:
    """Scalar figures of merit of one run.  ``min_eig_phi2`` is the smallest
    eigenvalue of the last step's phi2, None for a run whose extension has
    no phi2."""

    settling_time: float
    steady_state_error: float
    param_convergence_time: float
    chattering_amplitude: float
    zeta1_integral: float
    min_eig_phi2: float | None
    gramian_min_eig: float

    def to_text(self) -> str:
        names = ["settling_time", "steady_state_error", "param_convergence_time",
                 "chattering_amplitude", "zeta1_integral", "gramian_min_eig"]
        lines = [f"{name}={getattr(self, name):.17g}" for name in names]
        if self.min_eig_phi2 is not None:
            lines.append(f"min_eig_phi2_final={self.min_eig_phi2:.17g}")
        return "\n".join(lines) + "\n"


def _last_exceed_time(t: np.ndarray, x: np.ndarray, tol: float, offset=0.0) -> float:
    """t of the last row k with |x_k - offset| > tol, 0.0 if none."""
    over = np.nonzero(np.linalg.norm(x - offset, axis=1) > tol)[0]
    return float(t[over[-1]]) if over.size else 0.0


# the trailing share of a trace that is its steady-state window
STEADY_FRACTION = 0.2


@np.errstate(all="ignore")    # each figure is checked finite below
def compute_metrics(trace: Trace, gramian_start: float = 0.0,
                    gramian_window: float = 2.0) -> Metrics:
    """Evaluate all trace metrics, each in one pass over its series.

    Settling / convergence times are the last instants at which the monitored
    magnitude exceeds its tolerance, the run's ``settle_tol`` and
    ``param_tol``; the steady-state window is the trailing
    ``STEADY_FRACTION`` of the trace.  The Gramian window ends at the end of
    the trace at the latest.  The Gramian and phi2 are exactly symmetric,
    so each excitation level is ``np.linalg.eigvalsh``'s smallest
    eigenvalue of the matrix as it is.  numpy's floating-point warnings are
    off; a figure that is not finite raises NumericalDegeneracyError naming
    it.  The trace must come from ``run_closed_loop``: one read back from
    CSV has no run metadata and no omega record, and is a ValueError.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    if "theta_u_true" not in trace.meta or "omega" not in trace.diagnostics:
        raise ValueError("the trace has no run metadata or omega record, as one read back "
                         "from CSV has none; it cannot be scored")
    t, n = trace.t, len(trace)

    settling = _last_exceed_time(t, trace.e1, trace.meta["settle_tol"])

    tail = max(2, int(np.ceil(n * STEADY_FRACTION)))
    steady_err = float(np.mean(np.linalg.norm(trace.e1[-tail:], axis=1)))

    theta_u_true = trace.meta["theta_u_true"]
    theta_u = trace.theta_hat[:, -theta_u_true.size:]
    ref = np.linalg.norm(theta_u[:1] - theta_u_true, axis=1)[0]
    param_time = 0.0 if ref == 0.0 else _last_exceed_time(
        t, theta_u, trace.meta["param_tol"] * ref, theta_u_true)

    # the jumps into and within the steady window: its rows and the one before
    tau = trace.tau[max(n - tail - 1, 0):]
    chatter = float(np.abs(np.diff(tau, axis=0)).max(initial=0.0))

    # trapezoids summed in order, as a running integral's last entry
    # (np.sum's pairwise order moves last bits)
    zeta1 = trace.zeta1
    zeta_integral = float(np.cumsum(0.5 * (zeta1[1:] + zeta1[:-1]) * np.diff(t))[-1]) \
        if n > 1 else 0.0

    min_eig_phi2 = None
    if getattr(trace.extension, "kind", None) == "kreisselmeier":
        # phi2 is exactly symmetric: the filter adds gemm products Omega' Omega,
        # whose (i, j) and (j, i) entries sum the same terms in the same order
        min_eig_phi2 = float(np.linalg.eigvalsh(trace.extension.phi2)[0])

    gram = drem.excitation_gramian(trace.t, trace.diagnostics["omega"], gramian_start,
                                   min(gramian_window, trace.t[-1] - gramian_start))
    gram_min = float(np.linalg.eigvalsh(gram)[0])

    metrics = Metrics(settling_time=settling, steady_state_error=steady_err,
                      param_convergence_time=param_time, chattering_amplitude=chatter,
                      zeta1_integral=zeta_integral, min_eig_phi2=min_eig_phi2,
                      gramian_min_eig=gram_min)
    for name, value in vars(metrics).items():
        if value is not None and not math.isfinite(value):
            raise NumericalDegeneracyError(f"metric {name} is not finite ({value})")
    return metrics


def trace_columns(trace: Trace) -> tuple[list[str], list[np.ndarray]]:
    """Fixed CSV column layout: the header and the series whose columns, in
    order, are the CSV's columns (each 1-D or (rows, k), views as the trace
    holds them)."""
    k = trace.theta_hat.shape[1]
    header = (["t", "q1", "q2", "qd1", "qd2", "e11", "e12", "tau1", "tau2"]
              + [f"theta_hat_{i + 1}" for i in range(k)]
              + ["Delta", "zeta1", "V1", "z1norm"])
    series = [trace.t, trace.q, trace.qd, trace.e1, trace.tau, trace.theta_hat,
              trace.delta, trace.zeta1, trace.v1, trace.z1norm]
    return header, series


def write_trace_csv(trace: Trace, stream) -> None:
    """Serialize the trace; every number takes the exact bytes of
    ``'%.17g' % x``, 17 significant digits, so a read-back reproduces every
    float64.  ``_g17`` gathers a block of rows at a time from the series
    and formats it in numpy passes."""
    header, series = trace_columns(trace)
    stream.write(",".join(header) + "\n")
    for text in csv_blocks(series):
        stream.write(text.decode("ascii"))


def read_trace_csv(stream) -> Trace:
    """Rebuild a Trace from its CSV serialization: t, q, qd, e1, tau,
    theta_hat, Delta, zeta1, V1 and |z1|, each float bit for bit.  The CSV
    holds no diagnostics (no omega, y or mixing record), no run metadata and
    no extension, so the trace comes back without them and
    ``compute_metrics`` refuses it."""
    header = stream.readline().strip().split(",")
    data = np.loadtxt(stream, delimiter=",", ndmin=2)
    cols = {name: data[:, i] for i, name in enumerate(header)}
    theta_cols = [name for name in header if name.startswith("theta_hat_")]
    theta_hat = np.column_stack([cols[c] for c in theta_cols])
    q = np.column_stack([cols["q1"], cols["q2"]])
    qd = np.column_stack([cols["qd1"], cols["qd2"]])
    e1 = np.column_stack([cols["e11"], cols["e12"]])
    tau = np.column_stack([cols["tau1"], cols["tau2"]])
    return Trace(t=cols["t"], q=q, qd=qd, e1=e1, tau=tau,
                 theta_hat=theta_hat, delta=cols["Delta"], zeta1=cols["zeta1"],
                 v1=cols["V1"], z1norm=cols["z1norm"])


def trace_csv_string(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    return buf.getvalue()
