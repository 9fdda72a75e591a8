"""Fixed-step closed-loop simulation, runtime monitors and trace metrics.

One run wires plant + regression + regressor extension + controller and
advances everything with a shared explicit-Euler step.  Per step:

1. form measurements (exact in case1, noisy in case2);
2. evaluate the control torque from the measurements;
3. advance the regression filters with the measured signals and the
   commanded torque;
4. update the controller: its regressor extension, if it has one, the
   mixing and the Euler step of its estimates;
5. evaluate friction from the true velocity (case2);
6. Euler-update the plant state.

The runner knows the controllers only through the protocol of
``control`` (see its module docstring), and takes the friction and noise
models from the config as they are.  The trace keeps the series each
step records and nothing built after the loop but the monitors; the
metrics of a trace are scalars.

Runs are deterministic: the only "noise" is a fixed sinusoid, so identical
configurations produce bit-identical traces.  ``write_trace_csv`` writes
each float in the exact bytes of ``'%.17g' % x``, through the vectorised
formatter of ``_g17``.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import control, drem, mathx
from ._g17 import csv_blocks
from .control import CONTROLLERS
from .errors import ConfigError, NumericalDegeneracyError
from .plant import FrictionModel, NoiseModel, PhysicalParams, Plant
from .regression import make_regression

SCENARIOS = ("case1", "case2")
PARAMETERIZATIONS = ("power_balance", "force_balance")


@dataclass
class SimConfig:
    """Complete description of one run; defaults reproduce the reference
    c1/case1 study (regulation to q_d = [2, 2] from q0 = [3, 0]).

    Each setting is one field; ``friction`` and ``noise`` are the models the
    run applies.  The parameter objects check their own ranges when they are
    made, and ``validate`` adds the finiteness, length and cross-field
    checks.  The vectors stay numpy arrays.
    """

    controller: str = "c1"
    scenario: str = "case1"
    parameterization: str | None = None     # default: force_balance
    dt: float = 5e-4
    t_final: float = 10.0
    q_d: np.ndarray = field(default_factory=lambda: np.array([2.0, 2.0]))
    q0: np.ndarray = field(default_factory=lambda: np.array([3.0, 0.0]))
    qd0: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0]))
    params: PhysicalParams = field(default_factory=PhysicalParams.uniform_rods)
    theta_bar: np.ndarray = field(default_factory=lambda: np.array([2.0, 8.0]))
    theta_hat0: np.ndarray | None = None
    friction: FrictionModel = field(default_factory=FrictionModel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    ftpd: control.FtPdGains = field(default_factory=control.FtPdGains)
    adapt: control.CompositeAdaptGains = field(default_factory=control.CompositeAdaptGains)
    tsm: control.TsmParams = field(default_factory=control.TsmParams)
    ls: drem.LsDreParams = field(default_factory=drem.LsDreParams)
    kreis: drem.KreisParams = field(default_factory=drem.KreisParams)
    lambda0: float | None = None
    lambda1: float = 1.0
    settle_tol: float = 1e-3
    param_tol: float = 0.05
    gramian_start: float = 0.0
    gramian_window: float = 2.0

    def __post_init__(self):
        for name in ("q_d", "q0", "qd0", "theta_bar"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.theta_hat0 is not None:
            self.theta_hat0 = np.asarray(self.theta_hat0, dtype=float)

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
        """Range and consistency checks; raises ConfigError naming the key.
        The rules of one controller family are its class's check_config."""
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
            if np.ndim(value) and key != "theta_hat0" and np.shape(value) != (2,):
                raise ConfigError(f"{key} must have length 2")
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
    ``meta`` the run description needed to interpret them."""

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


def run_closed_loop(config: SimConfig) -> Trace:
    """Integrate the closed loop and return the full trace.

    The loop carries q, qd and the estimate as Python floats.  Psi(q) and
    M(q) are evaluated once per step (at the true and, in case2, at the
    measured configuration; M(q) there only if the controller asks for it)
    and passed to the controller, the regression filter and the plant step.
    The regression pair is the filter's one [Omega | y] buffer, recorded
    whole each step.  The monitors V1, zeta1 and |z1| feed nothing back, so
    they are evaluated after the loop, over the recorded series, with Psi(q)
    and M(q) rebuilt from the recorded q.  A non-finite state or mixing
    output ends the run with a NumericalDegeneracyError naming it, the step
    and the time, and so does a float overflow within a step.  A record too
    large to allocate, or beyond numpy's index range, is a ConfigError naming
    the step count.
    """
    config.validate()
    plant = Plant.two_link(config.params)
    theta_true = plant.theta
    l_dim = theta_true.size
    j_dim = len(theta_true.theta_u)
    n = plant.n

    noisy = config.scenario == "case2"
    friction, noise = config.friction, config.noise

    controller = control.make_controller(config, plant)
    regression = make_regression(config.effective_parameterization, plant,
                                 config.q0, config.qd0,
                                 config.effective_lambda0, config.lambda1)

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
    except (MemoryError, ValueError) as exc:
        # numpy refuses a shape beyond its index range with a ValueError
        raise ConfigError(f"sim.t_final / sim.dt gives {n_steps} steps, too many to "
                          f"record: {exc}") from None

    q1, q2 = config.q0.tolist()
    qd1, qd2 = config.qd0.tolist()
    qdes1, qdes2 = config.q_d.tolist()
    dt = config.dt

    # every state and mixing output is checked below, so numpy's
    # floating-point warnings would only repeat what the check names
    with np.errstate(all="ignore"):
        for k in range(n_rec):
            t = k * dt
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
                psi = plant.psi_rows(q)
                inertia = plant.inertia_rows(q)
                if noisy:
                    (n1, n2), (v1, v2) = noise.position(t), noise.velocity(t)
                    q_m = (q1 + n1, q2 + n2)
                    qd_m = (qd1 + v1, qd2 + v2)
                    psi_m = plant.psi_rows(q_m)
                    inertia_m = None
                else:
                    q_m, qd_m, psi_m, inertia_m = q, qd, psi, inertia

                tau = controller.torque((q_m[0] - qdes1, q_m[1] - qdes2), q_m, qd_m, psi_m,
                                        inertia_m)
                pair = regression.step(q_m, qd_m, tau, dt, psi_m)
                delta = controller.update(pair, dt, k)
            except NumericalDegeneracyError as exc:
                raise NumericalDegeneracyError(f"step {k} (t = {t:.6g} s): {exc}") from exc
            except OverflowError as exc:
                raise NumericalDegeneracyError(f"step {k} (t = {t:.6g} s): float overflow "
                                               f"{exc}") from exc

            rows[k] = (q1, q2, qd1, qd2, *tau, *estimate, delta)
            aug_rec[k] = pair.aug
            controller.record(diag, k)

            if k < n_steps:
                tau_f = friction.torque(qd) if noisy else None
                a1, a2 = plant.forward_dynamics(q, qd, tau, tau_f, psi=psi, inertia=inertia)
                q1, q2 = q1 + dt * qd1, q2 + dt * qd2
                qd1, qd2 = qd1 + dt * a1, qd2 + dt * a2

    q_rec, qd_rec, tau_rec = rows[:, 0:2].copy(), rows[:, 2:4].copy(), rows[:, 4:6].copy()
    theta_rec = rows[:, 6:6 + j_est].copy()
    delta_rec = rows[:, 6 + j_est].copy()
    diag = {"y": aug_rec[:, :, l_dim].copy(), "omega": aug_rec[:, :, :l_dim].copy(), **diag}
    del rows, aug_rec
    psi_rec = plant.psi_stack(q_rec)
    inertia_rec = plant.inertia_stack(q_rec)

    theta_u_true = np.array(theta_true.theta_u)
    e1_rec = q_rec - config.q_d
    theta_tilde_u = theta_rec[:, -j_dim:] - theta_u_true
    v1 = lyapunov_v1(e1_rec, qd_rec, theta_tilde_u, inertia_rec, config.ftpd, config.adapt)
    z1 = (psi_rec @ theta_tilde_u[:, :, None])[:, :, 0]
    z1norm = np.sqrt(_row_dot(z1, z1))
    b_exp = config.ftpd.b
    d_exp = config.adapt.sat_d
    zeta1 = control.excitation_gain(delta_rec, b_exp, d_exp)
    del psi_rec, inertia_rec

    meta = {
        "controller": config.controller, "scenario": config.scenario,
        "parameterization": config.effective_parameterization,
        "dre": controller.dre,
        "dt": dt, "t_final": config.t_final,
        "theta_true": theta_true.stacked, "theta_u_true": theta_u_true,
        "q_d": config.q_d.copy(), "exponent_b": b_exp, "sat_d": d_exp,
        "settle_tol": config.settle_tol, "param_tol": config.param_tol,
    }
    return Trace(np.arange(n_rec) * dt, q_rec, qd_rec, e1_rec, tau_rec, theta_rec, delta_rec,
                 zeta1, v1, z1norm, diagnostics=diag, meta=meta)


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
        lines = [
            f"settling_time={self.settling_time:.17g}",
            f"steady_state_error={self.steady_state_error:.17g}",
            f"param_convergence_time={self.param_convergence_time:.17g}",
            f"chattering_amplitude={self.chattering_amplitude:.17g}",
            f"zeta1_integral={self.zeta1_integral:.17g}",
            f"gramian_min_eig={self.gramian_min_eig:.17g}",
        ]
        if self.min_eig_phi2 is not None:
            lines.append(f"min_eig_phi2_final={self.min_eig_phi2:.17g}")
        return "\n".join(lines) + "\n"


def _last_exceed_time(t: np.ndarray, magnitude: np.ndarray, tol: float) -> float:
    over = np.nonzero(magnitude > tol)[0]
    return float(t[over[-1]]) if over.size else 0.0


def compute_metrics(trace: Trace, settle_tol: float | None = None,
                    param_tol: float | None = None,
                    steady_fraction: float = 0.2,
                    gramian_start: float = 0.0,
                    gramian_window: float = 2.0) -> Metrics:
    """Evaluate all trace metrics.

    Settling / convergence times are the last instants at which the monitored
    magnitude exceeds its tolerance; the steady-state window is the trailing
    ``steady_fraction`` of the trace.  The Gramian window ends at the end of
    the trace at the latest.
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    settle_tol = settle_tol if settle_tol is not None else trace.meta.get("settle_tol", 1e-3)
    param_tol = param_tol if param_tol is not None else trace.meta.get("param_tol", 0.05)

    e1_norm = np.linalg.norm(trace.e1, axis=1)
    settling = _last_exceed_time(trace.t, e1_norm, settle_tol)

    tail = max(2, int(np.ceil(len(trace) * steady_fraction)))
    window = slice(len(trace) - tail, len(trace))
    steady_err = float(np.mean(e1_norm[window]))

    theta_u_true = trace.meta["theta_u_true"]
    j = theta_u_true.size
    tilde = np.linalg.norm(trace.theta_hat[:, -j:] - theta_u_true, axis=1)
    ref = tilde[0]
    param_time = 0.0 if ref == 0.0 else _last_exceed_time(trace.t, tilde, param_tol * ref)

    jumps = np.abs(np.diff(trace.tau, axis=0)).max(axis=1)
    chatter = float(jumps[window.start - 1:].max()) if len(trace) > 1 else 0.0

    # trapezoids summed in order, as a running integral's last entry (np.sum's
    # pairwise order would move the last bits)
    areas = 0.5 * (trace.zeta1[1:] + trace.zeta1[:-1]) * np.diff(trace.t)
    zeta_integral = float(np.cumsum(areas)[-1]) if areas.size else 0.0

    min_eig_phi2 = None
    if "phi2" in trace.diagnostics:
        # phi2 is exactly symmetric: the filter adds gemm products Omega' Omega,
        # whose (i, j) and (j, i) entries sum the same terms in the same order
        min_eig_phi2 = float(np.linalg.eigvalsh(trace.diagnostics["phi2"][-1])[0])

    gram = drem.excitation_gramian(trace.t, trace.diagnostics["omega"], gramian_start,
                                   min(gramian_window, trace.t[-1] - gramian_start))
    gram_min = mathx.min_eig_sym(gram, sym_tol=1e-6)

    return Metrics(settling_time=settling, steady_state_error=steady_err,
                   param_convergence_time=param_time, chattering_amplitude=chatter,
                   zeta1_integral=zeta_integral, min_eig_phi2=min_eig_phi2,
                   gramian_min_eig=float(gram_min))


def trace_columns(trace: Trace) -> tuple[list[str], np.ndarray]:
    """Fixed CSV column layout."""
    k = trace.theta_hat.shape[1]
    header = (["t", "q1", "q2", "qd1", "qd2", "e11", "e12", "tau1", "tau2"]
              + [f"theta_hat_{i + 1}" for i in range(k)]
              + ["Delta", "zeta1", "V1", "z1norm"])
    data = np.column_stack([
        trace.t, trace.q, trace.qd, trace.e1, trace.tau, trace.theta_hat,
        trace.delta, trace.zeta1, trace.v1, trace.z1norm,
    ])
    return header, data


def write_trace_csv(trace: Trace, stream) -> None:
    """Serialize the trace; every number takes the exact bytes of
    ``'%.17g' % x``, 17 significant digits, so a read-back reproduces every
    float64.  ``_g17`` formats a block of rows at a time in numpy passes."""
    header, data = trace_columns(trace)
    stream.write(",".join(header) + "\n")
    for text in csv_blocks(data):
        stream.write(text.decode("ascii"))


def read_trace_csv(stream) -> Trace:
    """Rebuild a Trace (without diagnostics) from its CSV serialization."""
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
