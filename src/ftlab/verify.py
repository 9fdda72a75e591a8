"""Numerical property suite behind the ``verify`` CLI command.

Each check returns a PropertyResult; checks that probe the plant accept the
relevant evaluation functions as arguments so a harness (or a mutation test)
can substitute a broken implementation and watch the property trip.  The
checks on a trace (power audit, regression residual, mixing identity, V1
monotonicity) take any trace, so the test suite holds its runs to the same
bounds.  The checks of a kernel drive the code the run executes: the
Cramer check mixes with a ``KreisselmeierDre`` whose phi2 and phi1 it
assigns, and the gain range check calls ``control.excitation_gain``, the
zeta1 monitor's function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import control, mathx
from .drem import KreisselmeierDre
from .plant import Plant
from .sim import SimConfig, Trace, run_closed_loop


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def check_signed_power_odd(n_samples: int = 2000, seed: int = 7) -> PropertyResult:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples) * 10.0 ** rng.integers(-6, 6, n_samples)
    worst = 0.0
    for q in (0.2, 1.0 / 3.0, 0.5, 1.0, 1.7):
        lhs = mathx.signed_power_vec(-z, q)
        rhs = -mathx.signed_power_vec(z, q)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return PropertyResult("signed_power_odd_symmetry", worst == 0.0,
                          f"max |<-z>^q + <z>^q| = {worst:.3e}")


def adjugate(a) -> np.ndarray:
    """Adjugate (transposed cofactor matrix), with the minors' determinants
    by LU: the reference the Kreisselmeier mixing's Cramer products are held
    to.  Satisfies A adj(A) = det(A) I, including for singular A, which inv()
    cannot give."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    m = a.shape[0]
    if m == 1:
        return np.ones((1, 1))
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            out[j, i] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return out


def check_adjugate_identity(n_samples: int = 50, seed: int = 11) -> PropertyResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((m, m))
        resid = a @ adjugate(a) - np.linalg.det(a) * np.eye(m)
        tol_scale = max(1.0, float(np.max(np.abs(a))) ** m)
        worst = max(worst, float(np.max(np.abs(resid))) / tol_scale)
    return PropertyResult("adjugate_identity", worst <= 1e-9,
                          f"max scaled |A adj(A) - det(A) I| = {worst:.3e}")


def check_cramer_matches_adjugate(n_samples: int = 50, seed: int = 13,
                                  adjugate_fn=None) -> PropertyResult:
    """Y of the Kreisselmeier mix with phi2 = phi and phi1 = v assigned, as
    returned and as written into its row, against adj(phi) v."""
    adjugate_fn = adjugate_fn or adjugate
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        m = int(rng.integers(2, 7))
        phi = rng.standard_normal((m, m))
        v = rng.standard_normal(m)
        ref = adjugate_fn(phi) @ v
        # never stepped, so its step size moves nothing
        dre = KreisselmeierDre(m, dt=1.0)
        dre.phi2, dre.phi1 = phi, v
        row = np.empty(m + 1)
        # the floats the law takes and the row the record keeps
        got = np.array((dre.mix(row)[1:], row[1:]))
        worst = max(worst, float(np.max(np.abs(got - ref))) / max(1.0, float(np.max(np.abs(ref)))))
    return PropertyResult("cramer_matches_adjugate", worst <= 1e-10,
                          f"max relative deviation = {worst:.3e}")


def check_skew_symmetry(plant: Plant | None = None, coriolis_fn=None,
                        n_samples: int = 1000, seed: int = 17) -> PropertyResult:
    """|v' (dM/dt - 2C) v| with dM/dt by central finite difference."""
    plant = plant or Plant.two_link()
    coriolis_fn = coriolis_fn or (lambda q, qd: np.array(plant.coriolis_rows(q, qd)))
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    for _ in range(n_samples):
        q = rng.uniform(-np.pi, np.pi, plant.n)
        qd = rng.uniform(-3.0, 3.0, plant.n)
        v = rng.uniform(-1.0, 1.0, plant.n)
        m_dot = (np.array(plant.inertia_rows(q + h * qd))
                 - np.array(plant.inertia_rows(q - h * qd))) / (2.0 * h)
        resid = abs(float(v @ (m_dot - 2.0 * coriolis_fn(q, qd)) @ v))
        bound = 1e-5 * float(v @ v) * max(1.0, float(np.linalg.norm(qd)))
        worst = max(worst, resid / bound)
    return PropertyResult("coriolis_skew_symmetry", worst <= 1.0,
                          f"max residual / tolerance = {worst:.3e}")


def check_gravity_factorization(plant: Plant | None = None, psi_fn=None,
                                n_samples: int = 1000, seed: int = 19) -> PropertyResult:
    plant = plant or Plant.two_link()
    psi_fn = psi_fn or (lambda q: np.array(plant.psi_rows(q)))
    theta_u = plant.theta.theta_u
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        q = rng.uniform(-2.0 * np.pi, 2.0 * np.pi, plant.n)
        # g as the simulation forms it: at rest, under no torque and with
        # M = I, the forward dynamics return -g exactly
        gravity = -np.array(plant.forward_dynamics(q, (0.0, 0.0), (0.0, 0.0),
                                                   inertia=((1.0, 0.0), (0.0, 1.0))))
        resid = float(np.max(np.abs(gravity - psi_fn(q) @ theta_u)))
        worst = max(worst, resid)
    return PropertyResult("gravity_equals_psi_theta", worst <= 1e-14,
                          f"max |g - Psi theta_u| = {worst:.3e}")


def check_energy_audit(trace: Trace, plant: Plant | None = None) -> PropertyResult:
    """Per-step power balance |E_{k+1} - E_k - dt qd' tau| <= 1e-3 (1 + |qd||tau|)."""
    plant = plant or Plant.two_link()
    dt = trace.meta["dt"]
    energy = np.array([plant.total_energy(q, qd) for q, qd in zip(trace.q, trace.qd)])
    power = np.einsum("ki,ki->k", trace.qd[:-1], trace.tau[:-1])
    defect = np.abs(energy[1:] - energy[:-1] - dt * power)
    scale = 1e-3 * (1.0 + np.linalg.norm(trace.qd[:-1], axis=1)
                    * np.linalg.norm(trace.tau[:-1], axis=1))
    worst = float(np.max(defect / scale))
    return PropertyResult("power_balance_audit", worst <= 1.0,
                          f"max defect / tolerance = {worst:.3e}")


def check_regression_residual(trace: Trace) -> PropertyResult:
    """y = Omega theta along ``trace``, within the Euler slack 5 dt."""
    theta = trace.meta["theta_true"]
    resid = np.linalg.norm(trace.diagnostics["y"] - trace.diagnostics["omega"] @ theta, axis=1)
    bound = 5.0 * trace.meta["dt"]
    worst = float(resid.max())
    return PropertyResult(f"regression_residual_{trace.meta['parameterization']}",
                          worst <= bound,
                          f"max |y - Omega theta| = {worst:.3e} (bound {bound:.1e})")


def check_mixing_identity(controller: str, trace: Trace) -> PropertyResult:
    """Y = Delta theta, scaled by 1 + |Delta| |theta|, along ``trace``, a run of ``controller``."""
    theta = trace.meta["theta_true"]
    scale = 1.0 + np.abs(trace.delta) * np.linalg.norm(theta)
    resid = np.linalg.norm(trace.diagnostics["Y_mixed"]
                           - trace.delta[:, None] * theta, axis=1) / scale
    worst = float(resid.max())
    return PropertyResult(f"mixing_identity_{trace.meta['dre']}", worst <= 1e-4,
                          f"max |Y - Delta theta| (scaled) = {worst:.3e}")


def check_excitation_gain_range(deltas=None) -> PropertyResult:
    """excitation_gain(delta) in [0, 1) over ``deltas``, by default 0.0,
    -0.0, +-5e-324 (the smallest subnormal) and +-``logspace(-12, 6)``.
    The sweep stops at |delta| = 1e6: at b = d = 0.5 the float gain
    |delta| / (1 + |delta|) rounds to 1.0 from about |delta| = 9.1e15 on,
    and stays at most 1 for every finite delta."""
    if deltas is None:
        mags = np.concatenate(([0.0, 5e-324], np.logspace(-12, 6)))
        deltas = np.concatenate((mags, -mags))
    vals = control.excitation_gain(np.asarray(deltas, dtype=float), 0.5, 0.5)
    ok = bool(np.all(vals >= 0.0) and np.all(vals < 1.0))
    return PropertyResult("excitation_gain_range", ok,
                          f"range over sweep = [{vals.min():.3e}, {vals.max():.6f}]")


def check_v1_monotone(trace: Trace) -> PropertyResult:
    dv = np.diff(trace.v1)
    slack = 1e-6 * (1.0 + trace.v1[:-1])
    frac = float(np.mean(dv <= slack))
    return PropertyResult("lyapunov_v1_monotone", frac >= 0.999,
                          f"fraction of non-increasing steps = {frac:.5f}")


def run_all(t_final: float = 10.0) -> list[PropertyResult]:
    """Full suite on three fresh runs, the c1 reference and c2 over ``t_final``
    and c1 on power balance over at most 5 s; returns all results."""
    plant = Plant.two_link()
    trace = run_closed_loop(SimConfig(controller="c1", t_final=t_final))
    trace_kreis = run_closed_loop(SimConfig(controller="c2", t_final=t_final))
    trace_power = run_closed_loop(SimConfig(controller="c1", parameterization="power_balance",
                                            t_final=min(5.0, t_final)))
    return [
        check_signed_power_odd(),
        check_adjugate_identity(),
        check_cramer_matches_adjugate(),
        check_skew_symmetry(plant),
        check_gravity_factorization(plant),
        check_energy_audit(trace, plant),
        check_regression_residual(trace_power),
        check_regression_residual(trace),
        check_mixing_identity("c1", trace),
        check_mixing_identity("c2", trace_kreis),
        check_excitation_gain_range(),
        check_v1_monotone(trace),
    ]
