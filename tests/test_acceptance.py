"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Reference protocol: regulation to q_d = [2, 2] from q(0) = [3, 0] at rest,
explicit Euler at dt = 5e-4 over 10 s, gains as configured by default.
Criteria 4-6 are checks of the ``verify`` suite, applied to these runs.
"""

import numpy as np

import ftlab
import reference as ref
from conftest import at, history, run, theta_tilde_u
from ftlab import mathx, verify


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num} ({name}): {detail}")


def test_criterion_1_finite_time_regulation(c1_case1, c2_case1, c4_case1):
    tol = 1e-3
    tail = {}
    for name, trace in (("c1", c1_case1), ("c2", c2_case1), ("c4", c4_case1)):
        e1 = np.linalg.norm(trace.e1, axis=1)
        tail[name] = float(e1[at(trace, 4.5):].max())
    walls = [c1_case1.meta["wall_time"], c2_case1.meta["wall_time"],
             c4_case1.meta["wall_time"]]
    passed = tail["c1"] <= tol and tail["c2"] <= tol and tail["c4"] > tol \
        and max(walls) < 5.0
    report(1, "finite-time regulation", passed,
           f"|e1| after 4.5 s: c1 {tail['c1']:.2e}, c2 {tail['c2']:.2e}, "
           f"c4 {tail['c4']:.2e} (bound {tol}); slowest run {max(walls):.2f} s wall")
    assert tail["c1"] <= tol
    assert tail["c2"] <= tol
    assert tail["c4"] > tol
    assert max(walls) < 5.0


def test_criterion_2_finite_time_estimation(c1_case1, c2_case1):
    worst = {}
    for name, trace in (("c1", c1_case1), ("c2", c2_case1)):
        tilde = theta_tilde_u(trace)
        worst[name] = float(tilde[at(trace, 3.0):].max() / tilde[0])
    passed = worst["c1"] <= 0.05 and worst["c2"] <= 0.05
    report(2, "finite-time estimation", passed,
           f"|theta_tilde| / initial after 3 s: c1 {worst['c1']:.2e}, "
           f"c2 {worst['c2']:.2e} (bound 0.05)")
    assert worst["c1"] <= 0.05
    assert worst["c2"] <= 0.05


def steady_jump(trace):
    n = len(trace)
    window = slice(int(np.floor(0.8 * n)), None)
    jumps = np.abs(np.diff(trace.tau, axis=0)).max(axis=1)
    return float(jumps[window.start - 1:].max())


def test_criterion_3_chattering(c1_case1, c2_case1, c4_case1):
    jump = {name: steady_jump(tr) for name, tr in
            (("c1", c1_case1), ("c2", c2_case1), ("c4", c4_case1))}
    bound_ok = jump["c1"] <= 0.015 and jump["c2"] <= 0.015
    order_ok = jump["c4"] > jump["c1"]
    report(3, "chattering bound", bound_ok and order_ok,
           f"steady-state torque jumps: c1 {jump['c1']:.4f}, c2 {jump['c2']:.4f} "
           f"(bound 0.015), c4 {jump['c4']:.4f} (must exceed c1)")
    assert order_ok, "c4 must chatter more than c1"
    # Known limitation: the fractional-power terms limit-cycle under the
    # mandated explicit Euler step, with per-step torque jumps proportional
    # to dt (measured: 0.118 at dt = 5e-4, 0.012 at dt = 5e-5 on this plant).
    # At the pinned dt = 5e-4 the 0.015 bound is unattainable for any
    # physically plausible link completion; the assertion is kept as stated.
    assert bound_ok, (
        f"steady-state torque jump c1 {jump['c1']:.4f} / c2 {jump['c2']:.4f} "
        "exceed 0.015; structural discretization limit cycle at dt = 5e-4")


def report_checks(num: int, name: str, results: dict) -> None:
    """One criterion made of ``verify`` checks: its line, then its asserts."""
    report(num, name, all(r.passed for r in results.values()),
           "; ".join(f"{k}: {r.detail}" for k, r in results.items()))
    for label, result in results.items():
        assert result.passed, f"{label}: {result.line()}"


def test_criterion_4_scalar_regression_identity(c1_case1, c2_case1,
                                                c1_case1_pb, c2_case1_pb):
    # bound 1e-4 on |Y - Delta theta| / (1 + |Delta| |theta|)
    report_checks(4, "scalar-regression identity", {
        "ls/force": verify.check_mixing_identity("c1", c1_case1),
        "ls/power": verify.check_mixing_identity("c1", c1_case1_pb),
        "kreis/force": verify.check_mixing_identity("c2", c2_case1),
        "kreis/power": verify.check_mixing_identity("c2", c2_case1_pb),
    })


def test_criterion_5_mechanical_invariants(plant, c1_case1):
    # bounds: skew residual within 1e-5 |v|^2 max(1, |qd|), gravity
    # factorization 1e-14, power defect within 1e-3 (1 + |qd| |tau|)
    report_checks(5, "mechanical invariants", {
        "skew": verify.check_skew_symmetry(plant),
        "gravity": verify.check_gravity_factorization(plant),
        "power audit": verify.check_energy_audit(c1_case1, plant),
    })


def test_criterion_6_lyapunov_monotonicity(c1_case1):
    # bound: V1 non-increasing, within 1e-6 (1 + V1), on 99.9 % of the steps
    report_checks(6, "Lyapunov monotonicity",
                  {"V1": verify.check_v1_monotone(c1_case1)})


def test_criterion_7_excitation_gain_properties():
    b = d = 0.5
    gain_range = verify.check_excitation_gain_range(np.linspace(-1e6, 1e6, 1_000_001))
    range_ok = gain_range.passed

    rng = np.random.default_rng(31)
    odd_ok = all(ftlab.saturation(-z, b, d) == -ftlab.saturation(z, b, d)
                 for z in rng.uniform(-1e4, 1e4, 2000))

    worst_id = 0.0
    for _ in range(2000):
        delta = float(rng.uniform(-20.0, 20.0))
        theta_u = rng.uniform(-8.0, 8.0, 2)
        tilde = rng.uniform(1e-3, 8.0, 2) * rng.choice([-1.0, 1.0], 2)
        theta_hat = theta_u + tilde
        xi = np.array(ref.prediction_error(delta, theta_hat, delta * theta_u, b))
        expected = ref.spow(delta, b) \
            * mathx.signed_power_vec(theta_hat - theta_u, b)
        worst_id = max(worst_id, float(np.max(np.abs(xi - expected))))
    passed = range_ok and odd_ok and worst_id <= 1e-12
    report(7, "excitation gain properties", passed,
           f"{gain_range.detail} (1e6 points), "
           f"oddness exact: {odd_ok}, factorization error {worst_id:.1e}")
    assert range_ok
    assert odd_ok
    assert worst_id <= 1e-12


def test_criterion_8_dre_state_health(c1_case1, c2_case1):
    # F = R^-1 has the eigenvalues 1/w of the eigenvalues w of R, which the
    # replay of the run's extension gives for every step
    ls = history(c1_case1)
    w, z = ls["w"], ls["z_forget"]
    f_ok = float(w.min()) > 0.0
    z_ok = bool(np.all((z > 0.0) & (z <= 1.0)))

    phi2_min = float(np.linalg.eigvalsh(history(c2_case1)["phi2"])[:, 0].min())
    phi2_ok = phi2_min >= -1e-9

    def final_second_increment(trace):
        integral = np.concatenate([[0.0], np.cumsum(
            0.5 * (trace.zeta1[1:] + trace.zeta1[:-1]) * np.diff(trace.t))])
        return float(integral[-1] - integral[at(trace, trace.t[-1] - 1.0)])

    inc1 = final_second_increment(c1_case1)
    inc2 = final_second_increment(c2_case1)
    growth_ok = inc1 >= 10.0 * inc2 and inc1 > 0.1

    passed = f_ok and z_ok and phi2_ok and growth_ok
    report(8, "extension state health", passed,
           f"min eig F {1.0 / w.max():.2e}, z in ({z.min():.1e}, {z.max():.3f}], "
           f"min eig phi2 {phi2_min:.1e}, final-second gain integral c1 {inc1:.3f} "
           f"vs c2 {inc2:.5f}")
    assert f_ok and z_ok
    assert phi2_ok
    assert growth_ok


def test_criterion_9_case2_ordering(c1_case2, c2_case2, c3_case2, c4_case2):
    errs = {}
    for name, trace in (("c1", c1_case2), ("c2", c2_case2),
                        ("c3", c3_case2), ("c4", c4_case2)):
        m = ftlab.compute_metrics(trace)
        errs[name] = m.steady_state_error
    nonzero_ok = all(v > 0.0 for v in errs.values())
    order_ok = errs["c1"] < errs["c4"] and errs["c2"] < errs["c4"]
    passed = nonzero_ok and order_ok
    report(9, "friction/noise degradation", passed,
           ", ".join(f"{k} {v:.2e}" for k, v in errs.items())
           + "; finite-time controllers must beat c4")
    assert nonzero_ok
    assert order_ok


def test_criterion_10_determinism(c1_case1):
    fresh = run("c1")
    identical = all(
        np.array_equal(getattr(fresh, field), getattr(c1_case1, field))
        for field in ("t", "q", "qd", "e1", "e2", "tau", "theta_hat",
                      "delta", "zeta1", "v1", "z1norm"))
    report(10, "determinism", identical,
           "re-run of the default configuration is bit-identical" if identical
           else "re-run diverged")
    assert identical
