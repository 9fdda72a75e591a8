"""The four set-point controllers.

* ``CompositeFtController`` (used by runs c1 and c2): fractional-power PD
  feedback with adaptive gravity compensation, driven by a composite update
  law whose indirect part consumes the mixed scalar regression.
* ``SwitchingTsmController`` (c3): terminal-sliding-mode tracking controller
  applied to regulation, switching between a nonlinear and a linear virtual
  reference, with a normalized extension-based estimator.
* ``SlotineLiLsController`` (c4): classical virtual-reference adaptive
  controller with a time-varying least-squares estimation gain.

Torque and rate computations are pure given a state snapshot; the small
stateful wrappers only own their parameter estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import mathx
from .errors import NumericalDegeneracyError
from .drem import MixedRegression
from .regression import RegressionPair


@dataclass(frozen=True)
class FtPdGains:
    """Fractional PD gains and homogeneity exponents.

    The exponents derive from the weights r1, r2 through m_c = 2 r2 - r1,
    a = m_c / r1, b = m_c / r2; the admissible range 2 r2 > r1 > r2 > 0
    guarantees 1 > b > a > 0.  a = b = 1 (r1 = r2) is outside that range and
    deliberately not representable here: the linear PD limit is recovered by
    calling ``ftpd_torque`` with explicit exponents.
    """

    kp: np.ndarray = field(default_factory=lambda: np.array([3.0, 3.0]))
    kd: np.ndarray = field(default_factory=lambda: np.array([2.0, 2.0]))
    kd_lin: np.ndarray = field(default_factory=lambda: np.array([0.5, 0.5]))
    r1: float = 1.5
    r2: float = 1.0

    def __post_init__(self):
        for name in ("kp", "kd", "kd_lin"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"{name} diagonal must be positive")
        if not (2.0 * self.r2 > self.r1 > self.r2 > 0.0):
            raise ValueError("exponent weights must satisfy 2 r2 > r1 > r2 > 0")

    # the instance is frozen, so derived constants are computed once
    @cached_property
    def m_c(self) -> float:
        return 2.0 * self.r2 - self.r1

    @cached_property
    def a(self) -> float:
        return self.m_c / self.r1

    @cached_property
    def b(self) -> float:
        return self.m_c / self.r2


def ftpd_torque(e1, e2, psi, theta_hat_u, gains: FtPdGains,
                a: float | None = None, b: float | None = None) -> np.ndarray:
    """tau = -kp <e1>^a - kd <e2>^b - kd_lin e2 + Psi theta_hat_u.

    <.>^p is the elementwise signed power; a = b = 1 gives the plain adaptive
    PD structure.
    """
    a = gains.a if a is None else a
    b = gains.b if b is None else b
    return (-gains.kp * mathx.signed_power_vec(e1, a)
            - gains.kd * mathx.signed_power_vec(e2, b)
            - gains.kd_lin * np.asarray(e2, dtype=float)
            + psi @ theta_hat_u)


@dataclass(frozen=True)
class CompositeAdaptGains:
    """Weights of the composite update law.

    gamma1/d1 scale the tanh position term, gamma1+gamma2 the velocity term
    and the indirect (mixed-regression) term; gamma_diag and upsilon_diag are
    the diagonal adaptation gains.  sat_c must equal the controller exponent b
    for the prediction error to factor cleanly; sat_d only shapes the
    saturation.
    """

    gamma1: float = 0.3
    gamma2: float = 0.7
    d1: float = 5.0
    gamma_diag: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0]))
    upsilon_diag: np.ndarray = field(default_factory=lambda: np.array([50.0, 50.0]))
    sat_c: float = 0.5
    sat_d: float = 0.5

    def __post_init__(self):
        for name in ("gamma_diag", "upsilon_diag"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"{name} diagonal must be positive")
        if not (self.gamma1 > 0.0 and self.gamma2 > 0.0 and self.d1 > 0.0):
            raise ValueError("gamma1, gamma2 and d1 must be positive")
        if not 0.0 < self.sat_c < 1.0:
            raise ValueError("sat_c must lie in (0, 1)")
        if not self.sat_d > 0.0:
            raise ValueError("sat_d must be positive")

    # the instance is frozen, so derived constants are computed once
    @cached_property
    def g12(self) -> float:
        return self.gamma1 + self.gamma2

    @cached_property
    def g1d1(self) -> float:
        return self.gamma1 * self.d1

    @cached_property
    def indirect_gain(self) -> np.ndarray:
        return self.g12 * self.upsilon_diag

    @cached_property
    def neg_gamma_diag(self) -> np.ndarray:
        return -self.gamma_diag


def saturation(delta: float, c: float, d: float) -> float:
    """Odd, bounded gain <delta>^d / (1 + |delta|^(c+d))."""
    num = mathx.signed_power(delta, d)
    return num / (1.0 + abs(float(delta)) ** (c + d))


def excitation_gain(delta: float, b: float, d: float) -> float:
    """saturation(delta) * <delta>^b; equals |delta|^(b+d) / (1 + |delta|^(b+d))
    when the saturation exponent c equals b, hence always in [0, 1)."""
    if delta == 0.0:
        return 0.0
    return saturation(delta, b, d) * mathx.signed_power(delta, b)


def prediction_error_vector(delta: float, theta_hat_u, y_u, c: float) -> np.ndarray:
    """Componentwise <delta * theta_hat_u - y_u>^c.

    When y_u = delta * theta_u exactly, this factors into
    <delta>^c <theta_hat_u - theta_u>^c.
    """
    return mathx.signed_power_vec(delta * np.asarray(theta_hat_u, dtype=float)
                                  - np.asarray(y_u, dtype=float), c)


def composite_adapt_rate(e1, e2, psi, theta_hat_u, mixed: MixedRegression,
                         gains: CompositeAdaptGains) -> np.ndarray:
    """Time derivative of theta_hat_u under the composite law."""
    direct = psi.T @ (gains.g1d1 * np.tanh(np.asarray(e1, dtype=float))
                      + gains.g12 * np.asarray(e2, dtype=float))
    xi = prediction_error_vector(mixed.delta, theta_hat_u, mixed.Y_u, gains.sat_c)
    f_gain = saturation(mixed.delta, gains.sat_c, gains.sat_d)
    indirect = gains.indirect_gain * f_gain * xi
    return gains.neg_gamma_diag * (direct + indirect)


class CompositeFtController:
    """Stateful wrapper pairing the fractional PD law with the composite
    estimator; owns only theta_hat_u."""

    def __init__(self, ftpd: FtPdGains, adapt: CompositeAdaptGains, theta_hat0=None):
        self.ftpd = ftpd
        self.adapt = adapt
        j = adapt.gamma_diag.size
        self.theta_hat_u = (np.zeros(j) if theta_hat0 is None
                            else np.asarray(theta_hat0, dtype=float).copy())
        if self.theta_hat_u.shape != (j,):
            raise ValueError("theta_hat0 length does not match the adaptation gains")

    def torque(self, e1, e2, psi) -> np.ndarray:
        return ftpd_torque(e1, e2, psi, self.theta_hat_u, self.ftpd)

    def adapt_rate(self, e1, e2, psi, mixed: MixedRegression) -> np.ndarray:
        return composite_adapt_rate(e1, e2, psi, self.theta_hat_u, mixed, self.adapt)

    def advance(self, rate, dt: float) -> None:
        self.theta_hat_u = self.theta_hat_u + dt * rate


def slotine_li_regressor(q, qd, qd_r, qdd_r) -> np.ndarray:
    """Two-link tracking regressor W with
    W(q, qd, qd_r, qdd_r) theta = M(q) qdd_r + C(q, qd) qd_r + g(q)."""
    q1, q2 = np.asarray(q, dtype=float).tolist()
    qd1, qd2 = np.asarray(qd, dtype=float).tolist()
    r1, r2 = np.asarray(qd_r, dtype=float).tolist()
    a1, a2 = np.asarray(qdd_r, dtype=float).tolist()
    c2 = math.cos(q2)
    s2 = math.sin(q2)
    s12 = math.sin(q1 + q2)
    w12 = c2 * (2.0 * a1 + a2) - s2 * (qd2 * r1 + (qd1 + qd2) * r2)
    w21 = c2 * a1 + s2 * qd1 * r1
    return np.array([
        [a1, w12, a2, s12, math.sin(q1)],
        [0.0, w21, a1 + a2, s12, 0.0],
    ])


def _unit_or_zero(v: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.zeros_like(v)
    return v / norm


@dataclass(frozen=True)
class TsmParams:
    """Gains of the switching terminal-sliding-mode controller: k1 and ks act
    on the sliding variable, k2 shapes the virtual reference.  The estimator
    drift term is normalized on the nonlinear branch (gain pair gamma_tsm /
    k_tsm) and plain on the linear branch (gamma_lin / k_lin).  ``clamp``
    floors |e1| inside the singular exponent of the reference acceleration.
    """

    k1: float = 2.0
    k2: float = 1.5
    ks: float = 0.6
    gamma_tsm: float = 0.001
    k_tsm: float = 5000.0
    gamma_lin: float = 1.0
    k_lin: float = 50.0
    clamp: float = 1e-6

    def __post_init__(self):
        if not (self.k1 > 0.0 and self.k2 > 0.0 and self.ks >= 0.0):
            raise ValueError("k1, k2 must be positive and ks nonnegative")
        if not self.clamp > 0.0:
            raise ValueError("clamp must be positive")


class SwitchingTsmController:
    """Tracking-born switching controller applied to regulation.

    The active branch is a deterministic function of (e1, e2, q): the
    nonlinear branch runs while e2' M(q) e2 <= lam_max(M) |k2 <e1>^a|^2,
    the linear branch otherwise.  Estimates the full parameter vector.
    """

    def __init__(self, params: TsmParams, exponent_a: float, theta_hat0=None, dim: int = 5):
        self.params = params
        self.a = float(exponent_a)
        if not 0.0 < self.a < 1.0:
            raise ValueError("exponent a must lie in (0, 1)")
        self.theta_hat = (np.zeros(dim) if theta_hat0 is None
                          else np.asarray(theta_hat0, dtype=float).copy())
        self._w = None
        self._s = None
        self._nonlinear = True

    def switching_function(self, e1, e2, inertia: np.ndarray) -> float:
        p = self.params
        ref = p.k2 * mathx.signed_power_vec(e1, self.a)
        lam_max = mathx.max_eig_sym(inertia)
        return float(e2 @ inertia @ e2) - lam_max * float(ref @ ref)

    def torque(self, e1, e2, q, qd, inertia: np.ndarray) -> np.ndarray:
        """Branch selection plus torque; caches the regressor and sliding
        variable for the subsequent adaptation-rate evaluation."""
        p = self.params
        self._nonlinear = self.switching_function(e1, e2, inertia) <= 0.0
        if self._nonlinear:
            ref = mathx.signed_power_vec(e1, self.a)
            qd_r = -p.k2 * ref
            s = qd + p.k2 * ref
            clamped = np.maximum(np.abs(e1), p.clamp)
            qdd_r = -self.a * p.k2 * clamped ** (self.a - 1.0) * qd
        else:
            qd_r = -p.k2 * np.asarray(e1, dtype=float)
            s = qd + p.k2 * np.asarray(e1, dtype=float)
            qdd_r = -p.k2 * np.asarray(qd, dtype=float)
        self._w = slotine_li_regressor(q, qd, qd_r, qdd_r)
        self._s = s
        u_r = p.ks * _unit_or_zero(s)
        return self._w @ self.theta_hat - p.k1 * s - u_r

    @property
    def branch(self) -> str:
        return "tsm" if self._nonlinear else "linear"

    def adapt_rate(self, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
        """Estimator rate from the last torque evaluation and the current
        extension filter states."""
        if self._w is None:
            raise RuntimeError("torque() must be evaluated before adapt_rate()")
        p = self.params
        drift = phi2 @ self.theta_hat - phi1
        if self._nonlinear:
            return (-p.gamma_tsm * (self._w.T @ self._s)
                    - p.gamma_tsm * p.k_tsm * (phi2.T @ _unit_or_zero(drift)))
        return -p.gamma_lin * (self._w.T @ self._s) - p.gamma_lin * p.k_lin * drift

    def advance(self, rate, dt: float) -> None:
        self.theta_hat = self.theta_hat + dt * rate


@dataclass(frozen=True)
class SlotineLiLsParams:
    """Virtual-reference adaptive controller with least-squares gain: k1/k2
    and the unit-vector gain ks as in the switching controller's linear
    branch, and the gain matrix dynamics use the (alpha, beta0, p0, gain_cap)
    quadruple of the least-squares extension."""

    k1: float = 2.0
    k2: float = 1.5
    ks: float = 0.6
    alpha: float = 10.0
    beta0: float = 10.0
    p0: float = 1.0
    gain_cap: float = 10.0
    norm: str = "spectral"

    def __post_init__(self):
        if not (self.k1 > 0.0 and self.k2 > 0.0 and self.ks >= 0.0):
            raise ValueError("k1, k2 must be positive and ks nonnegative")
        if not (self.alpha > 0.0 and self.beta0 > 0.0 and self.p0 > 0.0):
            raise ValueError("alpha, beta0 and p0 must be positive")
        if not self.gain_cap >= 1.0 / self.p0:
            raise ValueError("gain_cap must be at least 1/p0")
        if self.norm not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm {self.norm!r}")


class SlotineLiLsController:
    """Linear virtual reference s = qd + k2 e1 with
    tau = W theta_hat - k1 s - ks s/|s|; the estimate integrates
    -P (W' s + Omega' e_p) where e_p = Omega theta_hat - y and P follows the
    norm-capped least-squares gain dynamics."""

    def __init__(self, params: SlotineLiLsParams, theta_hat0=None, dim: int = 5):
        self.params = params
        self.theta_hat = (np.zeros(dim) if theta_hat0 is None
                          else np.asarray(theta_hat0, dtype=float).copy())
        self.P = np.eye(dim) / params.p0
        self.last_beta = self.beta()
        self.last_e_p = None
        self._w = None
        self._s = None

    def beta(self) -> float:
        eigs = np.linalg.eigvalsh(self.P)
        if eigs[0] <= 0.0:
            raise NumericalDegeneracyError(
                "estimation gain matrix lost positive definiteness")
        if self.params.norm == "spectral":
            norm = float(eigs[-1])
        else:
            norm = float(np.sqrt(np.sum(self.P * self.P)))
        return self.params.beta0 * (1.0 - norm / self.params.gain_cap)

    def torque(self, e1, e2, q, qd) -> np.ndarray:
        p = self.params
        s = qd + p.k2 * np.asarray(e1, dtype=float)
        qd_r = -p.k2 * np.asarray(e1, dtype=float)
        qdd_r = -p.k2 * np.asarray(qd, dtype=float)
        self._w = slotine_li_regressor(q, qd, qd_r, qdd_r)
        self._s = s
        return self._w @ self.theta_hat - p.k1 * s - p.ks * _unit_or_zero(s)

    def rates(self, pair: RegressionPair):
        """(theta_hat rate, P rate) from the last torque evaluation and the
        current regression sample."""
        if self._w is None:
            raise RuntimeError("torque() must be evaluated before rates()")
        p = self.params
        e_p = pair.omega @ self.theta_hat - pair.y
        self.last_e_p = e_p
        theta_rate = -self.P @ (self._w.T @ self._s + pair.omega.T @ e_p)
        b = self.beta()
        self.last_beta = b
        p_om = self.P @ pair.omega.T
        p_rate = -p.alpha * (p_om @ p_om.T) + b * self.P
        return theta_rate, p_rate

    def advance(self, theta_rate, p_rate, dt: float) -> None:
        self.theta_hat = self.theta_hat + dt * theta_rate
        self.P = self.P + dt * p_rate
        self.P = 0.5 * (self.P + self.P.T)
