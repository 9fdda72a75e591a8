"""The four set-point controllers.

* ``CompositeFtController`` (used by runs c1 and c2): fractional-power PD
  feedback with adaptive gravity compensation, driven by a composite update
  law whose indirect part consumes the mixed scalar regression.
* ``SwitchingTsmController`` (c3): terminal-sliding-mode tracking controller
  applied to regulation, switching between a nonlinear and a linear virtual
  reference, with a normalized extension-based estimator.
* ``SlotineLiLsController`` (c4): classical virtual-reference adaptive
  controller with a time-varying least-squares estimation gain.

Torque and rate computations are pure given a state snapshot.  The runner
knows the controllers only through their shared protocol: the estimate
``estimate``, a tuple of floats (``theta_hat`` is its numpy view);
``torque(e1, e2, q, qd, psi, inertia)`` from the measured signals, a pair of
floats; ``update(pair, dt)``, which steps the family's regressor extension
(if any), mixes, adapts and returns Delta; ``diagnostics(n_rec)``,
``record(diag, k)`` and, once after the last step, ``finish(diag)`` for its
per-step series; and ``dre``, the name of its extension.  ``FAMILIES`` maps
the controller names to the classes, whose ``from_config`` builds one and
``check_config`` holds the family's rules.

The n = 2 arithmetic runs on Python floats: joint vectors are any length-2
sequences (pairs of floats on the step path), Psi(q) and M(q) any 2x2
row sequences.  The public functions below return numpy arrays of the same
kernels' results.  Only the l = 5 estimator algebra of c3 and c4 is numpy.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import mathx
from .mathx import matvec2, spow
from .errors import ConfigError, NumericalDegeneracyError
from .drem import KreisselmeierDre, LsDreParams, MixedRegression, make_dre
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

    @cached_property
    def diagonals(self) -> tuple:
        """(kp, kd, kd_lin) as tuples of floats."""
        return tuple(self.kp.tolist()), tuple(self.kd.tolist()), tuple(self.kd_lin.tolist())


def _ftpd(e1, e2, psi, theta_hat_u, gains: FtPdGains, a: float, b: float) -> tuple:
    (kp1, kp2), (kd1, kd2), (kl1, kl2) = gains.diagonals
    (e11, e12), (e21, e22) = e1, e2
    g1, g2 = matvec2(psi, theta_hat_u)
    return (-kp1 * spow(e11, a) - kd1 * spow(e21, b) - kl1 * e21 + g1,
            -kp2 * spow(e12, a) - kd2 * spow(e22, b) - kl2 * e22 + g2)


def ftpd_torque(e1, e2, psi, theta_hat_u, gains: FtPdGains,
                a: float | None = None, b: float | None = None) -> np.ndarray:
    """tau = -kp <e1>^a - kd <e2>^b - kd_lin e2 + Psi theta_hat_u.

    <.>^p is the elementwise signed power; a = b = 1 gives the plain adaptive
    PD structure.
    """
    return np.array(_ftpd(e1, e2, psi, theta_hat_u, gains,
                          gains.a if a is None else a, gains.b if b is None else b))


@dataclass(frozen=True)
class CompositeAdaptGains:
    """Weights of the composite update law.

    gamma1/d1 scale the tanh position term, gamma1+gamma2 the velocity term
    and the indirect (mixed-regression) term; gamma_diag and upsilon_diag are
    the diagonal adaptation gains.  sat_d shapes the saturation; its other
    exponent c is the controller's b, which the prediction error needs to
    factor cleanly, so the controller supplies it.
    """

    gamma1: float = 0.3
    gamma2: float = 0.7
    d1: float = 5.0
    gamma_diag: np.ndarray = field(default_factory=lambda: np.array([1.0, 1.0]))
    upsilon_diag: np.ndarray = field(default_factory=lambda: np.array([50.0, 50.0]))
    sat_d: float = 0.5

    def __post_init__(self):
        for name in ("gamma_diag", "upsilon_diag"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"{name} diagonal must be positive")
        if not (self.gamma1 > 0.0 and self.gamma2 > 0.0 and self.d1 > 0.0):
            raise ValueError("gamma1, gamma2 and d1 must be positive")
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

    @cached_property
    def diagonals(self) -> tuple:
        """(indirect_gain, neg_gamma_diag) as tuples of floats."""
        return tuple(self.indirect_gain.tolist()), tuple(self.neg_gamma_diag.tolist())


def sat(delta: float, c: float, d: float) -> float:
    """``saturation`` of a float, unchecked: the step loop calls it on a
    Delta that the mixing has checked finite."""
    return spow(delta, d) / (1.0 + abs(delta) ** (c + d))


def exc_gain(delta: float, b: float, d: float) -> float:
    """``excitation_gain`` of a float, unchecked (0.0 at delta = 0)."""
    return sat(delta, b, d) * spow(delta, b)


def saturation(delta: float, c: float, d: float) -> float:
    """Odd, bounded gain <delta>^d / (1 + |delta|^(c+d)).  Raises
    ValueError on a non-finite delta or an exponent d that is not finite
    and positive."""
    return sat(mathx.check_power_args(delta, d), c, d)


def excitation_gain(delta: float, b: float, d: float) -> float:
    """saturation(delta) * <delta>^b; equals |delta|^(b+d) / (1 + |delta|^(b+d))
    when the saturation exponent c equals b, hence always in [0, 1).  0.0 at
    delta = 0; otherwise delta, b and d are checked as in ``saturation``."""
    if delta == 0.0:
        return 0.0
    delta = mathx.check_power_args(delta, d)
    mathx.check_power_args(delta, b)
    return exc_gain(delta, b, d)


def _prediction_error(delta: float, theta_hat_u, y_u, c: float) -> tuple:
    (t1, t2), (y1, y2) = theta_hat_u, y_u
    return spow(delta * t1 - y1, c), spow(delta * t2 - y2, c)


def prediction_error_vector(delta: float, theta_hat_u, y_u, c: float) -> np.ndarray:
    """Componentwise <delta * theta_hat_u - y_u>^c.

    When y_u = delta * theta_u exactly, this factors into
    <delta>^c <theta_hat_u - theta_u>^c.
    """
    return np.array(_prediction_error(delta, theta_hat_u, y_u, c))


def _composite_rate(e1, e2, psi, theta_hat_u, delta: float, y_u,
                    gains: CompositeAdaptGains, c: float) -> tuple:
    (e11, e12), (e21, e22), ((p11, p12), (p21, p22)) = e1, e2, psi
    g1d1, g12 = gains.g1d1, gains.g12
    v1 = g1d1 * math.tanh(e11) + g12 * e21
    v2 = g1d1 * math.tanh(e12) + g12 * e22
    xi1, xi2 = _prediction_error(delta, theta_hat_u, y_u, c)
    f_gain = sat(delta, c, gains.sat_d)
    (i1, i2), (n1, n2) = gains.diagonals
    # -gamma (direct + indirect), the direct term being Psi' v
    return (n1 * (p11 * v1 + p21 * v2 + i1 * f_gain * xi1),
            n2 * (p12 * v1 + p22 * v2 + i2 * f_gain * xi2))


def composite_adapt_rate(e1, e2, psi, theta_hat_u, mixed: MixedRegression,
                         gains: CompositeAdaptGains, c: float) -> np.ndarray:
    """Time derivative of theta_hat_u under the composite law, with
    saturation and prediction-error exponent c (the controller's b)."""
    return np.array(_composite_rate(e1, e2, psi, theta_hat_u, mixed.delta,
                                    mixed.Y_u.tolist(), gains, c))


def _check_theta_hat0(config, dim: int) -> None:
    if config.theta_hat0 is not None and config.theta_hat0.shape != (dim,):
        raise ConfigError(f"theta_hat0 must have length {dim} for {config.controller}")


class _Estimate:
    """The estimate as a tuple of floats, ``estimate``, which the runner
    reads and records, with ``theta_hat`` as its numpy view."""

    estimate: tuple

    @property
    def theta_hat(self) -> np.ndarray:
        return np.array(self.estimate)

    @theta_hat.setter
    def theta_hat(self, value) -> None:
        self.estimate = tuple(np.asarray(value, dtype=float).tolist())

    def finish(self, diag: dict) -> None:
        """Complete the recorded series after the last step; a family whose
        record is complete as the steps wrote it has nothing to do."""

    def _start(self, theta_hat0, dim: int) -> None:
        self.theta_hat = np.zeros(dim) if theta_hat0 is None else theta_hat0
        if len(self.estimate) != dim:
            raise ValueError("theta_hat0 length does not match the estimate")


class CompositeFtController(_Estimate):
    """The fractional PD law with the composite estimator (c1, c2), driven by
    a regressor extension; the estimate is theta_u.

    The saturation exponent c of the update law is the PD exponent b: the
    closed-loop factorization requires c = b.
    """

    estimate_dim = 2

    def __init__(self, ftpd: FtPdGains, adapt: CompositeAdaptGains, theta_hat0=None,
                 extension=None):
        self.ftpd = ftpd
        self.adapt = adapt
        self.extension = extension
        self._start(theta_hat0, adapt.gamma_diag.size)
        self.mixed = None
        self._e1 = self._e2 = self._psi = None

    @classmethod
    def from_config(cls, config, plant) -> "CompositeFtController":
        theta = plant.theta
        extension = make_dre(config.dre or DEFAULT_DRE[config.controller],
                             theta.size, theta.theta_u.size,
                             ls_params=config.ls, kreis_params=config.kreis)
        return cls(config.ftpd, config.adapt, config.theta_hat0, extension)

    @classmethod
    def check_config(cls, config, theta_u) -> None:
        _check_theta_hat0(config, cls.estimate_dim)
        init = config.theta_hat0 if config.theta_hat0 is not None else np.zeros(cls.estimate_dim)
        if np.linalg.norm(init - theta_u) > 2.0 * np.linalg.norm(config.theta_bar):
            raise ConfigError("theta_hat0 violates the initial-error bound "
                              "|theta_tilde(0)| <= 2 |theta_bar|")

    @property
    def dre(self) -> str:
        return self.extension.kind

    def torque(self, e1, e2, q, qd, psi, inertia) -> tuple:
        self._e1, self._e2, self._psi = e1, e2, psi
        ftpd = self.ftpd
        return _ftpd(e1, e2, psi, self.estimate, ftpd, ftpd.a, ftpd.b)

    def adapt_rate(self, e1, e2, psi, mixed: MixedRegression) -> tuple:
        return _composite_rate(e1, e2, psi, self.estimate, mixed.delta,
                               mixed.Y_u.tolist(), self.adapt, self.ftpd.b)

    def advance(self, rate, dt: float) -> None:
        self.estimate = tuple(th + dt * r for th, r in zip(self.estimate, rate))

    def update(self, pair: RegressionPair, dt: float) -> float:
        self.extension.step(pair, dt)
        self.mixed = self.extension.mix()
        self.advance(self.adapt_rate(self._e1, self._e2, self._psi, self.mixed), dt)
        return self.mixed.delta

    def diagnostics(self, n_rec: int) -> dict:
        return {"Y_mixed": np.empty((n_rec, self.extension.dim)),
                **self.extension.diagnostics(n_rec)}

    def record(self, diag: dict, k: int) -> None:
        diag["Y_mixed"][k] = self.mixed.Y
        self.extension.record(diag, k)

    def finish(self, diag: dict) -> None:
        self.extension.finish(diag)


def _slotine_li_rows(q, qd, qd_r, qdd_r) -> tuple:
    (q1, q2), (qd1, qd2), (r1, r2), (a1, a2) = q, qd, qd_r, qdd_r
    c2 = math.cos(q2)
    s2 = math.sin(q2)
    s12 = math.sin(q1 + q2)
    w12 = c2 * (2.0 * a1 + a2) - s2 * (qd2 * r1 + (qd1 + qd2) * r2)
    w21 = c2 * a1 + s2 * qd1 * r1
    return ((a1, w12, a2, s12, math.sin(q1)), (0.0, w21, a1 + a2, s12, 0.0))


def slotine_li_regressor(q, qd, qd_r, qdd_r) -> np.ndarray:
    """Two-link tracking regressor W with
    W(q, qd, qd_r, qdd_r) theta = M(q) qdd_r + C(q, qd) qd_r + g(q)."""
    return np.array(_slotine_li_rows(q, qd, qd_r, qdd_r))


def _slotine_li_torque(w, theta_hat, s, k1: float, ks: float) -> tuple:
    """W theta_hat - k1 s - ks s / |s| (the last term 0 at s = 0)."""
    (w1, w2), (s1, s2) = w, s
    norm = math.sqrt(s1 * s1 + s2 * s2)
    u1, u2 = (0.0, 0.0) if norm == 0.0 else (s1 / norm, s2 / norm)
    return (sum(map(operator.mul, w1, theta_hat)) - k1 * s1 - ks * u1,
            sum(map(operator.mul, w2, theta_hat)) - k1 * s2 - ks * u2)


def _regressor_times(w, s) -> np.ndarray:
    """W' s for the two rows of W."""
    (w1, w2), (s1, s2) = w, s
    return np.array([a * s1 + b * s2 for a, b in zip(w1, w2)])


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


class SwitchingTsmController(_Estimate):
    """Tracking-born switching controller applied to regulation (c3).

    The active branch is a deterministic function of (e1, e2, q): the
    nonlinear branch runs while e2' M(q) e2 <= lam_max(M) |k2 <e1>^a|^2,
    the linear branch otherwise.  Estimates the full parameter vector from
    the classical Kreisselmeier extension filters (lambda3 = 1).  ``plant``
    evaluates M(q) when the caller of torque() has not.
    """

    estimate_dim = 5
    dre = "kreisselmeier"

    def __init__(self, params: TsmParams, exponent_a: float, theta_hat0=None,
                 plant=None, extension=None):
        self.params = params
        self.a = float(exponent_a)
        if not 0.0 < self.a < 1.0:
            raise ValueError("exponent a must lie in (0, 1)")
        self._start(theta_hat0, self.estimate_dim)
        self.plant = plant
        self.extension = extension
        self.mixed = None
        self._w = None
        self._s = None
        self._nonlinear = True

    @classmethod
    def from_config(cls, config, plant) -> "SwitchingTsmController":
        theta = plant.theta
        kreis = dataclasses.replace(config.kreis, lambda3=1.0)
        extension = KreisselmeierDre(theta.size, theta.theta_u.size, kreis)
        return cls(config.tsm, config.ftpd.a, config.theta_hat0, plant, extension)

    @classmethod
    def check_config(cls, config, theta_u) -> None:
        _check_theta_hat0(config, cls.estimate_dim)

    def switching_function(self, e1, e2, inertia) -> float:
        """e2' M e2 - lam_max(M) |k2 <e1>^a|^2, with M = ``inertia``."""
        k2, a = self.params.k2, self.a
        (e11, e12), (e21, e22), ((m11, m12), (m21, m22)) = e1, e2, inertia
        ref1, ref2 = k2 * spow(e11, a), k2 * spow(e12, a)
        lam_max = mathx.eig_sym2(m11, m12, m22)[1]
        return ((e21 * m11 + e22 * m21) * e21 + (e21 * m12 + e22 * m22) * e22
                - lam_max * (ref1 * ref1 + ref2 * ref2))

    def torque(self, e1, e2, q, qd, psi, inertia) -> tuple:
        """Branch selection plus torque; caches the regressor and sliding
        variable for the subsequent adaptation-rate evaluation.  ``inertia``
        is M(q), or None to have the plant evaluate it."""
        p = self.params
        k2, a = p.k2, self.a
        if inertia is None:
            inertia = self.plant.inertia_rows(q)
        self._nonlinear = self.switching_function(e1, e2, inertia) <= 0.0
        (e11, e12), (qd1, qd2) = e1, qd
        if self._nonlinear:
            ref1, ref2 = spow(e11, a), spow(e12, a)
            qd_r = (-k2 * ref1, -k2 * ref2)
            s = (qd1 + k2 * ref1, qd2 + k2 * ref2)
            gain = -a * k2
            qdd_r = (gain * max(abs(e11), p.clamp) ** (a - 1.0) * qd1,
                     gain * max(abs(e12), p.clamp) ** (a - 1.0) * qd2)
        else:
            qd_r = (-k2 * e11, -k2 * e12)
            s = (qd1 + k2 * e11, qd2 + k2 * e12)
            qdd_r = (-k2 * qd1, -k2 * qd2)
        self._w = _slotine_li_rows(q, qd, qd_r, qdd_r)
        self._s = s
        return _slotine_li_torque(self._w, self.estimate, s, p.k1, p.ks)

    @property
    def branch(self) -> str:
        return "tsm" if self._nonlinear else "linear"

    def adapt_rate(self, phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
        """Estimator rate from the last torque evaluation and the current
        extension filter states."""
        if self._w is None:
            raise RuntimeError("torque() must be evaluated before adapt_rate()")
        p = self.params
        w_s = _regressor_times(self._w, self._s)
        drift = phi2 @ self.theta_hat - phi1
        if self._nonlinear:
            return (-p.gamma_tsm * w_s
                    - p.gamma_tsm * p.k_tsm * (phi2.T @ _unit_or_zero(drift)))
        return -p.gamma_lin * w_s - p.gamma_lin * p.k_lin * drift

    def advance(self, rate, dt: float) -> None:
        self.estimate = tuple(th + dt * r for th, r in zip(self.estimate, rate.tolist()))

    def update(self, pair: RegressionPair, dt: float) -> float:
        extension = self.extension
        extension.step(pair, dt)
        self.mixed = extension.mix()
        self.advance(self.adapt_rate(extension.phi1, extension.phi2), dt)
        return self.mixed.delta

    def diagnostics(self, n_rec: int) -> dict:
        return {"Y_mixed": np.empty((n_rec, self.extension.dim)),
                **self.extension.diagnostics(n_rec), "branch": np.empty(n_rec, dtype=np.int8)}

    def record(self, diag: dict, k: int) -> None:
        diag["Y_mixed"][k] = self.mixed.Y
        self.extension.record(diag, k)
        diag["branch"][k] = 0 if self._nonlinear else 1


class SlotineLiLsController(_Estimate):
    """Linear virtual reference s = qd + k2 e1 with
    tau = W theta_hat - k1 s - ks s/|s|; the estimate integrates
    -P (W' s + Omega' e_p) where e_p = Omega theta_hat - y and P follows the
    norm-capped least-squares gain dynamics from P(0) = I / f0 (c4).  It has
    no parameters of its own: k1, k2 and ks are the switching controller's
    (``tsm``), and alpha, beta0, f0, gain_cap and norm the least-squares
    extension's (``ls``).  It runs no regressor extension (Delta is 0) and
    needs the force-balance regression."""

    estimate_dim = 5
    dre = "none"

    def __init__(self, tsm: TsmParams, ls: LsDreParams, theta_hat0=None):
        self.tsm = tsm
        self.ls = ls
        self._start(theta_hat0, self.estimate_dim)
        self.P = np.eye(self.estimate_dim) / ls.f0
        self.last_beta = self.beta()
        self.last_e_p = None
        self._w = None
        self._s = None

    @classmethod
    def from_config(cls, config, plant) -> "SlotineLiLsController":
        return cls(config.tsm, config.ls, config.theta_hat0)

    @classmethod
    def check_config(cls, config, theta_u) -> None:
        if config.effective_parameterization != "force_balance":
            raise ConfigError(f"controller {config.controller} requires the "
                              "force_balance parameterization")
        _check_theta_hat0(config, cls.estimate_dim)

    def beta(self) -> float:
        eigs = np.linalg.eigvalsh(self.P)
        if eigs[0] <= 0.0:
            raise NumericalDegeneracyError(
                "estimation gain matrix lost positive definiteness")
        if self.ls.norm == "spectral":
            norm = float(eigs[-1])
        else:
            norm = float(np.sqrt(np.sum(self.P * self.P)))
        return self.ls.beta0 * (1.0 - norm / self.ls.gain_cap)

    def torque(self, e1, e2, q, qd, psi, inertia) -> tuple:
        p = self.tsm
        k2 = p.k2
        (e11, e12), (qd1, qd2) = e1, qd
        s = (qd1 + k2 * e11, qd2 + k2 * e12)
        self._w = _slotine_li_rows(q, qd, (-k2 * e11, -k2 * e12), (-k2 * qd1, -k2 * qd2))
        self._s = s
        return _slotine_li_torque(self._w, self.estimate, s, p.k1, p.ks)

    def rates(self, pair: RegressionPair):
        """(theta_hat rate, P rate) from the last torque evaluation and the
        current regression sample."""
        if self._w is None:
            raise RuntimeError("torque() must be evaluated before rates()")
        e_p = pair.omega @ self.theta_hat - pair.y
        self.last_e_p = e_p
        theta_rate = -self.P @ (_regressor_times(self._w, self._s) + pair.omega.T @ e_p)
        b = self.beta()
        self.last_beta = b
        p_om = self.P @ pair.omega.T
        p_rate = -self.ls.alpha * (p_om @ p_om.T) + b * self.P
        return theta_rate, p_rate

    def advance(self, theta_rate, p_rate, dt: float) -> None:
        self.estimate = tuple(th + dt * r for th, r in zip(self.estimate, theta_rate.tolist()))
        self.P = self.P + dt * p_rate
        self.P = 0.5 * (self.P + self.P.T)

    def update(self, pair: RegressionPair, dt: float) -> float:
        theta_rate, p_rate = self.rates(pair)
        self.advance(theta_rate, p_rate, dt)
        return 0.0

    def diagnostics(self, n_rec: int) -> dict:
        l_dim = self.estimate_dim
        # e_p has one entry per force-balance equation of the two-link arm
        return {"P": np.empty((n_rec, l_dim, l_dim)), "e_p": np.empty((n_rec, 2)),
                "beta": np.empty(n_rec)}

    def record(self, diag: dict, k: int) -> None:
        diag["P"][k] = self.P
        diag["e_p"][k] = self.last_e_p
        diag["beta"][k] = self.last_beta


# controller name -> family; c1 and c2 differ only in their default extension
FAMILIES = {"c1": CompositeFtController, "c2": CompositeFtController,
            "c3": SwitchingTsmController, "c4": SlotineLiLsController}
CONTROLLERS = tuple(FAMILIES)
DEFAULT_DRE = {"c1": "least_squares", "c2": "kreisselmeier"}


def make_controller(config, plant):
    """The controller ``config.controller`` names, built from ``config`` for
    ``plant``, its estimate started from config.theta_hat0 (zeros if unset)."""
    return FAMILIES[config.controller].from_config(config, plant)
