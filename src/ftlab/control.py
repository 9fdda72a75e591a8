"""The four set-point controllers.

* ``CompositeFtController`` (c1, c2): fractional-power PD feedback with
  adaptive gravity compensation, driven by a composite update law whose
  indirect part consumes the mixed scalar regression of the least-squares
  (c1) or the Kreisselmeier (c2) extension.
* ``SwitchingTsmController`` (c3): terminal-sliding-mode tracking controller
  applied to regulation, switching between a nonlinear and a linear virtual
  reference, with a normalized extension-based estimator.
* ``SlotineLiLsController`` (c4): classical virtual-reference adaptive
  controller with a time-varying least-squares estimation gain.

The runner knows the controllers only through their shared protocol: the
estimate ``estimate``, a tuple of floats; ``regression`` and ``extension``,
the filter and the extension the family builds at dt in ``from_config``;
the runner records the filter's [Omega | y] buffer and keeps the extension
in the trace, whose history ``drem.replay`` rebuilds from those pairs;
``diagnostics(n_rec)``, which allocates the series the family's step forms
(c1/c2's mixing record, c3's branch); ``step(k, e1, q, qd, psi)``, the one
call per sample; and ``dre``, the name of the extension it mixes from.
``step`` takes the measured signals (under set-point regulation e2 is qd
itself; c3 forms M(q) through its plant) and, in one method, forms the
torque, feeds the regression filter, steps the family's extension (c4: its
least-squares gain), mixes into sample k of its mixing record (c1, c2) or
takes Delta alone (c3), and Euler-steps the estimate at dt; it returns the
torque, a pair of floats, and Delta.
``FAMILIES`` maps the controller names to the classes, whose
``from_config`` builds one and ``check_config`` holds the family's rules.

The n = 2 arithmetic runs on Python floats: joint vectors are any
length-2 sequences (pairs of floats on the step path), Psi(q) and M(q)
any 2x2 row sequences.  The gain vectors are tuples of floats too,
checked positive at construction, and each family binds its gains and
exponents once, at construction, as the Python floats of ``_gains``, and
``_Estimate._start`` binds the step size ``dt`` as a float: a setting
given as a numpy scalar is converted there (the parameter objects keep
it as given), so the estimate stays a tuple of floats.  Only the l = 5
estimator algebra of c3 and c4 is numpy; c4 steps the least-squares
extension's gain (``drem.LeastSquaresDre``) rather than a gain of its
own.  Each step writes out what it takes: the composite law's seven
signed powers <z>^p = ``copysign(abs(z) ** p, z) if z else 0.0``, its
prediction error and saturation; and c3's <e1>^a, taken once for the
switching value and the nonlinear branch, and lambda_max(M).  c3 and c4
share one Slotine-Li kernel, which gives the torque and W' s.
``saturation`` is the checked form, of a float or an array, of the
composite update's saturation, and ``excitation_gain`` the zeta1
monitor's gain, both over ``mathx.signed_power_vec``.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import mathx
from .errors import ConfigError
from .drem import KreisselmeierDre, LeastSquaresDre, LsDreParams
from .regression import make_regression

_copysign, _tanh, _sqrt = math.copysign, math.tanh, math.sqrt


def _positive_diagonals(gains, *names: str) -> None:
    """Store each named field of the frozen ``gains`` as a tuple of floats,
    checked positive."""
    for name in names:
        value = tuple(np.asarray(getattr(gains, name), dtype=float).tolist())
        if not all(x > 0.0 for x in value):
            raise ValueError(f"{name} diagonal must be positive")
        object.__setattr__(gains, name, value)


@dataclass(frozen=True)
class FtPdGains:
    """Fractional PD gains and homogeneity exponents.

    The exponents derive from the weights r1, r2 through m_c = 2 r2 - r1,
    a = m_c / r1, b = m_c / r2; the admissible range 2 r2 > r1 > r2 > 0
    guarantees 1 > b > a > 0.  a = b = 1 (r1 = r2), the plain adaptive PD, is
    outside that range and deliberately not representable here.
    """

    kp: tuple = (3.0, 3.0)
    kd: tuple = (2.0, 2.0)
    kd_lin: tuple = (0.5, 0.5)
    r1: float = 1.5
    r2: float = 1.0

    def __post_init__(self):
        _positive_diagonals(self, "kp", "kd", "kd_lin")
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
    gamma_diag: tuple = (1.0, 1.0)
    upsilon_diag: tuple = (50.0, 50.0)
    sat_d: float = 0.5

    def __post_init__(self):
        _positive_diagonals(self, "gamma_diag", "upsilon_diag")
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


def saturation(delta, c: float, d: float):
    """Odd, bounded gain <delta>^d / (1 + |delta|^(c+d)).  Of a float, a
    float; of an array, an array; each entry the composite update's
    saturation of that delta bit for bit.  Where |delta|^(c+d) (or
    |delta|^d) overflows, 1 is below the last bit of the denominator and
    the gain is <delta>^-c, formed as that power, which cannot overflow
    (there |delta| > 1, and c > 0).  Raises ValueError on a non-finite
    delta or an exponent d or c + d that is not finite and positive."""
    power = mathx.signed_power_vec
    try:
        gain = power(delta, d) / (1.0 + power(np.abs(delta), c + d))
    except OverflowError:
        # the entries one at a time, each as the composite update forms it
        flat = []
        for x in np.ravel(delta).tolist():
            try:
                flat.append((_copysign(abs(x) ** d, x) if x else 0.0)
                            / (1.0 + abs(x) ** (c + d)))
            except OverflowError:
                flat.append(_copysign(abs(x) ** -c, x))
        gain = np.reshape(flat, np.shape(delta))
    return float(gain) if gain.ndim == 0 else gain


def excitation_gain(delta, b: float, d: float):
    """The zeta1 monitor's gain x / (1 + x), x = |delta|^(b+d), which is
    saturation(delta, b, d) * <delta>^b: 0.0 at delta = 0 and in [0, 1] for
    every finite delta.  Of a float, a float; of an array (the monitor's
    record of Delta), an array.  For |delta| <= 1 it is that product, the
    composite update's saturation times its <delta>^b, bit for bit.
    For |delta| > 1 it is 1 / (1 + |delta|^-(b+d)), within a few ulp of
    x / (1 + x): the product's roundings would leave [0, 1] there (at
    b = d = 0.5 it is 1.0000000000000002 at 1e17), so above |delta| = 1
    the monitor is not tied bit for bit to the update's kernels.  The two
    forms meet at |delta| = 1, where both are 0.5.  Raises ValueError on a
    non-finite delta or an exponent b or d that is not finite and
    positive."""
    delta = np.asarray(delta, dtype=float)
    if not np.isfinite(delta).all():
        raise ValueError("argument must be finite")
    big = np.abs(delta) > 1.0
    # the product runs on the entries up to 1, a copy only if any is above
    small = np.where(big, 0.0, delta) if big.any() else delta
    gain = np.asarray(saturation(small, b, d) * mathx.signed_power_vec(small, b))
    gain[big] = 1.0 / (1.0 + np.abs(delta[big]) ** -(b + d))
    return float(gain) if gain.ndim == 0 else gain


def _check_theta_hat0(config, dim: int) -> None:
    if config.theta_hat0 is not None and config.theta_hat0.shape != (dim,):
        raise ConfigError(f"theta_hat0 must have length {dim} for {config.controller}")


def _regression(config, plant):
    """The regression filter of ``config`` for ``plant``."""
    return make_regression(config.effective_parameterization, plant, config.q0, config.qd0,
                           config.effective_lambda0, config.lambda1, dt=config.dt)


class _Estimate:
    """The estimate as a tuple of floats, ``estimate``, which the runner
    records and each family's ``step`` advances at the step size ``dt``; and
    the regressor extension and the regression filter built at that step
    size, ``extension`` and ``regression``, which ``step`` steps."""

    estimate: tuple
    extension: object
    regression: object
    dt: float

    def _start(self, theta_hat0, dim: int, extension, regression, dt) -> None:
        self.estimate = ((0.0,) * dim if theta_hat0 is None
                         else tuple(np.asarray(theta_hat0, dtype=float).tolist()))
        if len(self.estimate) != dim:
            raise ValueError("theta_hat0 length does not match the estimate")
        self.extension, self.regression = extension, regression
        self.dt = None if dt is None else float(dt)


class CompositeFtController(_Estimate):
    """The fractional PD law with the composite estimator (c1, c2); the
    estimate is theta_u, whose mixed regression is the last entries of Y.

    The saturation exponent c of the update law is the PD exponent b: the
    closed-loop factorization requires c = b.
    """

    estimate_dim = 2

    def __init__(self, ftpd: FtPdGains, adapt: CompositeAdaptGains, theta_hat0=None,
                 extension=None, regression=None, dt=None):
        self.ftpd = ftpd
        self.adapt = adapt
        self._start(theta_hat0, len(adapt.gamma_diag), extension, regression, dt)
        self._mixing = None
        c, d = ftpd.b, adapt.sat_d
        self._gains = tuple(map(float, (*ftpd.kp, *ftpd.kd, *ftpd.kd_lin, ftpd.a, c, adapt.g1d1,
                                        adapt.g12, d, c + d, *adapt.gamma_diag,
                                        *adapt.upsilon_diag)))

    @classmethod
    def from_config(cls, config, plant) -> "CompositeFtController":
        dim = plant.theta.size
        extension = (LeastSquaresDre(dim, config.ls, dt=config.dt) if config.controller == "c1"
                     else KreisselmeierDre(dim, config.kreis, dt=config.dt))
        return cls(config.ftpd, config.adapt, config.theta_hat0, extension,
                   _regression(config, plant), config.dt)

    @classmethod
    def check_config(cls, config, theta_u) -> None:
        _check_theta_hat0(config, cls.estimate_dim)
        # on floats, whose overflow is inf without a numpy warning
        init = (0.0,) * cls.estimate_dim if config.theta_hat0 is None else config.theta_hat0
        bound = 2.0 * math.hypot(*config.theta_bar.tolist())
        if math.hypot(*[float(h) - u for h, u in zip(init, theta_u)]) > bound:
            raise ConfigError("theta_hat0 violates the initial-error bound "
                              "|theta_tilde(0)| <= 2 |theta_bar|")

    @property
    def dre(self) -> str:
        return self.extension.kind

    def step(self, k: int, e1, q, qd, psi) -> tuple:
        """tau = -kp <e1>^a - kd <e2>^b - kd_lin e2 + Psi theta_u (e2 = qd);
        then the filter and the extension step, the mix into row k of the
        mixing record that diagnostics() allocated, and the Euler step of
        the estimate at the composite rate
        -gamma (Psi' v + g12 upsilon sat(Delta) <Delta theta_hat - y_u>^c),
        v = g1d1 tanh(e1) + g12 e2, y_u theta_u's block of Y and the exponent
        c the PD exponent b; sat(Delta) = <Delta>^d / (1 + |Delta|^(c + d)),
        or <Delta>^-c where |Delta|^(c + d) overflows (see ``saturation``)."""
        (kp1, kp2, kd1, kd2, kl1, kl2, a, c, g1d1, g12, d, cd,
         gm1, gm2, u1, u2) = self._gains
        (e11, e12), (e21, e22), ((p11, p12), (p21, p22)) = e1, qd, psi
        t1, t2 = self.estimate
        dt = self.dt
        tau = (-kp1 * (_copysign(abs(e11) ** a, e11) if e11 else 0.0)
               - kd1 * (_copysign(abs(e21) ** c, e21) if e21 else 0.0)
               - kl1 * e21 + (p11 * t1 + p12 * t2),
               -kp2 * (_copysign(abs(e12) ** a, e12) if e12 else 0.0)
               - kd2 * (_copysign(abs(e22) ** c, e22) if e22 else 0.0)
               - kl2 * e22 + (p21 * t1 + p22 * t2))
        extension = self.extension
        extension.step(self.regression.step(q, qd, tau, psi))
        mixed = extension.mix(self._mixing[k])
        delta, y1, y2 = mixed[0], mixed[-2], mixed[-1]
        v1 = g1d1 * _tanh(e11) + g12 * e21
        v2 = g1d1 * _tanh(e12) + g12 * e22
        try:
            f_gain = ((_copysign(abs(delta) ** d, delta) if delta else 0.0)
                      / (1.0 + abs(delta) ** cd))
        except OverflowError:
            f_gain = _copysign(abs(delta) ** -c, delta)
        x1, x2 = delta * t1 - y1, delta * t2 - y2
        r1 = -gm1 * (p11 * v1 + p21 * v2
                     + g12 * u1 * f_gain * (_copysign(abs(x1) ** c, x1) if x1 else 0.0))
        r2 = -gm2 * (p12 * v1 + p22 * v2
                     + g12 * u2 * f_gain * (_copysign(abs(x2) ** c, x2) if x2 else 0.0))
        self.estimate = (t1 + dt * r1, t2 + dt * r2)
        return tau, delta

    def diagnostics(self, n_rec: int) -> dict:
        # one mixing row [Delta | Y] per sample, which step has the mix
        # write into; Y_mixed is its [:, 1:] view
        self._mixing = np.empty((n_rec, self.extension.dim + 1))
        return {"Y_mixed": self._mixing[:, 1:]}


def _slotine_li(q, qd, qd_r, qdd_r, s, theta_hat, k1: float, ks: float) -> tuple:
    """(tau, W' s) of the Slotine-Li law with the two-link tracking
    regressor W, W(q, qd, qd_r, qdd_r) theta = M(q) qdd_r + C(q, qd) qd_r
    + g(q): tau = W theta_hat - k1 s - ks s / |s| (the last term 0 at
    s = 0), and W' s the five floats a * s1 + b * s2 over W's columns."""
    (q1, q2), (qd1, qd2), (r1, r2), (a1, a2), (s1, s2) = q, qd, qd_r, qdd_r, s
    cos2, sin2 = math.cos(q2), math.sin(q2)
    s12 = math.sin(q1 + q2)
    w12 = cos2 * (2.0 * a1 + a2) - sin2 * (qd2 * r1 + (qd1 + qd2) * r2)
    w21 = cos2 * a1 + sin2 * qd1 * r1
    w1 = (a1, w12, a2, s12, math.sin(q1))
    w2 = (0.0, w21, a1 + a2, s12, 0.0)
    norm = _sqrt(s1 * s1 + s2 * s2)
    u1, u2 = (0.0, 0.0) if norm == 0.0 else (s1 / norm, s2 / norm)
    return ((sum(map(operator.mul, w1, theta_hat)) - k1 * s1 - ks * u1,
             sum(map(operator.mul, w2, theta_hat)) - k1 * s2 - ks * u2),
            (w1[0] * s1 + w2[0] * s2, w1[1] * s1 + w2[1] * s2, w1[2] * s1 + w2[2] * s2,
             w1[3] * s1 + w2[3] * s2, w1[4] * s1 + w2[4] * s2))


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
        for name in ("k1", "k2", "gamma_tsm", "k_tsm", "gamma_lin", "k_lin", "clamp"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.ks >= 0.0:
            raise ValueError("ks must be nonnegative")


class SwitchingTsmController(_Estimate):
    """Tracking-born switching controller applied to regulation (c3).

    The active branch is a deterministic function of (e1, e2, q): the
    nonlinear branch runs while e2' M(q) e2 <= lam_max(M) |k2 <e1>^a|^2,
    the linear branch otherwise.  Estimates the full parameter vector from
    the classical Kreisselmeier extension filters (lambda3 = 1).  ``plant``
    evaluates M(q) in step().
    """

    estimate_dim = 5
    dre = "kreisselmeier"

    def __init__(self, params: TsmParams, exponent_a: float, plant, theta_hat0=None,
                 extension=None, regression=None, dt=None):
        self.params = params
        self.a = a = float(exponent_a)
        if not 0.0 < a < 1.0:
            raise ValueError("exponent a must lie in (0, 1)")
        self._start(theta_hat0, self.estimate_dim, extension, regression, dt)
        self.plant = plant
        self._branch = None
        self._nonlinear = True
        p = params
        self._gains = tuple(map(float, (p.k1, p.k2, p.ks, p.clamp, a, -a * p.k2, p.gamma_tsm,
                                        p.gamma_tsm * p.k_tsm, p.gamma_lin,
                                        p.gamma_lin * p.k_lin)))

    @classmethod
    def from_config(cls, config, plant) -> "SwitchingTsmController":
        kreis = dataclasses.replace(config.kreis, lambda3=1.0)
        extension = KreisselmeierDre(plant.theta.size, kreis, dt=config.dt)
        return cls(config.tsm, config.ftpd.a, plant, config.theta_hat0, extension,
                   _regression(config, plant), config.dt)

    @classmethod
    def check_config(cls, config, theta_u) -> None:
        _check_theta_hat0(config, cls.estimate_dim)

    def step(self, k: int, e1, q, qd, psi) -> tuple:
        """Branch selection and torque, then the filter and the extension
        step, Delta = det(phi2) alone (the law reads no Y), and the Euler step
        of the estimate.  M(q) is the plant's; the velocity error e2 is qd.
        The switching value e2' M e2 - lam_max(M) |k2 <e1>^a|^2 selects the
        branch; <e1>^a is taken once, for it and for the nonlinear branch.
        The estimate rate is -gamma W' s minus gamma k times the drift
        phi2 theta_hat - phi1 (linear branch) or phi2' times its unit
        vector, 0 at zero drift (nonlinear branch), with phi1 and phi2 the
        extension's after its step.  The products with phi2 are numpy, where
        BLAS may fuse multiply-adds; the rest is floats."""
        k1, k2, ks, clamp, a, ref_gain, g_tsm, w_tsm, g_lin, w_lin = self._gains
        (e11, e12), (qd1, qd2), ((m11, m12), (m21, m22)) = e1, qd, self.plant.inertia_rows(q)
        pow1 = _copysign(abs(e11) ** a, e11) if e11 else 0.0
        pow2 = _copysign(abs(e12) ** a, e12) if e12 else 0.0
        ref1, ref2 = k2 * pow1, k2 * pow2
        # the upper eigenvalue of the symmetric 2x2 M
        lam_max = 0.5 * ((m11 + m22) + _sqrt((m11 - m22) ** 2 + 4.0 * m12 ** 2))
        nonlinear = ((qd1 * m11 + qd2 * m21) * qd1 + (qd1 * m12 + qd2 * m22) * qd2
                     - lam_max * (ref1 * ref1 + ref2 * ref2)) <= 0.0
        if nonlinear:
            qd_r = (-k2 * pow1, -k2 * pow2)
            s = (qd1 + ref1, qd2 + ref2)
            qdd_r = (ref_gain * max(abs(e11), clamp) ** (a - 1.0) * qd1,
                     ref_gain * max(abs(e12), clamp) ** (a - 1.0) * qd2)
        else:
            qd_r = (-k2 * e11, -k2 * e12)
            s = (qd1 + k2 * e11, qd2 + k2 * e12)
            qdd_r = (-k2 * qd1, -k2 * qd2)
        estimate = self.estimate
        tau, w_s = _slotine_li(q, qd, qd_r, qdd_r, s, estimate, k1, ks)
        extension = self.extension
        extension.step(self.regression.step(q, qd, tau, psi))
        delta = extension.delta()
        self._nonlinear = nonlinear
        self._branch[k] = 0 if nonlinear else 1
        phi1, phi2 = extension.phi1, extension.phi2
        # phi2 is a strided view of the extension's state, on which
        # phi2.dot(x) rounds differently from phi2 @ x: keep the matmul
        drift = phi2 @ np.array(estimate) - phi1
        if nonlinear:
            gain, weight = g_tsm, w_tsm
            # |drift| as np.linalg.norm computes it for a 1-D vector
            norm = _sqrt(drift.dot(drift))
            term = (phi2.T @ (drift / norm)).tolist() if norm else [0.0] * len(w_s)
        else:
            gain, weight = g_lin, w_lin
            term = drift.tolist()
        dt = self.dt
        updated = []
        for th, w, x in zip(estimate, w_s, term):
            updated.append(th + dt * (-gain * w - weight * x))
        self.estimate = tuple(updated)
        return tau, delta

    @property
    def branch(self) -> str:
        return "tsm" if self._nonlinear else "linear"

    def diagnostics(self, n_rec: int) -> dict:
        branch = np.empty(n_rec, dtype=np.int8)
        self._branch = memoryview(branch)
        return {"branch": branch}


class SlotineLiLsController(_Estimate):
    """Linear virtual reference s = qd + k2 e1 with
    tau = W theta_hat - k1 s - ks s/|s|; the estimate integrates
    -F (W' s + Omega' e_p) where e_p = Omega theta_hat - y and F is the gain
    of a least-squares extension, which follows the norm-capped least-squares
    gain dynamics from F(0) = I / f0 (c4).  It has no parameters of its own:
    k1, k2 and ks are the switching controller's (``tsm``), and alpha,
    beta0, f0, gain_cap and norm the least-squares extension's (``ls``).  It
    steps that extension for F but mixes nothing (Delta is 0), and needs the
    force-balance regression."""

    estimate_dim = 5
    dre = "none"

    def __init__(self, tsm: TsmParams, ls: LsDreParams, theta_hat0=None, regression=None, *,
                 dt: float):
        self.tsm = tsm
        self.ls = ls
        self._start(theta_hat0, self.estimate_dim,
                    LeastSquaresDre(self.estimate_dim, ls, dt=dt), regression, dt)
        self._gains = tuple(map(float, (tsm.k1, tsm.k2, tsm.ks)))

    @classmethod
    def from_config(cls, config, plant) -> "SlotineLiLsController":
        return cls(config.tsm, config.ls, config.theta_hat0, _regression(config, plant),
                   dt=config.dt)

    @classmethod
    def check_config(cls, config, theta_u) -> None:
        if config.effective_parameterization != "force_balance":
            raise ConfigError(f"controller {config.controller} requires the "
                              "force_balance parameterization")
        _check_theta_hat0(config, cls.estimate_dim)

    def step(self, k: int, e1, q, qd, psi) -> tuple:
        """The torque, then the filter step and the Euler step of the
        estimate at the rate -F (W' s + Omega' e_p), with the gain F the
        last step left, then the extension's step; nothing is mixed, so
        sample k has no mixing row and Delta is 0."""
        k1, k2, ks = self._gains
        (e11, e12), (qd1, qd2) = e1, qd
        s = (qd1 + k2 * e11, qd2 + k2 * e12)
        estimate = self.estimate
        tau, w_s = _slotine_li(q, qd, (-k2 * e11, -k2 * e12), (-k2 * qd1, -k2 * qd2), s,
                               estimate, k1, ks)
        dt = self.dt
        pair = self.regression.step(q, qd, tau, psi)
        omega = pair.omega
        e_p = omega.dot(estimate) - pair.y
        extension = self.extension
        # th + dt * -(F x) is th - dt * (F x), bit for bit
        updated = []
        for th, r in zip(estimate, extension.gain_times(np.add(w_s, e_p.dot(omega))).tolist()):
            updated.append(th - dt * r)
        self.estimate = tuple(updated)
        extension.step(pair)
        return tau, 0.0

    def diagnostics(self, n_rec: int) -> dict:
        return {}


# controller name -> family; c1 and c2 differ only in their extension, which
# the name fixes: least squares for c1, Kreisselmeier for c2
FAMILIES = {"c1": CompositeFtController, "c2": CompositeFtController,
            "c3": SwitchingTsmController, "c4": SlotineLiLsController}
CONTROLLERS = tuple(FAMILIES)


def make_controller(config, plant):
    """The controller ``config.controller`` names, built from ``config`` for
    ``plant``, its estimate started from config.theta_hat0 (zeros if unset)."""
    return FAMILIES[config.controller].from_config(config, plant)
