"""Online generation of the linear regression y = Omega theta.

Two parameterizations are provided:

* power balance: one scalar equation obtained by filtering the mechanical
  power qd' tau and the energy regressor;
* force balance: n equations obtained by filtering the joint torques and the
  basis force terms.

Both use stable first-order filters advanced by explicit Euler at the
step size ``dt`` a filter is built with (and checks positive then).
``step(q, qd, tau, psi)`` returns the regression pair sampled at the
incoming measurement (state before the update), then advances the filter
states; with the zero-transient initialization chosen here the identity
y = Omega theta holds exactly at t = 0 and the residual stays at the
integration-error level afterwards.  The filter states are Python floats
for the whole run: a filter converts q0 and qd0 to floats once, when it is
built (``_floats``), and its lambda0, lambda1 and dt too, so that given
float measurements, torque and Psi(q), as the runner and the controllers
pass them, every step is float arithmetic.  Each step writes out the
plant's basis terms it samples (the energy terms, or the basis forces and
their kinetic gradient, which share one cos and one sin of q2) in the
order of operations of ``Plant.energy_terms`` and
``Plant.basis_force_rows``, which start the filters; only the
force-balance filter samples ``psi``, Psi(q).  Each filter owns one
``RegressionPair`` for the whole run, ``pair``: a (n_out, l + 1) buffer
[Omega | y] that ``step`` overwrites with one ``struct`` pack per sample
(the bytes a float64 assignment of the same floats gives), and whose
``omega``, ``y`` and ``omega_t`` are views of it, built once.  The pair
``step`` returns is therefore valid until the next ``step``; a caller that
keeps a sample copies it.  ``step`` returns ``pair`` itself and no filter
rebinds ``pair`` or its buffer: the step loop records every sample through
one view of ``pair.aug``, taken before the first step.  Each controller
builds its filter with ``make_regression`` and steps it.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .plant import Plant


class RegressionPair:
    """One sample of the regression equation y = Omega theta, held as one
    (n_out, l + 1) buffer ``aug`` = [Omega | y]: ``omega`` (n_out, l),
    ``y`` (n_out,) and Omega' ``omega_t`` (l, n_out) are views of it, built
    once.  Built from y and Omega, it copies them
    into a new buffer; a regression filter builds one per run and rewrites
    its buffer in place every step."""

    __slots__ = ("aug", "omega", "y", "omega_t")

    def __init__(self, y, omega):
        omega = np.asarray(omega, dtype=float)
        self.aug = np.empty((len(omega), omega.shape[1] + 1))
        self.omega = self.aug[:, :-1]
        self.y = self.aug[:, -1]
        self.omega_t = self.omega.T
        self.omega[...] = omega
        self.y[...] = y


# one row [Omega | y] of 6 or two of 12 native float64s, written into the
# pair's buffer: the bytes numpy's float64 assignment of the same floats gives
_pack6 = struct.Struct("6d").pack_into
_pack12 = struct.Struct("12d").pack_into
_cos, _sin = math.cos, math.sin


def _floats(*vectors) -> list:
    """Each joint vector as a list of Python floats, whatever the caller
    passes: a state seeded from numpy scalars stays numpy scalars."""
    return [np.asarray(v, dtype=float).tolist() for v in vectors]


def _check_positive(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not positive."""
    for name, value in values.items():
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


class PowerBalanceRegression:
    """Scalar regression from the filtered power-balance identity.

    State: y (filtered power) and z (l,) with Omega' = z + lambda0 * omega(q, qd),
    where omega is the plant's energy regressor.  z(0) = -lambda0 * omega(q0, qd0)
    and y(0) = 0 make the residual vanish at t = 0.
    """

    def __init__(self, plant: Plant, q0, qd0, lambda0: float = 1.0, lambda1: float = 1.0, *,
                 dt: float):
        _check_positive(dt=dt, lambda0=lambda0, lambda1=lambda1)
        self.dt = float(dt)
        self.lambda0 = float(lambda0)
        self.lambda1 = float(lambda1)
        self._y = 0.0
        self._z = tuple(-self.lambda0 * w for w in plant.energy_terms(*_floats(q0, qd0)))
        self.pair = RegressionPair(np.zeros(1), np.zeros((1, 5)))
        self._buf = memoryview(self.pair.aug)

    @property
    def y(self) -> float:
        return self._y

    @property
    def z(self) -> np.ndarray:
        return np.array(self._z)

    def step(self, q, qd, tau, psi) -> RegressionPair:
        """Sample the pair at this measurement, then advance one Euler step.
        The pair is the filter's own, valid until the next step.  ``psi``
        is not used by this parameterization."""
        l0, l1, y, dt = self.lambda0, self.lambda1, self._y, self.dt
        # Plant.energy_terms
        q1, q2 = q
        qd1, qd2 = qd
        c2 = _cos(q2)
        w1, w2, w3 = (0.5 * (qd1 * qd1), 0.5 * ((2.0 * c2 * qd1 + c2 * qd2) * qd1 + c2 * qd1 * qd2),
                      0.5 * (qd2 * qd1 + (qd1 + qd2) * qd2))
        w4, w5 = -_cos(q1 + q2), -_cos(q1)
        z1, z2, z3, z4, z5 = self._z
        r1, r2, r3, r4, r5 = z1 + l0 * w1, z2 + l0 * w2, z3 + l0 * w3, z4 + l0 * w4, z5 + l0 * w5
        _pack6(self._buf, 0, r1, r2, r3, r4, r5, y)
        t1, t2 = tau
        power = qd1 * t1 + qd2 * t2
        self._y = y + dt * (-l1 * y + l0 * power)
        self._z = (z1 + dt * (-l1 * r1), z2 + dt * (-l1 * r2), z3 + dt * (-l1 * r3),
                   z4 + dt * (-l1 * r4), z5 + dt * (-l1 * r5))
        return self.pair


class ForceBalanceRegression:
    """Vector regression from the filtered force-balance equations.

    The inertia-side block is built from the filtered basis forces

        phi1_k = lambda0 M_k(q) qd + (lambda0 / 2 lambda1) grad_q(qd' M_k(q) qd)
        phi3_k = M_k(q) qd

    with Omega_d1 = z + lambda0 phi3, while the potential block Omega_d2 is the
    filtered gravity regressor Psi(q).  Initialization zeroes the t = 0
    residual for any initial state.  The states are rows of floats.
    """

    def __init__(self, plant: Plant, q0, qd0, lambda0: float = 1.0, lambda1: float = 1.0, *,
                 dt: float):
        _check_positive(dt=dt, lambda0=lambda0, lambda1=lambda1)
        self.dt = float(dt)
        self.lambda0 = float(lambda0)
        self.lambda1 = float(lambda1)
        self._grad_gain = self.lambda0 / (2.0 * self.lambda1)
        self._y = (0.0, 0.0)
        self._z = tuple(tuple(-self.lambda0 * f for f in row)
                        for row in plant.basis_force_rows(*_floats(q0, qd0)))
        self._omega_d2 = ((0.0, 0.0), (0.0, 0.0))
        self.pair = RegressionPair(np.zeros(2), np.zeros((2, 5)))
        self._buf = memoryview(self.pair.aug)

    @property
    def y(self) -> np.ndarray:
        return np.array(self._y)

    @property
    def z(self) -> np.ndarray:
        return np.array(self._z)

    def step(self, q, qd, tau, psi) -> RegressionPair:
        """Sample the pair at this measurement, then advance one Euler step.
        The pair is the filter's own, valid until the next step.  ``psi`` is
        the plant's Psi(q) at this measurement."""
        l0, l1, gg, dt = self.lambda0, self.lambda1, self._grad_gain, self.dt
        # Plant.basis_force_rows, times lambda0
        qd1, qd2 = qd
        c2, s2 = _cos(q[1]), _sin(q[1])
        f11, f12, f13 = l0 * qd1, l0 * (2.0 * c2 * qd1 + c2 * qd2), l0 * qd2
        f21, f22, f23 = l0 * 0.0, l0 * (c2 * qd1), l0 * (qd1 + qd2)
        (z11, z12, z13), (z21, z22, z23) = self._z
        (w11, w12), (w21, w22) = self._omega_d2
        (y1, y2), (t1, t2) = self._y, tau
        _pack12(self._buf, 0, z11 + f11, z12 + f12, z13 + f13, w11, w12, y1,
                z21 + f21, z22 + f22, z23 + f23, w21, w22, y2)
        # phi1 = lambda0 phi3 + grad_gain * kinetic gradient, whose one nonzero
        # entry is grad_q2(qd' M_2 qd) (M_2 alone depends on q); the zero
        # entries stay terms, as they carry the sign of a zero sum
        g22 = -2.0 * s2 * qd1 * (qd1 + qd2)
        f11, f12, f13 = f11 + gg * 0.0, f12 + gg * 0.0, f13 + gg * 0.0
        f21, f22, f23 = f21 + gg * 0.0, f22 + gg * g22, f23 + gg * 0.0
        (p11, p12), (p21, p22) = psi
        self._y = (y1 + dt * (-l1 * y1 + l0 * t1), y2 + dt * (-l1 * y2 + l0 * t2))
        self._z = ((z11 + dt * (-l1 * (z11 + f11)), z12 + dt * (-l1 * (z12 + f12)),
                    z13 + dt * (-l1 * (z13 + f13))),
                   (z21 + dt * (-l1 * (z21 + f21)), z22 + dt * (-l1 * (z22 + f22)),
                    z23 + dt * (-l1 * (z23 + f23))))
        self._omega_d2 = ((w11 + dt * (-l1 * w11 + l0 * p11), w12 + dt * (-l1 * w12 + l0 * p12)),
                          (w21 + dt * (-l1 * w21 + l0 * p21), w22 + dt * (-l1 * w22 + l0 * p22)))
        return self.pair


def make_regression(kind: str, plant: Plant, q0, qd0,
                    lambda0: float = 1.0, lambda1: float = 1.0, *, dt: float):
    """Factory keyed by the configuration value; the filter advances at the
    step size ``dt``."""
    if kind == "power_balance":
        return PowerBalanceRegression(plant, q0, qd0, lambda0, lambda1, dt=dt)
    if kind == "force_balance":
        return ForceBalanceRegression(plant, q0, qd0, lambda0, lambda1, dt=dt)
    raise ValueError(f"unknown parameterization {kind!r}")
