"""Online generation of the linear regression y = Omega theta.

Two parameterizations are provided:

* power balance: one scalar equation obtained by filtering the mechanical
  power qd' tau and the energy regressor;
* force balance: n equations obtained by filtering the joint torques and the
  basis force terms.

Both use stable first-order filters advanced with the global explicit-Euler
step.  ``step`` returns the regression pair sampled at the incoming
measurement (state before the update), then advances the filter states; with
the zero-transient initialization chosen here the identity y = Omega theta
holds exactly at t = 0 and the residual stays at the integration-error level
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plant import Plant


@dataclass
class RegressionPair:
    """One sample of the regression equation: y (n_out,) and Omega (n_out, l)."""

    y: np.ndarray
    omega: np.ndarray


def _check_filter_constants(lambda0: float, lambda1: float):
    if not lambda0 > 0.0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    if not lambda1 > 0.0:
        raise ValueError(f"lambda1 must be positive, got {lambda1}")


class PowerBalanceRegression:
    """Scalar regression from the filtered power-balance identity.

    State: y (filtered power) and z (l,) with Omega' = z + lambda0 * omega(q, qd),
    where omega is the plant's energy regressor.  z(0) = -lambda0 * omega(q0, qd0)
    and y(0) = 0 make the residual vanish at t = 0.
    """

    def __init__(self, plant: Plant, q0, qd0, lambda0: float = 1.0, lambda1: float = 1.0):
        _check_filter_constants(lambda0, lambda1)
        self.plant = plant
        self.lambda0 = float(lambda0)
        self.lambda1 = float(lambda1)
        self._y = 0.0
        self._z = -self.lambda0 * plant.energy_regressor(q0, qd0)

    @property
    def y(self) -> float:
        return self._y

    @property
    def z(self) -> np.ndarray:
        return self._z.copy()

    def step(self, q, qd, tau, dt: float, psi=None, stack=None) -> RegressionPair:
        """Sample the pair at this measurement, then advance one Euler step.
        ``stack`` is the plant's inertia_basis(q), for a caller that has it
        already; ``psi`` is not used by this parameterization."""
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        qd = np.asarray(qd, dtype=float)
        omega = self.plant.energy_regressor(q, qd, stack)
        row = self._z + self.lambda0 * omega
        pair = RegressionPair(y=np.array([self._y]), omega=row[None, :])
        power = float(qd @ np.asarray(tau, dtype=float))
        self._y += dt * (-self.lambda1 * self._y + self.lambda0 * power)
        self._z += dt * (-self.lambda1 * row)
        return pair


class ForceBalanceRegression:
    """Vector regression from the filtered force-balance equations.

    The inertia-side block is built from the filtered basis forces

        phi1_k = lambda0 M_k(q) qd + (lambda0 / 2 lambda1) grad_q(qd' M_k(q) qd)
        phi3_k = M_k(q) qd

    with Omega_d1 = z + lambda0 phi3, while the potential block Omega_d2 is the
    filtered gravity regressor Psi(q).  Initialization zeroes the t = 0
    residual for any initial state.
    """

    def __init__(self, plant: Plant, q0, qd0, lambda0: float = 1.0, lambda1: float = 1.0):
        _check_filter_constants(lambda0, lambda1)
        self.plant = plant
        self.lambda0 = float(lambda0)
        self.lambda1 = float(lambda1)
        n, nu = plant.basis.n, plant.basis.n_potential
        self._n_inertia = plant.basis.n_inertia
        self._grad_gain = self.lambda0 / (2.0 * self.lambda1)
        self._y = np.zeros(n)
        self._z = -self.lambda0 * self._phi3(q0, qd0)
        self._omega_d2 = np.zeros((n, nu))

    @property
    def y(self) -> np.ndarray:
        return self._y.copy()

    @property
    def z(self) -> np.ndarray:
        return self._z.copy()

    def _phi3(self, q, qd, stack=None) -> np.ndarray:
        if stack is None:
            stack = self.plant.basis.inertia_basis(np.asarray(q, dtype=float))
        return (stack @ np.asarray(qd, dtype=float)).T

    def _omega(self, lambda0_phi3) -> np.ndarray:
        # [Omega_d1 | Omega_d2], written into one fresh array
        omega = np.empty((self._y.size, self._n_inertia + self._omega_d2.shape[1]))
        np.add(self._z, lambda0_phi3, out=omega[:, :self._n_inertia])
        omega[:, self._n_inertia:] = self._omega_d2
        return omega

    def step(self, q, qd, tau, dt: float, psi=None, stack=None) -> RegressionPair:
        """Sample the pair at this measurement, then advance one Euler step.
        ``psi`` and ``stack`` are the plant's Psi(q) and inertia_basis(q), for
        a caller that has them already."""
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        q = np.asarray(q, dtype=float)
        qd = np.asarray(qd, dtype=float)
        lambda0_phi3 = self.lambda0 * self._phi3(q, qd, stack)
        # the filter states are rebound below, never written in place, so the
        # pair may share the current y
        pair = RegressionPair(y=self._y, omega=self._omega(lambda0_phi3))
        phi1 = lambda0_phi3 + self._grad_gain * self.plant.basis.kinetic_grad_basis(q, qd)
        if psi is None:
            psi = self.plant.basis.potential_grad_basis(q)
        self._y = self._y + dt * (-self.lambda1 * self._y
                                  + self.lambda0 * np.asarray(tau, dtype=float))
        self._z = self._z + dt * (-self.lambda1 * (self._z + phi1))
        self._omega_d2 = self._omega_d2 + dt * (-self.lambda1 * self._omega_d2
                                                + self.lambda0 * psi)
        return pair


def make_regression(kind: str, plant: Plant, q0, qd0,
                    lambda0: float = 1.0, lambda1: float = 1.0):
    """Factory keyed by the configuration value."""
    if kind == "power_balance":
        return PowerBalanceRegression(plant, q0, qd0, lambda0, lambda1)
    if kind == "force_balance":
        return ForceBalanceRegression(plant, q0, qd0, lambda0, lambda1)
    raise ValueError(f"unknown parameterization {kind!r}")
