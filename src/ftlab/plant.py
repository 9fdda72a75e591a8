"""Euler-Lagrange plant dynamics behind a basis-decomposed interface.

The dynamics are written as known basis terms times unknown constant
coefficients,

    M(q)  = sum_k M_k(q) theta_m[k]          (inertia)
    U(q)  = sum_k U_k(q) theta_u[k]          (potential energy)
    g(q)  = Psi(q) theta_u                   (potential forces)

so that the regression can be built from the known terms.  The arm is the
planar two-link manipulator with revolute joints, with three inertia terms
and two potential terms; ``ThetaVector`` holds their coefficients as tuples
of floats, and ``Plant`` evaluates its quantities from them as closed forms
in Python floats, which is what the step loop calls.  ``forward_dynamics``
forms C(q, qd) qd, Psi(q) theta_u, the Coulomb friction and M(q) inline,
summed as row-by-row 2x2 products sum them, and ``energy_terms`` is one
closed form.
Friction and measurement noise are separate bolt-on models that only the
simulation loop applies, as the run's config holds them: the forward
dynamics take the friction's coefficients, and ``NoiseModel.sample`` gives
the noise of every sample of a run in one call, before its loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalDegeneracyError


@dataclass(frozen=True)
class PhysicalParams:
    """Link masses/lengths/inertias of the two-link arm.

    lc1/lc2 are the centre-of-mass offsets and I1/I2 the link inertias about
    the centre of mass.  All quantities strictly positive.
    """

    m1: float
    m2: float
    l1: float
    l2: float
    g: float
    lc1: float
    lc2: float
    I1: float
    I2: float

    def __post_init__(self):
        for name in ("m1", "m2", "l1", "l2", "g", "lc1", "lc2", "I1", "I2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"physical parameter {name} must be positive")

    @classmethod
    def uniform_rods(cls, m1: float = 2.0, m2: float = 1.0, l1: float = 0.3,
                     l2: float = 0.2, g: float = 9.81) -> "PhysicalParams":
        """Complete the link data under the uniform-rod model:
        lc_i = l_i / 2 and I_i = m_i l_i^2 / 12.  The defaults are the
        reference arm: m1=2 kg, m2=1 kg, l1=0.3 m, l2=0.2 m, g=9.81 m/s^2."""
        return cls(m1=m1, m2=m2, l1=l1, l2=l2, g=g,
                   lc1=l1 / 2.0, lc2=l2 / 2.0,
                   I1=m1 * l1 ** 2 / 12.0, I2=m2 * l2 ** 2 / 12.0)


@dataclass(frozen=True)
class ThetaVector:
    """Stacked unknown parameters: inertia-side theta_m then potential-side
    theta_u, each a tuple of floats."""

    theta_m: tuple
    theta_u: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta_m", tuple(map(float, self.theta_m)))
        object.__setattr__(self, "theta_u", tuple(map(float, self.theta_u)))

    @property
    def stacked(self) -> np.ndarray:
        return np.array(self.theta_m + self.theta_u)

    @property
    def size(self) -> int:
        return len(self.theta_m) + len(self.theta_u)

    @classmethod
    def from_params(cls, p: PhysicalParams) -> "ThetaVector":
        """Coefficients of the two-link arm decomposition."""
        d1 = (p.l1 ** 2 + p.lc2 ** 2) * p.m2 + p.lc1 ** 2 * p.m1 + p.I1 + p.I2
        d2 = p.l1 * p.lc2 * p.m2
        d3 = p.lc2 ** 2 * p.m2 + p.I2
        d4 = p.m2 * p.lc2 * p.g
        d5 = (p.m1 * p.lc1 + p.m2 * p.l1) * p.g
        return cls(theta_m=(d1, d2, d3), theta_u=(d4, d5))


class Plant:
    """Evaluation of the two-link arm's dynamics for a parameter vector.

    The per-step quantities are closed forms in Python floats.  Methods
    take joint vectors as any length-2 sequences; those ending in ``_rows``
    return matrices as tuples of row tuples.  All methods are pure;
    instances hold no mutable state.
    """

    n = 2

    def __init__(self, theta: ThetaVector):
        if (len(theta.theta_m), len(theta.theta_u)) != (3, 2):
            raise ValueError("the closed forms are those of the two-link arm: "
                             "three inertia and two potential parameters")
        self.theta = theta

    @classmethod
    def two_link(cls, params: PhysicalParams | None = None) -> "Plant":
        params = params or PhysicalParams.uniform_rods()
        return cls(ThetaVector.from_params(params))

    # -- float kernels ---------------------------------------------------------

    def inertia_rows(self, q) -> tuple:
        """M(q) = sum_k theta_m[k] M_k(q)."""
        d1, d2, d3 = self.theta.theta_m
        c2 = math.cos(q[1])
        m12 = d2 * c2 + d3
        return ((d1 + d2 * (2.0 * c2), m12), (m12, d3))

    def coriolis_rows(self, q, qd) -> tuple:
        """C(q, qd) from Christoffel symbols, so that dM/dt = C + C'."""
        qd1, qd2 = qd
        h = self.theta.theta_m[1] * math.sin(q[1])
        return ((h * -qd2, h * -(qd1 + qd2)), (h * qd1, 0.0))

    def psi_rows(self, q) -> tuple:
        """Potential-force regressor Psi(q) with g(q) = Psi(q) theta_u."""
        q1, q2 = q
        s12 = math.sin(q1 + q2)
        return ((s12, math.sin(q1)), (s12, 0.0))

    def inertia_stack(self, q: np.ndarray) -> np.ndarray:
        """M(q) of every row of q (steps, 2), as a (steps, 2, 2) array: the
        closed form of ``inertia_rows`` in the same order of operations."""
        d1, d2, d3 = self.theta.theta_m
        c2 = np.cos(q[:, 1])
        m12 = d2 * c2 + d3
        out = np.empty((len(q), 2, 2))
        out[:, 0, 0] = d1 + d2 * (2.0 * c2)
        out[:, 0, 1] = out[:, 1, 0] = m12
        out[:, 1, 1] = d3
        return out

    def psi_stack(self, q: np.ndarray) -> np.ndarray:
        """Psi(q) of every row of q (steps, 2), as a (steps, 2, 2) array: the
        closed form of ``psi_rows`` in the same order of operations."""
        s12 = np.sin(q[:, 0] + q[:, 1])
        out = np.empty((len(q), 2, 2))
        out[:, 0, 0] = out[:, 1, 0] = s12
        out[:, 0, 1] = np.sin(q[:, 0])
        out[:, 1, 1] = 0.0
        return out

    def basis_force_rows(self, q, qd) -> tuple:
        """The n x 3 matrix whose column k is M_k(q) qd."""
        qd1, qd2 = qd
        c2 = math.cos(q[1])
        return ((qd1, 2.0 * c2 * qd1 + c2 * qd2, qd2), (0.0, c2 * qd1, qd1 + qd2))

    def energy_terms(self, q, qd) -> tuple:
        """Basis energies: (1/2) qd' M_k(q) qd for k = 1..3, then U_1(q), U_2(q);
        the total energy is their dot product with theta.  One closed form:
        the kinetic terms are qd' times the columns of ``basis_force_rows``,
        in that product's order of operations (less the zero entry's term,
        which moves no finite result)."""
        q1, q2 = q
        qd1, qd2 = qd
        c2 = math.cos(q2)
        return (0.5 * (qd1 * qd1), 0.5 * ((2.0 * c2 * qd1 + c2 * qd2) * qd1 + c2 * qd1 * qd2),
                0.5 * (qd2 * qd1 + (qd1 + qd2) * qd2), -math.cos(q1 + q2), -math.cos(q1))

    def total_energy(self, q, qd) -> float:
        """The energy terms dotted with theta: the energy audit's reference."""
        return float(np.array(self.energy_terms(q, qd)) @ self.theta.stacked)

    def forward_dynamics(self, q, qd, tau, coulomb=None, psi=None, inertia=None) -> tuple:
        """Joint accelerations from M(q) qdd + C(q,qd) qd + g(q) = tau - tau_f,
        as a pair of floats.

        Friction enters as an opposing torque on the plant side only:
        tau_f_i = coulomb_i sign(qd_i), the ``FrictionModel``'s law, with
        ``coulomb`` its coefficients (None: no friction).  ``psi`` is Psi(q),
        for a caller that has it already; M(q) is formed here unless
        ``inertia`` gives it (``verify`` passes M = I to read g off).
        """
        q2 = q[1]
        qd1, qd2 = qd
        (p11, p12), (p21, p22) = self.psi_rows(q) if psi is None else psi
        d1, d2, d3 = self.theta.theta_m
        d4, d5 = self.theta.theta_u
        # C(q, qd) qd over the rows of ``coriolis_rows`` and g = Psi theta_u,
        # each summed as a 2x2 product of rows sums it
        h = d2 * math.sin(q2)
        t1, t2 = tau
        r1 = t1 - (h * -qd2 * qd1 + h * -(qd1 + qd2) * qd2) - (p11 * d4 + p12 * d5)
        r2 = t2 - (h * qd1 * qd1 + 0.0 * qd2) - (p21 * d4 + p22 * d5)
        if coulomb is not None:
            # c sign(v), and c v at v = +-0.0, whose sign carries
            c1, c2 = coulomb
            r1 = r1 - c1 * (1.0 if qd1 > 0.0 else -1.0 if qd1 < 0.0 else qd1)
            r2 = r2 - c2 * (1.0 if qd2 > 0.0 else -1.0 if qd2 < 0.0 else qd2)
        if inertia is None:
            # ``inertia_rows``
            c2 = math.cos(q2)
            m12 = m21 = d2 * c2 + d3
            m11, m22 = d1 + d2 * (2.0 * c2), d3
        else:
            (m11, m12), (m21, m22) = inertia
        det = m11 * m22 - m12 * m21
        if abs(det) < 1e-300:
            raise NumericalDegeneracyError("inertia matrix is singular; "
                                           "parameters are likely corrupted")
        return ((m22 * r1 - m12 * r2) / det, (m11 * r2 - m21 * r1) / det)


@dataclass(frozen=True)
class FrictionModel:
    """Coulomb friction, tau_f_i = coulomb_i * sign(qd_i), which
    ``Plant.forward_dynamics`` applies from the coefficients."""

    coulomb: tuple = (0.5, 0.4)

    def __post_init__(self):
        if np.shape(self.coulomb) != (2,):
            raise ValueError("friction needs one coefficient per joint (2)")
        object.__setattr__(self, "coulomb", tuple(np.asarray(self.coulomb, dtype=float).tolist()))
        if not all(c >= 0.0 for c in self.coulomb):
            raise ValueError("friction coefficients must be nonnegative")


@dataclass(frozen=True)
class NoiseModel:
    """Deterministic sinusoidal measurement noise.

    With w = frequency t, the positions carry amplitude * (sin w, cos w)
    and the velocities amplitude * (sin w, sin w).
    """

    amplitude: float = 0.005
    frequency: float = 100.0

    def sample(self, t) -> np.ndarray:
        """amplitude * (sin w, cos w) at each time of the sequence t, as a
        (len(t), 2) array: the position noise of the two joints, the first
        of which is also the velocity noise of both.  Each entry is the
        float expression of one time, bit for bit: w and the products are
        exact roundings, and the sines and cosines are ``math``'s."""
        w = (self.frequency * np.asarray(t, dtype=float)).tolist()
        out = np.empty((len(w), 2))
        out[:, 0] = np.fromiter(map(math.sin, w), float, len(w))
        out[:, 1] = np.fromiter(map(math.cos, w), float, len(w))
        out *= self.amplitude
        return out
