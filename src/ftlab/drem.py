"""Dynamic regressor extension and mixing.

Turns the streamed regression pairs (y, Omega) into the scalar-factor form
Y = Delta * theta, either through a least-squares extension with a
norm-capped forgetting factor or through a Kreisselmeier extension.  Each
carries its matrix and vector as one stacked (l, l + 1) state, [R | u~] or
[phi2 | phi1], that one affine update advances per step.  The
least-squares mixing reads Delta and adj(phi) v off the eigendecomposition
of the information matrix that its step takes anyway; the Kreisselmeier
mixing hands its state to ``mathx.det_and_cramer``, which evaluates the
column-replaced determinants of phi2 directly (Cramer form) instead of
building the adjugate.  A mixing output that is not finite raises
NumericalDegeneracyError naming Delta or Y.  An extension records its
per-step series with ``record`` and completes them once after the last step
with ``finish``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mathx
from .errors import NumericalDegeneracyError
from .regression import RegressionPair


@dataclass
class MixedRegression:
    """Mixing output: vector Y, scalar factor Delta, and the trailing block
    Y_u that corresponds to the potential-side parameters."""

    Y: np.ndarray
    delta: float
    Y_u: np.ndarray


def _mixed(delta: float, Y: np.ndarray, tail_dim: int) -> MixedRegression:
    # one sum tests both; a finite sum that overflows falls through to the
    # exact tests, which then find nothing
    if not math.isfinite(delta + sum(Y.tolist())):
        if not math.isfinite(delta):
            raise NumericalDegeneracyError("mixing factor Delta is not finite")
        if not np.isfinite(Y).all():
            raise NumericalDegeneracyError("mixed regression Y is not finite")
    return MixedRegression(Y=Y, delta=delta, Y_u=Y[-tail_dim:])


@dataclass(frozen=True)
class LsDreParams:
    """Constants of the least-squares extension.

    beta = beta0 * (1 - |F| / gain_cap) is recomputed every step; the norm is
    spectral by default (F is kept symmetric, so this is its largest
    eigenvalue) with a Frobenius option.
    """

    alpha: float = 10.0
    beta0: float = 10.0
    f0: float = 1.0
    gain_cap: float = 10.0
    rho0: np.ndarray | None = None
    norm: str = "spectral"

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta0 > 0.0 and self.f0 > 0.0):
            raise ValueError("alpha, beta0 and f0 must be positive")
        if not self.gain_cap >= 1.0 / self.f0:
            raise ValueError("gain_cap must be at least 1/f0")
        if self.norm not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm {self.norm!r}")


_LS_DEFINITENESS = ("least-squares gain matrix lost positive definiteness "
                    "(alpha * dt too large for this excitation level)")
_FINISH_BLOCK = 1024    # recorded steps per batched product in finish()


class LeastSquaresDre:
    """Least-squares regressor extension with forgetting, plus mixing.

    State: gain matrix F (symmetric positive definite), estimate rho_hat and
    the scalar discount z in (0, 1].  The Euler update is applied in
    information coordinates R = F^-1 and u~ = F^-1 rho_hat - z f0 rho0,
    whose right-hand sides are affine in the state:

        R' = alpha Omega' Omega - beta R,   u~' = alpha Omega' y - beta u~,

    carried as one stacked (l, l + 1) state [R | u~] that one affine step
    advances.  This keeps R a positively weighted sum of positive-definite
    terms (so F never loses definiteness for any step size with beta dt < 1)
    and, more importantly, makes the discrete mixing identity Y = Delta theta
    exact up to the regression residual: the same per-step decay factor
    (1 - beta dt) multiplies R, u~ and z, so the telescoping that proves the
    identity in continuous time carries over to the discrete recursion
    unchanged.  A direct Euler step of (rho_hat, F) loses that cancellation
    and its identity error (about 2e-3 relative at dt = 5e-4 on the
    reference runs) dwarfs the tolerance the mixing stage is held to.

    Each step takes one symmetric eigendecomposition R = V diag(w) V', and
    the mixing is read off it: with phi = I - z f0 F = V diag(1 - z f0 / w) V'
    and v = rho_hat - z f0 F rho0 = F u~,

        Delta = det(phi) = prod_i (w_i - z f0) / w_i,
        Y = adj(phi) v = V diag(prod_{j != i} ((w_j - z f0) / w_j) / w_i) V' u~,

    which never divides by a factor w_i - z f0 (all of them are 0 at t = 0).
    F and rho_hat are properties of the eigenpairs; the loop records V, w
    and u~, and ``finish`` turns the record into F and rho_hat.
    """

    kind = "least_squares"

    def __init__(self, dim: int, tail_dim: int, params: LsDreParams | None = None):
        self.params = params or LsDreParams()
        self.dim = dim
        self.tail_dim = tail_dim
        rho0 = self.params.rho0
        self.rho0 = np.zeros(dim) if rho0 is None else np.asarray(rho0, dtype=float).copy()
        if self.rho0.shape != (dim,):
            raise ValueError("rho0 length does not match the regression dimension")
        f0 = self.params.f0
        self.z = 1.0
        self._state = np.hstack((f0 * np.eye(dim), np.zeros((dim, 1))))
        # eigenpairs of R (w ascending) and the eigenvalues of F = R^-1
        self._v = np.eye(dim)
        self._w = [f0] * dim
        self._f_eigs = [1.0 / f0] * dim
        self._w_rec = None
        self.last_beta = self.beta()

    @property
    def F(self) -> np.ndarray:
        """The gain matrix F = R^-1 = S S', S = V diag(w)^-1/2."""
        s = self._v * np.array(self._w) ** -0.5
        return s @ s.T

    @F.setter
    def F(self, value) -> None:
        # F's eigenvectors are R's; F's eigenvalues, checked by beta(), are
        # kept as they are, so an indefinite assignment is reported there
        f_eigs, v = np.linalg.eigh(np.asarray(value, dtype=float))
        w = 1.0 / f_eigs[::-1]
        self._v = v[:, ::-1]
        self._w = w.tolist()
        self._f_eigs = f_eigs.tolist()
        self._state[:, :self.dim] = (self._v * w) @ self._v.T

    @property
    def rho_hat(self) -> np.ndarray:
        """The estimate F (u~ + z f0 rho0)."""
        return self.F @ (self._state[:, self.dim] + (self.z * self.params.f0) * self.rho0)

    @rho_hat.setter
    def rho_hat(self, value) -> None:
        # u~ of this estimate at the current F and z
        r = self._state[:, :self.dim]
        self._state[:, self.dim] = r @ np.asarray(value, dtype=float) \
            - (self.z * self.params.f0) * self.rho0

    def beta(self) -> float:
        """Current forgetting rate, from the eigenvalues of F the last step
        (or assignment) left; also validates positive definiteness."""
        eigs = self._f_eigs
        if eigs[0] <= 0.0:
            raise NumericalDegeneracyError(_LS_DEFINITENESS)
        if self.params.norm == "spectral":
            norm = eigs[-1]
        else:
            norm = math.sqrt(sum(x * x for x in eigs))
        return self.params.beta0 * (1.0 - norm / self.params.gain_cap)

    def step(self, pair: RegressionPair, dt: float) -> None:
        """One Euler step of [R | u~] and the eigendecomposition of R; the
        eigenvalues 1/w of F feed the next beta()."""
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        gain = dt * self.params.alpha
        b = self.beta()
        self.last_beta = b
        omega = pair.omega
        decay = 1.0 - dt * b
        drive = omega.T.dot(np.concatenate((omega, pair.y[:, None]), axis=1))
        self._state = state = decay * self._state + gain * drive
        self.z = self.z * decay
        try:
            w, v = np.linalg.eigh(state[:, :self.dim])
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError(
                "least-squares information matrix R has no eigendecomposition") from exc
        eigs = w.tolist()
        if eigs[0] <= 0.0:
            raise NumericalDegeneracyError(_LS_DEFINITENESS)
        self._v = v
        self._w = eigs
        self._f_eigs = [1.0 / x for x in reversed(eigs)]

    def mix(self) -> MixedRegression:
        """Delta and Y from the eigenpairs of R (see the class docstring).
        The eigenvalues (w_i - z f0) / w_i of phi lie in [0, 1), so their
        prefix and suffix products neither overflow nor underflow."""
        zf = self.z * self.params.f0
        w = self._w
        ratios = [(x - zf) / x for x in w]
        # coef[i] = prod(ratios[:i]) prod(ratios[i + 1:]) / w[i]
        coef = []
        prefix = 1.0
        for x, ratio in zip(w, ratios):
            coef.append(prefix / x)
            prefix *= ratio
        suffix = 1.0
        for i in range(len(w) - 1, 0, -1):
            suffix *= ratios[i]
            coef[i - 1] *= suffix
        v = self._v
        Y = v.dot(np.multiply(coef, self._state[:, self.dim].dot(v)))
        return _mixed(prefix, Y, self.tail_dim)

    def diagnostics(self, n_rec: int) -> dict:
        l_dim = self.dim
        self._w_rec = np.empty((n_rec, l_dim))
        return {"F": np.empty((n_rec, l_dim, l_dim)), "z_forget": np.empty(n_rec),
                "rho_hat": np.empty((n_rec, l_dim)), "beta": np.empty(n_rec)}

    def record(self, diag: dict, k: int) -> None:
        """Record V in place of F and u~ in place of rho_hat, and w aside;
        ``finish`` completes them."""
        diag["F"][k] = self._v
        self._w_rec[k] = self._w
        diag["z_forget"][k] = self.z
        diag["rho_hat"][k] = self._state[:, self.dim]
        diag["beta"][k] = self.last_beta

    def finish(self, diag: dict) -> None:
        """Turn the recorded eigenpairs into F = S S' (S = V diag(w)^-1/2)
        and rho_hat = F (u~ + z f0 rho0), a block of steps at a time."""
        f_rec, rho_rec, z_rec = diag["F"], diag["rho_hat"], diag["z_forget"]
        w_rec, self._w_rec = self._w_rec, None
        f0 = self.params.f0
        for start in range(0, len(w_rec), _FINISH_BLOCK):
            block = slice(start, start + _FINISH_BLOCK)
            s = f_rec[block] * w_rec[block, None, :] ** -0.5
            f = s @ s.transpose(0, 2, 1)
            u = rho_rec[block] + (z_rec[block] * f0)[:, None] * self.rho0
            rho_rec[block] = (f @ u[:, :, None])[:, :, 0]
            f_rec[block] = f


@dataclass(frozen=True)
class KreisParams:
    """First-order extension filters; lambda3 = 1 recovers the classical
    Kreisselmeier extension."""

    lambda2: float = 1.0
    lambda3: float = 1.3

    def __post_init__(self):
        if not (self.lambda2 > 0.0 and self.lambda3 > 0.0):
            raise ValueError("lambda2 and lambda3 must be positive")


class KreisselmeierDre:
    """Kreisselmeier regressor extension plus mixing.

    State: phi2 (l, l) and phi1 (l,), carried as one stacked (l, l + 1)
    state [phi2 | phi1]; ``phi2`` and ``phi1`` are views of it, and
    assigning either writes into it.  A step is one affine update

        [phi2 | phi1] <- (1 - lambda2 dt) [phi2 | phi1]
                         + lambda3 dt [Omega' Omega | Omega' y],

    with Omega' Omega and Omega' y each written into its block of the drive.
    phi2 stays symmetric positive semidefinite (an exponentially weighted
    sum of the symmetric rank-k products Omega' Omega).  The mixing hands
    the state as it stands to ``mathx.det_and_cramer``: Delta = det(phi2)
    and Y = adj(phi2) phi1.  The record holds the state of every step in
    one (steps, l, l + 1) buffer, of which the recorded ``phi2`` and
    ``phi1`` are views.
    """

    kind = "kreisselmeier"

    def __init__(self, dim: int, tail_dim: int, params: KreisParams | None = None):
        self.params = params or KreisParams()
        self.dim = dim
        self.tail_dim = tail_dim
        self._state = np.zeros((dim, dim + 1))
        self._drive = np.empty((dim, dim + 1))
        self._drive_blocks = self._drive[:, :dim], self._drive[:, dim]
        self._rec = None

    @property
    def phi1(self) -> np.ndarray:
        return self._state[:, self.dim]

    @phi1.setter
    def phi1(self, value) -> None:
        self._state[:, self.dim] = value

    @property
    def phi2(self) -> np.ndarray:
        return self._state[:, :self.dim]

    @phi2.setter
    def phi2(self, value) -> None:
        self._state[:, :self.dim] = value

    def step(self, pair: RegressionPair, dt: float) -> None:
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        omega = pair.omega
        drive_phi2, drive_phi1 = self._drive_blocks
        # each product into its own block, so that both are the BLAS calls of
        # the products taken alone (one Omega' [Omega | y] product rounds the
        # phi1 column differently); the symmetric rank-k product keeps phi2
        # exactly symmetric
        np.matmul(omega.T, omega, out=drive_phi2)
        np.matmul(omega.T, pair.y, out=drive_phi1)
        drive = self._drive
        drive *= dt * self.params.lambda3
        state = self._state
        state *= 1.0 - dt * self.params.lambda2
        state += drive

    def mix(self) -> MixedRegression:
        delta, Y = mathx.det_and_cramer(self._state)
        return _mixed(delta, Y, self.tail_dim)

    def diagnostics(self, n_rec: int) -> dict:
        l_dim = self.dim
        self._rec = rec = np.empty((n_rec, l_dim, l_dim + 1))
        return {"phi1": rec[:, :, l_dim], "phi2": rec[:, :, :l_dim]}

    def record(self, diag: dict, k: int) -> None:
        self._rec[k] = self._state

    def finish(self, diag: dict) -> None:
        """The record is complete as the steps wrote it."""
        self._rec = None


def make_dre(kind: str, dim: int, tail_dim: int,
             ls_params: LsDreParams | None = None,
             kreis_params: KreisParams | None = None):
    """Factory keyed by the configuration value."""
    if kind == "least_squares":
        return LeastSquaresDre(dim, tail_dim, ls_params)
    if kind == "kreisselmeier":
        return KreisselmeierDre(dim, tail_dim, kreis_params)
    raise ValueError(f"unknown regressor extension {kind!r}")


def excitation_gramian(t: np.ndarray, omega: np.ndarray,
                       t1: float, window: float) -> np.ndarray:
    """Trapezoidal integral of Omega' Omega over [t1, t1 + window].

    ``t`` is the trace time grid and ``omega`` the per-step regressor stack
    (steps, n_out, l).  The window endpoints are snapped to the grid; the
    smallest eigenvalue of the result is the excitation level of the window.
    """
    t = np.asarray(t, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if window <= 0.0:
        raise ValueError("window length must be positive")
    if t1 < t[0] - 1e-12 or t1 + window > t[-1] + 1e-12:
        raise ValueError("excitation window falls outside the trace")
    i0 = int(np.searchsorted(t, t1 - 1e-12))
    i1 = int(np.searchsorted(t, t1 + window - 1e-12))
    gram = np.einsum("ski,skj->sij", omega[i0:i1 + 1], omega[i0:i1 + 1])
    return np.trapezoid(gram, t[i0:i1 + 1], axis=0)
