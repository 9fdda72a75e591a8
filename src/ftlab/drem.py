"""Dynamic regressor extension and mixing.

Turns the streamed regression pairs (y, Omega) into the scalar-factor form
Y = Delta * theta, either through a least-squares extension with a
norm-capped forgetting factor, started from u~ = 0 (its initial estimate
cancels out of Y), or through a Kreisselmeier extension.  Each
carries its matrix and vector as one stacked (l, l + 1) state, [R | u~] or
[phi2 | phi1], that one affine step advances in place: decay * state +
gain * Omega' [Omega | y], the product one ``ndarray.dot`` into a work
array on the regression filter's [Omega | y] buffer as it stands (the
pair's ``omega``, ``y`` and ``omega_t`` are views of it, built once;
``KreisselmeierDre`` says what the one product does to its bits and why
phi2 stays symmetric).  A gain or decay that is constant while dt is, the
Kreisselmeier pair and the least-squares gain, is held as a 0-d array,
which an in-place product takes without converting a float.  The
least-squares mixing reads Delta and adj(phi) v off the eigendecomposition
of the information matrix that its step takes anyway; the Kreisselmeier
mixing gathers phi2 and its column-replaced copies with ``mathx``'s cached
Cramer index into a work stack and takes their determinants in one call
(Cramer form) instead of building the adjugate.  Both LAPACK calls are
``mathx``'s gufuncs (``eigh_sym``, ``det_stack``), called with no Python
wrapper.  Each mix writes [Delta | Y] into the (l + 1,) row it is
given, the caller's mixing record row for the step, and returns that row as
floats: Delta first, then Y = adj(phi) v.  An eigendecomposition of R that
fails (non-finite eigenvalues) raises NumericalDegeneracyError naming R,
and a mixing output that is not finite one naming Delta or Y.  An
extension knows only the regression dimension l, not which of its
parameters a controller estimates.  Its ``record`` writes what its step
already holds: the least-squares extension the eigenvalues of R and the
discount z, the Kreisselmeier extension its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mathx
from .errors import NumericalDegeneracyError
from .regression import RegressionPair


def _checked_mix(row: np.ndarray) -> list:
    """The mixing row [Delta | Y] as floats, checked finite."""
    mixed = row.tolist()
    # one sum tests all; a finite sum that overflows falls through to the
    # exact tests, which then find nothing
    if not math.isfinite(sum(mixed)):
        if not math.isfinite(mixed[0]):
            raise NumericalDegeneracyError("mixing factor Delta is not finite")
        if not all(map(math.isfinite, mixed)):
            raise NumericalDegeneracyError("mixed regression Y is not finite")
    return mixed


def _affine_step(state: np.ndarray, drive: np.ndarray, pair: RegressionPair,
                 gain, decay) -> None:
    """state <- decay * state + gain * Omega' [Omega | y], in place: one BLAS
    product on the pair's own buffer into ``drive``, then the update.  The
    gain and decay are floats or 0-d arrays (an in-place product with a 0-d
    array skips the conversion of a float, and rounds the same)."""
    pair.omega_t.dot(pair.aug, out=drive)
    drive *= gain
    state *= decay
    state += drive


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
    norm: str = "spectral"

    def __post_init__(self):
        if not (self.alpha > 0.0 and self.beta0 > 0.0 and self.f0 > 0.0):
            raise ValueError("alpha, beta0 and f0 must be positive")
        if not self.gain_cap >= 1.0 / self.f0:
            raise ValueError("gain_cap must be at least 1/f0")
        if self.norm not in ("spectral", "frobenius"):
            raise ValueError(f"unknown norm {self.norm!r}")


_LS_DEFINITENESS = ("least-squares gain matrix lost positive definiteness "
                    "(beta dt >= 1: the forgetting factor 1 - beta dt is not positive)")


class LeastSquaresDre:
    """Least-squares regressor extension with forgetting, plus mixing.

    State: gain matrix F (symmetric positive definite), estimate rho_hat and
    the scalar discount z in (0, 1].  The Euler update is applied in
    information coordinates R = F^-1 and u~ = F^-1 rho_hat, whose
    right-hand sides are affine in the state:

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

    Each step takes one symmetric eigendecomposition R = V diag(w) V'
    (``mathx.eigh_sym``), and the mixing is read off it: with
    phi = I - z f0 F = V diag(1 - z f0 / w) V' and v = rho_hat = F u~,

        Delta = det(phi) = prod_i (w_i - z f0) / w_i,
        Y = adj(phi) v = V diag(prod_{j != i} ((w_j - z f0) / w_j) / w_i) V' u~,

    which never divides by a factor w_i - z f0 (all of them are 0 at t = 0).
    The paper's form starts the estimate at rho0 and mixes v = rho_hat -
    z f0 F rho0; its u~ = F^-1 rho_hat - z f0 rho0 is f0 rho0 - f0 rho0 = 0 at
    t = 0 for every rho0.  So the state starts at R = f0 I and u~ = 0, rho0
    cancels out of Y = Delta theta and is no setting, and rho_hat here is
    the mixed v = F u~.
    F and rho_hat are properties of the eigenpairs.  The record holds w
    (F's eigenvalues are 1/w) and z of every step.
    """

    kind = "least_squares"

    def __init__(self, dim: int, params: LsDreParams | None = None):
        self.params = params or LsDreParams()
        self.dim = dim
        f0 = self.params.f0
        self.z = 1.0
        self._state = np.hstack((f0 * np.eye(dim), np.zeros((dim, 1))))
        self._r = self._state[:, :dim]
        self._u = self._state[:, dim]
        self._drive = np.empty((dim, dim + 1))
        self._dt = None
        # eigenpairs of R (w ascending); F = R^-1 has the eigenvalues 1/w, kept
        # as the array the record row takes and as floats for beta and mix
        self._v = np.eye(dim)
        self._w_arr = np.full(dim, f0)
        self._w = [f0] * dim

    @property
    def F(self) -> np.ndarray:
        """The gain matrix F = R^-1 = S S', S = V diag(w)^-1/2."""
        s = self._v * np.array(self._w) ** -0.5
        return s @ s.T

    @F.setter
    def F(self, value) -> None:
        # F's eigenvectors are R's; R's eigenvalues, checked by beta(), keep
        # their signs, so an indefinite assignment is reported there
        f_eigs, v = np.linalg.eigh(np.asarray(value, dtype=float))
        w = 1.0 / f_eigs[::-1]
        self._v = v[:, ::-1]
        self._w_arr = w
        self._w = w.tolist()
        self._r[...] = (self._v * w) @ self._v.T

    @property
    def rho_hat(self) -> np.ndarray:
        """The estimate F u~."""
        return self.F @ self._u

    @rho_hat.setter
    def rho_hat(self, value) -> None:
        # u~ of this estimate at the current F
        self._u[...] = self._r @ np.asarray(value, dtype=float)

    def gain_times(self, x: np.ndarray) -> np.ndarray:
        """F x = V diag(1/w) V' x, as two matvecs on the current eigenpairs."""
        v = self._v
        return v.dot(np.divide(x.dot(v), self._w_arr))

    def beta(self) -> float:
        """Current forgetting rate, from the eigenvalues w of R the last step
        (or assignment) left, F's being 1/w; also validates positive
        definiteness."""
        w = self._w
        if min(w) <= 0.0:
            raise NumericalDegeneracyError(_LS_DEFINITENESS)
        if self.params.norm == "spectral":
            norm = 1.0 / w[0]
        else:
            norm = math.sqrt(sum((1.0 / x) * (1.0 / x) for x in reversed(w)))
        return self.params.beta0 * (1.0 - norm / self.params.gain_cap)

    def step(self, pair: RegressionPair, dt: float) -> None:
        """One Euler step of [R | u~] and the eigendecomposition of R, whose
        eigenvalues w feed the next beta()."""
        if dt != self._dt:
            # the gain of a step size, kept as a 0-d array while it stays the same
            if not dt > 0.0:
                raise ValueError(f"dt must be positive, got {dt}")
            self._gain = np.array(dt * self.params.alpha)
            self._dt = dt
        decay = 1.0 - dt * self.beta()
        _affine_step(self._state, self._drive, pair, self._gain, decay)
        self.z = self.z * decay
        w, v = mathx.eigh_sym(self._r)
        eigs = w.tolist()
        # a failed decomposition is NaN; a finite sum that overflows falls
        # through to the exact test, which then finds nothing
        if not math.isfinite(sum(eigs)) and not all(map(math.isfinite, eigs)):
            raise NumericalDegeneracyError(
                "least-squares information matrix R has no eigendecomposition")
        if eigs[0] <= 0.0:
            raise NumericalDegeneracyError(_LS_DEFINITENESS)
        self._v = v
        self._w_arr = w
        self._w = eigs

    def mix(self, out: np.ndarray) -> list:
        """[Delta | Y] from the eigenpairs of R (see the class docstring),
        written into the (l + 1,) row ``out`` and returned as floats.  The
        eigenvalues (w_i - z f0) / w_i of phi lie in [0, 1), so their prefix
        and suffix products neither overflow nor underflow."""
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
        v.dot(np.multiply(coef, self._u.dot(v)), out=out[1:])
        out[0] = prefix
        return _checked_mix(out)

    def diagnostics(self, n_rec: int) -> dict:
        return {"w": np.empty((n_rec, self.dim)), "z_forget": np.empty(n_rec)}

    def record(self, diag: dict, k: int) -> None:
        diag["w"][k] = self._w_arr
        diag["z_forget"][k] = self.z


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
    state [phi2 | phi1]; ``phi2`` and ``phi1`` are views of it, built once,
    and assigning either writes into it.  A step is one affine update

        [phi2 | phi1] <- (1 - lambda2 dt) [phi2 | phi1]
                         + lambda3 dt Omega' [Omega | y],

    the least-squares extension's affine step, its product one gemm.  With
    one regression row that is the two products Omega' Omega and Omega' y
    bit for bit; with two rows gemm rounds the phi1 column differently from
    a matrix-vector product on y.  phi2 stays exactly
    symmetric: its (i, j) and (j, i) entries sum the same row products in
    the same order.  It is positive semidefinite, an exponentially weighted
    sum of the rank-k products Omega' Omega.  The mixing gathers
    phi2 and its copies with column j replaced by phi1 from the state as it
    stands, with ``mathx``'s Cramer index cached at construction, and takes
    their determinants in one ``mathx.det_stack`` call into the caller's row:
    Delta = det(phi2) and Y = adj(phi2) phi1.  ``verify`` holds this mix, with
    phi2 and phi1 assigned, to the adjugate.
    The record holds the state of every step in one (steps, l, l + 1)
    buffer, of which the recorded ``phi2`` and ``phi1`` are views.
    """

    kind = "kreisselmeier"

    def __init__(self, dim: int, params: KreisParams | None = None):
        self.params = params or KreisParams()
        self.dim = dim
        self._state = np.zeros((dim, dim + 1))
        self._phi1, self._phi2 = self._state[:, dim], self._state[:, :dim]
        self._drive = np.empty((dim, dim + 1))
        self._cramer = mathx._cramer_index(dim)
        self._stack = np.empty(self._cramer.shape)
        self._dt = None
        self._rec = None

    @property
    def phi1(self) -> np.ndarray:
        return self._phi1

    @phi1.setter
    def phi1(self, value) -> None:
        self._phi1[...] = value

    @property
    def phi2(self) -> np.ndarray:
        return self._phi2

    @phi2.setter
    def phi2(self, value) -> None:
        self._phi2[...] = value

    def step(self, pair: RegressionPair, dt: float) -> None:
        if dt != self._dt:
            # the gain and decay of a step size, kept as 0-d arrays while it
            # stays the same
            if not dt > 0.0:
                raise ValueError(f"dt must be positive, got {dt}")
            self._gain = np.array(dt * self.params.lambda3)
            self._decay = np.array(1.0 - dt * self.params.lambda2)
            self._dt = dt
        _affine_step(self._state, self._drive, pair, self._gain, self._decay)

    def mix(self, out: np.ndarray) -> list:
        """[Delta | Y] = [det(phi2) | adj(phi2) phi1], written into the
        (l + 1,) row ``out`` and returned as floats."""
        # take writes into out without a buffered copy in any mode but "raise";
        # the cached indices are all in range, so "wrap" never wraps one
        self._state.take(self._cramer, out=self._stack, mode="wrap")
        mathx.det_stack(self._stack, out=out)
        return _checked_mix(out)

    def diagnostics(self, n_rec: int) -> dict:
        l_dim = self.dim
        self._rec = rec = np.empty((n_rec, l_dim, l_dim + 1))
        return {"phi1": rec[:, :, l_dim], "phi2": rec[:, :, :l_dim]}

    def record(self, diag: dict, k: int) -> None:
        self._rec[k] = self._state


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
