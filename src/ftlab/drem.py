"""Dynamic regressor extension and mixing.

Turns the streamed regression pairs (y, Omega) into the scalar-factor form
Y = Delta * theta, either through a least-squares extension with a
norm-capped forgetting factor, started from u~ = 0 (its initial estimate
cancels out of Y), or through a Kreisselmeier extension.  Each
carries its matrix and vector as one stacked (l, l + 1) state, [R | u~] or
[phi2 | phi1], that its ``step`` advances in place by one affine update:
decay * state + gain * Omega' [Omega | y], the product one ``ndarray.dot``
into a work array on the regression filter's [Omega | y] buffer as it
stands (the pair's ``omega``, ``y`` and ``omega_t`` are views of it, built
once; ``KreisselmeierDre`` says what the one product does to its bits and
why phi2 stays symmetric).  The state and the work array are the two
halves of one buffer, which one in-place product by a buffer of [decay;
gain] scales (each entry the product a 0-d factor gives); the factors
constant at the step size dt an extension is built with, the Kreisselmeier
pair and the least-squares gain, are written then, so ``step(pair)`` takes
only the sample, and the least-squares decay follows the forgetting rate
its step forms from the eigenvalues the last step left.  The least-squares
mixing reads Delta and adj(phi) v off the eigendecomposition of the
information matrix that its step takes anyway; the Kreisselmeier mixing
gathers phi2 and the column-replaced copies of the block of Y it was
built to mix with ``mathx``'s cached Cramer index into a work stack and
takes their determinants in one call (Cramer form) instead of building
the adjugate.  Both LAPACK calls are ``mathx``'s gufuncs (``eigh_sym``,
``det_stack``), called with no Python wrapper.
Each mix writes into the row it is given and returns that row checked
finite, as floats: [Delta | Y] for least squares, [Delta | Y_block] for
Kreisselmeier, Delta first, then entries of Y = adj(phi) v.  An
eigendecomposition of R that fails (non-finite eigenvalues) raises
NumericalDegeneracyError naming R, an R that is not positive definite one
naming the cause, and a mixing output that is not finite one naming Delta
or Y.  An extension knows only the regression dimension l and, for
Kreisselmeier, the entries of Y its mix writes, not which parameters a
controller estimates.  It records nothing per step: ``replay`` rebuilds
its history from the run's recorded pairs, bit for bit, and
``mixing_record`` the full Kreisselmeier [Delta | Y] of every step.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass

import numpy as np

from . import mathx
from .errors import NumericalDegeneracyError
from .mathx import det_stack, eigh_sym
from .regression import RegressionPair, _check_positive


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


def _lost_definiteness(w_min: float, decay: float = 1.0) -> NumericalDegeneracyError:
    """R's smallest eigenvalue w_min is not positive: named as the cause
    unless the step's decay 1 - beta dt was not positive."""
    cause = (f"R's smallest eigenvalue is {w_min:.6g}" if decay > 0.0
             else "beta dt >= 1: the forgetting factor 1 - beta dt is not positive")
    return NumericalDegeneracyError(f"least-squares gain matrix lost positive definiteness "
                                    f"({cause})")


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
    (``mathx.eigh_sym``, written into the extension's own w and V), and the
    mixing is read off it: with phi = I - z f0 F = V diag(1 - z f0 / w) V'
    and v = rho_hat = F u~,

        Delta = det(phi) = prod_i (w_i - z f0) / w_i,
        Y = adj(phi) v = V diag(prod_{j != i} ((w_j - z f0) / w_j) / w_i) V' u~,

    which never divides by a factor w_i - z f0 (all of them are 0 at t = 0).
    The paper's form starts the estimate at rho0 and mixes v = rho_hat -
    z f0 F rho0; its u~ = F^-1 rho_hat - z f0 rho0 is f0 rho0 - f0 rho0 = 0 at
    t = 0 for every rho0.  So the state starts at R = f0 I and u~ = 0, rho0
    cancels out of Y = Delta theta and is no setting, and rho_hat here is
    the mixed v = F u~.
    F and rho_hat are properties of the eigenpairs.  Its history, from
    ``replay``, is w (F's eigenvalues are 1/w) and z after every step.
    """

    kind = "least_squares"

    def __init__(self, dim: int, params: LsDreParams | None = None, *, dt: float):
        _check_positive(dt=dt)
        self.params = params = params or LsDreParams()
        self.dim, self.dt = dim, float(dt)
        f0, self._beta0, self._gain_cap = map(float, (params.f0, params.beta0, params.gain_cap))
        self._f0 = f0
        self._spectral = params.norm == "spectral"
        self.z = 1.0
        # [state; drive], which one product by [decay; gain] scales
        self._state_drive = np.zeros((2, dim, dim + 1))
        self._state, self._drive = self._state_drive
        self._state[:, :dim] = f0 * np.eye(dim)
        self._r = self._state[:, :dim]
        self._u = self._state[:, dim]
        # [decay; gain]: the gain alpha dt is constant, the decay set per step
        self._factors = np.empty((2, dim, dim + 1))
        self._decay = self._factors[0]
        self._factors[1] = self.dt * params.alpha
        # eigenpairs of R (w ascending), written in place by each step; F =
        # R^-1 has the eigenvalues 1/w.  w is also kept as floats for the
        # forgetting rate and the mix
        self._v = np.eye(dim)
        self._w_arr = np.full(dim, f0)
        self._w = [f0] * dim
        # the mix's coefficients, packed as floats into one array
        self._coef = np.empty(dim)
        self._pack_coef = struct.Struct(f"{dim}d").pack_into

    @property
    def F(self) -> np.ndarray:
        """The gain matrix F = R^-1 = S S', S = V diag(w)^-1/2."""
        s = self._v * np.array(self._w) ** -0.5
        return s @ s.T

    @F.setter
    def F(self, value) -> None:
        # F's eigenvectors are R's; R's eigenvalues, checked by the next
        # step, keep their signs, so an indefinite assignment is reported there
        f_eigs, v = np.linalg.eigh(np.asarray(value, dtype=float))
        w = 1.0 / f_eigs[::-1]
        self._v[...] = v[:, ::-1]
        self._w_arr[...] = w
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

    def step(self, pair: RegressionPair) -> None:
        """One Euler step of [R | u~] and the eigendecomposition of R.  The
        decay is 1 - beta dt, with the forgetting rate
        beta = beta0 (1 - |F| / gain_cap) from the eigenvalues w of R that
        the last step (or assignment) left, F's being 1/w; a w that is not
        positive (F lost definiteness) raises NumericalDegeneracyError."""
        w = self._w
        if min(w) <= 0.0:
            raise _lost_definiteness(min(w))
        if self._spectral:
            norm = 1.0 / w[0]
        else:
            inv = list(map((1.0).__truediv__, reversed(w)))
            norm = math.sqrt(sum(map(operator.mul, inv, inv)))
        decay = 1.0 - self.dt * (self._beta0 * (1.0 - norm / self._gain_cap))
        # the affine step, written out as in the other extension's step (the
        # two change together; a shared helper would cost a call per sample)
        pair.omega_t.dot(pair.aug, out=self._drive)
        # decay * state and gain * drive, then their sum
        self._decay.fill(decay)
        self._state_drive *= self._factors
        self._state += self._drive
        self.z = self.z * decay
        eigh_sym(self._r, out=(self._w_arr, self._v))
        eigs = self._w_arr.tolist()
        # a failed decomposition is NaN; a finite sum that overflows falls
        # through to the exact test, which then finds nothing
        if not math.isfinite(sum(eigs)) and not all(map(math.isfinite, eigs)):
            raise NumericalDegeneracyError(
                "least-squares information matrix R has no eigendecomposition")
        if eigs[0] <= 0.0:
            raise _lost_definiteness(eigs[0], decay)
        self._w = eigs

    def mix(self, out: np.ndarray) -> list:
        """[Delta | Y] from the eigenpairs of R (see the class docstring),
        written into the (l + 1,) row ``out``, checked finite and returned
        as floats.  The eigenvalues (w_i - z f0) / w_i of phi lie in [0, 1),
        so their prefix and suffix products neither overflow nor underflow."""
        zf = self.z * self._f0
        w = self._w
        # coef[i] = prod(ratios[:i]) prod(ratios[i + 1:]) / w[i]
        ratios, coef = [], []
        prefix = 1.0
        for x in w:
            ratio = (x - zf) / x
            ratios.append(ratio)
            coef.append(prefix / x)
            prefix *= ratio
        suffix = 1.0
        for i in range(len(w) - 1, 0, -1):
            suffix *= ratios[i]
            coef[i - 1] *= suffix
        v = self._v
        self._pack_coef(self._coef, 0, *coef)
        scaled = self._u.dot(v)
        scaled *= self._coef
        v.dot(scaled, out=out[1:])
        out[0] = prefix
        return _checked_mix(out)


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
    sum of the rank-k products Omega' Omega.

    The mix writes Delta = det(phi2) and the entries j of ``block`` of
    Y = adj(phi2) phi1, the block fixed when the extension is built: all of
    Y by default, theta_u's two entries for c2, whose law reads no others.
    It gathers phi2 and its copies with column j replaced by phi1 from the
    state as it stands, with rows 0 and 1 + j of ``mathx``'s Cramer index,
    cached at construction, and takes their determinants in one
    ``mathx.det_stack`` call into the caller's row; each determinant is the
    bits the full Cramer stack gives it.  ``delta`` takes Delta alone, from
    one determinant (c3's law reads no Y).  ``verify`` holds the full mix,
    with phi2 and phi1 assigned, to the adjugate, and ``mixing_record``
    rebuilds the full [Delta | Y] of every step of a run.  Its history,
    from ``replay``, is phi2 and phi1 after every step.
    """

    kind = "kreisselmeier"

    def __init__(self, dim: int, params: KreisParams | None = None, *, dt: float,
                 block=None):
        _check_positive(dt=dt)
        self.params = params = params or KreisParams()
        self.dim, self.dt = dim, float(dt)
        self.block = tuple(range(dim) if block is None else block)
        # [state; drive], which one product by [decay; gain] scales
        self._state_drive = np.zeros((2, dim, dim + 1))
        self._state, self._drive = self._state_drive
        self._factors = np.empty((2, dim, dim + 1))
        self._factors[0] = 1.0 - self.dt * params.lambda2
        self._factors[1] = self.dt * params.lambda3
        self._phi1, self._phi2 = self._state[:, dim], self._state[:, :dim]
        self._cramer = mathx._cramer_index(dim)[[0, *(1 + j for j in self.block)]]
        self._stack = np.empty(self._cramer.shape)

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

    def step(self, pair: RegressionPair) -> None:
        # the affine step, written out as in the other extension's step (the
        # two change together; a shared helper would cost a call per sample)
        pair.omega_t.dot(pair.aug, out=self._drive)
        # decay * state and gain * drive, then their sum
        self._state_drive *= self._factors
        self._state += self._drive

    def mix(self, out: np.ndarray) -> list:
        """[Delta | Y_block] = [det(phi2) | (adj(phi2) phi1)_block], written
        into the (1 + len(block),) row ``out``, checked finite and returned
        as floats."""
        # take writes into out without a buffered copy in any mode but "raise";
        # the cached indices are all in range, so "wrap" never wraps one
        self._state.take(self._cramer, out=self._stack, mode="wrap")
        det_stack(self._stack, out=out)
        return _checked_mix(out)

    def delta(self) -> float:
        """Delta = det(phi2) alone, ``mix``'s first entry bit for bit, checked."""
        delta = float(det_stack(self._phi2))
        if not math.isfinite(delta):
            raise NumericalDegeneracyError("mixing factor Delta is not finite")
        return delta


# steps per block of ``mixing_record``: the history's states and their
# Cramer stack take 1.44 kB per step, so a block holds about 0.4 MB
MIX_ROWS = 256


def _replay_blocks(extension, omega: np.ndarray, y: np.ndarray, rows: int):
    """Step a fresh extension of ``extension``'s class, ``dim``, ``params``
    and ``dt`` on each recorded [Omega | y] of ``omega`` (steps, n_out, l)
    and ``y`` (steps, n_out), in order, and yield (start, block) after every
    ``rows`` steps: the block holds, per step from ``start`` on, (*w, z) of
    a least-squares extension or the (l, l + 1) state [phi2 | phi1] of a
    Kreisselmeier one, as the step leaves it.  The block is one buffer,
    rewritten for the next."""
    fresh = type(extension)(extension.dim, extension.params, dt=extension.dt)
    l_dim, ls = fresh.dim, fresh.kind == "least_squares"
    y = np.asarray(y)
    pair = RegressionPair(y[0], omega[0])
    block = np.empty((min(rows, len(y)), *((l_dim + 1,) if ls else (l_dim, l_dim + 1))))
    for start in range(0, len(y), rows):
        aug = np.concatenate((omega[start:start + rows], y[start:start + rows, :, None]),
                             axis=-1)
        for k, row in enumerate(aug):
            pair.aug[...] = row
            fresh.step(pair)
            block[k] = (*fresh._w, fresh.z) if ls else fresh._state
        yield start, block[:len(aug)]


def replay(extension, omega: np.ndarray, y: np.ndarray) -> dict:
    """The per-step history of a run's ``extension``: a fresh one of its
    class, ``dim``, ``params`` and ``dt`` steps on each recorded [Omega | y]
    of ``omega`` (steps, n_out, l) and ``y`` (steps, n_out), the bytes the
    run stepped on, bit for bit: "w" and "z_forget", or "phi1" and "phi2"."""
    (_, rec), = _replay_blocks(extension, omega, y, len(y))
    l_dim = extension.dim
    return ({"w": rec[:, :l_dim], "z_forget": rec[:, l_dim]}
            if extension.kind == "least_squares"
            else {"phi1": rec[:, :, l_dim], "phi2": rec[:, :, :l_dim]})


def mixing_record(extension, omega: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The full [Delta | Y] of every step of a run of the Kreisselmeier
    ``extension``, (steps, l + 1), from the run's recorded pairs: the
    history ``replay`` steps, ``MIX_ROWS`` steps at a time, gathered with
    ``mathx``'s full Cramer index and taken in one ``det_stack`` per block.
    Each row is the bits a full mix of that step writes; the rebuild raises
    nothing on a row that is not finite.  Only one block of the history
    and of its Cramer stack is held at a time."""
    cramer = mathx._cramer_index(extension.dim)
    out = np.empty((len(y), extension.dim + 1))
    # a row that is not finite is left for the reader to find, unwarned
    with np.errstate(all="ignore"):
        for start, states in _replay_blocks(extension, omega, y, MIX_ROWS):
            n = len(states)
            det_stack(states.reshape(n, -1)[:, cramer], out=out[start:start + n])
    return out


def excitation_gramian(t: np.ndarray, omega: np.ndarray,
                       t1: float, window: float) -> np.ndarray:
    """Trapezoidal integral of Omega' Omega over [t1, t1 + window].

    ``t`` is the trace time grid and ``omega`` the per-step regressor stack
    (steps, n_out, l).  The window endpoints are snapped to the grid; the
    smallest eigenvalue of the result is the excitation level of the window.

    The integral is ``np.trapezoid``'s order of operations on the window's
    ``einsum`` products, in one pass, bit for bit: per interval
    (G_s+1 + G_s) into one work stack, times its length and halved in
    place, and the areas summed in order (``sum`` over the leading axis of
    a contiguous stack adds its rows in order).  Each (i, j) and (j, i)
    entry sums the same products in the same order, so the result is
    exactly symmetric.
    """
    t = np.asarray(t, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if window <= 0.0:
        raise ValueError("window length must be positive")
    if t1 < t[0] - 1e-12 or t1 + window > t[-1] + 1e-12:
        raise ValueError("excitation window falls outside the trace")
    i0 = int(np.searchsorted(t, t1 - 1e-12))
    i1 = int(np.searchsorted(t, t1 + window - 1e-12))
    rows = omega[i0:i1 + 1]
    gram = np.einsum("ski,skj->sij", rows, rows)
    area = gram[1:] + gram[:-1]
    area *= np.diff(t[i0:i1 + 1])[:, None, None]
    area /= 2.0
    # a window that snaps to one sample has no area: the sum of no rows
    return area.sum(axis=0)
