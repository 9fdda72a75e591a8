"""Signed-power arithmetic and small dense-matrix helpers.

Everything here targets the tiny fixed sizes that occur in the control loop
(vectors up to length 6, matrices up to 6x6).  None of it is meant for
general-purpose linear algebra.
"""

from __future__ import annotations

import math

import numpy as np

MAX_DIM = 6


def signed_power(z: float, q: float) -> float:
    """|z|**q * sign(z), with sign(0) = 0 so the result is exactly 0.0 at z = 0."""
    if not (isinstance(q, (int, float)) and math.isfinite(q) and q > 0.0):
        raise ValueError(f"exponent must be a finite positive number, got {q!r}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")
    if z == 0.0:
        return 0.0
    return math.copysign(abs(z) ** q, z)


def signed_power_vec(z, q: float) -> np.ndarray:
    """Elementwise signed power of a vector."""
    if not (isinstance(q, (int, float)) and math.isfinite(q) and q > 0.0):
        raise ValueError(f"exponent must be a finite positive number, got {q!r}")
    z = np.asarray(z, dtype=float)
    if not all(map(math.isfinite, z.ravel().tolist())):
        raise ValueError("argument must be finite")
    return np.sign(z) * np.abs(z) ** q


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"{name} dimension {a.shape[0]} exceeds the supported {MAX_DIM}")
    return a


def _det3(a: np.ndarray) -> float:
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def det(a) -> float:
    """Determinant: exact cofactor expansion for m <= 3, LU with partial
    pivoting (LAPACK) for 4 <= m <= 6."""
    a = _as_square(a)
    m = a.shape[0]
    if m == 1:
        return float(a[0, 0])
    if m == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    if m == 3:
        return _det3(a)
    return float(np.linalg.det(a))


def adjugate(a) -> np.ndarray:
    """Adjugate (transposed cofactor matrix).  Satisfies A adj(A) = det(A) I,
    including for singular A, which is why it is not computed via inv()."""
    a = _as_square(a)
    m = a.shape[0]
    if m == 1:
        return np.ones((1, 1))
    out = np.empty((m, m))
    rows = np.arange(m)
    for i in range(m):
        for j in range(m):
            minor = a[np.ix_(rows != i, rows != j)]
            out[j, i] = (-1.0) ** (i + j) * det(minor)
    return out


def det_and_cramer(phi, v) -> tuple[float, np.ndarray]:
    """(det(phi), cramer_products(phi, v)), the per-step path of the mixing
    stage.

    phi and its m column-replaced copies are stacked and their determinants
    taken in one batch; each determinant equals the one a separate ``det``
    call gives, so the values match the two calls bit for bit.
    """
    phi = _as_square(phi, "phi")
    m = phi.shape[0]
    v = np.asarray(v, dtype=float)
    if v.shape != (m,):
        raise ValueError(f"vector length {v.shape} does not match matrix dimension {m}")
    stacked = np.empty((m + 1, m, m))
    stacked[:] = phi
    cols = np.arange(m)
    stacked[cols + 1, :, cols] = v
    if m <= 3:
        dets = np.array([det(a) for a in stacked])
    else:
        dets = np.linalg.det(stacked)
    return float(dets[0]), dets[1:]


def cramer_products(phi, v) -> np.ndarray:
    """w_j = det of phi with column j replaced by v; equals adjugate(phi) @ v."""
    return det_and_cramer(phi, v)[1]


def min_eig_sym(a, sym_tol: float = 1e-9) -> float:
    """Smallest eigenvalue of a symmetric matrix (m <= 6).

    Closed form for m <= 2 (the per-step case), LAPACK's symmetric
    eigensolver above that.  Raises if the input is asymmetric beyond
    ``sym_tol`` (relative to max(1, |a|_max)).
    """
    a = _as_square(a)
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    a = 0.5 * (a + a.T)
    m = a.shape[0]
    if m == 1:
        return float(a[0, 0])
    if m == 2:
        tr = a[0, 0] + a[1, 1]
        gap = math.sqrt((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] ** 2)
        return float(0.5 * (tr - gap))
    return float(np.linalg.eigvalsh(a)[0])


def max_eig_sym(a, sym_tol: float = 1e-9) -> float:
    """Largest eigenvalue of a symmetric matrix (m <= 6)."""
    return -min_eig_sym(-np.asarray(a, dtype=float), sym_tol)
