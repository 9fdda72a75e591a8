"""Signed-power arithmetic and the few matrix helpers the run path calls.

The step loop's n = 2 arithmetic runs on Python floats, with ``spow``,
``matvec2`` and ``eig_sym2`` as its kernels.  ``det_and_cramer`` is the
Kreisselmeier mixing's determinant call: it takes the extension's stacked
l = 5 state [phi2 | phi1] as it stands and gathers phi2 and its Cramer
copies with one cached flat index (the least-squares mixing takes its
determinants from an eigendecomposition, in ``drem``).  ``min_eig_sym`` is
the excitation level of the metrics' Gramian.
"""

from __future__ import annotations

import functools
import math

import numpy as np

def spow(z: float, q: float) -> float:
    """|z|**q * sign(z) of a float, 0.0 at z = 0; NaN stays NaN.  Unchecked:
    the step loop calls it on values it has checked finite."""
    return math.copysign(abs(z) ** q, z) if z else 0.0


def matvec2(a, v) -> tuple[float, float]:
    """a v for a 2x2 matrix a, given as two rows, and a 2-vector v."""
    (a11, a12), (a21, a22) = a
    v1, v2 = v
    return a11 * v1 + a12 * v2, a21 * v1 + a22 * v2


def _check_exponent(q) -> None:
    if not (isinstance(q, (int, float)) and math.isfinite(q) and q > 0.0):
        raise ValueError(f"exponent must be a finite positive number, got {q!r}")


def check_power_args(z: float, q: float) -> float:
    """float(z), after checking that z is finite and q a finite positive
    exponent; raises ValueError otherwise."""
    _check_exponent(q)
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z!r}")
    return z


def signed_power(z: float, q: float) -> float:
    """``spow`` with its arguments checked (``check_power_args``)."""
    return spow(check_power_args(z, q), q)


def signed_power_vec(z, q: float) -> np.ndarray:
    """Elementwise ``signed_power`` of an array, through the float kernel."""
    _check_exponent(q)
    z = np.asarray(z, dtype=float)
    flat = z.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError("argument must be finite")
    return np.array([spow(x, q) for x in flat]).reshape(z.shape)


def eig_sym2(a: float, b: float, d: float) -> tuple[float, float]:
    """Eigenvalues (lower, upper) of the symmetric 2x2 matrix [[a, b], [b, d]]."""
    tr = a + d
    gap = math.sqrt((a - d) ** 2 + 4.0 * b ** 2)
    return 0.5 * (tr - gap), 0.5 * (tr + gap)


@functools.cache
def _cramer_index(m: int) -> np.ndarray:
    """Flat indices into an (m, m + 1) matrix [phi | v] that gather phi and
    its m copies with column j replaced by v, as one (m + 1, m, m) stack."""
    cols = np.tile(np.arange(m), (m + 1, m, 1))
    j = np.arange(m)
    cols[j + 1, :, j] = m
    index = np.arange(m)[:, None] * (m + 1) + cols
    index.flags.writeable = False
    return index


def det_and_cramer(aug) -> tuple[float, np.ndarray]:
    """(det(phi), w) of the augmented (m, m + 1) matrix [phi | v], with w_j
    the determinant of phi with column j replaced by v, which equals
    adj(phi) v: the Kreisselmeier mixing's one call per step.

    phi and its m column-replaced copies are gathered into one stack and
    their determinants taken in one batched LU (LAPACK) call; each equals
    the determinant of the same matrix taken alone, bit for bit.
    """
    aug = np.asarray(aug, dtype=float)
    if aug.ndim != 2 or aug.shape[1] != aug.shape[0] + 1:
        raise ValueError(f"augmented matrix [phi | v] must have shape (m, m + 1), "
                         f"got {aug.shape}")
    dets = np.linalg.det(aug.take(_cramer_index(aug.shape[0])))
    return float(dets[0]), dets[1:]


def min_eig_sym(a, sym_tol: float = 1e-9) -> float:
    """Smallest eigenvalue of a symmetric matrix, by LAPACK's symmetric
    eigensolver.  Raises if the input is asymmetric beyond ``sym_tol``
    (relative to max(1, |a|_max))."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    if float(np.max(np.abs(a - a.T))) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[0])
