"""Signed-power arithmetic and the few matrix helpers the run path calls.

The step loop's n = 2 arithmetic runs on Python floats, written out where
it is taken: each signed power <z>^q of a float is
``math.copysign(abs(z) ** q, z) if z else 0.0`` in the controller that
takes it.  ``signed_power_vec`` is that expression over a whole array, bit
for bit, with its arguments checked, for the checked saturation and the
monitors that run after the loop.
``eigh_sym`` and ``det_stack`` are the extensions' two LAPACK calls per
step: the gufuncs that ``np.linalg.eigh`` and ``np.linalg.det`` call,
bound to these names with no wrapper of ours either, which gives the same
bits without the wrappers' cost.  They are numpy's private
``numpy.linalg._umath_linalg`` loops, named nowhere else in ftlab; the numpy
pin in ``pyproject.toml`` and a bitwise test against the public functions
guard them.  The Kreisselmeier mixing gathers phi2 and its Cramer copies
from its stacked l = 5 state [phi2 | phi1] with the cached flat index of
``_cramer_index`` and hands the stack to ``det_stack``, which writes the
determinants into the caller's mixing row (the least-squares mixing takes
its determinants from an eigendecomposition, in ``drem``).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from numpy.linalg import _umath_linalg


def signed_power_vec(z, q: float) -> np.ndarray:
    """Elementwise <z>^q of an array, each entry the float expression
    ``math.copysign(abs(z) ** q, z) if z else 0.0`` bit for bit, with z
    checked finite and q a finite positive exponent (ValueError otherwise).  |z|**q is
    ``math.pow``, the C pow that float ``**`` calls: numpy's vectorised
    power can differ from it in the last bit."""
    if not (isinstance(q, (int, float)) and math.isfinite(q) and q > 0.0):
        raise ValueError(f"exponent must be a finite positive number, got {q!r}")
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise ValueError("argument must be finite")
    out = np.fromiter(map(math.pow, np.abs(z).ravel().tolist(), itertools.repeat(q)),
                      float, z.size).reshape(z.shape)
    np.copysign(out, z, out=out)
    out[z == 0.0] = 0.0
    return out


# The extensions' two LAPACK calls per step are the gufuncs themselves, with
# no Python wrapper around them.  On float64 input their type resolution
# picks the "d" loops that np.linalg.eigh and np.linalg.det force with a
# signature, so they give the same bits without the wrappers' cost.
# eigh_sym(a) -> (w, v) reads the lower triangle of the symmetric a, w
# ascending and v's columns the eigenvectors; unlike np.linalg.eigh it raises
# no LinAlgError, a decomposition that fails comes back as NaN, so the caller
# checks w.  det_stack(a, out=None) takes the determinants of a stack of
# square matrices (one batched LU), written into ``out`` if given.
eigh_sym = _umath_linalg.eigh_lo
det_stack = _umath_linalg.det


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
