"""CSV text of float64 arrays in the exact bytes of ``'%.17g' % x``.

``csv_blocks(data)`` formats ``BLOCK_ROWS`` rows at a time, each block in a
fixed number of numpy passes, which also bounds the memory a long array's
text takes:

* **digits.**  With E = floor(log10 |x|), the 17 significant digits are
  D = round(|x| 10^(16 - E)).  The product is taken in double-double
  arithmetic: 10^k comes from a (hi, lo) table built here from exact
  integers, and |x| hi is split into an exact sum by Dekker's product (plain
  multiplies and adds, no fused multiply-add).  Its error is below 1e-13,
  so D is exact wherever the rounding digit lies further than 1e-9 from a
  tie.
* **layout.**  Every value owns ``_SLOTS`` byte slots, held slot-major so
  that each pass writes whole rows: the sign, the "0.000" prefix of fixed
  notation below 1, 17 digits and one '.', the exponent, the separator.
  %g's rules fill them: fixed notation for -4 <= E < 17 and exponent
  notation otherwise, trailing zeros stripped, a '.' only where a digit
  follows it, an exponent of at least two digits.  Unused slots hold NUL,
  which ``bytes.translate`` deletes.
* **fallback.**  Values the fast path cannot vouch for take ``'%.17g' % x``
  in their slots: nan and +-inf, |x| outside [1e-280, 1e280] (the table's
  range, and where Dekker's partial products would leave normal floats),
  a decade from ``log10`` that is off by one (near powers of ten) or a
  rounding that carries into the next decade, and a rounding digit within
  1e-9 of a tie.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

BLOCK_ROWS = 256
_TINY, _HUGE = 1e-280, 1e280
_TIE_MARGIN = 1e-9

# 10^k for every k = 16 - E with E = floor(log10 |x|), |x| in [_TINY, _HUGE],
# one decade of slack each way for log10's misjudged decades
_K_MIN, _K_MAX = 16 - 281, 16 + 281
_SPLIT = 134217729.0    # 2^27 + 1, Veltkamp's splitter for 53-bit floats


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = high + low exactly, each half with at most 26 significant bits."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _pow10_table() -> np.ndarray:
    """Rows (hi, lo, hi's high half, hi's low half) for k = K_MIN .. K_MAX:
    hi is 10^k rounded to float and lo the float nearest to 10^k - hi, so
    hi + lo = 10^k to about 2^-106 relative (Python's int to float and
    int / int conversions round correctly)."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(10 ** k))
            lo.append(float(10 ** k - int(hi[-1])))
        else:
            p = 10 ** -k
            hi.append(1 / p)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * p) / (den * p))
    hi = np.array(hi)
    return np.column_stack([hi, lo, *_split(hi)])


_P10 = _pow10_table()

# D = a 10^8 + b; floor((a + 1/2) 10^-i) and floor((b + 1/2) 10^-i) are exact
# in floats, because a < 10^9 and b < 10^8 leave each true quotient at least
# 5e-10 (relative) away from an integer, far more than the two roundings of
# 10^-i and of the product move it
_A_SCALE = (10.0 ** -np.arange(8, -1, -1))[:, None]
_B_SCALE = (10.0 ** -np.arange(7, -1, -1))[:, None]
_J17 = np.arange(17, dtype=np.uint8)[:, None]

# slot rows of one value
_SIGN = 0
_PREFIX = slice(1, 6)       # "0.000", its first 1 - E bytes for -4 <= E < 0
_MANTISSA = slice(6, 24)    # 17 digits and one '.'
_EXP = slice(24, 29)        # 'e', the exponent's sign and three digits
_SEP = 29
_SLOTS = 30

_E_MIN, _E_MAX = -281, 281  # every decade the fast path can produce
_NO_POINT = 17


def _decade_table() -> np.ndarray:
    """One row of bytes per decade E, from E_MIN on: the five prefix slots,
    the five exponent slots, the digit the '.' may follow (_NO_POINT for
    none) and the fewest digits shown.  %g writes fixed notation for
    -4 <= E < 17 and exponent notation with at least two exponent digits
    otherwise."""
    rows = []
    for e in range(_E_MIN, _E_MAX + 1):
        if -4 <= e < 0:
            row = b"0.000"[:1 - e].ljust(10, b"\0") + bytes([_NO_POINT, 0])
        elif 0 <= e < 17:
            row = bytes(10) + bytes([e, e + 1])
        else:
            text = b"e%+03d" % e
            row = bytes(5) + text[:2] + text[2:].rjust(3, b"\0") + bytes(2)
        rows.append(row.ljust(16, b"\0"))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, 16)


_DECADES = _decade_table()


def csv_blocks(data: np.ndarray) -> Iterator[bytes]:
    """The rows of a 2-D float64 array as ``'%.17g'`` fields joined by ','
    and ended by '\\n', byte for byte, ``BLOCK_ROWS`` rows per item.  The
    large work arrays are made once and reused by every block."""
    rows, cols = data.shape
    size = min(rows, BLOCK_ROWS) * cols
    slots = np.empty((_SLOTS, size), dtype=np.uint8)
    slots[_SEP] = ord(",")
    slots[_SEP, cols - 1::cols] = ord("\n")
    digits = np.empty((17, size))
    scratch = np.empty((8, size))
    chars = np.zeros((18, size), dtype=np.uint8)    # row 17 stays NUL
    for start in range(0, rows, BLOCK_ROWS):
        x = data[start:start + BLOCK_ROWS].ravel()
        n = x.size
        yield _format(x, slots[:, :n], digits[:, :n], scratch[:, :n], chars[:, :n])


def _format(x, slots, digits, scratch, chars) -> bytes:
    """One block: x the block's values in row order, the others its views of
    the work arrays."""
    ax = np.abs(x)
    zero = ax == 0.0
    fast = (ax >= _TINY) & (ax <= _HUGE)
    safe = np.where(fast, ax, 1.0)

    # D = round(|x| 10^(16 - E)) = y_hi + y_lo in double-double arithmetic
    e_guess = np.floor(np.log10(safe)).astype(np.intp)
    hi, lo, hi_h, hi_l = np.take(_P10, 16 - _K_MIN - e_guess, axis=0).T
    x_h, x_l = _split(safe)
    p = safe * hi
    t = (((x_h * hi_h - p) + x_h * hi_l + x_l * hi_h) + x_l * hi_l) + safe * lo
    y_hi = p + t
    y_lo = t - (y_hi - p)
    r_lo = np.rint(y_lo)
    frac = y_lo - r_lo
    d = y_hi.astype(np.int64)
    d += r_lo.astype(np.int64)

    # a decade guess one too high leaves y in [1e15, 1e16), one too low in
    # [1e17, 1e18); D = 1e17, a rounding that carries into the next decade
    # (only floats within 5e-18 below a power of ten have one), falls back too
    misjudged = (d < 10 ** 16) | ((d == 10 ** 16) & (frac < 0.0)) | (d >= 10 ** 17)
    fallback = ~(fast | zero) | misjudged | (np.abs(frac) > 0.5 - _TIE_MARGIN)
    decade = e_guess - _E_MIN
    d[zero] = 0
    decade[zero] = -_E_MIN
    layout = np.take(_DECADES, decade, axis=0)

    # the digits d0 .. d16: a = d0 .. d8, b = d9 .. d16
    a = d // 10 ** 8
    b = d - a * 10 ** 8
    np.multiply(a + 0.5, _A_SCALE, out=digits[:9])
    np.multiply(b + 0.5, _B_SCALE, out=digits[9:])
    np.floor(digits, out=digits)
    np.multiply(digits[:8], 10.0, out=scratch)
    digits[1:9] -= scratch
    np.multiply(digits[9:16], 10.0, out=scratch[:7])
    digits[10:] -= scratch[:7]
    chars[:17] = digits

    # the significant digits run to the last non-zero one, and in fixed
    # notation to the units digit at least; the '.' follows digit
    # point_after where a digit follows it
    last = ((chars[:17] != 0) * (_J17 + 1)).max(axis=0)
    np.maximum(last, layout[:, 11], out=last)
    chars[:17] += ord("0")
    chars[:17] *= _J17 < last
    point_after = layout[:, 10].copy()
    point_after[last <= point_after + 1] = _NO_POINT
    mantissa = slots[_MANTISSA]
    mantissa[0] = chars[0]
    np.multiply(chars[1:], _J17 < point_after, out=mantissa[1:])
    mantissa[1:] += chars[:17] * (_J17 > point_after)
    point = (_J17 == point_after).view(np.uint8)
    point *= ord(".")
    mantissa[1:] += point

    slots[_SIGN] = np.signbit(x)
    slots[_SIGN] *= ord("-")
    slots[_PREFIX] = layout[:, :5].T
    slots[_EXP] = layout[:, 5:10].T

    where = np.flatnonzero(fallback)
    if where.size:
        text = _percent_g17(x[where].tolist())
        slots[:_SEP, where] = np.frombuffer(text, dtype=np.uint8).reshape(where.size, _SEP).T
    return slots.T.tobytes().translate(None, b"\0")


def _percent_g17(values: list[float]) -> bytes:
    """The fallback: ``'%.17g' % v`` of each value, NUL-padded to the slots
    before the separator (no %.17g text is longer than 24 bytes)."""
    return b"".join([(b"%.17g" % v).ljust(_SEP, b"\0") for v in values])
