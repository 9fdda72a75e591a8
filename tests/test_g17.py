"""The trace CSV formatter against the '%.17g' row loop of reference.py.

Every test compares bytes, and every test turns numpy warnings into errors,
so a fast-path pass that warns on an input it hands to the fallback fails
here.  The edge set holds each kind of input the fast path refuses, and the
tests check that those take the fallback and that ordinary values do not.
"""

import math
import struct
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from ftlab import _g17

pytestmark = pytest.mark.filterwarnings("error")


def formatted(values, cols=None):
    data = np.asarray(values, dtype=float).reshape(-1, cols or len(values))
    return b"".join(_g17.csv_blocks([data])).decode("ascii")


def expected(values, cols=None):
    return ref.csv_rows(np.asarray(values, dtype=float).reshape(-1, cols or len(values)))


@pytest.fixture
def fallback_values(monkeypatch):
    """The values the formatter hands to its '%.17g' fallback."""
    taken = []
    real = _g17._percent_g17

    def recording(values):
        taken.extend(values)
        return real(values)

    monkeypatch.setattr(_g17, "_percent_g17", recording)
    return taken


def _with_neighbours(values):
    out = []
    for v in values:
        out += [np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf)]
    return out


def _ties():
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    m 2^-s with m odd, so m 5^s is that 18-digit integer."""
    ties = []
    for s in range(2, 26):
        low = -(-10 ** 17 // 5 ** s) | 1
        high = min(10 ** 18 // 5 ** s, 2 ** 53)
        for m in range(low, high, max(2, (high - low) // 7 & ~1)):
            v = math.ldexp(m, -s)
            ties += [v, -v]
    return ties


POWERS_10 = _with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
POWERS_2 = _with_neighbours([math.ldexp(1.0, k) for k in range(-1074, 1024)])
SWITCH_POINTS = _with_neighbours([1e-5, 1e-4, 1e16, 1e17])
LOG10_LOW = _with_neighbours([float(f"1e{k}") for k in range(-280, -269)])
TIES = _ties()
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]
EDGES = POWERS_10 + POWERS_2 + SWITCH_POINTS + LOG10_LOW + TIES + SPECIAL


def _exact_decade(v):
    return Decimal(v).adjusted()


def _is_tie(v):
    """Whether v's exact decimal has 18 significant digits, the last a 5."""
    digits = Decimal(v).as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


class TestEdges:
    def test_edge_set_writes_percent_bytes(self):
        assert formatted(EDGES, cols=1) == expected(EDGES, cols=1)
        assert formatted(EDGES[:-1], cols=7) == expected(EDGES[:-1], cols=7)

    def test_ties_are_ties(self):
        assert len(TIES) > 100 and all(map(_is_tie, TIES))

    def test_refused_inputs_take_the_fallback(self, fallback_values):
        formatted(EDGES, cols=1)
        taken = {struct.pack("<d", v) for v in fallback_values}
        refused = [v for v in EDGES
                   if not math.isfinite(v) or (v != 0.0 and not 1e-280 <= abs(v) <= 1e280)]
        # a decade guess above the true one leaves y under 1e16, which the
        # fast path must notice
        fast = [v for v in EDGES if math.isfinite(v) and 1e-280 <= abs(v) <= 1e280]
        guesses = np.floor(np.log10(np.abs(fast))).astype(int).tolist()
        high_guess = [v for v, e in zip(fast, guesses) if e > _exact_decade(v)]
        assert high_guess and any(1e-281 < abs(v) < 1e-269 for v in high_guess)
        for v in refused + high_guess + TIES:
            assert struct.pack("<d", v) in taken, v

    def test_ordinary_values_take_the_fast_path(self, fallback_values):
        # floats between 2^47 and 2^56 have few fraction bits, so many of them
        # are exact ties; those, and only those, take the fallback here
        rng = np.random.default_rng(7)
        values = rng.standard_normal(4096) * 10.0 ** rng.integers(-30, 30, 4096)
        values[::9] = 0.0
        assert formatted(values, cols=16) == expected(values, cols=16)
        assert fallback_values and all(map(_is_tie, fallback_values))
        assert len(fallback_values) < 100

    def test_fixed_and_exponent_layouts(self):
        values = [1e-5, 1.5e-5, 1e-4, 1.25e-4, 0.001, 0.5, 1.0, 10.0, 123.456, 1e15, 1e16,
                  12345678901234567.0, 1e17, 1.5e17, 1e99, 1e100, 1.5e-100, 1e-99, 1e280,
                  9.999999999999999e16, 0.1 + 0.2, 1 / 3, -2 / 3, 2.0 ** 60]
        assert formatted(values) == expected(values)


def _from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


any_float = st.one_of(st.floats(), st.integers(0, 2 ** 64 - 1).map(_from_bits))


@given(st.lists(any_float, min_size=1, max_size=60))
def test_any_floats_write_percent_bytes(values):
    assert formatted(values) == expected(values)
    assert formatted(values, cols=1) == expected(values, cols=1)


def test_series_are_gathered_side_by_side():
    # 1-D and 2-D series, strided views among them, over three blocks: the
    # rows of their column_stack; series of unequal length are refused,
    # a length-1 series too, which would otherwise broadcast
    rng = np.random.default_rng(3)
    rows = 2 * _g17.BLOCK_ROWS + 1
    packed = rng.standard_normal((rows, 6)) * 10.0 ** rng.integers(-20, 20, (rows, 6))
    series = [packed[:, 4], packed[:, 0:3], rng.standard_normal(rows), packed[:, 3:6:2]]
    text = b"".join(_g17.csv_blocks(series)).decode("ascii")
    assert text == ref.csv_rows(np.column_stack(series))
    for bad in (series + [np.zeros(rows - 1)], series + [np.zeros(1)]):
        with pytest.raises(ValueError, match="differ in length"):
            list(_g17.csv_blocks(bad))
