"""The float kernel against Python's ``repr``, byte for byte.

``repr`` is the reference: every value class the CSV writer can meet is
compared whole, over random bit patterns, random short decimals, the
edges where the layout or the rounding interval changes, and Hypothesis'
own floats.  The power-of-ten table, the exponent estimates and the 128-bit
product are checked against exact integer arithmetic.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsi_lab import _floattext, cli

SUBNORMAL_MAX = 2.225073858507201e-308
NORMAL_MIN = 2.2250738585072014e-308
DBL_MAX = 1.7976931348623157e308


def kernel_lines(values) -> bytes:
    """The kernel's text of ``values``, one line each, a slice at a time."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    lines = []
    for start in range(0, values.size, 1 << 16):
        text = _floattext.text(values[start : start + (1 << 16)])
        assert text.shape[1] == _floattext.WIDTH
        text = np.concatenate([text, np.full((len(text), 1), ord("\n"), np.uint8)], axis=1)
        lines.append(text[text != 0].tobytes())
    return b"".join(lines)


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    want = "".join(f"{value!r}\n" for value in values.tolist()).encode()
    got = kernel_lines(values)
    if got != want:
        pairs = zip(got.decode().splitlines(), want.decode().splitlines(), values.tolist())
        wrong = [(value, text, expected) for text, expected, value in pairs if text != expected]
        pytest.fail(f"{len(wrong)} values differ from repr, first {wrong[:5]}")


def neighbours(values):
    """Each value, its two adjacent doubles and the negations of all three."""
    values = np.asarray(values, dtype=np.float64)
    # the neighbours of the largest double are infinite
    with np.errstate(over="ignore"):
        around = np.concatenate(
            [values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
        )
    return np.concatenate([around, -around])


def test_random_bit_patterns():
    # every finite class, subnormals, infinities and NaN payloads included
    bits = np.random.default_rng(20200).integers(0, 2 ** 64, size=1_048_576, dtype=np.uint64)
    assert_repr(bits.view(np.float64))


def test_random_short_decimals():
    # a double parsed from a decimal of n <= 17 digits prints as at most n
    # digits, which reaches the branch that drops one digit; random bit
    # patterns almost never do
    rng = np.random.default_rng(2018)
    digits = rng.integers(1, 18, size=100_000)
    mantissas = rng.integers(0, 10 ** 17, size=100_000, dtype=np.uint64) % (
        10 ** digits.astype(np.uint64)
    )
    exponents = rng.integers(-340, 310, size=100_000)
    assert_repr([float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())])


@pytest.mark.parametrize(
    "values",
    [
        [0.0, -0.0, 5e-324, -5e-324, SUBNORMAL_MAX, NORMAL_MIN, DBL_MAX, -DBL_MAX],
        [math.inf, -math.inf, math.nan, -math.nan],
        neighbours([5e-324, SUBNORMAL_MAX, NORMAL_MIN, DBL_MAX]),
        neighbours([2.0 ** e for e in range(-1074, 1024)]),
        neighbours([float(f"1e{e}") for e in range(-323, 309)]),
        # integers around 2**53, where consecutive doubles are 1 then 2 apart
        neighbours(np.arange(2 ** 53 - 100, 2 ** 53 + 100, dtype=np.float64)),
        np.arange(-50_000, 50_001, dtype=np.float64),
        # the layout switches from fixed to exponent form at 1e16 and 1e-4
        neighbours([1e16, 1e-4, 1e15, 1e-5, 9999999999999998.0, 0.00009999999999999999]),
        np.nextafter(1e16, np.inf) * np.arange(1, 100) / 100,
        [0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1e22, 1e23, 123456789012345678.0, 1.5, -2.5],
    ],
    ids=[
        "extremes", "inf_nan", "extreme_neighbours", "powers_of_2", "powers_of_10",
        "around_2_53", "integers", "layout_switches", "below_1e16", "familiar",
    ],
)
def test_edge_classes(values):
    assert_repr(values)


BLOCK = _floattext._BLOCK


@pytest.mark.parametrize(
    "size",
    [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, cli._CHUNK_VALUES + 1],
    ids=["one", "block_less_1", "block", "block_plus_1", "two_blocks_plus_1", "chunk_plus_1"],
)
def test_layout_block_edges(size):
    # the layout gathers text one block of values at a time: every value
    # class, picked at random, lands on either side of each block boundary
    rng = np.random.default_rng(size)
    pool = np.concatenate([
        neighbours([0.0, 5e-324, SUBNORMAL_MAX, NORMAL_MIN, DBL_MAX, 1e16, 1e-4, 1e-5, 0.1]),
        [math.inf, -math.inf, math.nan, -math.nan],
        rng.integers(0, 2 ** 64, size=64, dtype=np.uint64).view(np.float64),
    ])
    assert_repr(rng.choice(pool, size))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float(values):
    assert_repr(values)


def test_any_shape():
    values = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7
    text = _floattext.text(values)
    assert text.shape == (24, _floattext.WIDTH)
    assert [bytes(row).rstrip(b"\0").decode() for row in text] == list(
        map(repr, values.ravel().tolist())
    )


def floor_log2(x: Fraction) -> int:
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e if Fraction(2) ** e <= x else e - 1


def test_power_of_ten_rows():
    rows = np.arange(_floattext._K_MIN + _floattext._K_MAX + 1)
    _floattext._fill_g(rows)
    for row in rows.tolist():
        k = row - _floattext._K_MIN
        ten = Fraction(10) ** k
        r = floor_log2(ten) - 127
        g = math.floor(ten / Fraction(2) ** r) + 1
        assert 2 ** 127 < g < 2 ** 128
        assert _floattext._g_row(k) == g
        assert sum(int(limb) << (32 * i) for i, limb in enumerate(_floattext._G[:, row])) == g


def test_exponent_estimates():
    # every binary exponent q of a double, and every decimal k it maps to
    for q in range(-1074, 972):
        two = Fraction(2) ** q
        k = (q * 1262611) >> 22
        assert Fraction(10) ** k <= two < Fraction(10) ** (k + 1)
        k = (q * 1262611 - 524031) >> 22
        assert Fraction(10) ** k <= two * 3 / 4 < Fraction(10) ** (k + 1)
    for k in range(-_floattext._K_MIN, _floattext._K_MAX + 1):
        assert (k * 1741647) >> 19 == floor_log2(Fraction(10) ** k)


def test_round_to_odd_products():
    # the limb arithmetic against exact integers, at the largest operands
    rng = random.Random(127)
    gs = [2 ** 128 - 1, 2 ** 127] + [2 ** 127 | rng.getrandbits(127) for _ in range(2000)]
    cps = [2 ** 59 - 1, 1] + [rng.getrandbits(59) for _ in range(2000)]
    limbs = [np.array([(g >> shift) & 0xFFFFFFFF for g in gs], dtype=np.uint64)
             for shift in (0, 32, 64, 96)]
    got = _floattext._round_to_odd(limbs, np.array(cps, dtype=np.uint64)).tolist()
    want = [
        (g * cp >> 128) | (((g * cp >> 64) & (2 ** 64 - 1)) > 1) for g, cp in zip(gs, cps)
    ]
    assert got == want
