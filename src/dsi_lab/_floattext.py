"""Shortest round-trip text of float64 arrays, byte for byte Python's ``repr``.

``text(values)`` returns one row of ASCII bytes per value, padded with NUL.
It runs in two array stages, with no Python object per value:

- Digits: Schubfach (Giulietti, "The Schubfach way to render doubles",
  2020) picks the shortest decimal ``d * 10**e`` that rounds back to the
  double's magnitude, the closest one where several qualify.  Its 128-bit
  products are built from 32-bit limbs held in ``uint64``.  The digits of
  ``d`` go into a byte row of the alphabet below, by a table of all
  4-digit strings.
- Layout: Python's ``repr`` rules pick, from the sign, the digit count and
  the decimal point position, a template of indices into that row.  Fixed
  notation, with ``.0`` on an integral value, serves ``0.0001`` up to
  ``9999999999999998.0``; the rest, ``1e-05`` and ``1e+16`` on, is
  ``d.ddde±XX``.  Zero keeps its sign, infinity is ``inf`` and NaN is
  ``nan``, signed or not.  The templates of a block of values, offset to
  their rows, form a gather index with one entry per output byte, built
  and used one block of 2,048 values at a time, each block's text written
  into the one result array.  A whole 16,384-value index would be 3 MB
  that every first call in a process (or forked worker) faults in.

Every integer array here is ``uint64`` or ``int64``, never both in one
operation: numpy would promote the mix to float64 and drop bits.  The
power-of-ten rows and the templates are pure functions of their index,
filled on first use, because most runs need few of them.
"""

from __future__ import annotations

import numpy as np

# widest repr of a double: "-1.2345678901234567e-308"
WIDTH = 24

_MASK32 = np.uint64(0xFFFFFFFF)
_FRACTION_BITS = np.uint64((1 << 52) - 1)
_SIGN_SHIFT = np.uint64(63)
_ONE_BITS = np.uint64(0x3FF0000000000000)
_INF_BITS = np.uint64(0x7FF0000000000000)

# g(k) for k = -_K_MIN ... _K_MAX, the exponents floor(log10(2**q)) of
# finite doubles negated; row k + _K_MIN holds its four 32-bit limbs
_K_MIN, _K_MAX = 292, 324
_G = np.zeros((4, _K_MIN + _K_MAX + 1), dtype=np.uint64)
_G_FILLED = np.zeros(_K_MIN + _K_MAX + 1, dtype=bool)

# 10**0 ... 10**17: a significand has at most 17 digits
_POW10 = 10 ** np.arange(18, dtype=np.uint64)

# "0000" ... "9999" as one little-endian uint32 each
_QUADS = np.arange(ord("0"), ord("9") + 1, dtype="<u4")
_QUADS = (
    _QUADS[:, None, None, None]
    | _QUADS[:, None, None] << 8
    | _QUADS[:, None] << 16
    | _QUADS << 24
).ravel()

# a value's alphabet row, nine uint32 words of text: "000" and the first
# digit of its 17-digit significand (bytes 0-3), the other 16 digits
# (4-19), "0" and the 3 digits of its decimal exponent's magnitude (20-23),
# the fixed characters ".e-+infa" (24-31) and NUL padding
_ROW = 36
_ZERO = 0
_DIGITS_END = 20
_EXP_DIGITS = 21
_DOT, _E, _MINUS, _PLUS, _I, _N, _F, _A, _NUL = range(24, 33)
_FIXED = np.frombuffer(b".e-+infa\0\0\0\0", dtype="<u4")

# a layout is the decimal point position -3 ... 16 (fixed notation, codes
# 0 ... 19) or an exponent form: negative with 2 or 3 digits (20, 21),
# positive with 2 or 3 digits (22, 23).  The point position of a finite
# double lies in -323 ... 309.
_LAYOUTS = 24
_POINT_MIN = -323
_points = np.arange(_POINT_MIN, 310)
_LAYOUT_OF_POINT = np.where(
    _points < -3,
    20 + (_points < -98),
    np.where(_points <= 16, _points + 3, 22 + (_points > 100)),
)
del _points

# a magnitude class is n * _LAYOUTS + layout for n = 1 ... 17 digits;
# n = 0 marks zero, infinity and NaN (layouts 0, 1, 2), and a negative
# sign adds _SIGNED
_INF, _NAN = 1, 2
_SIGNED = 18 * _LAYOUTS
_TEMPLATES = np.full((2 * _SIGNED, WIDTH), _NUL, dtype=np.intp)
_TEMPLATES_FILLED = np.zeros(2 * _SIGNED, dtype=bool)

# the layout gathers the text of _BLOCK values at a time, so its index
# (8 bytes per output byte) stays a few hundred kilobytes; _ROW_STARTS[i]
# is where row i of a block starts in the block's flattened alphabet rows
_BLOCK = 2048
_ROW_STARTS = np.arange(0, _BLOCK * _ROW, _ROW, dtype=np.intp)[:, None]


def _g_row(k: int) -> int:
    """floor(10**k / 2**r) + 1 with r = floor(log2(10**k)) - 127: a 128-bit
    overestimate of 10**k scaled into [2**127, 2**128)."""
    p = 10 ** abs(k)
    if k >= 0:
        r = p.bit_length() - 128
        return (p >> r if r >= 0 else p << -r) + 1
    return (1 << (p.bit_length() + 127)) // p + 1


def _missing(indices: np.ndarray, filled: np.ndarray) -> list[int]:
    """The distinct entries of ``indices`` not yet ``filled``."""
    wanted = np.zeros_like(filled)
    wanted[indices] = True
    return np.flatnonzero(wanted > filled).tolist()


def _fill_g(rows: np.ndarray) -> None:
    for row in _missing(rows, _G_FILLED):
        g = _g_row(row - _K_MIN)
        _G[:, row] = [(g >> shift) & 0xFFFFFFFF for shift in (0, 32, 64, 96)]
        _G_FILLED[row] = True


def _template(cls: int) -> list[int]:
    """Alphabet-row indices of the text of magnitude class ``cls``."""
    negative, cls = divmod(cls, _SIGNED)
    n, layout = divmod(cls, _LAYOUTS)
    sign = [_MINUS] if negative else []
    if n == 0:
        return [[*sign, _ZERO, _DOT, _ZERO], [*sign, _I, _N, _F], [_N, _A, _N]][layout]
    digits = list(range(_DIGITS_END - n, _DIGITS_END))
    if layout < 20:
        point = layout - 3
        if point <= 0:
            return [*sign, _ZERO, _DOT] + [_ZERO] * -point + digits
        if point < n:
            return [*sign, *digits[:point], _DOT, *digits[point:]]
        return [*sign, *digits] + [_ZERO] * (point - n) + [_DOT, _ZERO]
    mantissa = digits[:1] + ([_DOT, *digits[1:]] if n > 1 else [])
    # odd layouts have 3 exponent digits
    exponent = range(_EXP_DIGITS + 1 - layout % 2, _EXP_DIGITS + 3)
    return [*sign, *mantissa, _E, _MINUS if layout < 22 else _PLUS, *exponent]


def _fill_templates(classes: np.ndarray) -> None:
    for cls in _missing(classes, _TEMPLATES_FILLED):
        template = _template(cls)
        _TEMPLATES[cls, : len(template)] = template
        _TEMPLATES_FILLED[cls] = True


def _round_to_odd(g, cp):
    """floor(g * cp / 2**128), its lowest bit set where the next 64 bits of
    the product exceed 1.  ``g`` is four 32-bit limbs, ``cp`` < 2**59."""
    c0 = cp & _MASK32
    c1 = cp >> np.uint64(32)
    # column sums of 32-bit positions, in place, with one product g[i] * c0
    # alive at a time; each small product g[i] * c1 is below 2**59, so no
    # sum reaches 2**64
    b = g[0] * c0
    acc = b >> np.uint64(32)
    b = g[1] * c0
    acc += b & _MASK32
    acc += g[0] * c1
    acc >>= np.uint64(32)
    acc += b >> np.uint64(32)
    b = g[2] * c0
    acc += b & _MASK32
    acc += g[1] * c1
    w2 = acc & _MASK32
    acc >>= np.uint64(32)
    acc += b >> np.uint64(32)
    b = g[3] * c0
    acc += b & _MASK32
    acc += g[2] * c1
    w3 = acc & _MASK32
    acc >>= np.uint64(32)
    acc += b >> np.uint64(32)
    acc += g[3] * c1
    w3 |= w2 >> np.uint64(1)
    return acc | (w3 != 0)


def _shortest(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach: the shortest ``d * 10**e`` that rounds to each positive
    finite double, by its bits; returns ``(d, e)`` as uint64 and int64."""
    # arrays no longer read are updated in place: each is the size of the
    # chunk, and the fewer are alive at once, the fewer pages a process's
    # first call faults in
    exponent_bits = (magnitudes >> np.uint64(52)).astype(np.int64)
    c = magnitudes & _FRACTION_BITS
    # at a power of two (not the least normal) the lower neighbour is half
    # as far as the upper one
    closer = (c == 0) & (exponent_bits > 1)
    c |= (exponent_bits != 0).astype(np.uint64) << np.uint64(52)
    q = np.maximum(exponent_bits, 1, out=exponent_bits)
    q -= 1075
    k = q * 1262611
    k -= closer * 524031
    k >>= 22
    # h = q + floor(-k log2(10)) + 1 lies in 1 ... 4, so its int64 bits
    # read as the same uint64
    q += (k * -1741647) >> 19
    q += 1
    h = q.view(np.uint64)
    rows = _K_MIN - k
    _fill_g(rows)
    g = [limbs.take(rows) for limbs in _G]

    # the interval's ends belong to it when c is even
    odd = c & np.uint64(1)
    # c's array holds 4 c from here on, and last 4 c + 2 shifted by h
    c <<= np.uint64(2)
    vb = _round_to_odd(g, c << h)
    lower = _round_to_odd(g, (c - np.uint64(2) + closer.astype(np.uint64)) << h)
    lower += odd
    c += np.uint64(2)
    c <<= h
    upper = _round_to_odd(g, c)
    upper -= odd

    s = vb >> np.uint64(2)
    # one digit fewer: exactly one of s', s' + 1 (times 10**(k + 1)) inside
    sp = s // np.uint64(10)
    sp40 = sp * np.uint64(40)
    up_in = lower <= sp40
    wp_in = sp40 + np.uint64(40) <= upper
    shorter = (s >= np.uint64(10)) & (up_in != wp_in)
    # otherwise s or s + 1: the one inside, else the closer, else the even one
    s4 = s << np.uint64(2)
    u_in = lower <= s4
    w_in = s4 + np.uint64(4) <= upper
    # the closer: above the midpoint 4 s + 2, or on it with s odd
    up = np.where(u_in != w_in, w_in, vb + (s & np.uint64(1)) > s4 + np.uint64(2))
    d = np.where(shorter, sp + wp_in, s + up)
    return d, k + shorter


def _strip_zeros(d: np.ndarray, e: np.ndarray) -> None:
    """Remove the trailing decimal zeros of ``d``, in place.

    ``d`` < 10**17 has at most 15: the branch that drops a digit takes
    every multiple of 10 in the rounding interval, so a 17-digit ``d``
    never ends in 0.
    """
    for zeros in (8, 4, 2, 1):
        power = _POW10[zeros]
        quotient = d // power
        whole = quotient * power == d
        np.copyto(d, quotient, where=whole)
        e += whole * zeros


def _digits(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The digit stage: one alphabet row and one magnitude class per value."""
    zero = magnitudes == 0
    special = magnitudes >= _INF_BITS
    # zero, infinity and NaN run through as 1.0 and are classed afterwards
    d, e = _shortest(np.where(zero | special, _ONE_BITS, magnitudes))
    _strip_zeros(d, e)
    n = np.searchsorted(_POW10, d, side="right")
    point = e + n
    classes = n * _LAYOUTS + _LAYOUT_OF_POINT[point - _POINT_MIN]
    classes[zero] = 0
    classes[special] = np.where(magnitudes[special] & _FRACTION_BITS, _NAN, _INF)

    words = np.empty((len(magnitudes), _ROW // 4), dtype="<u4")
    top = d // _POW10[16]
    rest = d - top * _POW10[16]
    high = rest // _POW10[8]
    low = rest - high * _POW10[8]
    for column, quad in enumerate((top, high // _POW10[4], high % _POW10[4],
                                   low // _POW10[4], low % _POW10[4],
                                   np.abs(point - 1))):
        words[:, column] = _QUADS.take(quad)
    words[:, 6:] = _FIXED
    return words.view(np.uint8), classes


def _layout(rows: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Gather each value's text from its alphabet row by its class template,
    _BLOCK values at a time."""
    _fill_templates(classes)
    text = np.empty((len(classes), WIDTH), dtype=np.uint8)
    for lo in range(0, len(classes), _BLOCK):
        hi = min(lo + _BLOCK, len(classes))
        index = _TEMPLATES.take(classes[lo:hi], axis=0)
        index += _ROW_STARTS[: hi - lo]
        text[lo:hi] = rows[lo:hi].reshape(-1).take(index)
    return text


def text(values: np.ndarray) -> np.ndarray:
    """``repr`` of each float64 of ``values`` (any shape) as a NUL-padded
    ``(values.size, WIDTH)`` uint8 array."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    magnitudes = bits & ~(np.uint64(1) << _SIGN_SHIFT)
    rows, classes = _digits(magnitudes)
    classes += (bits >> _SIGN_SHIFT).astype(np.int64) * _SIGNED
    return _layout(rows, classes)
