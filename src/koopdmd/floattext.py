"""Exact '%.17g' CSV text of float64 arrays, computed with numpy.

lines(rows) yields the text of one ",".join(["%.17g"] * ncols) + "\\n"
format per row, a block of rows at a time, at a quarter to a third of the
cost of Python's per-cell conversion.

A finite x != 0 prints the 17 digits of N = round(|x| * 10**(16 - e)),
where 10**e <= |x| < 10**(e + 1). As in Loitsch, "Printing Floating-Point
Numbers Quickly and Accurately with Integers" (PLDI 2010), the digits come
from a fast computation that is exact whenever it decides the rounding and
knows when it cannot: N is formed from a double-double product (Dekker's
two-product of |x| and the double nearest 10**(16 - e), plus |x| times
that power's remainder), whose integer part gives N and whose fraction,
in error by less than 1e-14, settles the rounding. A cell is undecided
when its fraction lies within 1e-6 of a tie, when |x| is outside
[1e-280, 1e280] (subnormals included; the split needs headroom), or when
e stays unresolved after one correction; a row with an undecided cell is
formatted by '%' itself. The text is laid out by the rules of '%g' (fixed
notation for exponents -4..16, trailing zeros stripped, '-0' kept) from a
table of layouts, in blocks of rows small enough to stay in cache.

Importing this module builds its tables (a few ms), so ioutil imports it
only when it first formats an array.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's splitter

#: Decimal exponents the fast path may try: those of [1e-280, 1e280], +-1.
_E_MIN, _E_MAX = -282, 282
_FIXED_MIN, _FIXED_MAX = -4, 16  # '%.17g' prints these exponents without 'e'
_CATEGORIES = _FIXED_MAX - _FIXED_MIN + 5  # fixed exponents and 4 scientific forms
_NEGATIVE = 17 * _CATEGORIES  # layout class offset of a negative cell

# Each cell is laid out in a 32-byte template that holds every character
# '%.17g' might print, and a keep mask picked by its layout class selects
# its characters. Slots: 0 '-'; 1-5 '0.000', the lead of 0.000ddd; 6 the
# first digit d0; 7 '.'; 8-23 digits d1..d16; 24-26 'e+-'; 27 unused;
# 28-30 the exponent's three digits; 31 ',' or '\n'. For a fixed exponent
# e >= 1, d1..de move left by one and the '.' follows de.
_TEMPLATE = np.frombuffer(b"-0.000d.dddddddddddddddde+- xxx,", dtype=np.uint8)
_T_D0, _T_DOT, _T_SEP = 6, 7, 31
BLOCK_CELLS = 2**13  # cells formatted at once; 2**13 runs ~15% faster than 2**15 (cache)


def _split(a):
    """Veltkamp's split: a == hi + lo exactly, each with at most 26 significant bits."""
    t = a * _SPLIT
    hi = t - (t - a)
    return hi, a - hi


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """hi + lo = 10**(16 - e) to 2**-106, row e - _E_MIN.

    Python ints make the remainders exact before their one rounding.
    """
    hi, lo = [], []
    for k in range(16 - _E_MIN, 15 - _E_MAX, -1):
        if k >= 0:
            h = float(10**k)
            r = float(10**k - int(h))
        else:
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            r = (den - num * d) / (den * d)
        hi.append(h)
        lo.append(r)
    return np.array(hi), np.array(lo)


def _keep_masks() -> np.ndarray:
    """Keep mask of every layout class: row _CLASS_BASE[e] + s - 1, plus _NEGATIVE if x < 0.

    A class is a layout category (fixed notation with exponent -4..16, or
    scientific with a +/- exponent of 2/3 digits) and s, the count of
    significant digits left once trailing zeros are stripped.
    """
    rows = []
    for category in range(_CATEGORIES):
        e = category + _FIXED_MIN  # the exponent of a fixed category
        for s in range(1, 18):
            if e > _FIXED_MAX:  # scientific: d0[.d1..] and e+xx, e+xxx, e-xx or e-xxx
                minus, three = divmod(e - _FIXED_MAX - 1, 2)
                slots = [*range(_T_D0, _T_D0 + (s + 1 if s > 1 else 1)),
                         24, 25 + minus, *[28] * three, 29, 30]
            elif e >= 0:  # d0..de[.d(e+1)..]
                slots = range(_T_D0, _T_D0 + (s + 1 if s > e + 1 else e + 1))
            else:  # 0.[000]d0d1..
                slots = [1, 2, *range(3, 2 - e), _T_D0, *range(8, 7 + s)]
            row = bytearray(32)
            for i in slots:
                row[i] = 1
            row[_T_SEP] = 1
            rows.append(bytes(row))
    positive = np.frombuffer(b"".join(rows), dtype=bool).reshape(-1, 32)
    negative = positive.copy()
    negative[:, 0] = True
    return np.concatenate([positive, negative])


def _words(*digits) -> np.ndarray:
    """Four characters per entry, digits[i] + '0', as one uint32 word."""
    return (np.stack(digits, axis=1) + 48).astype(np.uint8).view(np.uint32).ravel()


_P10_HI, _P10_LO = _powers_of_ten()
_P10_HH, _P10_HL = _split(_P10_HI)
_KEEP = _keep_masks()
_e = np.arange(_E_MIN, _E_MAX + 1)
_a = np.abs(_e)
#: Layout category of exponent e, times 17, and the three digits of |e|
#: and ',' as one word; row e - _E_MIN.
_CLASS_BASE = 17 * np.where((_e >= _FIXED_MIN) & (_e <= _FIXED_MAX), _e - _FIXED_MIN,
                            _FIXED_MAX + 1 - _FIXED_MIN + 2 * (_e < 0) + (_a >= 100))
_EXPONENT_WORD = _words(_a // 100, _a // 10 % 10, _a % 10, np.full_like(_a, ord(",") - 48))
_q = np.arange(10000)
#: The four digit characters of 0..9999 as one word, and their trailing zeros.
_DIGIT_WORD = _words(_q // 1000, _q // 100 % 10, _q // 10 % 10, _q % 10)
_TRAILING_ZEROS = sum(_q % p == 0 for p in (10, 100, 1000, 10000)).astype(np.uint8)
del _e, _a, _q


def _scaled(a: np.ndarray, e: np.ndarray):
    """N = round(a * 10**(16 - e)) as int64, and the fraction that was rounded off."""
    i = e - _E_MIN
    p = a * _P10_HI.take(i)
    ah, al = _split(a)
    bh, bl = _P10_HH.take(i), _P10_HL.take(i)
    low = (((ah * bh - p) + ah * bl + al * bh) + al * bl) + a * _P10_LO.take(i)
    r = np.rint(low)
    return p.astype(np.int64) + r.astype(np.int64), low - r


def _format_block(rows: np.ndarray, template: np.ndarray) -> str:
    """The lines of rows (finite float64, >= 1 column).

    template is a scratch (>= rows.size, 32) uint8 array that holds
    _TEMPLATE in each row; its constant slots are never overwritten.
    """
    nrows, ncols = rows.shape
    x = rows.reshape(-1)
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-280) & (a <= 1e280)
    undecided = ~(fast | zero)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, e)
    # log10 can be one off next to a power of ten; redo those cells.
    shift = (n > 10**17).astype(np.int64) - ((n < 10**16) | ((n == 10**16) & (f < 0)))
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        n[moved], f[moved] = _scaled(a[moved], e[moved])
        undecided[moved] |= (n[moved] > 10**17) | (n[moved] < 10**16)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    undecided |= (np.abs(np.abs(f) - 0.5) < 1e-6) & ~zero
    n[zero] = 0  # prints as d0 = '0' with exponent 0
    e[zero] = 0

    t = template[: x.size]
    words = t.view(np.uint32)
    upper = n // 10**8  # d0 and the digit groups g0..g3 of four digits each
    lower = n - upper * 10**8
    g2 = lower // 10**4
    g3 = lower - g2 * 10**4
    lead = upper // 10**4
    g1 = upper - lead * 10**4
    d0 = lead // 10**4
    g0 = lead - d0 * 10**4
    t[:, _T_D0] = d0 + 48
    t[:, _T_DOT] = ord(".")
    for slot, g in enumerate((g0, g1, g2, g3), start=2):
        words[:, slot] = _DIGIT_WORD.take(g)
    words[:, 7] = _EXPONENT_WORD.take(e - _E_MIN)
    t[:, _T_SEP].reshape(nrows, ncols)[:, -1] = ord("\n")
    tz = _TRAILING_ZEROS
    trailing = tz.take(g3) + (g3 == 0) * (
        tz.take(g2) + (g2 == 0) * (tz.take(g1) + (g1 == 0) * tz.take(g0)))
    layout = _CLASS_BASE.take(e - _E_MIN) + (16 - trailing) + _NEGATIVE * np.signbit(x)
    inner = np.flatnonzero((e >= 1) & (e <= _FIXED_MAX))
    if inner.size:
        ei = e[inner]
        for k in np.flatnonzero(np.bincount(ei)):
            cells = inner[ei == k]
            block = t.take(cells, axis=0)
            block[:, _T_DOT:_T_DOT + k] = block[:, _T_DOT + 1:_T_DOT + 1 + k]
            block[:, _T_DOT + k] = ord(".")
            t[cells] = block
    keep = _KEEP.take(layout, axis=0)
    text = np.compress(keep.reshape(-1), t.reshape(-1)).tobytes().decode("ascii")
    exact = np.flatnonzero(undecided.reshape(nrows, ncols).any(axis=1))
    if not exact.size:
        return text
    ends = keep.reshape(nrows, -1).sum(axis=1).cumsum()
    fmt = ",".join(["%.17g"] * ncols) + "\n"
    pieces, start = [], 0
    for i in exact:
        pieces += [text[start:ends[i - 1] if i else 0], fmt % tuple(rows[i].tolist())]
        start = ends[i]
    pieces.append(text[start:])
    return "".join(pieces)


def lines(rows: np.ndarray) -> Iterator[str]:
    """The '%.17g' CSV lines of a 2-D float64 array with finite cells, in blocks."""
    nrows, ncols = rows.shape
    if ncols == 0:
        yield "\n" * nrows
        return
    step = max(1, BLOCK_CELLS // ncols)
    template = np.tile(_TEMPLATE, (min(step, nrows) * ncols, 1))
    for start in range(0, nrows, step):
        yield _format_block(rows[start:start + step], template)
