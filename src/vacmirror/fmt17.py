"""Exact vectorized "%.17e" for float64 arrays.

`slots(x)` returns, for every value, the bytes of "%.17e" % x in a fixed
slot of SLOT bytes, [-]d.ddddddddddddddddde(+|-)[h]dd, with a mask of the
bytes to keep.  The digits come from a double-double product (Dekker,
Numer. Math. 18, 1971): for 1e-280 < |x| < 1e299 and p = floor(log10|x|),
|x| 10^(17 - p) = T + f with an integer T in [1e17, 1e18) and a fraction
f known to about 1e-13.  Away from a tie, rounding half to even gives the
18 digits D = T + (f > 1/2).  Values with f within 1e-9 of 1/2, nan,
infinities, subnormals and values outside that range are formatted one
by one with "%.17e" itself; zeros are formatted with the rest.

Each slot opens a row of seven aligned native uint32 words (28 bytes),
looked up in three tables:

    bytes  0-3    HEAD        "-d.d": a '-', the first two digits of D
                              and the point between them
    bytes  4-19   QUAD        "dddd" four times: the other 16 digits of D
    bytes 20-27   EXPONENT    "e+dd" and padding, or "e+hd" and "d" when
                              |p| >= 100: two words per exponent p

The '-' is kept only for a negative value and byte 24 only for |p| >=
100.  When every value keeps the same bytes (one sign, one exponent
width, no value formatted one by one) the mask is one row broadcast over
all of them.  The tables (about 45 KB) and the powers of ten are built on
first use, from Python integers, so importing the module builds nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SLOT", "slots"]

# bytes of the widest slot: sign, d, '.', 17 digits, 'e', exponent sign,
# hundreds digit and two exponent digits
SLOT = 25

# the vectorized range (see the module docstring) and the powers 10^q it
# needs, with one step of exponent correction either side
LOW, HIGH = 1e-280, 1e299
Q_MIN, Q_MAX = -282, 298
TIE_BAND = 1e-9
SPLITTER = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
# the largest decimal exponent of a finite double: the EXPONENT table
# holds the exponents -P_MAX..P_MAX
P_MAX = 308

_powers = None
_words = None


def _split(a):
    t = a * SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _pow10_table():
    """Arrays (hi, lo, hi's split halves) with 10^q = hi + lo at index
    q - Q_MIN, hi and lo each correctly rounded; built once, from Python
    integers."""
    global _powers
    if _powers is None:
        hi, lo = [], []
        for q in range(Q_MIN, Q_MAX + 1):
            num, den = (10**q, 1) if q >= 0 else (1, 10**-q)
            h = num / den                     # correctly rounded
            hn, hd = h.as_integer_ratio()
            hi.append(h)
            lo.append((num * hd - hn * den) / (den * hd))
        hi = np.array(hi)
        _powers = (hi, np.array(lo), *_split(hi))
    return _powers


def _word(text: bytes) -> np.ndarray:
    """ASCII strings of 4 bytes each as native uint32 words."""
    return np.frombuffer(text, np.uint32).copy()


def _word_tables():
    """(HEAD, QUAD, EXPONENT): HEAD[i] is "-d.d" for the digits of i < 100,
    QUAD[i] the four digits of i < 10^4, EXPONENT[:, p + P_MAX] the two
    words of exponent p; built once."""
    global _words
    if _words is None:
        head = _word(b"".join(b"-%d.%d" % divmod(i, 10) for i in range(100)))
        quad = _word(b"".join(b"%04d" % i for i in range(10**4)))
        exponent = _word(b"".join(
            (b"e%+04d\0\0\0" if abs(p) >= 100 else b"e%+03d\0\0\0\0") % p
            for p in range(-P_MAX, P_MAX + 1)))
        _words = head, quad, exponent.reshape(-1, 2).T.copy()
    return _words


def _scaled(a, q):
    """a 10^q as a double-double (hi, lo), for a > 0 in range."""
    i = q - Q_MIN
    ph, pl, bh, bl = (column.take(i) for column in _pow10_table())
    p = a * ph
    ah, al = _split(a)
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    err += a * pl
    return p, err


def _same(flags) -> bool:
    """Whether a bool array holds one value only."""
    return not flags.any() or flags.all()


def slots(x):
    """(text, keep): uint8 and bool arrays of shape (len(x), SLOT) whose kept
    bytes, row by row, are "%.17e" % v for each value v of float64 x.  keep
    is a read-only broadcast of one row when every value keeps the same
    bytes."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    a = np.abs(x)
    vec = (a > LOW) & (a < HIGH)
    a = np.where(vec, a, 1.0)
    p = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, 17 - p)
    # log10 may miss by one next to a power of ten: the unrounded product
    # T + f must lie in [1e17, 1e18) for D to carry all 18 digits
    low = (hi < 1e17) | ((hi == 1e17) & (lo < 0))
    high = (hi > 1e18) | ((hi == 1e18) & (lo >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        p[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix] = _scaled(a[fix], 17 - p[fix])
    whole = np.floor(lo)
    frac = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64)
    # whatever is still out of range, or near a tie, takes the fallback
    vec &= (digits >= 10**17) & (digits <= 10**18) & (np.abs(frac - 0.5) >= TIE_BAND)
    # D = 10^18 (from rounding, or T = 10^18 met after the correction)
    # carries into the exponent
    digits += frac > 0.5
    carry = digits >= 10**18
    digits[carry] = 10**17
    p += carry
    zero = x == 0.0
    digits[zero] = 0
    p[zero] = 0
    vec |= zero

    head, quad, exponent = _word_tables()
    # word 0 from the first two of D's 18 digits, words 1-4 from the other
    # sixteen as two halves of eight, words 5-6 from the exponent
    words = np.empty((n, 7), np.uint32)
    top = digits // 10**8
    bottom = digits - top * 10**8
    lead = top // 10**8
    words[:, 0] = head.take(lead)
    for at, eight in ((1, top - lead * 10**8), (3, bottom)):
        four = eight // 10**4
        words[:, at] = quad.take(four)
        words[:, at + 1] = quad.take(eight - four * 10**4)
    i = p + P_MAX
    words[:, 5] = exponent[0].take(i)
    words[:, 6] = exponent[1].take(i)
    text = words.view(np.uint8)[:, :SLOT]

    negative = np.signbit(x)
    wide = np.abs(p) >= 100
    rest = np.flatnonzero(~vec)
    if not rest.size and _same(negative) and _same(wide):
        keep = np.ones(SLOT, bool)
        keep[0] = negative.any()
        keep[24] = wide.any()
        return text, np.broadcast_to(keep, (n, SLOT))
    keep = np.ones((n, SLOT), bool)
    keep[:, 0] = negative
    keep[:, 24] = wide
    if rest.size:
        strings = ["%.17e" % v for v in x[rest].tolist()]
        text[rest] = np.array(strings, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)
        lengths = np.fromiter(map(len, strings), np.int64, rest.size)
        keep[rest] = np.arange(SLOT) < lengths[:, None]
    return text, keep
