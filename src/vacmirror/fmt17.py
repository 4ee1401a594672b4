"""Exact vectorized "%.17e" for float64 arrays.

`slots(x)` returns, for every value, the bytes of "%.17e" % x in a fixed
slot of SLOT bytes, [-]d.ddddddddddddddddde(+|-)[h]dd, with a mask of the
bytes to keep.  The digits come from a double-double product (Dekker,
Numer. Math. 18, 1971): for 1e-280 < |x| < 1e299 and p = floor(log10|x|),
|x| 10^(17 - p) = T + f with an integer T in [1e17, 1e18) and a fraction
f known to about 1e-13.  Away from a tie, rounding half to even gives the
18 digits D = T + (f > 1/2).  Values with f within 1e-9 of 1/2, nan,
infinities, subnormals and values outside that range are formatted one
by one with "%.17e" itself; zeros are formatted with the rest.  The
powers of ten are built on first use, from Python integers.
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

_ASCII = np.frombuffer(b"0123456789", np.uint8)
# digit pair i as two ASCII bytes read as one native uint16
PAIRS = np.stack([np.repeat(_ASCII, 10), np.tile(_ASCII, 10)], axis=1).view(np.uint16).ravel()

_powers = None


def _split(a):
    t = a * SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _pow10_table():
    """Rows (hi, lo, hi's split halves) with 10^q = hi + lo, q = Q_MIN..Q_MAX,
    hi and lo each correctly rounded; built once, from Python integers."""
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
        _powers = np.stack([hi, lo, *_split(hi)], axis=1)
    return _powers


def _scaled(a, q):
    """a 10^q as a double-double (hi, lo), for a > 0 in range."""
    ph, pl, bh, bl = _pow10_table().take(q - Q_MIN, axis=0).T
    p = a * ph
    ah, al = _split(a)
    err = ah * bh
    err -= p
    err += ah * bl
    err += al * bh
    err += al * bl
    err += a * pl
    return p, err


def slots(x):
    """(text, keep): uint8 and bool arrays of shape (len(x), SLOT) whose kept
    bytes, row by row, are "%.17e" % v for each value v of float64 x."""
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

    text = np.empty((n, SLOT), np.uint8)
    words = text[:, :20].view(np.uint16)
    for i in range(9, 0, -1):               # 9 digit pairs into bytes 2..19
        rest = digits // 100
        words[:, i] = PAIRS.take(digits - rest * 100)
        digits = rest
    text[:, 1] = text[:, 2]
    text[:, 2] = ord(".")
    text[:, 0] = ord("-")
    text[:, 20] = ord("e")
    text[:, 21] = np.where(p < 0, ord("-"), ord("+"))
    e = np.abs(p)
    text[:, 22] = e // 100 + ord("0")
    e = (e % 100).astype(np.uint8)
    text[:, 23] = e // 10 + ord("0")
    text[:, 24] = e % 10 + ord("0")
    keep = np.ones((n, SLOT), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, 22] = text[:, 22] != ord("0")

    rest = np.flatnonzero(~vec)
    if rest.size:
        strings = ["%.17e" % v for v in x[rest].tolist()]
        text[rest] = np.array(strings, dtype=f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)
        lengths = np.fromiter(map(len, strings), np.int64, rest.size)
        keep[rest] = np.arange(SLOT) < lengths[:, None]
    return text, keep
