"""Exact vectorized "%.17e" for float64 arrays, and the CSV writer built on it.

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

The CSV writer lives here too.  A Table's columns are float64 arrays
(formatted by slots), Cycles (each value formatted once per table) and, in
a small table, sequences of any values ("%.17e" for a float, else str).
write_table writes BLOCK_ROWS rows at a time.  A block lays its columns'
slots side by side with the separators in one (rows, width) array: a
column whose keep mask is uniform gives only the runs of bytes it keeps
(a one-value Cycle's merge with the separators into one constant slice),
any other column its whole slots and its mask.  The block is the array's
rows, or, if some column gave a mask, its kept bytes in row order.  The
module imports only numpy and the standard library.
"""

from __future__ import annotations

import re

import numpy as np

__all__ = ["BLOCK_ROWS", "SLOT", "Cycle", "Table", "concat", "slots", "write_table"]

# rows per block of CSV output: each block is formatted and written at once
BLOCK_ROWS = 8192

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


class Table:
    """CSV records held as columns of equal length: float64 arrays and
    Cycle columns, or in a small table sequences of any values.  len() is
    the row count; iterating yields the rows as tuples."""

    def __init__(self, columns):
        self.columns = list(columns)

    def __len__(self):
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        return zip(*self.columns)


def _is_float64(column) -> bool:
    """Whether a column is a float64 array, which slots formats."""
    return isinstance(column, np.ndarray) and column.dtype == np.float64


class Cycle:
    """A column of n rows whose row i is values[(i // every) % len(values)],
    as np.tile(np.repeat(values, every), ...) but expanded one slice at a
    time; the writer formats each of its values once per table.  A
    constant column is Cycle([value], 1, n)."""

    def __init__(self, values, every, n):
        self.values, self.every, self.n = np.asarray(values), every, n
        self._slots = None

    def __len__(self):
        return self.n

    def __iter__(self):
        for start in range(0, self.n, BLOCK_ROWS):
            yield from self[start:start + BLOCK_ROWS]

    def __getitem__(self, rows: slice):
        return self.values[self.index(*rows.indices(self.n))]

    def index(self, start, stop, step=1):
        """Positions in values of rows start:stop:step."""
        return np.arange(start, stop, step) // self.every % len(self.values)

    def slots(self, encoding):
        """(text, keep) of every value, as _slots gives them; made once."""
        if self._slots is None:
            self._slots = _slots(self.values, encoding)
        return self._slots


def concat(parts):
    """One column from its parts, in order.  Parts that are Cycles of the
    same values, bit for bit, and the same every, each a whole number of
    periods long, stay one Cycle."""
    first = parts[0]
    if all(isinstance(p, Cycle) and p.every == first.every
           and p.values.dtype == first.values.dtype
           and p.values.tobytes() == first.values.tobytes()
           and len(p) % (p.every * len(p.values)) == 0 for p in parts):
        return Cycle(first.values, first.every, sum(map(len, parts)))
    parts = [p[0:len(p)] if isinstance(p, Cycle) else p for p in parts]
    if all(map(_is_float64, parts)):
        return np.concatenate(parts)
    return [v for p in parts for v in p]


def _slots(values, encoding):
    """(text, keep) for a sequence of values: a uint8 array with one row of
    fixed width per value and the mask of its bytes to keep.  A float64 array
    is formatted by slots, any other value as "%.17e" if a float, else by
    str(); keep is one row broadcast, as in slots, when all have one length."""
    if _is_float64(values):
        return slots(values)
    data = [("%.17e" % v if isinstance(v, float) else str(v)).encode(encoding)
            for v in values]
    widths = set(map(len, data))
    width = max(1, max(widths, default=0))
    text = np.array(data, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    if len(widths) < 2:
        keep = np.arange(width) < min(widths, default=0)
        return text, np.broadcast_to(keep, text.shape)
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    return text, np.arange(width) < lengths[:, None]


def _uniform(keep) -> bool:
    """Whether every row of a keep mask is the same: it has at most one
    row, or is one row broadcast, as slots and _slots return it when their
    values keep the same bytes."""
    return len(keep) < 2 or keep.strides[0] == 0


def _block_slots(column, start, stop, encoding):
    """(text, keep) of rows start:stop of one column.  A Cycle takes its
    rows from its values' slots, and a one-value Cycle broadcasts its slot;
    any other column is formatted row by row, a float64 array by slots."""
    if not isinstance(column, Cycle):
        return _slots(column[start:stop], encoding)
    text, keep = column.slots(encoding)
    shape = (stop - start, text.shape[1])
    if len(column.values) == 1:
        return np.broadcast_to(text, shape), np.broadcast_to(keep, shape)
    rows = column.index(start, stop)
    return (text.take(rows, axis=0),
            np.broadcast_to(keep[0], shape) if _uniform(keep)
            else keep.take(rows, axis=0))


def _runs(mask):
    """(begin, end) of each run of True in a 1-D bool array."""
    return [run.span() for run in re.finditer(b"\x01+", mask.tobytes())]


def _format_block(columns, start, stop, encoding):
    """The CSV lines of rows start:stop as a 1-D uint8 array, assembled
    from each column's slots (_block_slots) as the module docstring says:
    pieces holds slices of slots and, between them, the bytes every row
    shares; masks the mask of each masked slice, by its place."""
    pieces, masks = [b""], {}
    for i, column in enumerate(columns):
        t, k = _block_slots(column, start, stop, encoding)
        if not _uniform(k):
            masks[len(pieces)] = k
            pieces += [t, b""]
        elif t.strides[0] == 0:             # one slot broadcast
            pieces[-1] += t[0][k[0]].tobytes()
        else:
            for begin, end in _runs(k[0]):
                pieces += [t[:, begin:end], b""]
        pieces[-1] += b"," if i < len(columns) - 1 else b"\n"
    pieces = [np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p
              for p in pieces]
    out = np.empty((stop - start, sum(p.shape[-1] for p in pieces)), np.uint8)
    keep = np.ones(out.shape, bool) if masks else None
    at = 0
    for i, piece in enumerate(pieces):
        end = at + piece.shape[-1]
        if end > at:
            # as one void item of end - at bytes per row: one copy per row
            out[:, at:end].view(f"V{end - at}")[...] = piece.view(f"V{end - at}")
        if i in masks:
            keep[:, at:end] = masks[i]
        at = end
    return out.ravel() if keep is None else out[keep]


def write_table(buffer, table, encoding):
    """Write table's CSV lines to the byte buffer, BLOCK_ROWS rows at a time."""
    n = len(table)
    for start in range(0, n, BLOCK_ROWS):
        buffer.write(_format_block(table.columns, start,
                                   min(start + BLOCK_ROWS, n), encoding))
