"""CSV rows of float64 columns whose every value reads as `"%.17g" % x`.

`csv_rows(columns)` yields the rows in text chunks of about `BLOCK`
values, so a table is never held as text whole.  A table of fewer than
`SMALL_TABLE` values is formatted row by row with `%`; a larger one goes
through a numpy kernel that writes the same bytes:

- |x| is scaled by 10^(16-e) in double-double arithmetic (a Veltkamp-split
  two-product against a (hi, lo) table of powers of ten), with e corrected
  until the scaled value lies in [1e16, 1e17);
- the scaled value is rounded to a 17-digit integer (10^17 carries to
  10^16 and e + 1), whose digits come out of a table of digit pairs;
- each field is laid out by a column template picked by the exponent class
  (fixed notation for -4 <= e < 17, else an exponent of at least two
  digits) and the count of significant digits, which strips the trailing
  zeros; the pad bytes are dropped when the block is joined.

Once in [1e16, 1e17) the scaled value is within 1e-14 of |x| 10^(16-e),
so its rounding is exact unless its fraction lies within `TIE_GAP` of one
half.  Those values, non-finite ones and |x| outside [`LOW`, `HIGH`] take
`"%.17g" % x` itself.
"""

import functools

import numpy as np

BLOCK = 4096  # values per kernel call
# below this many values the kernel's fixed cost exceeds the row path's
SMALL_TABLE = 300
TIE_GAP = 1e-6
# the kernel's |x| range: no split overflows and no lo of the power table
# it reads is subnormal
LOW, HIGH = 1e-280, 1e280

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's split factor for float64
_K_MIN, _K_MAX = -270, 300  # exponents of the power table, past 16 - e
_WIDTH = 25  # "-1.2345678901234567e-308" and a separator

# source columns of one value: its 17 digits, then these bytes
_SIGN, _ESIGN, _E100, _E10, _E1, _DOT, _ZERO, _E, _SEP, _PAD = range(17, 27)
_SOURCE = 27
_FIXED = range(-4, 17)  # exponents written in fixed notation
_CLASSES = len(_FIXED) + 2  # then two- and three-digit exponents
_CONSTANTS = np.frombuffer(b".0e", dtype=np.uint8)
_PAIR_OFFSETS = 100 * np.arange(8)[:, None]


@functools.cache
def _tables():
    """(powers, templates, pairs, significant), built on first use.

    powers[:, k - _K_MIN] holds hi, hi's Veltkamp halves and lo, with
    hi + lo = 10^k to 2^-106 relative; hi and lo are correctly rounded
    quotients of integers.  templates[18 c + s] lists the source columns of
    a field of exponent class c with s significant digits, then its
    separator and pads.  pairs[i] is the two ASCII digits of i < 100 as one
    uint16.  significant[100 k + p] counts the significant digits through
    the digit pair k when that pair is p, or 1 when p is 0.
    """
    powers = np.empty((4, _K_MAX - _K_MIN + 1))
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi = float(10 ** k)
            lo = float(10 ** k - int(hi))
        else:
            hi = 1 / 10 ** -k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10 ** -k) / (den * 10 ** -k)
        c = hi * _SPLIT
        big = c - (c - hi)
        powers[:, k - _K_MIN] = hi, big, hi - big, lo

    templates = np.full((18 * _CLASSES, _WIDTH), _PAD, dtype=np.intp)
    for c in range(_CLASSES):
        for s in range(1, 18):
            cols = [_SIGN]
            if c < len(_FIXED):
                e = _FIXED[c]
                if e >= 0:
                    cols += range(e + 1)
                    if s > e + 1:
                        cols += [_DOT, *range(e + 1, s)]
                else:
                    cols += [_ZERO, _DOT] + [_ZERO] * (-e - 1) + [*range(s)]
            else:
                cols += [0] + ([_DOT, *range(1, s)] if s > 1 else [])
                cols += [_E, _ESIGN] + [_E100] * (c > len(_FIXED)) + [_E10,
                                                                      _E1]
            cols.append(_SEP)
            templates[18 * c + s, :len(cols)] = cols

    p = np.arange(100)
    pairs = np.stack([48 + p // 10, 48 + p % 10], axis=1).astype(np.uint8)
    significant = np.where(p == 0, 1, 2 * np.arange(8)[:, None] + 2
                           + (p % 10 != 0))
    return (powers, templates, pairs.view(np.uint16).ravel(),
            significant.ravel())


def _scaled(a, e):
    """(hi, lo) of a 10^(16-e) in double-double arithmetic: hi is the
    rounded product and lo its error, rounded, so that hi + lo lies within
    a few 2^-106 of the product, relative, plus half an ulp of lo."""
    p_hi, p_big, p_small, p_lo = np.take(_tables()[0], 16 - _K_MIN - e,
                                         axis=1)
    c = a * _SPLIT
    big = c - (c - a)
    small = a - big
    hi = a * p_hi
    err = ((big * p_big - hi) + big * p_small + small * p_big) \
        + small * p_small
    return hi, err + a * p_lo


def _below(hi, lo, bound):
    """Whether hi + lo < bound, for a bound that is a float."""
    return (hi < bound) | ((hi == bound) & (lo < 0.0))


def _fields(x, sep):
    """The `"%.17g" % x` field of every value of `x`, followed by its
    separator byte `sep`, as rows of `_WIDTH` bytes padded with zeros."""
    _, templates, pairs, significant = _tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    kernel = (a >= LOW) & (a <= HIGH)
    # the rest work on 1.0: a zero keeps its field with the digit zeroed,
    # the others are rewritten by % at the end
    a[~kernel] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e)
    low = np.flatnonzero(_below(hi, lo, 1e16))
    high = np.flatnonzero(~_below(hi, lo, 1e17))
    for idx, step in ((low, -1), (high, 1)):
        e[idx] += step
        hi[idx], lo[idx] = _scaled(a[idx], e[idx])
    kernel &= ~_below(hi, lo, 1e16) & _below(hi, lo, 1e17)
    whole = np.floor(lo)
    frac = lo - whole
    kernel &= np.abs(frac - 0.5) >= TIE_GAP
    digits = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry

    # the leading digit, then eight pairs, split in rows of the pair index
    lead = digits // 10 ** 16
    split = np.empty((8, n), dtype=np.intp)
    split[0] = digits - lead * 10 ** 16
    for width in (4, 2, 1):  # each group of 2 width pairs into two halves
        upper = split[::2 * width] // 100 ** width
        split[width::2 * width] = split[::2 * width] - upper * 100 ** width
        split[::2 * width] = upper
    count = np.max(np.take(significant, split + _PAIR_OFFSETS), axis=0)
    ae = np.abs(e)
    cls = np.where((e >= _FIXED[0]) & (e <= _FIXED[-1]), e - _FIXED[0],
                   len(_FIXED) + (ae >= 100))

    src = np.empty((n, _SOURCE), dtype=np.uint8)
    src[:, 0] = lead + 48
    src[zero, 0] = 48
    src[:, 1:17] = np.take(pairs, split.T).view(np.uint8)
    src[:, _SIGN] = np.signbit(x) * np.uint8(45)
    expo = np.flatnonzero(cls >= len(_FIXED))
    if len(expo):
        src[expo, _ESIGN] = np.where(e[expo] < 0, 45, 43)
        src[expo, _E100] = ae[expo] // 100 + 48
        src[expo, _E10:_E1 + 1] = np.take(pairs, ae[expo] % 100)[:, None] \
            .view(np.uint8)
    src[:, _DOT:_SEP] = _CONSTANTS
    src[:, _SEP] = sep
    src[:, _PAD] = 0

    cols = np.take(templates, 18 * cls + count, axis=0)
    cols += (_SOURCE * np.arange(n))[:, None]
    out = np.take(src.ravel(), cols, mode="clip")
    for i in np.flatnonzero(~(kernel | zero)):
        text = ("%.17g" % x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        out[i, len(text)] = sep[i]
    return out


def _lines(block):
    """The CSV text of a 2-D float64 block, one line per row."""
    sep = np.full(block.shape, 44, dtype=np.uint8)  # ","
    sep[:, -1] = 10  # "\n"
    out = _fields(block.ravel(), sep.ravel())
    return out[out != 0].tobytes().decode("ascii")


def csv_rows(columns):
    """The CSV rows of equal-length float columns, each value as `"%.17g"`,
    in text chunks of about `BLOCK` values; every row ends with a newline."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    n_rows, n_cols = len(columns[0]), len(columns)
    if n_rows * n_cols < SMALL_TABLE:
        line = ",".join(["%.17g"] * n_cols) + "\n"
        yield "".join(line % tuple(row)
                      for row in np.column_stack(columns).tolist())
        return
    step = max(1, BLOCK // n_cols)
    for r0 in range(0, n_rows, step):
        yield _lines(np.column_stack([col[r0:r0 + step] for col in columns]))
