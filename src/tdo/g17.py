"""CSV rows of float64 columns whose every value reads as `"%.17g" % x`.

`csv_rows(columns)` yields the rows in text chunks of at most `BLOCK`
values (or one row, if a row is longer), so a table is never held as text
whole.  A table of fewer than `SMALL_TABLE` values is formatted row by row
with `%`.  A larger one is cut into the fewest chunks that keep to that
bound, all of one row count but a shorter last one, so that the kernel's
fixed cost per call is paid as few times as the bound allows.  Each chunk
goes through a numpy kernel that writes the same bytes:

- |x| is scaled by 10^(16-e) in double-double arithmetic (a Veltkamp-split
  two-product against a (hi, lo) table of powers of ten), with e corrected
  until the scaled value lies in [1e16, 1e17);
- the scaled value is rounded to a 17-digit integer (10^17 carries to
  10^16 and e + 1), which splits into a lead digit and four groups of
  four digits; the groups are written as uint32 words, each "%04d" read
  from a table of 10,000 entries in one pass over all four, into a
  28-byte source row per value, stored word by word: each of its seven
  words is one contiguous array over the block's values;
- each field is laid out by a column template picked by the exponent class
  (fixed notation for -4 <= e < 17, else an exponent of at least two
  digits) and the count of significant digits, read from a second
  10,000-entry table on the last nonzero group, which strips the trailing
  zeros; the pad bytes are dropped when the block is joined.

Once in [1e16, 1e17) the scaled value is within 1e-14 of |x| 10^(16-e),
so its rounding is exact unless its fraction lies within `TIE_GAP` of one
half.  Those values, non-finite ones and |x| outside [`LOW`, `HIGH`] take
`"%.17g" % x` itself.
"""

import functools

import numpy as np

BLOCK = 16384  # the most values per kernel call
# below this many values the kernel's fixed cost exceeds the row path's
SMALL_TABLE = 300
TIE_GAP = 1e-6
# the kernel's |x| range: no split overflows and no lo of the power table
# it reads is subnormal
LOW, HIGH = 1e-280, 1e280

_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's split factor for float64
_K_MIN, _K_MAX = -270, 300  # exponents of the power table, past 16 - e
_WIDTH = 25  # "-1.2345678901234567e-308" and a separator

# byte columns of one value's 28-byte source row, seven uint32 words: the
# constants ".0e" and the lead digit, four words of four digits each (digit
# i is at `_LEAD + i`), the exponent as "%04d", then the sign, exponent
# sign, separator and pad bytes
_DOT, _ZERO, _E, _LEAD = range(4)
_E100, _E10, _E1 = range(21, 24)
_SIGN, _ESIGN, _SEP, _PAD = range(24, 28)
_WORDS = 7
_FIXED = range(-4, 17)  # exponents written in fixed notation
_CLASSES = len(_FIXED) + 2  # then two- and three-digit exponents
_HEAD = np.frombuffer(b".0e0", dtype=np.uint32)[0]
_LEAD_ONE = np.frombuffer(b"\0\0\0\1", dtype=np.uint32)[0]


@functools.cache
def _tables():
    """(powers, templates, quads, significant), built on first use.

    powers[:, k - _K_MIN] holds hi, hi's Veltkamp halves and lo, with
    hi + lo = 10^k to 2^-106 relative; hi and lo are correctly rounded
    quotients of integers.  templates is a pair (words, bytes): row 18 c + s
    of each lists, as the word and the byte within it, the source columns of
    a field of exponent class c with s significant digits, then its
    separator and pads.  quads[g] is the four ASCII digits of `"%04d" % g`,
    g < 10^4, as one uint32, and significant[g] their count once trailing
    zeros are stripped (0 for g = 0).
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
                    cols += range(_LEAD, _LEAD + e + 1)
                    if s > e + 1:
                        cols += [_DOT, *range(_LEAD + e + 1, _LEAD + s)]
                else:
                    cols += [_ZERO, _DOT] + [_ZERO] * (-e - 1) \
                        + [*range(_LEAD, _LEAD + s)]
            else:
                cols += [_LEAD] + ([_DOT, *range(_LEAD + 1, _LEAD + s)]
                                   if s > 1 else [])
                cols += [_E, _ESIGN] + [_E100] * (c > len(_FIXED)) + [_E10,
                                                                      _E1]
            cols.append(_SEP)
            templates[18 * c + s, :len(cols)] = cols

    quads = np.frombuffer("".join(["%04d" % g for g in range(10 ** 4)])
                          .encode(), dtype=np.uint8).reshape(-1, 4)
    # the significant digits end at the last nonzero one
    significant = np.max(np.where(quads != 48, np.arange(1, 5), 0), axis=1)
    return (powers, np.divmod(templates, 4), quads.view(np.uint32).ravel(),
            significant)


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


def _divmod(v, unit):
    """np.divmod(v, unit) of integers v >= 0, with one division."""
    q = v // unit
    return q, v - q * unit


def _below(hi, lo, bound):
    """Whether hi + lo < bound, for a bound that is a float."""
    return (hi < bound) | ((hi == bound) & (lo < 0.0))


def _digits(x):
    """(digits, e, exact): |x| rounded to a 17-digit integer `digits` times
    10^(e-16), and whether the kernel's rounding is exact; zeros and |x|
    outside [LOW, HIGH] come out as 1.0, not exact."""
    a = np.abs(x)
    exact = (a >= LOW) & (a <= HIGH)
    a[~exact] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e)
    low = np.flatnonzero(_below(hi, lo, 1e16))
    high = np.flatnonzero(~_below(hi, lo, 1e17))
    for idx, step in ((low, -1), (high, 1)):
        if len(idx):
            e[idx] += step
            hi[idx], lo[idx] = _scaled(a[idx], e[idx])
    exact &= ~_below(hi, lo, 1e16) & _below(hi, lo, 1e17)
    whole = np.floor(lo)
    frac = lo - whole
    exact &= np.abs(frac - 0.5) >= TIE_GAP
    digits = hi.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = digits == 10 ** 17
    digits[carry] = 10 ** 16
    e += carry
    return digits, e, exact


def _source(x, sep):
    """(src, keys, exact): the source rows of the values of `x`, the row of
    `templates` that lays out each field, and `exact` as `_digits` has it.
    src is stored word by word: src[w, i] is word w of value i's row."""
    _, _, quads, significant = _tables()
    # allocated before the work arrays, so that these are freed into the
    # top of the heap, where the gather's indices reuse them
    src = np.empty((_WORDS, len(x)), dtype=np.uint32)
    keys = np.empty(len(x), dtype=np.intp)
    digits, e, exact = _digits(x)
    # the leading digit, then four groups of four digits; the significant
    # digits end in the last nonzero group
    lead, rest = _divmod(digits, 10 ** 16)
    upper, lower = _divmod(rest, 10 ** 8)
    groups = np.empty((4, len(x)), dtype=np.int64)
    groups[0], groups[1] = _divmod(upper, 10 ** 4)
    groups[2], groups[3] = _divmod(lower, 10 ** 4)
    g0, g1, g2, g3 = groups
    n1, n2, n3 = g1 != 0, g2 != 0, g3 != 0
    last = np.where(n3, g3, np.where(n2, g2, np.where(n1, g1, g0)))
    count = np.take(significant, last) \
        + np.where(n3, 13, np.where(n2, 9, np.where(n1, 5, 1)))
    ae = np.abs(e)
    cls = np.where((e >= _FIXED[0]) & (e <= _FIXED[-1]), e - _FIXED[0],
                   len(_FIXED) + (ae >= 100))

    lead[x == 0.0] = 0  # a zero keeps the field of 1.0, its digit zeroed
    src[0] = _HEAD + lead.astype(np.uint32) * _LEAD_ONE
    np.take(quads, groups, out=src[1:5], mode="clip")
    # the word of the sign, exponent sign, separator and pad bytes
    flags = src.view(np.uint8).reshape(_WORDS, len(x), 4)[_SIGN // 4]
    expo = np.flatnonzero(cls >= len(_FIXED))
    if len(expo):
        src[_E1 // 4, expo] = np.take(quads, ae[expo])  # the exponent's word
        flags[expo, _ESIGN % 4] = np.where(e[expo] < 0, 45, 43)
    flags[:, _SIGN % 4] = np.signbit(x) * np.uint8(45)
    flags[:, _SEP % 4] = sep
    flags[:, _PAD % 4] = 0
    np.add(18 * cls, count, out=keys)
    return src, keys, exact


def _fields(x, sep):
    """The `"%.17g" % x` field of every value of `x`, followed by its
    separator byte `sep`, as rows of `_WIDTH` bytes padded with zeros."""
    # `_source` frees its work arrays before the gather's n x 25 indices
    # are allocated in their place, which keeps a block's heap small enough
    # that glibc does not trim it at each block and fault it back in at the
    # next
    src, keys, exact = _source(x, sep)
    words, bytes_ = _tables()[1]
    # byte b of word w of value i's row lies at 4 (n w + i) + b in src
    cols = np.take(words * (4 * len(x)) + bytes_, keys, axis=0)
    cols += (4 * np.arange(len(x)))[:, None]
    out = np.take(src.view(np.uint8).ravel(), cols, mode="clip")
    # the values `_digits` did not round exactly, but for zeros
    for i in np.flatnonzero(~exact & (x != 0.0)):
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
    in text chunks of at most `BLOCK` values, or one row; every row ends
    with a newline."""
    columns = [np.asarray(col, dtype=float) for col in columns]
    n_rows, n_cols = len(columns[0]), len(columns)
    if n_rows * n_cols < SMALL_TABLE:
        line = ",".join(["%.17g"] * n_cols) + "\n"
        yield "".join(line % tuple(row)
                      for row in np.column_stack(columns).tolist())
        return
    # the fewest chunks of at most BLOCK values, of one row count
    chunks = -(-n_rows // max(1, BLOCK // n_cols))
    step = -(-n_rows // chunks)
    for r0 in range(0, n_rows, step):
        yield _lines(np.column_stack([col[r0:r0 + step] for col in columns]))
