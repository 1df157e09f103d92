"""The block CSV writer against per-value "%.17g": byte for byte."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdo import g17


def reference(columns):
    """The CSV rows written out value by value."""
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in zip(*(np.asarray(c).tolist() for c in columns)))


def written(columns):
    return "".join(g17.csv_rows(columns))


def assert_written_as_17g(columns):
    """The writer's rows equal the reference rows; on failure, name the
    first few that differ."""
    got = written(columns).split("\n")
    want = reference(columns).split("\n")
    assert len(got) == len(want)
    wrong = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
    assert not wrong, wrong[:5]


def as_table(values, n_cols):
    """Columns of an n_cols-wide table holding `values` row by row, the
    last row padded with zeros."""
    values = np.asarray(values, dtype=float)
    values = np.append(values, np.zeros(-len(values) % n_cols))
    return list(values.reshape(-1, n_cols).T)


def _powers_of_ten():
    # the doubles nearest 10^k, parsed from text, and both their neighbours
    p = np.array([float(f"1e{k}") for k in range(-300, 301)])
    return np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])


def _ties():
    # k + 1/4 and k + 3/4 for k in [2^50, 2^51) have 16 integer digits, so
    # their 17th digit is followed by an exact 5: round half to even
    k = np.random.default_rng(27).integers(2 ** 50, 2 ** 51, 25_000)
    return np.concatenate([k + 0.25, k + 0.75]).astype(float)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
           1.7976931348623157e308, -1.7976931348623157e308,
           g17.LOW, np.nextafter(g17.LOW, 0), -g17.HIGH,
           np.nextafter(g17.HIGH, np.inf), 1e-5, 1e-4, 1e16, 1e17,
           9.9999999999999995e-5, 99999999999999999.0, 0.5, 1.0, -2.5]

FIXED_SETS = {
    # raw 64-bit patterns: every exponent, both signs, some nan and inf
    "bits": np.random.default_rng(1).integers(
        0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
    "ties": _ties(),
    "powers of ten": _powers_of_ten(),
    "subnormals": np.random.default_rng(2).integers(
        1, 2 ** 52, 20_000, dtype=np.uint64).view(np.float64)
    * np.random.default_rng(3).choice([-1.0, 1.0], 20_000),
    "ordinary": np.random.default_rng(4).standard_normal(40_000)
    * np.exp(np.random.default_rng(5).uniform(-12, 12, 40_000)),
    "special": np.array(SPECIAL * 20),
}


@pytest.mark.parametrize("name", list(FIXED_SETS))
def test_kernel_writes_per_value_17g(name):
    columns = as_table(FIXED_SETS[name], 4)
    assert len(columns[0]) * 4 >= g17.SMALL_TABLE  # the kernel, not rows
    assert_written_as_17g(columns)


def test_a_tie_rounds_half_to_even():
    values = [1234567890123456.75, -1234567890123456.75, 0.0] * 200
    assert written(as_table(values, 3)) \
        == "1234567890123456.8,-1234567890123456.8,0\n" * 200


def test_power_table_holds_each_power_to_half_an_ulp_of_lo():
    powers = g17._tables()[0]
    for k in range(g17._K_MIN, g17._K_MAX + 1):
        hi, big, small, lo = powers[:, k - g17._K_MIN]
        assert Fraction(big) + Fraction(small) == Fraction(hi)
        error = abs(Fraction(hi) + Fraction(lo) - Fraction(10) ** k)
        assert error <= Fraction(math.ulp(lo)) / 2


def test_digit_tables_hold_every_four_digit_group():
    _, _, quads, significant = g17._tables()
    assert len(quads) == len(significant) == 10 ** 4
    text = quads.view(np.uint8).tobytes().decode("ascii")
    for g in range(10 ** 4):
        digits = "%04d" % g
        assert text[4 * g:4 * g + 4] == digits
        assert significant[g] == len(digits.rstrip("0"))


VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL),
    st.integers(-2 ** 60, 2 ** 60).map(lambda k: k + 0.25))


@settings(max_examples=60, deadline=None)
@given(n_cols=st.integers(1, 9),
       size=st.one_of(
           st.sampled_from([1, g17.SMALL_TABLE - 1, g17.SMALL_TABLE,
                            g17.BLOCK - 1, g17.BLOCK, g17.BLOCK + 1,
                            2 * g17.BLOCK + 7]),
           st.integers(1, 3 * g17.BLOCK)),
       seed=st.integers(0, 2 ** 32 - 1),
       scale=st.floats(-300, 300),
       planted=st.lists(st.tuples(st.integers(0, 10 ** 6), VALUES),
                        max_size=12))
def test_tables_of_any_shape_match_per_value_17g(n_cols, size, seed, scale,
                                                 planted):
    # tables on both sides of the small-table path and of the block size,
    # with drawn values planted among seeded ones of one magnitude
    n_rows = max(1, size // n_cols)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n_rows * n_cols) * 10.0 ** scale
    for where, value in planted:
        values[where % len(values)] = value
    assert_written_as_17g(as_table(values, n_cols))


BLOCKS = (64, 4096, g17.BLOCK)


def _split_rows(n_cols, block):
    """Row counts at and around the even-split boundaries of `block` for
    an n_cols-wide table: one, two and three chunks, one row more (a new
    chunk) and one row less (a shorter last chunk)."""
    per = max(1, block // n_cols)
    return {k * per + d for k in (1, 2, 3) for d in (-1, 0, 1)} - {0}


@pytest.mark.parametrize("n_cols", range(1, 10))
def test_chunking_keeps_the_bytes(monkeypatch, n_cols):
    # the shapes around each block size's boundaries, written under every
    # block size that cuts them into at most 100 chunks; every write equals
    # the per-value reference, so the writes of one shape are identical
    shapes = sorted(set().union({1}, *(_split_rows(n_cols, block)
                                       for block in BLOCKS)))
    rng = np.random.default_rng(n_cols)
    n_values = n_cols * shapes[-1]
    values = rng.standard_normal(n_values) \
        * 10.0 ** rng.integers(-30, 30, n_values)
    fields = ["%.17g" % x for x in values.tolist()]
    for n_rows in shapes:
        n = n_rows * n_cols
        want = "".join(",".join(fields[i:i + n_cols]) + "\n"
                       for i in range(0, n, n_cols))
        for block in [block for block in BLOCKS if n <= 100 * block]:
            monkeypatch.setattr(g17, "BLOCK", block)
            chunks = list(g17.csv_rows(as_table(values[:n], n_cols)))
            assert "".join(chunks) == want, (n_rows, block)
            if n < g17.SMALL_TABLE:
                continue  # the row path writes one chunk
            rows = [chunk.count("\n") for chunk in chunks]
            assert all(chunk.endswith("\n") for chunk in chunks)
            assert max(rows) <= -(-n_rows // -(-n // block)), (n_rows, block)
            assert max(rows) * n_cols <= max(block, n_cols), (n_rows, block)
            assert len(set(rows[:-1])) <= 1 and rows[-1] <= rows[0]


def test_streaming_memory_does_not_grow_with_the_table():
    # the peak traced memory of consuming the rows, over the input columns
    # (made before tracing starts), is the same for a table four times as
    # long: chunks are formatted and dropped one at a time
    written(as_table(np.arange(1.0, 2 * g17.SMALL_TABLE), 8))  # the tables
    rng = np.random.default_rng(30)
    peaks = []
    for n_rows in (10 ** 5, 4 * 10 ** 5):
        columns = list(rng.standard_normal((8, n_rows)))
        tracemalloc.start()
        try:
            for _ in g17.csv_rows(columns):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20, peaks
