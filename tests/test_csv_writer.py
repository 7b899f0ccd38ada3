"""SweepTable.to_csv against the ``%`` formatting it replaces, byte for byte.

The writer formats ``%.12e`` with numpy byte arithmetic and hands a cell to
``%`` only near a rounding tie or outside the exponents it decides exactly,
so the cases that matter are the ones next to those boundaries: exact and
near 13-digit ties, powers of ten, the carry of 9.9999999999995, zeros,
subnormals and the ends of the double range.  Hypothesis runs are
derandomized and keep no example database.  The writer streams: it writes
the header and then one block per ``csvtext.CHUNK`` rows to a binary file,
so its memory does not grow with the table.
"""

import io
import math
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from scatchan import csvtext
from scatchan.physics import SweepTable

PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, database=None,
                             deadline=None)


def reference_csv(table):
    """The CSV as ``%`` formats it, one row at a time."""
    row = ",".join(["%.12e"] * (len(table.CSV_COLUMNS) - 1) + ["%d"])
    cells = np.column_stack([getattr(table, f.name) for f in fields(table)])
    lines = [",".join(table.CSV_COLUMNS)]
    lines.extend(row % tuple(r) for r in cells.tolist())
    return "\n".join(lines) + "\n"


def table_of(values):
    """A table holding ``values`` in each float column, rotated by one row
    per column, with alternating flags."""
    values = np.asarray(values, dtype=float)
    columns = [np.roll(values, j) for j in range(len(SweepTable.CSV_COLUMNS) - 1)]
    return SweepTable(*columns, np.arange(values.size) % 2 == 1)


class SizeSink(io.RawIOBase):
    """A binary file that keeps only the size of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def writable(self):
        return True

    def write(self, data):
        self.sizes.append(len(data))
        return len(data)


def assert_matches_percent(values):
    table = table_of(values)
    fh = io.BytesIO()
    table.to_csv(fh)
    got, want = fh.getvalue().decode("ascii"), reference_csv(table)
    # The first differing lines, not a diff of the whole text.
    bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
    assert not bad, bad[:3]
    assert got == want


def neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate((values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)))


def exact_ties():
    """Doubles whose 14-significant-digit decimal ends in an exact 5: x =
    q 2**(e - 13) with q odd and decimal exponent e, which exist for e >= -5."""
    ties = []
    for e in range(-11, 12):
        lo = Fraction(10) ** e
        q = int(lo / Fraction(2) ** (e - 13)) | 1
        for step in (0, 2, 4, 1000, 12346):
            x = float((q + step) * Fraction(2) ** (e - 13))
            if lo <= x < 10 * lo:
                ties.append(x)
    return ties


def near_tie(mantissa, exp):
    """The double nearest to (mantissa + 1/2) 10**(exp - 12)."""
    return float(Fraction(2 * mantissa + 1, 2) * Fraction(10) ** (exp - 12))


EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-100, 1e-11, 1e-10,
    9.9999999999995e-1, 9.99999999999949e-1, 1.0, 1.0000000000005, 0.5,
    0.1, 1e10, 9.9999999999995e10, 1e11, 1e22, 1e23, 1.7976931348623157e308,
    1234567890.125, 0.000123456789012345, 2.0 / 3.0,
]


def test_edge_values():
    values = neighbours(EDGE_VALUES)
    assert_matches_percent(np.concatenate((values, -values)))


def test_exact_and_near_ties():
    ties = exact_ties()
    assert len(ties) > 60
    near = [near_tie(m, e) for e in range(-11, 12)
            for m in (10**12, 1234567890123, 5000000000000, 9999999999999)]
    values = neighbours(ties + near)
    assert_matches_percent(np.concatenate((values, -values)))


def test_non_finite_cells_print_as_percent_does():
    assert_matches_percent([np.nan, np.inf, -np.inf, 1.0])


@PROPERTY_SETTINGS
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_finite_doubles(values):
    assert_matches_percent(values)


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.integers(10**12, 10**13 - 1), st.integers(-12, 12)),
                min_size=1, max_size=20))
def test_neighbourhoods_of_ties(cases):
    assert_matches_percent(neighbours([near_tie(m, e) for m, e in cases]))


def test_bundled_grid_rows():
    # Values spread like a sweep's: probabilities, bounds that are often
    # exactly zero, and energies on a linspace grid.
    rng = np.random.default_rng(13)
    values = np.concatenate((rng.random(3000), np.zeros(500), np.linspace(0.005, 2.0, 1500),
                             rng.random(1000) ** 8))
    assert_matches_percent(values)


def test_header_then_one_write_per_block():
    rows = 2 * csvtext.CHUNK + 5
    table = table_of(np.linspace(0.005, 2.0, rows))
    sink = SizeSink()
    table.to_csv(sink)
    assert len(sink.sizes) == 1 + math.ceil(rows / csvtext.CHUNK) == 4
    assert sink.sizes[0] == len(",".join(SweepTable.CSV_COLUMNS) + "\n")
    assert sum(sink.sizes) == len(reference_csv(table))


def test_blocks_join_into_percent_text(monkeypatch):
    # Seven rows a block: four blocks, the last a partial one.
    monkeypatch.setattr(csvtext, "CHUNK", 7)
    rng = np.random.default_rng(5)
    assert_matches_percent(np.concatenate((rng.random(12), [0.0, -0.0, np.nan, 1e23],
                                           -rng.random(9))))


def to_csv_peak(rows):
    """The tracemalloc peak of writing a ``rows``-row table to a sink that
    keeps no bytes; the table itself is built before tracing starts."""
    table = table_of(np.random.default_rng(rows).random(rows))
    sink = SizeSink()
    tracemalloc.start()
    try:
        table.to_csv(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sink.sizes) > rows * 9 * 18  # nine cells of at least 18 bytes a row
    return peak


def test_memory_stays_flat_as_rows_grow():
    to_csv_peak(10)  # the module and its lookup tables load outside the measurement
    small, large = to_csv_peak(5_000), to_csv_peak(50_000)
    assert large < 1.5 * small, (small, large)
