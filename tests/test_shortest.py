"""The vectorised float renderer against `float.__repr__`, and the CSV writer
against the per-cell writer it replaced.

`_shortest.fill_cells` must spell every float64 as `float.__repr__` does, a
NaN as the empty cell, and leave each cell's last byte free.  It is checked
on a million seeded random bit patterns, on seeded sets of the values CSV
data holds, on every power of 2 and of 10 with both its float neighbours,
and on named cases: each of Schubfach's choices, found for its value by
`schubfach_choice` in exact rationals, each layout, the cells that skip the
core and the ones rendered one at a time.

`oracle_csv_text` and `oracle_csv_lines` are the writer as it stood before
rows were written as bytes: every float64 cell through `float.__repr__`,
one at a time, and the rows as lines of text joined under the header.  Its
parts (`text_cells`, `_quoted`, `_row_lines`, `csv_join`) are copied here as
they stood.  The writer's text, its rows and the file written from them must
match them byte for byte at several `fileio._BLOCK_CELLS` values.  `km.csv` and
`roc_<algorithm>.csv`, whose float columns now reach the writer as arrays,
must keep the bytes they had when they reached it as lists of Python floats.

One test pins the numpy behaviours the renderer relies on, so a numpy
release that changes one fails there and not deep in the oracle.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from survmix import _shortest, fileio
from survmix.evaluation import roc_curve
from survmix.fileio import Coded, csv_rows, csv_text, write_rows
from survmix.pipeline import km_csv
from survmix.survival import km_fit

from helpers import row_bytes


def float_cells(values) -> list:
    """The cells `fill_cells` spells for `values`, as str; each cell's last
    byte must be free, and a line feed put there splits them."""
    values = np.asarray(values)
    words = np.zeros(values.shape + (_shortest._WIDTH,), dtype=np.uint32)
    _shortest.fill_cells(words, values)
    last = words.view(np.uint8)[..., -1]
    assert not last.any()
    last[...] = 10
    cells = words.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    cells.pop()
    return cells


def reprs(values) -> list:
    return ["" if v != v else float.__repr__(v) for v in np.asarray(values).tolist()]


def assert_renders(values):
    values = np.asarray(values, dtype=np.float64)
    got, want = float_cells(values), reprs(values)
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
        assert len(got) == len(want) and not bad, bad[:10]


# -- the oracles ---------------------------------------------------------------------


def oracle_text_cells(values) -> list:
    return [v if type(v) is str else "" if v is None or v != v
            else float.__repr__(v) if isinstance(v, float) else str(v) for v in values]


def oracle_quoted(cells: list, delimiter: str) -> list:
    joined = "".join(cells)
    if delimiter in joined or '"' in joined or "\n" in joined:
        cells = ['"' + c.replace('"', '""') + '"'
                 if delimiter in c or '"' in c or "\n" in c else c for c in cells]
    return cells


def oracle_row_lines(cells: list, delimiter: str) -> list:
    if len(cells) == 1:
        return [(c or '""') + "\n" for c in cells[0]]
    return [row + "\n" for row in map(delimiter.join, zip(*cells))]


def oracle_csv_join(header, lines, delimiter: str) -> str:
    header_cells = [[cell] for cell in oracle_quoted(oracle_text_cells(header), delimiter)]
    head = "".join(oracle_row_lines(header_cells, delimiter)) or "\n"
    return "".join([head, *lines])


def oracle_block_cells(block, delimiter: str) -> list:
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        cells = list(map(float.__repr__, block.tolist()))
        for i in np.flatnonzero(np.isnan(block)).tolist():
            cells[i] = ""
        return cells
    return oracle_quoted(oracle_text_cells(block), delimiter)


def plain(columns) -> list:
    """`columns` with each `Coded` column as its levels, None where missing."""
    return [[col.levels[c] if c >= 0 else None for c in col.codes.tolist()]
            if isinstance(col, Coded) else col for col in columns]


def oracle_line_blocks(columns, delimiter: str):
    columns = plain(columns)
    n_rows = len(columns[0]) if len(columns) else 0
    step = max(1, fileio._BLOCK_CELLS // max(1, len(columns)))
    for lo in range(0, n_rows, step):
        yield oracle_row_lines([oracle_block_cells(col[lo:lo + step], delimiter)
                                for col in columns], delimiter)


def oracle_csv_text(header, columns, delimiter: str) -> str:
    return oracle_csv_join(header, map("".join, oracle_line_blocks(columns, delimiter)),
                           delimiter)


def oracle_csv_lines(columns, delimiter: str) -> list:
    return [line for block in oracle_line_blocks(columns, delimiter) for line in block]


def floor_log2(x: Fraction) -> int:
    k = x.numerator.bit_length() - x.denominator.bit_length()
    return k if Fraction(2) ** k <= x else k - 1


def floor_log10(x: Fraction) -> int:
    k = len(str(x.numerator)) - len(str(x.denominator))
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def schubfach_choice(v: float) -> str:
    """How Schubfach renders the positive normal `v`, in exact rationals:
    "shorter" when exactly one multiple of 10·10^k lies in its rounding
    interval; else "interval s" or "interval t" when exactly one of
    s·10^k and t·10^k = (s + 1)·10^k does; else "closer s", "closer t" or
    "tie"."""
    mantissa, exponent = math.frexp(v)
    c, q = int(mantissa * 2 ** 53), exponent - 53
    x = Fraction(v)
    above = Fraction(2) ** q
    irregular = c == 2 ** 52 and q > -1074
    below = above / 2 if irregular else above
    lo, hi = x - below / 2, x + above / 2

    def inside(y):
        return lo <= y <= hi if c % 2 == 0 else lo < y < hi

    k = floor_log10(above * Fraction(3, 4) if irregular else above)
    s = math.floor(x / Fraction(10) ** k)
    shorter = s // 10 * 10
    if inside(shorter * Fraction(10) ** k) != inside((shorter + 10) * Fraction(10) ** k):
        return "shorter"
    u, w = s * Fraction(10) ** k, (s + 1) * Fraction(10) ** k
    if inside(u) != inside(w):
        return "interval s" if inside(u) else "interval t"
    if x - u == w - x:
        return "tie"
    return "closer s" if x - u < w - x else "closer t"


# -- cells ------------------------------------------------------------------------

# (value, its text, Schubfach's choice)
CHOICES = [
    (0.345584192064786, "0.345584192064786", "shorter"),        # the lower multiple of 10
    (-1.303157231604361, "-1.303157231604361", "shorter"),      # the upper one
    (0.9053558666731177, "0.9053558666731177", "interval s"),
    (0.8216181435011584, "0.8216181435011584", "interval t"),
    (0.36457239618607573, "0.36457239618607573", "closer s"),
    (0.33043707618338714, "0.33043707618338714", "closer t"),
    (0.0005960464477539062, "0.0005960464477539062", "tie"),    # s is even
    (0.0025815963745117188, "0.0025815963745117188", "tie"),    # t is even
    (2.9802322387695312e-08, "2.9802322387695312e-08", "tie"),  # at a power of two
]

# Powers of two whose text the interval below them, half as wide as the one
# above, decides: with a symmetric interval each would lose its last digit.
ASYMMETRIC = [
    (2.0 ** 64, "1.8446744073709552e+19"),
    (2.0 ** -44, "5.684341886080802e-14"),
    (2.0 ** -24, "5.960464477539063e-08"),
    (2.0 ** -1019, "1.7800590868057611e-307"),
]

LAYOUTS = {
    "exponent form": [(1e16, "1e+16"), (1e-05, "1e-05"), (-1.5e-05, "-1.5e-05"),
                      (1.2345678901234567e+16, "1.2345678901234568e+16"),
                      (9.999999999999999e-05, "9.999999999999999e-05"), (1e22, "1e+22")],
    "three-digit exponent": [(1e-300, "1e-300"), (-1.5e+300, "-1.5e+300"),
                             (1.7976931348623157e+308, "1.7976931348623157e+308"),
                             (2.2250738585072014e-308, "2.2250738585072014e-308"),
                             (1e100, "1e+100")],
    "fixed form below one": [(0.0001, "0.0001"), (-0.00012345678901234567, "-0.00012345678901234567"),
                             (0.001, "0.001"), (0.5, "0.5"), (0.1, "0.1")],
    "point inside the digits": [(123.456, "123.456"), (-1.5, "-1.5"),
                                (999999999999999.9, "999999999999999.9"),
                                (1234567890123456.8, "1234567890123456.8")],
    "integer": [(1.0, "1.0"), (100.0, "100.0"), (-42.0, "-42.0"), (1e15, "1000000000000000.0"),
                (9999999999999998.0, "9999999999999998.0"), (2.0 ** 53, "9007199254740992.0"),
                (2.0 ** 53 + 2, "9007199254740994.0")],
}

# Zero skips the core; subnormals and infinities are rendered one cell at a time.
OUTSIDE_THE_CORE = [(0.0, "0.0"), (-0.0, "-0.0"), (math.inf, "inf"), (-math.inf, "-inf"),
                    (5e-324, "5e-324"), (-8e-323, "-8e-323"),
                    (2.225073858507201e-308, "2.225073858507201e-308"),
                    (math.nan, ""), (-math.nan, "")]


class TestNamedCases:
    def test_each_choice_renders_and_is_the_one_named(self):
        assert {name for _, _, name in CHOICES} == {
            "shorter", "interval s", "interval t", "closer s", "closer t", "tie"}
        for value, text, name in CHOICES:
            assert schubfach_choice(abs(value)) == name, value
        assert float_cells(np.array([v for v, _, _ in CHOICES])) == [t for _, t, _ in CHOICES]

    def test_powers_of_two_take_the_asymmetric_interval(self):
        for value, _ in ASYMMETRIC:
            assert math.frexp(value)[0] == 0.5
        assert float_cells(np.array([v for v, _ in ASYMMETRIC])) == [t for _, t in ASYMMETRIC]

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_layouts(self, layout):
        values, texts = zip(*LAYOUTS[layout])
        assert float_cells(np.array(values)) == list(texts) == reprs(values)

    def test_cells_outside_the_core(self):
        values, texts = zip(*OUTSIDE_THE_CORE)
        assert float_cells(np.array(values)) == list(texts) == reprs(values)

    def test_any_mix_of_the_named_cases_and_sizes(self):
        named = ([v for v, _, _ in CHOICES] + [v for v, _ in ASYMMETRIC]
                 + [v for cases in LAYOUTS.values() for v, _ in cases]
                 + [v for v, _ in OUTSIDE_THE_CORE])
        rng = np.random.default_rng(7)
        for size in (0, 1, 2, 17, 1000):
            assert_renders(rng.choice(named, size=size))
        assert float_cells(np.array([1.5, 2.5, 3.5])[::2]) == ["1.5", "3.5"]   # a strided view
        assert float_cells(np.empty(0)) == []


class TestAgainstRepr:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20201)
        for _ in range(16):
            assert_renders(rng.integers(0, 2 ** 64, size=1 << 16, dtype=np.uint64,
                                        endpoint=False).view(np.float64))

    def test_values_csv_data_holds(self):
        rng = np.random.default_rng(2018)
        n = 100_000
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        for values in (rng.standard_normal(n),
                       np.round(rng.standard_normal(n) * 10.0 ** rng.integers(0, 16, n)),
                       rng.integers(-2 ** 53, 2 ** 53, size=n, endpoint=True).astype(np.float64),
                       np.round(rng.random(n) * 1000.0, 2),
                       np.round(rng.lognormal(0.0, 2.0, n), 4),
                       rng.exponential(10.0, n),
                       rng.random(n) * 10.0 ** rng.integers(-30, 30, n)):
            assert_renders(values * sign)

    def test_powers_and_their_neighbours(self):
        powers = np.array([2.0 ** e for e in range(-1074, 1024)]
                          + [float(f"1e{e}") for e in range(-323, 309)])
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_renders(np.concatenate([near, -near]))

    def test_floor_log_formulas_are_exact_over_their_ranges(self):
        for q in range(-1100, 1000):
            two_q = Fraction(2) ** q
            assert (q * 661971961083) >> 41 == floor_log10(two_q), q
            assert (q * 661971961083 - 274743187321) >> 41 == \
                floor_log10(two_q * Fraction(3, 4)), q
        for e in range(-330, 330):
            assert _shortest._flog2pow10(e) == floor_log2(Fraction(10) ** e), e

    def test_multipliers_bound_ten_to_the_minus_k(self):
        for i, k in enumerate(range(_shortest._K_MIN, _shortest._K_MAX + 1)):
            g = (int(_shortest._G1[i]) << 63) + int(_shortest._G0[i])
            assert 2 ** 125 < g <= 2 ** 126
            r = _shortest._flog2pow10(-k) - 125
            scaled = Fraction(10) ** -k / Fraction(2) ** r
            assert g - 1 <= scaled < g, k


def test_numpy_behaviours_the_renderer_relies_on():
    big = np.array([2 ** 64 - 3, 2 ** 63 + 5], dtype=np.uint64)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        # uint64 *, + and << wrap mod 2^64 on arrays, silently.
        assert (big * np.uint64(3)).tolist() == [(v * 3) % 2 ** 64 for v in big.tolist()]
        assert (big + big).tolist() == [(v * 2) % 2 ** 64 for v in big.tolist()]
        assert (big << np.array([4, 1], dtype=np.uint64)).tolist() == \
            [(v << s) % 2 ** 64 for v, s in zip(big.tolist(), (4, 1))]
        # uint64 mixed with bool arrays and np.uint64 scalars stays uint64.
        flags = np.array([True, False])
        for mixed in (big + flags, big - flags, big * flags, big + np.uint64(10) * flags,
                      big // np.uint64(10), big >> np.uint64(63), big & np.uint64(1)):
            assert mixed.dtype == np.uint64
        assert (big // np.uint64(10)).tolist() == [v // 10 for v in big.tolist()]
        # an int64 array times a bool array stays int64
        assert (np.array([-3, 4]) * flags).dtype == np.int64
    # An array over a bytearray writes into it; its uint32 rows view as uint64.
    buf = bytearray(16)
    rows = np.frombuffer(buf, np.uint32).reshape(2, 2)
    rows.view(np.uint64)[1, 0] = np.frombuffer(b"ab\0\0cd\0\0", np.uint64)[0]
    rows[0, 0] = np.frombuffer(b"-\0\0\0", np.uint32)[0]
    assert bytes(buf).replace(b"\0", b"") == b"-abcd"


# -- the writer -------------------------------------------------------------------

LEVELS = ("a", "x;y", "a,b", 'q"', "line\nfeed", "é", "nul\0byte", "", " pad ", "NA")


def writer_tables():
    rng = np.random.default_rng(11)
    n = 40
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -2.2e-310, 1e-300,
                        1e16, 0.1])
    floats = rng.standard_normal(n)
    floats[rng.integers(0, n, 12)] = rng.choice(special, 12)
    ones = rng.choice(special, n)
    codes = rng.integers(-1, len(LEVELS), n)
    return {
        "one float column": (("x",), [ones]),
        "one column of NaN": (("x",), [np.full(n, np.nan)]),
        "several float columns": (("a", "b", "c"), [floats, ones, np.round(floats * 100, 2)]),
        "mixed columns": (("id", "a", "cat", "b", "n", "label"), [
            [f"r{i}" for i in range(n)], floats,
            np.array(rng.choice(["x", "y;", 'q"', "", "a,b"], n), dtype=object), ones,
            rng.integers(-5, 5, n).tolist(), np.where(rng.random(n) < 0.3, 1.0, 0.0)]),
        "float32 and python floats": (("f", "p"), [rng.standard_normal(n).astype(np.float32),
                                                   np.round(floats, 3).tolist()]),
        "no rows": (("a", "b"), [np.empty(0), np.empty(0)]),
        "coded levels": (("id", "x", "c", "d", "y"), [
            Coded(rng.permutation(n), tuple(f"r{i}" for i in range(n))), floats,
            Coded(codes, LEVELS), Coded(codes[::-1].copy(), LEVELS), ones]),
        "coded, more levels than rows": (("c", "x"), [
            Coded(np.array([-1, 3, 3, 0, 6]), LEVELS + tuple(map(str, range(100)))),
            np.array([1.0, np.nan, 2.5, -0.0, 1e300])]),
        "one coded column": (("c",), [Coded(codes, LEVELS)]),
        "one text column": (("t",), [[None, "", "x", "a;b", "é", math.nan] * 7]),
        "coded, no rows": (("c", "x"), [Coded(np.empty(0, np.int32), LEVELS), np.empty(0)]),
        "text holding line feeds": (("t", "x"), [["a\nb", "", "\n"] * 9, np.arange(27.0)]),
    }


@pytest.mark.parametrize("name", sorted(writer_tables()))
@pytest.mark.parametrize("block_cells", (1, 3, 7, 1 << 14))
@pytest.mark.parametrize("delimiter", (";", ","))
def test_writer_matches_the_per_cell_writer(name, block_cells, delimiter, monkeypatch,
                                            tmp_path):
    header, columns = writer_tables()[name]
    monkeypatch.setattr(fileio, "_BLOCK_CELLS", block_cells)
    want = oracle_csv_text(header, columns, delimiter)
    assert csv_text(header, columns, delimiter) == want
    lines = [line.encode() for line in oracle_csv_lines(columns, delimiter)]
    rows = csv_rows(columns, delimiter)
    assert row_bytes(rows) == lines
    write_rows(tmp_path / "t.csv", header, rows, delimiter)
    assert (tmp_path / "t.csv").read_bytes() == want.encode()
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def oracle_km_csv(curves: dict) -> str:
    columns = [[] for _ in range(8)]
    for group in sorted(curves):
        c = curves[group]
        columns[0].extend([group] * len(c.times))
        for column, values in zip(columns[1:], (c.times, c.at_risk, c.deaths, c.survival,
                                                np.sqrt(c.variance), c.ci_lower, c.ci_upper)):
            column.extend(values.tolist())
    return oracle_csv_text(("group", "time", "at_risk", "deaths", "survival",
                            "sd", "ci_lo", "ci_hi"), columns, ",")


def test_csv_artifacts_keep_their_bytes():
    rng = np.random.default_rng(3)
    curves = {}
    for group, n in (("b", 300), ("a", 40), ("tiny", 2)):
        durations = np.round(rng.exponential(5.0, n), 3)
        events = (rng.random(n) < 0.7).astype(int)
        events[-1] = 1   # the last death empties a risk set: NaN variance and bands
        curves[group] = km_fit(durations, events, 0.95)
    text = km_csv(curves)
    assert ",," in text   # undefined cells left empty
    assert text == oracle_km_csv(curves)
    assert km_csv({}) == oracle_km_csv({}) == "group,time,at_risk,deaths,survival,sd,ci_lo,ci_hi\n"
    scores = np.concatenate([rng.random(200), [1.0, 1.0]])   # the top threshold is inf
    curve = roc_curve(scores, (rng.random(202) < 0.4).astype(int))
    assert curve.thresholds[0] == np.inf
    header = ("threshold", "fpr", "tpr")
    lists = [curve.thresholds.tolist(), curve.fpr.tolist(), curve.tpr.tolist()]
    assert csv_text(header, (curve.thresholds, curve.fpr, curve.tpr), ",") == \
        oracle_csv_text(header, lists, ",")
