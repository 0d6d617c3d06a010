"""The dataset loader's numpy fast path against the reader it sped up.

`reference_load_csv` is `dataset.load_csv` as it stood before plain blocks
went to `np.loadtxt`: every record through `csv.reader`, every number
through `float`.  `reference_read_labels` reads `labels.csv` the same way,
as `cli._read_labels` does.  A seeded corpus of files, built with numpy's
generator, runs through both at several `fileio._BLOCK_CELLS` values; each
must give the same dataset (arrays compared as bytes, specs equal) or the
same error class and message.

Three more tests guard the fast path itself: one pins the numpy behaviours
it relies on, so a numpy release that changes one fails here, and two load
files that numpy must parse, a benchmark-shaped one and one with missing
categorical cells, with the csv path made to raise, so a silent fallback,
which would cost the speed and nothing else, fails too.
"""

import csv
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from survmix import dataset, fileio
from survmix.cli import _read_labels
from survmix.dataset import (MISSING_CODE, MISSING_TOKENS, ColumnSpec, Dataset,
                             SyntheticSpec, generate_synthetic, load_csv, read_schema,
                             write_csv, write_schema)
from survmix.errors import DataError, DomainError, ParseError
from survmix.fileio import open_text
from survmix.mixture import ABSTENTION_LABELS
from survmix.pipeline import predict_stage, row_ids

from helpers import datasets_equal

DELIMITER = ";"
FIELD_LIMIT = csv.field_size_limit()


# -- references ------------------------------------------------------------------


def reference_csv_records(fh, path, delimiter):
    number = 0
    try:
        for number, record in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            yield record
    except csv.Error as exc:
        raise ParseError(f"{path}:{number + 1}: {exc}") from exc


def reference_text_cells(values):
    return ["" if v is None or v != v else float.__repr__(v) if isinstance(v, float)
            else str(v) for v in values]


def reference_load_csv(data_path, schema):
    """Load a ';'-separated file against a schema (sidecar path or parsed specs).

    The header row must match the schema names exactly and in order.  Numeric
    cells must parse as floats; categorical cells must belong to the declared
    vocabulary (when one was declared — otherwise the vocabulary is inferred
    in order of first appearance, and each level must fit in a sidecar: no
    '|' and no line break).  Empty and "NA" cells are missing.  Of several
    faults, the first ragged row is reported, else the first bad cell of the
    first faulty column in schema order.
    """
    if isinstance(schema, (str, Path)):
        schema = read_schema(schema)
    specs = list(schema)
    with open_text(data_path) as fh:
        reader = reference_csv_records(fh, data_path, DELIMITER)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{data_path}: empty file (missing header row)")
        if header != [s.name for s in specs]:
            raise ParseError(
                f"{data_path}: header {header!r} does not match schema names "
                f"{[s.name for s in specs]!r}")
        columns = [_ReferenceColumn(s) for s in specs]
        block_rows = max(1, fileio._BLOCK_CELLS // max(1, len(specs)))
        first_row = 2
        while block := list(islice(reader, block_rows)):
            if set(map(len, block)) - {len(specs)}:
                r, row = next((r, row) for r, row in enumerate(block, start=first_row)
                              if len(row) != len(specs))
                raise ParseError(f"{data_path}:{r}: expected {len(specs)} fields, "
                                 f"got {len(row)}")
            for column, tokens in zip(columns, zip(*block)):
                column.add(tokens, first_row)
            first_row += len(block)
    for column in columns:
        if column.bad is not None:
            error, row, message = column.bad
            raise error(f"{data_path}:{row}: column {column.spec.name!r}: {message}")
    return Dataset([c.final_spec() for c in columns],
                   {c.spec.name: c.values() for c in columns})


class _ReferenceColumn:
    """One column's cells, parsed a block of rows at a time.

    The first bad cell is kept in `bad` as (error class, file row, message)
    and ends the column's parsing.  `load_csv` raises it only once every row
    has been read, since a ragged row anywhere in the file is reported first.
    """

    def __init__(self, spec: ColumnSpec):
        self.spec = spec
        self.bad = None
        self.parts = []
        self.index = {v: i for i, v in enumerate(spec.vocabulary)}

    def add(self, tokens: tuple, first_row: int) -> None:
        """Parse one block of cells; the first lies on file row `first_row`."""
        if self.bad is not None:
            return
        parse = (_reference_parse_numbers if self.spec.kind == "numeric"
                 else self._parse_levels)
        values, bad = parse(tokens)
        if bad is None:
            self.parts.append(values)
        else:
            error, i, message = bad
            self.bad = (error, first_row + i, message)

    def _parse_levels(self, tokens) -> tuple:
        """(int32 codes, None), or (None, bad cell); new levels are appended
        in order of first appearance and rejected when a vocabulary was
        declared."""
        index = self.index
        known = len(index)
        codes = np.array([MISSING_CODE if tok in MISSING_TOKENS
                          else index.setdefault(tok, len(index)) for tok in tokens],
                         dtype=np.int32)
        declared = len(self.spec.vocabulary)
        if declared and len(index) > declared:
            i = int(np.argmax(codes >= declared))
            return None, (DomainError, i,
                          f"value {tokens[i]!r} is not in the declared vocabulary")
        for code, level in enumerate(list(index)[known:], start=known):
            if "|" in level or level.splitlines() != [level]:
                return None, (DomainError, int(np.argmax(codes == code)),
                              f"value {level!r} holds '|' or a line break, which a "
                              f"schema sidecar cannot store")
        return codes, None

    def values(self) -> np.ndarray:
        """The parsed cells as one array; the blocks are let go."""
        if not self.parts:
            return np.empty(0, np.float64 if self.spec.kind == "numeric" else np.int32)
        parts, self.parts = self.parts, []
        return np.concatenate(parts)

    def final_spec(self) -> ColumnSpec:
        s = self.spec
        if s.kind == "numeric":
            return s
        return ColumnSpec(s.name, s.kind, s.role, tuple(self.index))


_REFERENCE_NAN_FOR_MISSING = dict.fromkeys(MISSING_TOKENS, "nan")


def _reference_parse_numbers(tokens) -> tuple:
    """(float64 array, None), or (None, bad cell) naming the first bad cell."""
    try:
        return np.fromiter(map(float, map(_REFERENCE_NAN_FOR_MISSING.get, tokens, tokens)),
                           dtype=np.float64, count=len(tokens)), None
    except ValueError:
        for i, tok in enumerate(tokens):
            if tok not in MISSING_TOKENS:
                try:
                    float(tok)
                except ValueError:
                    return None, (ParseError, i, f"cannot parse {tok!r} as a number")
        raise


def reference_read_labels(path, data):
    ids, labels = [], []
    with open_text(path) as fh:
        reader = reference_csv_records(fh, path, ",")
        if next(reader, None) != ["id", "probability", "label"]:
            raise ParseError(f"{path}: expected header id,probability,label")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            ids.append(row[0])
            labels.append(row[2])
    unknown = set(labels) - set(ABSTENTION_LABELS)
    if unknown:
        raise DomainError(f"{path}: unknown labels {sorted(unknown)}")
    if len(labels) != data.n_rows:
        raise DomainError(f"{path}: {len(labels)} label rows "
                          f"for {data.n_rows} data rows")
    if reference_text_cells(row_ids(data)) != ids:
        raise DomainError(f"{path}: row ids do not match the dataset")
    return np.asarray(labels, dtype=object)


# -- corpus ----------------------------------------------------------------------

N_ROWS = 40
BLOCK_ROWS = (1, 2, 7, N_ROWS + 10)   # forced through `fileio._BLOCK_CELLS`
IDS = tuple(f"r{i:03d}" for i in range(N_ROWS))
LEVELS = ("a", "b", "c")
NUMBERS = ("nan", "NaN", "-nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e999",
           "1.7976931348623157e308", "2.2250738585072014e-308", "0.1", "+7", ".5", "5.")
SPLIT_LEVELS = ("semi;colon", 'say "hi"', "two\nlines", "cr\r\nlf")


def number(rng):
    if rng.random() < 0.3:
        return str(rng.choice(NUMBERS))
    return repr(float(rng.normal() * 10.0 ** rng.integers(-5, 6)))


def quoted(cell):
    if any(c in cell for c in ';"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def sprinkle(rng, rows, column, tokens, rate):
    for row in rows:
        if rng.random() < rate and len(row) > column:
            row[column] = str(rng.choice(tokens))


def some_row(rng, rows, low=0):
    """A row index at or past `low`, so a fault can fall in a later block."""
    return int(rng.integers(low, len(rows)))


CASES = ("plain", "missing", "padded", "underscore", "arabic_digits", "bad_number",
         "bom", "bom_in_cells", "crlf", "lone_cr", "blank_lines", "quoted_levels",
         "quote_in_first_block", "ragged", "over_limit", "over_limit_number",
         "long_level", "nul", "whitespace_levels", "undeclared", "pipe",
         "no_final_line_end", "mixed", "missing_levels")


def corpus_text(case):
    """One ';' file of the columns id, x, y, c, seeded by the case's place."""
    rng = np.random.default_rng(1000 + CASES.index(case))
    rows = [[IDS[i], number(rng), number(rng), str(rng.choice(LEVELS))]
            for i in range(N_ROWS)]
    line_end, prefix = "\n", ""
    if case in ("missing", "mixed"):
        for column in (1, 2, 3):
            sprinkle(rng, rows, column, MISSING_TOKENS, 0.08)
    if case == "missing_levels":   # numpy reads these blocks
        for column in (0, 3):
            sprinkle(rng, rows, column, MISSING_TOKENS, 0.1)
    if case in ("padded", "mixed"):
        sprinkle(rng, rows, 1, (" 1.5", "2.5 ", "\t3", " -0.0 ", " 4"), 0.2)
    if case == "underscore":
        sprinkle(rng, rows, 2, ("1_0", "1_000.5"), 0.1)
    if case == "arabic_digits":
        sprinkle(rng, rows, 1, ("١٢", "٣.٥"), 0.1)
    if case in ("bad_number", "mixed"):
        rows[some_row(rng, rows, N_ROWS // 2)][2] = str(rng.choice(["oops", " ", "0x10"]))
    if case == "bom":
        prefix = "\ufeff"
    if case == "bom_in_cells":
        rows[some_row(rng, rows)][3] = "\ufeffa"
        rows[some_row(rng, rows)][1] = "\ufeff1"
    if case == "crlf":
        line_end = "\r\n"
    if case == "lone_cr":
        line_end = "\r"
    if case in ("blank_lines", "mixed"):
        for _ in range(2):
            rows.insert(some_row(rng, rows), [])
    if case in ("quoted_levels", "mixed"):
        for _ in range(3):
            rows[some_row(rng, rows, N_ROWS // 2)][3] = str(rng.choice(SPLIT_LEVELS))
    if case == "quote_in_first_block":
        rows[0][3] = "semi;colon"
        rows[some_row(rng, rows)][3] = "two\nlines"
    if case in ("ragged", "mixed"):
        k = some_row(rng, rows, N_ROWS // 3)
        rows[k] = rows[k][:3] if rng.random() < 0.5 else rows[k] + ["extra"]
    if case == "over_limit":
        rows[some_row(rng, rows, N_ROWS // 2)][3] = "p" * (FIELD_LIMIT + 1)
    if case == "over_limit_number":   # numpy would read it
        rows[some_row(rng, rows, N_ROWS // 2)][1] = "0." + "1" * FIELD_LIMIT
    if case == "long_level":
        rows[some_row(rng, rows)][3] = "L" * 70
        rows[some_row(rng, rows)][0] = "r" * 200
    if case == "nul":
        rows[some_row(rng, rows)][3] = "a\x00"
        rows[some_row(rng, rows)][0] = "r001\x00"
    if case == "whitespace_levels":
        sprinkle(rng, rows, 3, (" a", "a ", "\ta", "\x0cb", "u v", "\x1c"), 0.2)
    if case == "undeclared":
        rows[some_row(rng, rows, N_ROWS // 2)][3] = "d"
    if case == "pipe":
        sprinkle(rng, rows, 3, ("x|y",), 0.1)
    lines = ["id;x;y;c"] + [";".join(map(quoted, row)) for row in rows]
    text = prefix + line_end.join(lines) + line_end
    return text[:-len(line_end)] if case == "no_final_line_end" else text


def spec_variants():
    """The corpus's schema three ways: vocabularies declared, inferred, and
    declared with the missing tokens and a '|' among the levels."""
    x, y = ColumnSpec("x", "numeric"), ColumnSpec("y", "numeric", "duration")
    return (
        (ColumnSpec("id", "categorical", "id", IDS), x, y,
         ColumnSpec("c", "categorical", "feature", LEVELS)),
        (ColumnSpec("id", "categorical", "id"), x, ColumnSpec("y", "numeric"),
         ColumnSpec("c", "categorical")),
        (ColumnSpec("id", "categorical", "id", IDS + ("r" * 200,)), x,
         ColumnSpec("y", "numeric"),
         ColumnSpec("c", "categorical", "feature", ("NA", "x|y") + LEVELS + ("",))),
    )


def outcome(read, *args):
    """What `read` returns, or its error's class and message."""
    try:
        return read(*args)
    except (DataError, DomainError, ParseError) as exc:
        return type(exc), str(exc)


def assert_same_dataset(got, want):
    if not isinstance(want, Dataset):
        assert got == want
        return
    assert isinstance(got, Dataset), got
    assert got.specs == want.specs
    for name in want.names:
        assert got.column(name).dtype == want.column(name).dtype, name
        assert got.column(name).tobytes() == want.column(name).tobytes(), name


@pytest.mark.parametrize("case", CASES)
def test_load_csv_matches_the_reference(tmp_path, monkeypatch, case):
    path = tmp_path / "d.csv"
    path.write_bytes(corpus_text(case).encode("utf-8"))
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 4)
        for specs in spec_variants():
            assert_same_dataset(outcome(load_csv, path, specs),
                                outcome(reference_load_csv, path, specs))


def test_the_corpus_reaches_both_paths_and_both_outcomes(tmp_path):
    # Guards the corpus against drifting into one kind of case.
    loaded = failed = 0
    for case in CASES:
        path = tmp_path / f"{case}.csv"
        path.write_bytes(corpus_text(case).encode("utf-8"))
        for specs in spec_variants():
            got = outcome(reference_load_csv, path, specs)
            loaded += isinstance(got, Dataset)
            failed += not isinstance(got, Dataset)
    assert loaded >= 20 and failed >= 20


# -- labels.csv ------------------------------------------------------------------

LABEL_CASES = ("valid", "crlf", "quoted_id", "unknown_label", "long_label", "na_label",
               "ragged_short", "ragged_long", "field_limit", "ragged_then_field_limit",
               "blank_line", "ids_swapped", "long_id", "nul_id", "missing_row",
               "bad_header", "bom", "empty_probability", "row_number_ids",
               "numeric_ids")


def labels_case(case):
    """(labels.csv text, the dataset it labels) for one case."""
    rng = np.random.default_rng(2000 + LABEL_CASES.index(case))
    if case == "row_number_ids":
        data = Dataset([ColumnSpec("x", "numeric")], {"x": rng.normal(size=N_ROWS)})
    elif case == "numeric_ids":
        data = Dataset([ColumnSpec("id", "numeric", "id")], {"id": rng.normal(size=N_ROWS)})
    else:
        data = Dataset([ColumnSpec("id", "categorical", "id", IDS)],
                       {"id": np.arange(N_ROWS)})
    rows = [[i, repr(float(p)), str(rng.choice(ABSTENTION_LABELS))]
            for i, p in zip(reference_text_cells(row_ids(data)), rng.random(N_ROWS))]
    late = some_row(rng, rows, N_ROWS // 2)
    line_end, head = "\n", "id,probability,label"
    if case == "crlf":
        line_end = "\r\n"
    if case == "quoted_id":
        rows[late][0] = '"' + rows[late][0] + '"'
    if case == "unknown_label":
        rows[late][2] = "maybe"
    if case == "long_label":
        rows[late][2] = "unclassified" + "x" * 20
    if case == "na_label":
        rows[late][2] = "NA"
    if case == "ragged_short":
        rows[late] = rows[late][:2]
    if case == "ragged_long":
        rows[late].append("extra")
    if case in ("field_limit", "ragged_then_field_limit"):
        rows[late][2] = "p" * (FIELD_LIMIT + 1)
    if case == "ragged_then_field_limit":
        rows[late - 1] = rows[late - 1][:2]
    if case == "blank_line":
        rows.insert(late, [])
    if case == "ids_swapped":
        rows[0][0], rows[late][0] = rows[late][0], rows[0][0]
    if case == "long_id":
        rows[late][0] = rows[late][0] + "x" * 70
    if case == "nul_id":
        rows[late][0] += "\x00"
    if case == "missing_row":
        del rows[late]
    if case == "bad_header":
        head = "id,label,probability"
    if case == "bom":
        head = "\ufeff" + head
    if case == "empty_probability":
        rows[late][1] = ""
    text = line_end.join([head] + [",".join(row) for row in rows]) + line_end
    return text, data


@pytest.mark.parametrize("case", LABEL_CASES)
def test_read_labels_matches_the_reference(tmp_path, monkeypatch, case):
    text, data = labels_case(case)
    path = tmp_path / "labels.csv"
    path.write_bytes(text.encode("utf-8"))
    for rows in BLOCK_ROWS:
        monkeypatch.setattr(fileio, "_BLOCK_CELLS", rows * 3)
        want = outcome(reference_read_labels, path, data)
        got = outcome(_read_labels, path, data)
        if isinstance(want, np.ndarray):
            # the reference built an object array; the labels now come as str
            assert isinstance(got, np.ndarray) and got.dtype.kind == "U"
            assert got.tolist() == want.tolist()
        else:
            assert got == want


# -- the fast path itself --------------------------------------------------------


def loadtxt(lines, dtype):
    return np.loadtxt(lines, dtype=dtype, delimiter=";", comments=None, ndmin=1)


def test_numpy_reader_behaviours_the_fast_path_relies_on():
    pair = np.dtype([("", "f8"), ("", "f8")])
    # As f8 it rejects what the csv path must read or report: a missing
    # cell, a whitespace-only cell and spellings only `float` takes.
    for token in ("", "NA", " ", "\t", "1_0", "١٢", "oops"):
        with pytest.raises(ValueError):
            loadtxt([f"1;{token}\n"], pair)
    # On the tokens both take, it gives `float`'s bits.
    tokens = NUMBERS + (" 1.5", "2.5 ", "\t3", "-1.25e-300", "123456789012345678901")
    got = loadtxt([f"{token};0\n" for token in tokens], pair)["f0"]
    assert got.tobytes() == np.array([float(t) for t in tokens]).tobytes()
    # A ragged row raises.
    for line in ("1\n", "1;2;3\n"):
        with pytest.raises(ValueError):
            loadtxt(["1;2\n", line], pair)
    # It skips a blank line (csv reads an empty record), so the fast path
    # must not see one.
    assert loadtxt(["1;2\n", "\n", "3;4\n"], pair).tolist() == [(1.0, 2.0), (3.0, 4.0)]
    # An object field gives each cell as the Python str csv gives, verbatim:
    # spaces, control characters, a NUL, a cell longer than any level and
    # one longer than csv's field limit included.
    cells = [" a ", "\x0cb", "\t", "", "NA", "a\x00", "\x00b", "L" * 70,
             "c" * (FIELD_LIMIT + 10)]
    got = loadtxt([cell + ";0\n" for cell in cells], np.dtype([("", "O"), ("", "f8")]))
    assert got["f0"].tolist() == cells
    assert {type(cell) for cell in got["f0"]} == {str}


def test_benchmark_shaped_file_never_takes_the_csv_path(tmp_path, monkeypatch):
    # An id, 18 numeric and 2 categorical features, the label, duration and
    # event: the shape of the benchmark's eras, with no quote and no missing
    # cell.  Its rows may not fall back, and a labels.csv for them still reads.
    data = generate_synthetic(SyntheticSpec(n_rows=2000, n_numeric=18, n_categorical=2,
                                            seed=3))
    write_csv(data, tmp_path / "era.csv")
    write_schema(data.specs, tmp_path / "era.schema")
    scores = np.random.default_rng(3).random(data.n_rows)
    (tmp_path / "labels.csv").write_text(
        predict_stage(data, scores, 0.2, 0.8)[1]["labels.csv"], encoding="utf-8")

    def fallback(*args, **kwargs):
        raise AssertionError("a block took the csv path")

    monkeypatch.setattr(fileio, "csv_records", fallback)
    monkeypatch.setattr(dataset, "_parse_numbers", fallback)
    loaded = load_csv(tmp_path / "era.csv", tmp_path / "era.schema")
    assert datasets_equal(loaded, data)
    labels = _read_labels(tmp_path / "labels.csv", loaded)
    assert labels.tolist() == list(predict_stage(data, scores, 0.2, 0.8)[0])


def test_missing_categorical_cells_never_take_the_csv_path(tmp_path, monkeypatch):
    # A quote-free era with about 5 % of its id and categorical cells missing,
    # and none of its numbers: numpy parses every block and the one coder
    # codes its missing cells, so no block is read again by csv.
    data = generate_synthetic(SyntheticSpec(n_rows=2000, n_numeric=18, n_categorical=2,
                                            seed=4))
    rng = np.random.default_rng(4)
    columns = {name: data.column(name) for name in data.names}
    for s in data.specs:
        if s.kind == "categorical":
            codes = columns[s.name].copy()
            codes[rng.random(data.n_rows) < 0.05] = MISSING_CODE
            columns[s.name] = codes
    data = Dataset(data.specs, columns)
    write_csv(data, tmp_path / "era.csv")
    write_schema(data.specs, tmp_path / "era.schema")
    assert ";;" in (tmp_path / "era.csv").read_text(encoding="utf-8")
    want = reference_load_csv(tmp_path / "era.csv", tmp_path / "era.schema")

    def fallback(*args, **kwargs):
        raise AssertionError("a block took the csv path")

    monkeypatch.setattr(fileio, "csv_records", fallback)
    monkeypatch.setattr(dataset, "_parse_numbers", fallback)
    loaded = load_csv(tmp_path / "era.csv", tmp_path / "era.schema")
    assert datasets_equal(loaded, data)
    assert_same_dataset(loaded, want)
