"""Tabular data model, CSV + schema I/O, synthetic data.

A Dataset is an immutable column store.  Numeric columns are float64 arrays
with NaN marking missing cells; categorical columns are int32 code arrays
indexing an ordered vocabulary, with -1 marking missing.  Each column carries
a role: plain model input ("feature"), the binary target ("label"), survival
time ("duration"), the event indicator ("event"), or a row identifier ("id").

On disk a dataset is a ';'-separated text file with a header row, empty or
"NA" cells for missing values (written empty), plus a schema sidecar with one
line per column:

    name = kind,role
    name = kind,role,vocab|code1|code2|...

The vocab part is optional for categorical columns; when absent the vocabulary
is inferred from the data in order of first appearance.  `write_csv` hands
each column (numeric arrays, categorical codes with their vocabulary) to
`fileio.csv_rows`, which renders every row as bytes (`fileio.CsvRows`), and
then writes them with `fileio.write_rows`; a dataset whose rows were picked
from one already written (`Dataset.source_rows`) is written from that one's
bytes, and only its rows made anew are rendered.  `write_csv` returns the
rows for the datasets later picked from this one, so it keeps them all
anyway, and writing each block as soon as it is rendered would save next
to no memory.
`load_csv` streams the file through `fileio.csv_blocks`, one block of at
most `fileio._BLOCK_CELLS` cells at a time, so besides the dataset it holds
one block's cells, whatever the row count.  A plain block is parsed by
numpy into float64 and object fields, an object field's cells the Python
str that csv would give.  Any other, such as one with a missing or bad
number, is left to `csv.reader`, whose numeric cells go through `float`
column by column.  Either way one coder (`_Column._code`) numbers a
block's categorical cells with one dict, in order of first appearance, and
reports an undeclared or unstorable level, so the errors and their rows do
not depend on the path.
"""

from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import fileio
from .errors import DomainError, ParseError
from .fileio import (Coded, CsvRows, atomic_write_text, csv_blocks, csv_records, csv_rows,
                     open_text, read_text, write_rows)
from .rng import substream

KINDS = ("numeric", "categorical")
ROLES = ("feature", "label", "duration", "event", "id")
_SINGLETON_ROLES = ("label", "duration", "event", "id")
MISSING_TOKENS = ("", "NA")
_MISSING = frozenset(MISSING_TOKENS)
MISSING_CODE = -1


@dataclass(frozen=True)
class ColumnSpec:
    """Declared name, kind, role and (for categoricals) vocabulary of a column."""

    name: str
    kind: str
    role: str = "feature"
    vocabulary: tuple = ()

    def __post_init__(self):
        if not self.name:
            raise DomainError("column name must be non-empty")
        if self.kind not in KINDS:
            raise DomainError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise DomainError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.kind == "numeric" and self.vocabulary:
            raise DomainError(f"column {self.name!r}: numeric columns take no vocabulary")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise DomainError(f"column {self.name!r}: duplicate vocabulary entries")


class Dataset:
    """Immutable typed column store.

    `columns` maps each spec name to its cell array: float64 (NaN = missing)
    for numeric columns, int32 vocabulary codes (-1 = missing) for categorical
    ones.  All arrays must share one length.  Value-domain contracts (label in
    {0,1}, duration > 0, event in {0,1}) are enforced on construction.

    `source_rows`, for a dataset made by picking rows of another
    (`take_rows`, `resampling.split`, `resampling.smote`), holds each row's
    index in that dataset, -1 for a row made anew; otherwise it is None.
    """

    def __init__(self, specs: Sequence[ColumnSpec], columns: Mapping[str, np.ndarray],
                 source_rows: Optional[np.ndarray] = None):
        specs = tuple(specs)
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise DomainError("duplicate column names")
        if set(columns) != set(names):
            raise DomainError("column arrays do not match the declared specs")
        for role in _SINGLETON_ROLES:
            if sum(1 for s in specs if s.role == role) > 1:
                raise DomainError(f"more than one column with role {role!r}")

        lengths = {len(columns[n]) for n in names} or {0}
        if len(lengths) > 1:
            raise DomainError(f"ragged columns: lengths {sorted(lengths)}")
        self._n = lengths.pop()
        self._specs = specs
        self._by_name = {s.name: s for s in specs}
        self._columns = {}
        for s in specs:
            arr = np.asarray(columns[s.name])
            if s.kind == "numeric":
                arr = arr.astype(np.float64, copy=True)
            else:
                arr = arr.astype(np.int32, copy=True)
                if self._n and ((arr < MISSING_CODE) | (arr >= len(s.vocabulary))).any():
                    raise DomainError(f"column {s.name!r}: code outside vocabulary range")
                if self._n and not s.vocabulary and (arr != MISSING_CODE).any():
                    raise DomainError(f"column {s.name!r}: empty vocabulary")
            arr.flags.writeable = False
            self._columns[s.name] = arr
        self._check_role_domains()
        if source_rows is not None:
            source_rows = np.array(source_rows, dtype=np.intp)
            if source_rows.shape != (self._n,):
                raise DomainError("source_rows needs one entry per row")
            source_rows.flags.writeable = False
        self._source_rows = source_rows

    def _check_role_domains(self):
        for s in self._specs:
            if s.kind != "numeric":
                continue
            v = self._columns[s.name]
            present = v[~np.isnan(v)]
            if s.role in ("label", "event") and not np.isin(present, (0.0, 1.0)).all():
                raise DomainError(f"column {s.name!r}: {s.role} values must be 0 or 1")
            if s.role == "duration" and (present <= 0).any():
                raise DomainError(f"column {s.name!r}: durations must be positive")

    # -- basic accessors ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._n

    @property
    def source_rows(self) -> Optional[np.ndarray]:
        return self._source_rows

    @property
    def specs(self) -> tuple:
        return self._specs

    @property
    def names(self) -> tuple:
        return tuple(s.name for s in self._specs)

    def spec(self, name: str) -> ColumnSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise DomainError(f"no column named {name!r}") from None

    def column(self, name: str) -> np.ndarray:
        self.spec(name)
        return self._columns[name]

    def numeric(self, name: str) -> np.ndarray:
        s = self.spec(name)
        if s.kind != "numeric":
            raise DomainError(f"column {name!r} is not numeric")
        return self._columns[name]

    def codes(self, name: str) -> np.ndarray:
        s = self.spec(name)
        if s.kind != "categorical":
            raise DomainError(f"column {name!r} is not categorical")
        return self._columns[name]

    def strings(self, name: str) -> np.ndarray:
        """Categorical column as an object array of str (None where missing)."""
        codes = self.codes(name)
        vocabulary = self._by_name[name].vocabulary
        lookup = np.empty(len(vocabulary) + 1, dtype=object)
        lookup[:-1] = vocabulary   # code -1 picks the trailing None
        return lookup[codes]

    def values(self, name: str) -> list:
        """The column as Python values: float (NaN where missing) for numeric
        columns, str (None where missing) for categorical ones."""
        if self.spec(name).kind == "numeric":
            return self._columns[name].tolist()
        return self.strings(name).tolist()

    def missing_mask(self, name: str) -> np.ndarray:
        s = self.spec(name)
        v = self._columns[name]
        return np.isnan(v) if s.kind == "numeric" else v == MISSING_CODE

    def role_column(self, role: str) -> Optional[str]:
        for s in self._specs:
            if s.role == role:
                return s.name
        return None

    def feature_names(self) -> tuple:
        return tuple(s.name for s in self._specs if s.role == "feature")

    def label_values(self) -> np.ndarray:
        """Label column as int array; missing labels are rejected."""
        name = self.role_column("label")
        if name is None:
            raise DomainError("dataset has no label column")
        v = self._columns[name]
        if np.isnan(v).any():
            raise DomainError(f"column {name!r} has missing labels")
        return v.astype(np.int64)

    # -- derivation ---------------------------------------------------------

    def take_rows(self, index: Union[np.ndarray, Sequence[int]]) -> "Dataset":
        index = np.asarray(index)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        elif index.size == 0:   # np.asarray([]) is float64
            index = index.astype(np.intp)
        return Dataset(self._specs, {n: self._columns[n][index] for n in self.names},
                       source_rows=index)

    def drop_columns(self, names: Iterable[str]) -> "Dataset":
        drop = set(names)
        missing = drop - set(self.names)
        if missing:
            raise DomainError(f"cannot drop unknown columns: {sorted(missing)}")
        keep = [s for s in self._specs if s.name not in drop]
        return Dataset(keep, {s.name: self._columns[s.name] for s in keep})

    def with_column(self, spec: ColumnSpec, values: np.ndarray) -> "Dataset":
        cols = dict(self._columns)
        cols[spec.name] = values
        return Dataset(self._specs + (spec,), cols)


# -- quartiles and observed levels ---------------------------------------------

def quartiles(values: np.ndarray) -> tuple:
    """(Q1, median, Q3) under linear interpolation of order statistics.

    The missing-value cleansing thresholds use this convention, e.g.
    quartiles({1,2,3,4}) = (1.75, 2.5, 3.25).
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise DomainError("quartiles of an empty set are undefined")
    q1, q2, q3 = np.quantile(v, [0.25, 0.5, 0.75], method="linear")
    return float(q1), float(q2), float(q3)


def observed_levels(levels, counts) -> tuple:
    """The levels with a positive count, in their given order, and the one
    with the largest count (ties to the earliest; None when none is left)."""
    present = np.flatnonzero(counts > 0)
    observed = tuple(levels[i] for i in present)
    if not observed:
        return observed, None
    return observed, observed[int(np.argmax(counts[present]))]


# -- schema sidecar -----------------------------------------------------------

def parse_schema(text: str, path: str = "<schema>") -> tuple:
    """Parse sidecar text into a tuple of ColumnSpec.

    The vocabulary runs verbatim to the end of its line: a level may end in
    whitespace.
    """
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'name = kind,role[,vocab|...]'")
        name, _, value = raw.partition("=")
        parts = value.split(",", 2)
        if len(parts) < 2:
            raise ParseError(f"{path}:{lineno}: expected at least kind and role")
        kind, role = parts[0].strip(), parts[1].strip()
        vocab = ()
        if len(parts) == 3:
            tail = parts[2].lstrip()
            if not tail.startswith("vocab|"):
                raise ParseError(f"{path}:{lineno}: third field must start with 'vocab|'")
            vocab = tuple(tail.split("|")[1:])
        try:
            specs.append(ColumnSpec(name.strip(), kind, role, vocab))
        except DomainError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not specs:
        raise ParseError(f"{path}: schema declares no columns")
    return tuple(specs)


def format_schema(specs: Sequence[ColumnSpec]) -> str:
    lines = []
    for s in specs:
        entry = f"{s.name} = {s.kind},{s.role}"
        if s.vocabulary:
            entry += ",vocab|" + "|".join(s.vocabulary)
        lines.append(entry)
    return "\n".join(lines) + "\n"


def read_schema(path: "str | Path") -> tuple:
    return parse_schema(read_text(path), str(path))


def write_schema(specs: Sequence[ColumnSpec], path: "str | Path") -> None:
    atomic_write_text(path, format_schema(specs))


# -- CSV ----------------------------------------------------------------------

DELIMITER = ";"


def load_csv(data_path: "str | Path", schema: "Sequence[ColumnSpec] | str | Path") -> Dataset:
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
    columns = [_Column(s) for s in specs]
    dtype = np.dtype([("", "f8" if s.kind == "numeric" else "O") for s in specs])
    with open_text(data_path) as fh:
        header = next(csv_records(fh, data_path, DELIMITER), None)
        if header is None:
            raise ParseError(f"{data_path}: empty file (missing header row)")
        if header != [s.name for s in specs]:
            raise ParseError(
                f"{data_path}: header {header!r} does not match schema names "
                f"{[s.name for s in specs]!r}")
        block_rows = max(1, fileio._BLOCK_CELLS // max(1, len(specs)))
        for first_row, block in csv_blocks(fh, data_path, DELIMITER, dtype, block_rows):
            if isinstance(block, np.ndarray):
                _add_table(columns, block, first_row)
                continue
            while records := list(islice(block, block_rows)):
                if set(map(len, records)) - {len(specs)}:
                    r, row = next((r, row) for r, row in enumerate(records, start=first_row)
                                  if len(row) != len(specs))
                    raise ParseError(f"{data_path}:{r}: expected {len(specs)} fields, "
                                     f"got {len(row)}")
                for column, tokens in zip(columns, zip(*records)):
                    column.add(tokens, first_row)
                first_row += len(records)
    for column in columns:
        if column.bad is not None:
            error, row, message = column.bad
            raise error(f"{data_path}:{row}: column {column.spec.name!r}: {message}")
    return Dataset([c.final_spec() for c in columns],
                   {c.spec.name: c.values() for c in columns})


def _add_table(columns: list, table: np.ndarray, first_row: int) -> None:
    """Add a block that `np.loadtxt` parsed, its first row on file row
    `first_row`, to `columns`."""
    cells = [table[name] for name in table.dtype.names]
    # The float parts share one array: a copy per column, amid numpy's
    # short-lived buffers, left the heap fragmented, and a 20k-row load and
    # write peaked 2 MB higher (test_round_trip_memory_scales_with_blocks).
    numeric = [j for j, c in enumerate(columns) if c.spec.kind == "numeric"]
    floats = np.empty((len(numeric), len(table)))
    for row, j in zip(floats, numeric):
        row[:] = cells[j]
        cells[j] = row
    for column, column_cells in zip(columns, cells):
        column.add(column_cells, first_row)


class _Column:
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

    def add(self, cells, first_row: int) -> None:
        """Parse one block of cells, the first on file row `first_row`:
        csv's tokens, or the float64 or object column of a block numpy
        parsed."""
        if self.bad is not None:
            return
        if self.spec.kind == "categorical":
            values, bad = self._code(cells)
        elif isinstance(cells, np.ndarray):
            values, bad = cells, None
        else:
            values, bad = _parse_numbers(cells)
        if bad is None:
            self.parts.append(values)
        else:
            error, i, message = bad
            self.bad = (error, first_row + i, message)

    def _code(self, cells) -> tuple:
        """(int32 codes, None), or (None, bad cell), for a block of str
        cells.  Empty and "NA" cells are missing.  New levels are numbered
        in order of first appearance; one is bad where a vocabulary was
        declared or a sidecar cannot store it."""
        index = self.index
        for level in dict.fromkeys(cells):   # first appearance first
            if level in index or level in _MISSING:
                continue
            if self.spec.vocabulary:
                return None, (DomainError, list(cells).index(level),
                              f"value {level!r} is not in the declared vocabulary")
            if _unstorable(level):
                return None, (DomainError, list(cells).index(level),
                              f"value {level!r} holds '|' or a line break, which a "
                              f"schema sidecar cannot store")
            index[level] = len(index)
        return np.array([MISSING_CODE if c in _MISSING else index[c] for c in cells],
                        np.int32), None

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


def _unstorable(level: str) -> bool:
    """Whether a level cannot be stored in a schema sidecar's vocabulary."""
    return "|" in level or level.splitlines() != [level]


_NAN_FOR_MISSING = dict.fromkeys(MISSING_TOKENS, "nan")


def _parse_numbers(tokens) -> tuple:
    """(float64 array, None), or (None, bad cell) naming the first bad cell."""
    try:
        return np.fromiter(map(float, map(_NAN_FOR_MISSING.get, tokens, tokens)),
                           dtype=np.float64, count=len(tokens)), None
    except ValueError:
        for i, tok in enumerate(tokens):
            if tok not in MISSING_TOKENS:
                try:
                    float(tok)
                except ValueError:
                    return None, (ParseError, i, f"cannot parse {tok!r} as a number")
        raise


def write_csv(data: Dataset, path: "str | Path", source: Optional[CsvRows] = None) -> CsvRows:
    """Write a dataset as ';'-separated text, numeric cells in shortest
    round-trip float form (`float.__repr__`'s text) and missing cells empty,
    and return its rows (`fileio.CsvRows`).

    `source` holds the rows `write_csv` returned for the dataset that
    `data`'s rows were picked from (`Dataset.source_rows`).  A picked row is
    written from its source's bytes, and only the rows made anew are
    rendered; a row's bytes depend on that row alone, so the file is the
    same.
    """
    if source is None:
        rows = csv_rows(_columns(data), DELIMITER)
    else:
        made = data.take_rows(data.source_rows < 0)
        rows = source.pick(data.source_rows, csv_rows(_columns(made), DELIMITER))
    write_rows(path, data.names, rows, DELIMITER)
    return rows


def schema_path(csv_path: "str | Path") -> Path:
    """Where a dataset CSV's schema sidecar lives: the same path with .schema."""
    return Path(csv_path).with_suffix(".schema")


def write_dataset(data: Dataset, path: "str | Path",
                  source: Optional[CsvRows] = None) -> CsvRows:
    """`write_csv`, then the schema sidecar at `schema_path(path)`; returns
    the CSV's rows."""
    rows = write_csv(data, path, source)
    write_schema(data.specs, schema_path(path))
    return rows


def _columns(data: Dataset) -> list:
    return [data.column(s.name) if s.kind == "numeric"
            else Coded(data.codes(s.name), s.vocabulary) for s in data.specs]


# -- synthetic data -----------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a seeded synthetic dataset.

    Numeric features are standard normal, all shifted by `class_separation`
    for minority-class rows; categorical features are label-independent draws
    from a fixed four-letter vocabulary.  Each row gets a survival duration
    drawn from an exponential whose rate is ln(2)/censoring_horizon for the
    majority class and hazard_ratio_true times that for the minority class;
    rows outliving the horizon are censored there (event = 0).
    """

    n_rows: int
    n_numeric: int = 10
    n_categorical: int = 2
    minority_fraction: float = 0.05
    class_separation: float = 1.0
    hazard_ratio_true: float = 1.0
    censoring_horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.n_rows < 1:
            raise DomainError("n_rows must be at least 1")
        if self.n_numeric < 0 or self.n_categorical < 0:
            raise DomainError("feature counts must be non-negative")
        if not 0.0 <= self.minority_fraction <= 1.0:
            raise DomainError("minority_fraction must lie in [0, 1]")
        if self.class_separation < 0.0:
            raise DomainError("class_separation must be non-negative")
        if self.hazard_ratio_true <= 0.0:
            raise DomainError("hazard_ratio_true must be positive")
        if self.censoring_horizon <= 0.0:
            raise DomainError("censoring_horizon must be positive")


CATEGORY_VOCAB = ("a", "b", "c", "d")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset for the given recipe (see SyntheticSpec)."""
    rng = substream(spec.seed, "synthetic")
    n = spec.n_rows
    # Draw order is part of the contract: labels, numerics, categoricals, durations.
    y = (rng.random(n) < spec.minority_fraction).astype(np.float64)
    numerics = rng.standard_normal((n, spec.n_numeric)) + spec.class_separation * y[:, None]
    cats = rng.integers(0, len(CATEGORY_VOCAB), size=(n, spec.n_categorical))
    base_rate = np.log(2.0) / spec.censoring_horizon
    rate = base_rate * np.where(y == 1.0, spec.hazard_ratio_true, 1.0)
    t = rng.exponential(1.0 / rate)
    t[t == 0.0] = np.finfo(float).tiny
    event = (t <= spec.censoring_horizon).astype(np.float64)
    duration = np.minimum(t, spec.censoring_horizon)

    ids = tuple(f"r{i:07d}" for i in range(n))
    specs = [ColumnSpec("id", "categorical", "id", ids)]
    columns = {"id": np.arange(n, dtype=np.int32)}
    for j in range(spec.n_numeric):
        name = f"num_{j:02d}"
        specs.append(ColumnSpec(name, "numeric", "feature"))
        columns[name] = numerics[:, j]
    for j in range(spec.n_categorical):
        name = f"cat_{j:02d}"
        specs.append(ColumnSpec(name, "categorical", "feature", CATEGORY_VOCAB))
        columns[name] = cats[:, j].astype(np.int32)
    specs.append(ColumnSpec("label", "numeric", "label"))
    columns["label"] = y
    specs.append(ColumnSpec("duration", "numeric", "duration"))
    columns["duration"] = duration
    specs.append(ColumnSpec("event", "numeric", "event"))
    columns["event"] = event
    return Dataset(specs, columns)
