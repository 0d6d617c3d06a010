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
each column's values (`Dataset.values`) to `fileio.csv_text`, the one CSV
writer; `load_csv` parses the file column by column.
"""

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ParseError
from .fileio import atomic_write_text, csv_text, read_text
from .rng import substream

KINDS = ("numeric", "categorical")
ROLES = ("feature", "label", "duration", "event", "id")
_SINGLETON_ROLES = ("label", "duration", "event", "id")
MISSING_TOKENS = ("", "NA")
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
    """

    def __init__(self, specs: Sequence[ColumnSpec], columns: Mapping[str, np.ndarray]):
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
        return Dataset(self._specs, {n: self._columns[n][index] for n in self.names})

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

    def equals(self, other: "Dataset") -> bool:
        """Cell-for-cell equality (NaN == NaN), including specs."""
        if self._specs != other._specs or self._n != other._n:
            return False
        for s in self._specs:
            a, b = self._columns[s.name], other._columns[s.name]
            if s.kind == "numeric":
                same = (a == b) | (np.isnan(a) & np.isnan(b))
            else:
                same = a == b
            if not same.all():
                return False
        return True


# -- quantiles ---------------------------------------------------------------

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


# -- schema sidecar -----------------------------------------------------------

def parse_schema(text: str, path: str = "<schema>") -> tuple:
    """Parse sidecar text into a tuple of ColumnSpec."""
    specs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'name = kind,role[,vocab|...]'")
        name, _, value = line.partition("=")
        parts = value.strip().split(",", 2)
        if len(parts) < 2:
            raise ParseError(f"{path}:{lineno}: expected at least kind and role")
        kind, role = parts[0].strip(), parts[1].strip()
        vocab = ()
        if len(parts) == 3:
            tail = parts[2].strip()
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
    '|' and no line break).  Empty and "NA" cells are missing.
    """
    if isinstance(schema, (str, Path)):
        schema = read_schema(schema)
    specs = list(schema)
    rows = list(csv.reader(io.StringIO(read_text(data_path)), delimiter=DELIMITER))
    if not rows:
        raise ParseError(f"{data_path}: empty file (missing header row)")
    header, body = rows[0], rows[1:]
    if header != [s.name for s in specs]:
        raise ParseError(
            f"{data_path}: header {header!r} does not match schema names "
            f"{[s.name for s in specs]!r}")
    if set(map(len, body)) - {len(specs)}:
        r, row = next((r, row) for r, row in enumerate(body, start=2)
                      if len(row) != len(specs))
        raise ParseError(f"{data_path}:{r}: expected {len(specs)} fields, got {len(row)}")

    columns = {}
    final_specs = []
    for s, tokens in zip(specs, list(zip(*body)) or [()] * len(specs)):
        if s.kind == "numeric":
            columns[s.name] = _parse_numbers(tokens, data_path, s.name)
            final_specs.append(s)
        else:
            codes, vocab = _parse_levels(tokens, data_path, s)
            columns[s.name] = codes
            final_specs.append(ColumnSpec(s.name, s.kind, s.role, vocab))
    return Dataset(final_specs, columns)


def _parse_numbers(tokens, data_path, name) -> np.ndarray:
    try:
        return np.array([np.nan if tok in MISSING_TOKENS else float(tok) for tok in tokens],
                        dtype=np.float64)
    except ValueError:
        for i, tok in enumerate(tokens):  # the first bad cell names the row
            if tok not in MISSING_TOKENS:
                try:
                    float(tok)
                except ValueError:
                    raise ParseError(f"{data_path}:{i + 2}: column {name!r}: "
                                     f"cannot parse {tok!r} as a number") from None
        raise


def _parse_levels(tokens, data_path, spec: ColumnSpec) -> tuple:
    """(int32 codes, vocabulary); new levels are appended in order of first
    appearance and rejected when a vocabulary was declared."""
    index = {v: i for i, v in enumerate(spec.vocabulary)}
    codes = np.array([MISSING_CODE if tok in MISSING_TOKENS
                      else index.setdefault(tok, len(index)) for tok in tokens],
                     dtype=np.int32)
    vocab = tuple(index)
    declared = len(spec.vocabulary)
    if declared and len(vocab) > declared:
        i = int(np.argmax(codes >= declared))
        raise DomainError(f"{data_path}:{i + 2}: column {spec.name!r}: value {tokens[i]!r} "
                          f"is not in the declared vocabulary")
    for code, level in enumerate(vocab[declared:], start=declared):
        if "|" in level or level.splitlines() != [level]:
            i = int(np.argmax(codes == code))
            raise DomainError(f"{data_path}:{i + 2}: column {spec.name!r}: value {level!r} "
                              f"holds '|' or a line break, which a schema sidecar "
                              f"cannot store")
    return codes, vocab


def write_csv(data: Dataset, path: "str | Path") -> None:
    """Write a dataset as ';'-separated text through `fileio.csv_text`:
    numeric cells in shortest round-trip float form, missing cells empty."""
    atomic_write_text(path, csv_text(data.names, [data.values(n) for n in data.names],
                                     DELIMITER))


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
