"""Text input and atomic text/JSON/CSV output helpers.

Every file the package emits is written to a uniquely named temporary sibling
and renamed into place, so a crash never leaves a half-written artifact
behind, and a failed write removes its temporary file.  JSON is serialized
with sorted keys and a fixed layout to keep outputs byte-stable across runs.
`csv_text` is the one CSV writer: datasets (';'-separated) and the CSV
artifacts (','-separated) both pass it their columns, and `text_cells` is the
one place a cell becomes text.  It renders a block of rows at a time, at
most `_BLOCK_CELLS` cells, so besides the text it holds one block's cells
whatever the row count.  `csv_lines` renders the same rows as a list of
lines, one per row, for a caller that writes some rows more than once.  A
row's line depends on that row alone, since quoting is decided per cell and
the empty cell of a one-column row is quoted per row, so the lines of any
picked rows, joined under the header by `csv_join`, are the text `csv_text`
gives for those rows.

`open_text` is the one place a file is opened for reading: a missing,
unreadable or non-UTF-8 file is a `DataError`, also when the bad bytes are
met while the caller streams the file.  `csv_records` reads its records and
turns a record csv cannot read into a `ParseError` that names it.
"""

import contextlib
import csv
import itertools
import json
import os
import secrets
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError, ParseError

_float_repr = float.__repr__   # repr(np.float64) would read 'np.float64(...)'
_BLOCK_CELLS = 1 << 14
_WRITE_CHARS = 1 << 20


def atomic_write_text(path: "str | Path", text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            for lo in range(0, len(text), _WRITE_CHARS):   # encoded a slice at a time
                fh.write(text[lo:lo + _WRITE_CHARS])
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never mask the write's own error
            tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def jsonable(obj):
    """Recursively convert numpy scalars/arrays for JSON serialization."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def json_text(obj: Any) -> str:
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def write_json(path: "str | Path", obj: Any) -> None:
    atomic_write_text(path, json_text(obj))


def text_cells(values) -> list:
    """One column's cells as CSV text: None and NaN become an empty cell, a
    float its shortest round-trip repr (numpy floats included), anything else
    its str."""
    return ["" if v is None or v != v else _float_repr(v) if isinstance(v, float)
            else str(v) for v in values]


def csv_text(header, columns, delimiter: str) -> str:
    """Delimited text with one header row; `columns` holds one sequence of
    values per header name.  A float64 array renders through `float.__repr__`
    (NaN empty), any other sequence through `text_cells`.  Cells are quoted as
    csv's QUOTE_MINIMAL quotes them: a cell holding the delimiter, a quote or
    a line feed, and the empty cell of a one-column row."""
    return csv_join(header, map("".join, _line_blocks(columns, delimiter)), delimiter)


def csv_lines(columns, delimiter: str) -> list:
    """The rows of `columns` as `csv_text` renders them, one line per row,
    each ended by a line feed."""
    lines = []
    for block in _line_blocks(columns, delimiter):
        lines += block
    return lines


def csv_join(header, lines, delimiter: str) -> str:
    """The header row and then `lines`, made into one text by one join."""
    header_cells = [[cell] for cell in _quoted(text_cells(header), delimiter)]
    head = "".join(_row_lines(header_cells, delimiter)) or "\n"   # csv ends an empty row too
    return "".join(itertools.chain((head,), lines))


def _line_blocks(columns, delimiter: str):
    """The lines of the rows of `columns`, one block of at most
    `_BLOCK_CELLS` cells at a time."""
    n_rows = len(columns[0]) if len(columns) else 0
    step = max(1, _BLOCK_CELLS // max(1, len(columns)))
    for lo in range(0, n_rows, step):
        yield _row_lines([_block_cells(col[lo:lo + step], delimiter) for col in columns],
                         delimiter)


def _block_cells(block, delimiter: str) -> list:
    """One block of a column as quoted cells."""
    if isinstance(block, np.ndarray) and block.dtype == np.float64:
        # a float's repr never holds a delimiter, a quote or a line feed
        cells = list(map(_float_repr, block.tolist()))
        for i in np.flatnonzero(np.isnan(block)).tolist():
            cells[i] = ""
        return cells
    return _quoted(text_cells(block), delimiter)


def _quoted(cells: list, delimiter: str) -> list:
    """`cells` with the ones holding the delimiter, a quote or a line feed
    quoted; the column is scanned once for whether any does."""
    joined = "".join(cells)
    if delimiter in joined or '"' in joined or "\n" in joined:
        cells = ['"' + c.replace('"', '""') + '"'
                 if delimiter in c or '"' in c or "\n" in c else c for c in cells]
    return cells


def _row_lines(cells: list, delimiter: str) -> list:
    """One line per row of column-major `cells`, each ended by a line feed."""
    if len(cells) == 1:
        return [(c or '""') + "\n" for c in cells[0]]
    return [row + "\n" for row in map(delimiter.join, zip(*cells))]


def csv_records(fh, path: "str | Path", delimiter: str):
    """The records of the open text `fh`, as `csv.reader` lists them.

    A record that csv cannot read, such as one with a field longer than
    `csv.field_size_limit()`, raises `ParseError` naming `path` and the
    record's number (the first record is 1).
    """
    number = 0
    try:
        for number, record in enumerate(csv.reader(fh, delimiter=delimiter), start=1):
            yield record
    except csv.Error as exc:
        raise ParseError(f"{path}:{number + 1}: {exc}") from exc


@contextlib.contextmanager
def open_text(path: "str | Path"):
    """The file opened for reading as UTF-8 text with universal newlines.

    A missing or unreadable file, and bytes that are not UTF-8, raise
    `DataError`, also when they are met while the body reads the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {path}: not UTF-8 text ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_text(path: "str | Path") -> str:
    with open_text(path) as fh:
        return fh.read()
