"""Text input and atomic text/JSON/CSV output helpers.

Every file the package emits is written to a uniquely named temporary sibling
and renamed into place, so a crash never leaves a half-written artifact
behind, and a failed write removes its temporary file.  JSON is serialized
with sorted keys and a fixed layout to keep outputs byte-stable across runs.
`csv_text` is the one CSV writer: datasets (';'-separated) and the CSV
artifacts (','-separated) both pass it their columns.  A cell becomes text
in one of two places: the cells of a block's float64 arrays in one
`_shortest.float_cells` call, which spells each as `float.__repr__` does
with numpy integer arithmetic, and every other column's through
`text_cells`.  It renders a block of rows at a time, at most `_BLOCK_CELLS`
cells, so besides the text it holds one block's cells whatever the row
count.  `csv_lines` renders the same rows as a list of lines, one per row,
for a caller that writes some rows more than once.  A row's line depends on
that row alone, since quoting is decided per cell and the empty cell of a
one-column row is quoted per row, so the lines of any picked rows, joined
under the header by `csv_join`, are the text `csv_text` gives for those
rows.

`open_text` is the one place a file is opened for reading: a missing,
unreadable or non-UTF-8 file is a `DataError`, also when the bad bytes are
met while the caller streams the file.  `csv_records` reads its records and
turns a record csv cannot read into a `ParseError` that names it.

`csv_blocks` is the one block reader, for datasets and `labels.csv`.  It
reads the lines after the header a block at a time.  A plain block, one
that csv would split at each delimiter and nowhere else, goes to
`np.loadtxt`, whose C reader hands each number to CPython's own correctly
rounded `PyOS_string_to_double` and so gives `float`'s bits, in less time
than `csv.reader` and `float` take.  Its caller takes the table or declines
it.  A block with a quote, a blank line, a line over csv's field limit or a
NUL, one numpy rejects and one its caller declines go to `csv.reader`
instead, as every block did before; so csv's rules and the callers'
error messages hold whichever path a block takes.
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

from ._shortest import float_cells
from .errors import DataError, ParseError

_float_repr = float.__repr__   # repr(np.float64) would read 'np.float64(...)'
_BLOCK_CELLS = 1 << 14
_STR_WIDTH = 64   # widest str field a `csv_blocks` caller has numpy read a cell into
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
    return [v if type(v) is str else "" if v is None or v != v
            else _float_repr(v) if isinstance(v, float) else str(v) for v in values]


def csv_text(header, columns, delimiter: str) -> str:
    """Delimited text with one header row; `columns` holds one sequence of
    values per header name.  A float64 array renders as `float.__repr__`
    spells it (NaN empty) through `_shortest.float_cells`, any other sequence
    through `text_cells`.  Cells are quoted as
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
    `_BLOCK_CELLS` cells at a time.  The float64 arrays' cells of a block are
    rendered by one `float_cells` call; a float's text never holds a
    delimiter, a quote or a line feed."""
    n_rows = len(columns[0]) if len(columns) else 0
    step = max(1, _BLOCK_CELLS // max(1, len(columns)))
    floats = [j for j, col in enumerate(columns)
              if isinstance(col, np.ndarray) and col.dtype == np.float64]
    for lo in range(0, n_rows, step):
        cells = [None if j in floats else _quoted(text_cells(col[lo:lo + step]), delimiter)
                 for j, col in enumerate(columns)]
        if floats:
            rendered = float_cells(np.concatenate([columns[j][lo:lo + step] for j in floats]))
            size = len(rendered) // len(floats)
            for i, j in enumerate(floats):
                cells[j] = rendered[i * size:(i + 1) * size]
        yield _row_lines(cells, delimiter)


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


def csv_records(lines, path: "str | Path", delimiter: str, first: int = 1):
    """The records of `lines` (an open text or its lines), as `csv.reader`
    lists them.

    A record that csv cannot read, such as one with a field longer than
    `csv.field_size_limit()`, raises `ParseError` naming `path` and the
    record's number (the first record is `first`).
    """
    number = first - 1
    try:
        for number, record in enumerate(csv.reader(lines, delimiter=delimiter),
                                        start=first):
            yield record
    except csv.Error as exc:
        raise ParseError(f"{path}:{number + 1}: {exc}") from exc


def csv_blocks(fh, path: "str | Path", delimiter: str, dtype, block_rows: int, take):
    """The records of the open text `fh` after its header record, read a
    block of at most `block_rows` lines at a time, that `take` does not
    consume.

    A plain block (`_plain_table`) is parsed by `np.loadtxt` into a
    structured array of `dtype` (None: no block is) and handed to
    `take(table)`, which consumes it by returning True.  Every other
    block is yielded as (number of its first record, lazy `csv_records` of
    its lines).  From the first block that holds a quote, the rest of the
    file is yielded as one such record stream, since a quoted field may span
    lines.
    """
    first = 2
    while lines := list(itertools.islice(fh, block_rows)):
        text = "".join(lines)
        if '"' in text:
            yield first, csv_records(itertools.chain(lines, fh), path, delimiter, first)
            return
        table = None if dtype is None else _plain_table(lines, text, delimiter, dtype)
        if table is None or not take(table):
            yield first, csv_records(lines, path, delimiter, first)
        first += len(lines)


def _plain_table(lines: list, text: str, delimiter: str, dtype):
    """Quote-free `lines` parsed by `np.loadtxt`, one row each, or None where
    numpy would not give the cells `csv.reader` gives.

    Before numpy reads them, these leave them to csv: a blank line (csv
    reads an empty record, numpy skips it), a line longer than csv's field
    limit (csv raises) and a NUL (numpy's str drops trailing ones).  numpy
    itself raises `ValueError` on a ragged row and on a number that `float`
    reads another way or alone (`''`, `NA`, `1_0`, `١٢`).  After it, a str
    cell that fills its field may have been cut short.  A str cell that is
    empty or "NA" is left for `take` to judge.
    """
    if ("\n" in lines or "\x00" in text
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                           ndmin=1)
    except ValueError:
        return None
    raw = table.view(np.uint8).reshape(len(table), dtype.itemsize)
    for field, offset in dtype.fields.values():
        end = offset + field.itemsize
        if field.kind == "U" and raw[:, end - 4:end].any():
            return None
    return table


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
