"""Text input and atomic text/JSON/CSV output helpers.

Every file the package emits goes through `atomic_write`: its chunks are
written to a uniquely named temporary sibling, which is renamed into place,
so a crash never leaves a half-written artifact behind, and a failed write
removes its temporary file.  JSON is serialized with sorted keys and a fixed
layout to keep outputs byte-stable across runs.

`_rendered` is the one CSV renderer: datasets (';'-separated) and the CSV
artifacts (','-separated) pass it their columns, and it gives the rows as
bytes, a block of at most `_BLOCK_CELLS` cells at a time.  A block's cells
are laid out side by side as NUL-padded uint32 words: a run of float64
columns spelt by `_shortest.fill_cells` as `float.__repr__` spells them, a
`Coded` column from a table of its levels' cells indexed by its codes, any
other column through `text_cells`.  One pass that deletes the NULs leaves
the block's rows.  `csv_text` joins the blocks into one text; `csv_rows`
keeps them as `CsvRows`, the block bytes and each row's place in them, and
`write_rows` writes a header and such rows.  Rendering every row before the
write costs about the memory that writing each block as soon as it is
rendered would: the rows are kept either way for the tables picked from
them, and the write adds one piece of about `_WRITE_CHARS` bytes.  A row's
bytes depend on that row alone, since quoting is decided per cell and the
empty cell of a one-column row is quoted per row, so rows picked from those
of another table (`CsvRows.pick`) share its blocks, and `write_rows` writes
them as `csv_text` would render the picked rows.

`open_text` is the one place a file is opened for reading: a missing,
unreadable or non-UTF-8 file is a `DataError`, also when the bad bytes are
met while the caller streams the file.  `csv_records` reads its records and
turns a record csv cannot read into a `ParseError` that names it.

`csv_blocks` is the dataset loader's block reader.  It reads the lines
after the header a block at a time.  A plain block, one that csv would
split at each delimiter and nowhere else, goes to `np.loadtxt`, whose C
reader hands each number to CPython's own correctly rounded
`PyOS_string_to_double` and so gives `float`'s bits, in less time than
`csv.reader` and `float` take.  Its caller gets the table, each categorical
cell in an object field as the Python str csv would give, missing and bad
ones included, and codes them as it codes csv's tokens.  A block with a
quote, a blank line, a line over csv's field limit or a NUL, and one numpy
rejects, go to `csv.reader` instead, as every block did before; so csv's
rules and the loader's error messages hold whichever path a block takes.
"""

import contextlib
import csv
import itertools
import json
import os
import secrets
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ._shortest import _WIDTH, fill_cells
from .errors import DataError, ParseError

_float_repr = float.__repr__   # repr(np.float64) would read 'np.float64(...)'
_BLOCK_CELLS = 1 << 14
_WRITE_CHARS = 1 << 20
# A text cell's NUL and line feed travel through a block's layout as bytes
# that UTF-8 never uses, so that deleting the padding keeps them and the
# line feeds left are the rows' ends; they are mapped back after.
_CARRY = bytes.maketrans(b"\0\n", b"\xff\xfe")
_UNCARRY = bytes.maketrans(b"\xff\xfe", b"\0\n")
_QUOTES = np.frombuffer(b'""\0\0', np.uint32)[0]


def atomic_write(path: "str | Path", chunks) -> None:
    """Write `chunks`, str (as UTF-8) or bytes-like, one after another, to a
    temporary sibling of `path` and rename it into place.  If anything
    fails, the chunks' own iteration included, the temporary file is removed
    and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                if not isinstance(chunk, str):
                    fh.write(chunk)
                    continue
                for lo in range(0, len(chunk), _WRITE_CHARS):   # encoded a slice at a time
                    fh.write(chunk[lo:lo + _WRITE_CHARS].encode("utf-8"))
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # never mask the write's own error
            tmp.unlink()
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc}") from exc
        raise


def atomic_write_text(path: "str | Path", text: str) -> None:
    atomic_write(path, (text,))


def _json_default(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj: Any) -> str:
    """`obj` as indented JSON with sorted keys and a final newline.  numpy
    arrays and scalars become their `.tolist()`; a numpy float64 is already a
    float to `json`, so it keeps `float.__repr__`'s digits like any float."""
    return json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n"


def write_json(path: "str | Path", obj: Any) -> None:
    atomic_write_text(path, json_text(obj))


def text_cells(values) -> list:
    """One column's cells as CSV text: None and NaN become an empty cell, a
    float its shortest round-trip repr (numpy floats included), anything else
    its str."""
    return [v if type(v) is str else "" if v is None or v != v
            else _float_repr(v) if isinstance(v, float) else str(v) for v in values]


@dataclass(frozen=True)
class Coded:
    """A column of int codes into `levels`, -1 for an empty cell."""

    codes: np.ndarray
    levels: Sequence[str]

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class CsvRows:
    """Rendered rows, each ended by a line feed: row i is the bytes
    `blocks[block[i]][start[i]:end[i]]`."""

    blocks: tuple
    block: np.ndarray
    start: np.ndarray
    end: np.ndarray

    @classmethod
    def of(cls, rendered: list) -> "CsvRows":
        """The rows of `_rendered`'s (bytes, row ends) blocks."""
        ends = [ends for _, ends in rendered]
        end = np.concatenate(ends) if ends else np.empty(0, np.intp)
        block = np.repeat(np.arange(len(ends)), list(map(len, ends)))
        start = np.concatenate(([0], end[:-1]))[:len(end)]   # where the row before ended,
        start[np.flatnonzero(np.diff(block)) + 1] = 0          # or 0 for a block's first
        return cls(tuple(data for data, _ in rendered), block, start, end)

    def pick(self, index: np.ndarray, made: "CsvRows") -> "CsvRows":
        """Row `index[i]` of these rows, in turn, and the next row of `made`
        where `index[i]` is -1.  The blocks are shared, not copied."""
        take = np.array(index, dtype=np.intp)
        new = take < 0
        take[new] = len(self.end) + np.arange(np.count_nonzero(new))
        return CsvRows(self.blocks + made.blocks,
                       np.concatenate((self.block, made.block + len(self.blocks)))[take],
                       np.concatenate((self.start, made.start))[take],
                       np.concatenate((self.end, made.end))[take])

    def chunks(self):
        """The rows' bytes in order, in pieces of about `_WRITE_CHARS` bytes,
        each joined from runs of rows that follow each other in one block."""
        if not len(self.end):
            return
        cut = np.flatnonzero((np.diff(self.block) != 0) | (self.start[1:] != self.end[:-1])) + 1
        first, last = np.concatenate(([0], cut)), np.concatenate((cut, [len(self.end)])) - 1
        block, lo, hi = self.block[first], self.start[first], self.end[last]
        piece = np.cumsum(hi - lo) // _WRITE_CHARS
        bounds = [0, *(np.flatnonzero(np.diff(piece)) + 1).tolist(), len(piece)]
        block, lo, hi = block.tolist(), lo.tolist(), hi.tolist()
        views = list(map(memoryview, self.blocks))
        for a, b in zip(bounds[:-1], bounds[1:]):
            yield b"".join([views[k][i:j] for k, i, j in zip(block[a:b], lo[a:b], hi[a:b])])


def csv_text(header, columns, delimiter: str) -> str:
    """Delimited text with one header row; `columns` holds one column of
    values per header name (see `_rendered`)."""
    blocks = (data for data, _ in _rendered(columns, delimiter))
    return b"".join(itertools.chain((_header(header, delimiter),), blocks)).decode("utf-8")


def csv_rows(columns, delimiter: str) -> CsvRows:
    """The rows of `columns` as `csv_text` renders them."""
    return CsvRows.of(list(_rendered(columns, delimiter)))


def write_rows(path: "str | Path", header, rows: CsvRows, delimiter: str) -> None:
    """Write the header row and `rows` to `path`."""
    atomic_write(path, itertools.chain((_header(header, delimiter),), rows.chunks()))


def _header(header, delimiter: str) -> bytes:
    """The header row; csv ends an empty row with a line feed too."""
    return next(_rendered([[name] for name in header], delimiter), (b"\n",))[0]


def _rendered(columns, delimiter: str):
    """(bytes, row ends) of each block of at most `_BLOCK_CELLS` cells of
    the rows of `columns`.

    A run of float64 arrays is spelt by `_shortest.fill_cells`.  A `Coded`
    column is a table of its levels' cells, indexed by its codes.  Any other
    column becomes text by `text_cells`, a block at a time.  Cells are
    quoted as csv's QUOTE_MINIMAL quotes them: a cell holding the delimiter,
    a quote or a line feed, and the empty cell of a one-column row.
    """
    n_rows = len(columns[0]) if len(columns) else 0
    step = max(1, _BLOCK_CELLS // max(1, len(columns)))
    terminators = [delimiter] * (len(columns) - 1) + ["\n"]
    lone = len(columns) == 1
    parts = []   # ("floats", [j, ...]), ("coded", table, codes) or ("text", j)
    for j, col in enumerate(columns):
        if isinstance(col, np.ndarray) and col.dtype == np.float64:
            if parts and parts[-1][0] == "floats" and parts[-1][1][-1] == j - 1:
                parts[-1][1].append(j)
            else:
                parts.append(("floats", [j]))
        elif isinstance(col, Coded):
            codes, levels = col.codes, list(col.levels)
            if len(levels) > len(codes):   # fewer rows than levels: table the ones used
                used, codes = np.unique(codes, return_inverse=True)
                levels = [levels[i] if i >= 0 else None for i in used.tolist()]
            cells = _quoted(text_cells(levels + [None]), delimiter)   # code -1: empty
            parts.append(("coded", _table(cells, terminators[j], lone), codes))
        else:
            parts.append(("text", j))
    for lo in range(0, n_rows, step):
        hi = min(n_rows, lo + step)
        laid = []
        for kind, *part in parts:
            if kind == "floats":
                laid.append(np.stack([columns[j][lo:hi] for j in part[0]], axis=1))
            elif kind == "coded":
                table, codes = part
                laid.append(table[codes[lo:hi]])
            else:
                j = part[0]
                cells = _quoted(text_cells(columns[j][lo:hi]), delimiter)
                laid.append(_table(cells, terminators[j], lone))
        yield _block(laid, hi - lo, delimiter, lone)


def _block(laid: list, n: int, delimiter: str, lone: bool) -> tuple:
    """(bytes, row ends) of `n` rows laid out side by side in uint32 words:
    a table's rows of words as they are, a float run's values by
    `fill_cells`, each cell ended by the delimiter and the row by a line
    feed.  Deleting the NULs leaves the rows; the line feeds left end them."""
    widths = [part.shape[1] * (_WIDTH if part.dtype == np.float64 else 1) for part in laid]
    buf = bytearray(4 * n * sum(widths))
    words = np.frombuffer(buf, np.uint32).reshape(n, sum(widths))
    at = 0
    for part, width in zip(laid, widths):
        if part.dtype == np.float64:
            cells = words[:, at:at + width].reshape(n, -1, _WIDTH)
            fill_cells(cells, part)
            cells.view(np.uint64)[..., -1] |= np.frombuffer(
                delimiter.encode().rjust(8, b"\0"), np.uint64)[0]
            if lone:
                cells[..., 0][np.isnan(part)] = _QUOTES
        else:
            words[:, at:at + width] = part
        at += width
    if laid and laid[-1].dtype == np.float64:   # the last cell's last byte
        words.view(np.uint8)[:, -1] = 10
    data = buf.translate(None, b"\0")
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == 10) + 1
    if b"\xfe" in data or b"\xff" in data:   # only a carried byte gives either
        data = data.translate(_UNCARRY)
    return bytes(data), ends


def _table(cells: list, terminator: str, lone: bool) -> np.ndarray:
    """One row of uint32 words per cell: its UTF-8 bytes and `terminator`,
    NUL-padded to a whole number of 8-byte slots.  An empty cell is '""' in
    a one-column row.  A NUL or a line feed in a cell is carried as a byte
    UTF-8 never uses (`_CARRY`)."""
    if lone:
        cells = [c or '""' for c in cells]
    text = "".join(cells)
    encoded = [c.encode("utf-8") for c in cells]
    if "\0" in text or "\n" in text:
        encoded = [c.translate(_CARRY) for c in encoded]
    end = terminator.encode()
    width = -(-(max(map(len, encoded), default=0) + len(end)) // 8) * 8
    table = np.array([c + end for c in encoded], dtype=f"S{width}")
    return table.view(np.uint32).reshape(len(cells), width // 4)


def _quoted(cells: list, delimiter: str) -> list:
    """`cells` with the ones holding the delimiter, a quote or a line feed
    quoted; the column is scanned once for whether any does."""
    joined = "".join(cells)
    if delimiter in joined or '"' in joined or "\n" in joined:
        cells = ['"' + c.replace('"', '""') + '"'
                 if delimiter in c or '"' in c or "\n" in c else c for c in cells]
    return cells


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


def csv_blocks(fh, path: "str | Path", delimiter: str, dtype, block_rows: int):
    """The records of the open text `fh` after its header record, read a
    block of at most `block_rows` lines at a time.

    Each block is yielded as (number of its first record, its records): a
    plain block (`_plain_table`) as the structured array of `dtype` that
    `np.loadtxt` parses it into, any other as a lazy
    `csv_records` of its lines.  From the first block that holds a quote,
    the rest of the file is yielded as one such record stream, since a
    quoted field may span lines.
    """
    first = 2
    while lines := list(itertools.islice(fh, block_rows)):
        text = "".join(lines)
        if '"' in text:
            yield first, csv_records(itertools.chain(lines, fh), path, delimiter, first)
            return
        table = _plain_table(lines, text, delimiter, dtype)
        yield first, csv_records(lines, path, delimiter, first) if table is None else table
        first += len(lines)


def _plain_table(lines: list, text: str, delimiter: str, dtype):
    """Quote-free `lines` parsed by `np.loadtxt`, one row each, or None where
    numpy would not give the cells `csv.reader` gives.

    Before numpy reads them, these leave them to csv: a blank line (csv
    reads an empty record, numpy skips it), a line longer than csv's field
    limit (csv raises) and a NUL (numpy's object fields keep it, but csv
    must decide on it: Python 3.10's reader rejects a line that holds one).
    numpy itself raises `ValueError` on a ragged row and on a number that
    `float` reads another way or alone (`''`, `NA`, `1_0`, `١٢`).  An object
    field's cell is the Python str csv gives, verbatim, an empty or "NA" one
    too: the caller judges it as csv's token.
    """
    if ("\n" in lines or "\x00" in text
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        return np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None,
                          ndmin=1)
    except ValueError:
        return None


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
