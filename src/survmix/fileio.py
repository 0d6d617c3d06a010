"""Atomic text/JSON/CSV output helpers.

Every file the package emits is written to a uniquely named temporary sibling
and renamed into place, so a crash never leaves a half-written artifact
behind, and a failed write removes its temporary file.  JSON is serialized
with sorted keys and a fixed layout to keep outputs byte-stable across runs.
`csv_text` is the one CSV writer: datasets (';'-separated) and the CSV
artifacts (','-separated) both pass it their columns, and `text_cells` is the
one place a cell becomes text.
"""

import contextlib
import csv
import io
import json
import os
import secrets
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError

_float_repr = float.__repr__   # repr(np.float64) would read 'np.float64(...)'


def atomic_write_text(path: "str | Path", text: str) -> None:
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    values per header name, each rendered by `text_cells`."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*[text_cells(col) for col in columns]))
    return buf.getvalue()


def read_text(path: "str | Path") -> str:
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
