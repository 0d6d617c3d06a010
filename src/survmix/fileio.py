"""Atomic text/JSON/CSV output helpers.

Every file the package emits is written to a uniquely named temporary sibling
and renamed into place, so a crash never leaves a half-written artifact
behind, and a failed write removes its temporary file.  JSON is serialized
with sorted keys and a fixed layout to keep outputs byte-stable across runs.
"""

import contextlib
import csv
import io
import json
import math
import os
import secrets
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError


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


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(float(value))
    return str(value)


def csv_text(header, rows) -> str:
    """Comma-separated text; None and NaN cells are left empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def read_text(path: "str | Path") -> str:
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
