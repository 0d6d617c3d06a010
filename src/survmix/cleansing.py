"""Missing-value profiling and the cleansing chain.

The chain mirrors a fixed sequence of data-quality passes:

1. profile per-row / per-column NA counts and their quartiles,
2. drop rows whose NA count strictly exceeds the row-count Q3,
3. re-profile and drop droppable columns whose NA count strictly exceeds the
   column-count Q1,
4. harmonize: drop droppable columns with strictly more than 30% missing,
5. drop every row that still has a missing feature or label cell.

All thresholds are strict inequalities, and quartiles use the same linear
interpolation convention as `dataset.quartiles`.  Columns with role label,
duration, event or id are never dropped, whatever their missingness.
"""

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset, quartiles

HARMONIZE_THRESHOLD = 0.30
_PROTECTED_ROLES = ("label", "duration", "event", "id")


@dataclass(frozen=True)
class MissingnessProfile:
    row_counts: np.ndarray
    column_counts: dict
    row_quartiles: Optional[tuple]     # None for an empty dataset
    column_quartiles: Optional[tuple]  # None for a column-free dataset


def _missing_matrix(data: Dataset) -> np.ndarray:
    if not data.names:
        return np.zeros((data.n_rows, 0), dtype=bool)
    return np.column_stack([data.missing_mask(n) for n in data.names])


def profile_missing(data: Dataset) -> MissingnessProfile:
    """Count NA cells per row and per column, with quartiles of both count sets."""
    mm = _missing_matrix(data)
    row_counts = mm.sum(axis=1)
    col_counts = {n: int(mm[:, i].sum()) for i, n in enumerate(data.names)}
    rq = quartiles(row_counts) if data.n_rows else None
    cq = quartiles(np.array(list(col_counts.values()))) if data.names else None
    return MissingnessProfile(row_counts, col_counts, rq, cq)


def _droppable(data: Dataset) -> list:
    return [s.name for s in data.specs if s.role not in _PROTECTED_ROLES]


def label_balance(data: Dataset):
    """{"negative": n0, "positive": n1}: the label column's present cells
    equal to 0 and to 1, or None when the dataset has no label column."""
    name = data.role_column("label")
    if name is None:
        return None
    v = data.numeric(name)
    present = v[~np.isnan(v)]
    return {"negative": int((present == 0.0).sum()), "positive": int((present == 1.0).sum())}


def _stage_record(name, before, after, threshold=None, dropped_columns=None):
    rec = {
        "stage": name,
        "rows_before": before.n_rows, "rows_after": after.n_rows,
        "cols_before": len(before.names), "cols_after": len(after.names),
        "label_balance": label_balance(after),
    }
    if threshold is not None:
        rec["threshold"] = threshold
    if dropped_columns is not None:
        rec["dropped_columns"] = dropped_columns
    return rec


def drop_sparse_rows(data: Dataset) -> tuple:
    """Drop rows whose NA count strictly exceeds Q3 of the per-row NA counts."""
    if data.n_rows == 0:
        return data, _stage_record("drop_sparse_rows", data, data, threshold=None)
    profile = profile_missing(data)
    q3 = profile.row_quartiles[2]
    kept = data.take_rows(profile.row_counts <= q3)
    return kept, _stage_record("drop_sparse_rows", data, kept, threshold=q3)


def drop_sparse_columns(data: Dataset) -> tuple:
    """Drop droppable columns whose NA count strictly exceeds Q1 of the
    per-column NA counts.  Quartiles are taken over all columns; only
    feature-role columns may actually be dropped."""
    if not data.names or data.n_rows == 0:
        return data, _stage_record("drop_sparse_columns", data, data,
                                   threshold=None, dropped_columns=[])
    profile = profile_missing(data)
    q1 = profile.column_quartiles[0]
    drop = [n for n in _droppable(data) if profile.column_counts[n] > q1]
    kept = data.drop_columns(drop) if drop else data
    return kept, _stage_record("drop_sparse_columns", data, kept,
                               threshold=q1, dropped_columns=drop)


def harmonize_columns(data: Dataset) -> tuple:
    """Drop droppable columns with strictly more than HARMONIZE_THRESHOLD
    missing share."""
    if data.n_rows == 0:
        return data, _stage_record("harmonize_columns", data, data,
                                   threshold=HARMONIZE_THRESHOLD, dropped_columns=[])
    drop = [n for n in _droppable(data)
            if data.missing_mask(n).sum() / data.n_rows > HARMONIZE_THRESHOLD]
    kept = data.drop_columns(drop) if drop else data
    return kept, _stage_record("harmonize_columns", data, kept,
                               threshold=HARMONIZE_THRESHOLD, dropped_columns=drop)


def drop_incomplete_rows(data: Dataset) -> tuple:
    """Drop rows with any missing feature or label cell.

    Afterwards the dataset has zero missing cells among feature/label columns.
    """
    checked = [s.name for s in data.specs if s.role in ("feature", "label")]
    if data.n_rows == 0 or not checked:
        return data, _stage_record("drop_incomplete_rows", data, data)
    incomplete = np.zeros(data.n_rows, dtype=bool)
    for n in checked:
        incomplete |= data.missing_mask(n)
    kept = data.take_rows(~incomplete)
    if kept.n_rows == 0:
        warnings.warn("cleansing dropped every row (all rows had missing cells)")
    return kept, _stage_record("drop_incomplete_rows", data, kept)


def clean(data: Dataset) -> tuple:
    """Run the full cleansing chain; returns (clean dataset, report), the
    report as mva_report.json holds it: {stages, warnings}, one stage record
    per pass after the input's, and the message of every warning raised."""
    stages = [_stage_record("input", data, data)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for step in (drop_sparse_rows, drop_sparse_columns, harmonize_columns,
                     drop_incomplete_rows):
            data, rec = step(data)
            stages.append(rec)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return data, {"stages": stages, "warnings": [str(w.message) for w in caught]}
