"""Assertions and oracles shared by the test modules."""

import numpy as np

from survmix import cox


def datasets_equal(a, b) -> bool:
    """Cell-for-cell equality of two datasets (NaN == NaN), specs included."""
    return (a.specs == b.specs and a.n_rows == b.n_rows
            and all(np.array_equal(a.column(s.name), b.column(s.name),
                                   equal_nan=s.kind == "numeric")
                    for s in a.specs))


def row_bytes(rows) -> list:
    """Each row of a `fileio.CsvRows`, as the bytes it names."""
    return [rows.blocks[b][lo:hi] for b, lo, hi in
            zip(rows.block.tolist(), rows.start.tolist(), rows.end.tolist())]


def cox_evaluation(x, durations, events, beta, ties="efron"):
    """(partial log-likelihood, score, observed information) at `beta`: the
    evaluation that `cox_fit` maximises."""
    prepared = cox._prepare(np.asarray(x, dtype=float), durations, events, ties)
    return cox._loglik(prepared, np.asarray(beta, dtype=float))


def smote_parents(point, minority):
    """Every (seed, neighbour, u) over ordered pairs of distinct rows of
    `minority` with point = seed + u (neighbour − seed) in every coordinate,
    to within 1e-12: the rows a SMOTE row could have been drawn between."""
    seed = minority[:, None, :]
    step = minority[None, :, :] - seed
    length = (step * step).sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        u = ((point - seed) * step).sum(axis=2) / length
    on_line = (np.abs(seed + u[:, :, None] * step - point) <= 1e-12).all(axis=2)
    return [(int(i), int(j), float(u[i, j]))
            for i, j in zip(*np.nonzero(on_line & (length > 0)))]
