"""Assertions shared by the test modules."""

import numpy as np


def datasets_equal(a, b) -> bool:
    """Cell-for-cell equality of two datasets (NaN == NaN), specs included."""
    return (a.specs == b.specs and a.n_rows == b.n_rows
            and all(np.array_equal(a.column(s.name), b.column(s.name),
                                   equal_nan=s.kind == "numeric")
                    for s in a.specs))
