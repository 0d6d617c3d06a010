import numpy as np
import pytest

from survmix.cleansing import (
    clean,
    drop_incomplete_rows,
    drop_sparse_columns,
    drop_sparse_rows,
    harmonize_columns,
    profile_missing,
)
from survmix.dataset import ColumnSpec, Dataset

from helpers import datasets_equal


def numeric_dataset(matrix, roles=None, names=None):
    matrix = np.asarray(matrix, dtype=float)
    n, p = matrix.shape
    names = names or [f"c{j}" for j in range(p)]
    roles = roles or ["feature"] * p
    specs = [ColumnSpec(nm, "numeric", role) for nm, role in zip(names, roles)]
    return Dataset(specs, {nm: matrix[:, j] for j, nm in enumerate(names)})


def staircase_4x4():
    # Row NA counts 0,1,2,3; column NA counts 3,2,1,0.
    m = np.arange(16, dtype=float).reshape(4, 4)
    m[1, 0] = np.nan
    m[2, 0] = m[2, 1] = np.nan
    m[3, 0] = m[3, 1] = m[3, 2] = np.nan
    return numeric_dataset(m)


class TestProfile:
    def test_staircase_counts_and_quartiles(self):
        p = profile_missing(staircase_4x4())
        assert list(p.row_counts) == [0, 1, 2, 3]
        assert p.column_counts == {"c0": 3, "c1": 2, "c2": 1, "c3": 0}
        assert p.row_quartiles == (0.75, 1.5, 2.25)
        assert p.column_quartiles == (0.75, 1.5, 2.25)

    def test_empty_dataset(self):
        d = numeric_dataset(np.empty((0, 2)))
        p = profile_missing(d)
        assert p.row_quartiles is None and len(p.row_counts) == 0


class TestRowDrop:
    def test_strictly_above_q3_dropped(self):
        d = staircase_4x4()
        kept, rec = drop_sparse_rows(d)
        # Q3 of {0,1,2,3} is 2.25: only the 3-NA row goes.
        assert rec["threshold"] == 2.25
        assert kept.n_rows == 3 and rec["rows_after"] == 3

    def test_outlier_row_spares_moderate_ones(self):
        # Counts {0,1,2,100}: Q3 = 26.5, so only the extreme row is dropped.
        m = np.zeros((4, 120))
        m[1, :1] = np.nan
        m[2, :2] = np.nan
        m[3, :100] = np.nan
        kept, rec = drop_sparse_rows(numeric_dataset(m))
        assert rec["threshold"] == 26.5
        assert kept.n_rows == 3

    def test_uniform_counts_drop_nothing(self):
        m = np.full((5, 3), 1.0)
        m[:, 0] = np.nan
        kept, _ = drop_sparse_rows(numeric_dataset(m))
        assert kept.n_rows == 5


class TestColumnDrop:
    def test_strictly_above_q1_dropped(self):
        # Column NA counts {0, 10, 20, 30}: Q1 = 7.5, three columns go.
        m = np.ones((40, 4))
        m[:10, 1] = np.nan
        m[:20, 2] = np.nan
        m[:30, 3] = np.nan
        kept, rec = drop_sparse_columns(numeric_dataset(m))
        assert rec["threshold"] == 7.5
        assert kept.names == ("c0",)
        assert rec["dropped_columns"] == ["c1", "c2", "c3"]

    def test_protected_roles_survive_any_missingness(self):
        m = np.ones((8, 3))
        m[:7, 0] = np.nan  # would exceed any quartile threshold
        m[:7, 2] = np.nan
        d = numeric_dataset(m, roles=["duration", "feature", "feature"],
                            names=["t", "x0", "x1"])
        kept, rec = drop_sparse_columns(d)
        assert "t" in kept.names
        assert rec["dropped_columns"] == ["x1"]

    def test_equal_counts_drop_nothing(self):
        m = np.ones((6, 3))
        m[0, :] = np.nan
        kept, _ = drop_sparse_columns(numeric_dataset(m))
        assert len(kept.names) == 3


class TestHarmonize:
    def test_exactly_thirty_percent_retained(self):
        m = np.ones((10, 3))
        m[:3, 1] = np.nan   # exactly 30%
        m[:4, 2] = np.nan   # 40%
        kept, rec = harmonize_columns(numeric_dataset(m))
        assert kept.names == ("c0", "c1")
        assert rec["dropped_columns"] == ["c2"]

    def test_protected_roles_exempt(self):
        m = np.ones((10, 2))
        m[:9, 0] = np.nan
        d = numeric_dataset(m, roles=["label", "feature"], names=["label", "x"])
        # label domain: NaN or 1.0 is fine
        kept, _ = harmonize_columns(d)
        assert "label" in kept.names


class TestIncompleteRows:
    def test_zero_missing_after(self):
        m = np.ones((5, 2))
        m[1, 0] = np.nan
        m[3, 1] = np.nan
        kept, _ = drop_incomplete_rows(numeric_dataset(m))
        assert kept.n_rows == 3
        assert not any(kept.missing_mask(n).any() for n in kept.names)

    def test_only_feature_and_label_cells_count(self):
        specs = [ColumnSpec("x", "numeric", "feature"),
                 ColumnSpec("t", "numeric", "duration")]
        d = Dataset(specs, {"x": np.array([1.0, 2.0]),
                            "t": np.array([np.nan, 5.0])})
        kept, _ = drop_incomplete_rows(d)
        assert kept.n_rows == 2  # missing duration does not evict the row

    def test_all_rows_missing_warns_and_empties(self):
        m = np.full((3, 2), np.nan)
        with pytest.warns(UserWarning, match="every row"):
            kept, _ = drop_incomplete_rows(numeric_dataset(m))
        assert kept.n_rows == 0


class TestFullChain:
    def test_stage_order_recorded(self):
        _, report = clean(staircase_4x4())
        assert [s["stage"] for s in report["stages"]] == [
            "input", "drop_sparse_rows", "drop_sparse_columns",
            "harmonize_columns", "drop_incomplete_rows"]

    def test_complete_data_passes_through(self):
        d = numeric_dataset(np.arange(12, dtype=float).reshape(4, 3))
        out, report = clean(d)
        assert datasets_equal(out, d)
        assert report["warnings"] == []

    def test_chain_output_has_no_feature_missing(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((60, 6))
        m[rng.random((60, 6)) < 0.25] = np.nan
        out, _ = clean(numeric_dataset(m))
        assert not any(out.missing_mask(n).any() for n in out.names)

    def test_label_balance_tracked(self):
        specs = [ColumnSpec("x", "numeric", "feature"),
                 ColumnSpec("label", "numeric", "label")]
        d = Dataset(specs, {"x": np.array([1.0, np.nan, 3.0, 4.0]),
                            "label": np.array([0.0, 1.0, 1.0, 0.0])})
        _, report = clean(d)
        assert report["stages"][0]["label_balance"] == {"negative": 2, "positive": 2}

    def test_class_ratio_roughly_preserved_under_random_missingness(self):
        rng = np.random.default_rng(17)
        n = 4000
        y = (rng.random(n) < 0.2).astype(float)
        m = rng.standard_normal((n, 8))
        m[rng.random((n, 8)) < 0.15] = np.nan  # label-independent
        specs = [ColumnSpec(f"x{j}", "numeric", "feature") for j in range(8)]
        specs.append(ColumnSpec("label", "numeric", "label"))
        cols = {f"x{j}": m[:, j] for j in range(8)}
        cols["label"] = y
        out, _ = clean(Dataset(specs, cols))
        assert out.n_rows > 0
        assert abs(out.label_values().mean() - y.mean()) < 0.03
