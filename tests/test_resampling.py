import warnings

import numpy as np
import pytest

from survmix.dataset import ColumnSpec, Dataset, SyntheticSpec, generate_synthetic
from survmix.errors import DomainError
from survmix.resampling import SmoteSpec, SplitSpec, smote, split

from helpers import datasets_equal, smote_parents


def labeled_points(points, labels, extra_cats=None):
    points = np.asarray(points, dtype=float)
    n, p = points.shape
    specs = [ColumnSpec(f"x{j}", "numeric", "feature") for j in range(p)]
    cols = {f"x{j}": points[:, j] for j in range(p)}
    if extra_cats is not None:
        specs.append(ColumnSpec("grp", "categorical", "feature", ("p", "q", "r")))
        cols["grp"] = np.asarray(extra_cats, dtype=np.int32)
    specs.append(ColumnSpec("label", "numeric", "label"))
    cols["label"] = np.asarray(labels, dtype=float)
    return Dataset(specs, cols)


def brute_force_knn(points, i, k):
    # Standardized Euclidean distances with ties broken by index order.
    z = (points - points.mean(axis=0)) / np.where(points.std(axis=0) == 0, 1, points.std(axis=0))
    d = ((z - z[i]) ** 2).sum(axis=1)
    order = [j for j in np.argsort(d, kind="stable") if j != i]
    return order[:k]


class TestSplit:
    def test_sizes_round_half_up(self):
        d = generate_synthetic(SyntheticSpec(n_rows=10, seed=1))
        train, test = split(d, SplitSpec(train_fraction=0.8, seed=0))
        assert (train.n_rows, test.n_rows) == (8, 2)
        d5 = generate_synthetic(SyntheticSpec(n_rows=5, seed=1))
        train, test = split(d5, SplitSpec(train_fraction=0.5, seed=0))
        assert (train.n_rows, test.n_rows) == (3, 2)

    def test_partition_is_exact(self):
        d = generate_synthetic(SyntheticSpec(n_rows=97, seed=2))
        train, test = split(d, SplitSpec(seed=5))
        ids = list(train.strings("id")) + list(test.strings("id"))
        assert sorted(ids) == sorted(d.strings("id"))
        assert len(set(ids)) == 97

    def test_deterministic_and_seed_sensitive(self):
        d = generate_synthetic(SyntheticSpec(n_rows=50, seed=3))
        a1, b1 = split(d, SplitSpec(seed=11))
        a2, b2 = split(d, SplitSpec(seed=11))
        assert datasets_equal(a1, a2) and datasets_equal(b1, b2)
        a3, _ = split(d, SplitSpec(seed=12))
        assert not datasets_equal(a1, a3)

    def test_row_order_preserved_within_sides(self):
        d = generate_synthetic(SyntheticSpec(n_rows=30, seed=4))
        train, _ = split(d, SplitSpec(seed=0))
        ids = [int(s[1:]) for s in train.strings("id")]
        assert ids == sorted(ids)

    def test_sides_name_their_source_rows(self):
        d = generate_synthetic(SyntheticSpec(n_rows=41, seed=7))
        train, test = split(d, SplitSpec(seed=3))
        source = np.concatenate([train.source_rows, test.source_rows])
        assert sorted(source.tolist()) == list(range(41))
        assert datasets_equal(train, d.take_rows(train.source_rows))
        assert datasets_equal(test, d.take_rows(test.source_rows))

    def test_validation(self):
        d = generate_synthetic(SyntheticSpec(n_rows=4, seed=0))
        with pytest.raises(DomainError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(DomainError):
            split(d.take_rows([0]), SplitSpec())
        with pytest.raises(DomainError):
            split(d, SplitSpec(train_fraction=0.01))  # empty train side for n=4


class TestSmoteGeometry:
    def test_two_point_diagonal(self):
        # Minority (0,0) and (1,1): every synthetic point is (u, u), u in (0,1).
        d = labeled_points([[0, 0], [1, 1], [5, 5], [6, 5], [7, 5], [8, 5]],
                           [1, 1, 0, 0, 0, 0])
        out = smote(d, SmoteSpec(k=1, over_pct=100.0, under_pct=100.0, seed=0))
        y = out.label_values()
        x0, x1 = out.numeric("x0"), out.numeric("x1")
        syn = np.flatnonzero(y == 1)[2:]  # first two are the originals
        assert len(syn) == 2
        for i in syn:
            assert x0[i] == x1[i]
            assert 0.0 < x0[i] < 1.0

    def test_segment_and_neighbor_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.integers(4, 12))
            n_maj = int(rng.integers(2 * m, 40))
            pts = np.vstack([rng.normal(0, 1, (m, 3)), rng.normal(3, 1, (n_maj, 3))])
            labels = np.r_[np.ones(m), np.zeros(n_maj)]
            d = labeled_points(pts, labels)
            k = int(rng.integers(1, 4))
            out = smote(d, SmoteSpec(k=k, over_pct=150.0, under_pct=100.0,
                                     seed=int(rng.integers(1e6))))
            minority_pts = pts[:m]
            n_syn = int((out.label_values() == 1).sum()) - m
            for row in range(m, m + n_syn):  # synthetic rows follow the m originals
                syn_vec = np.array([out.numeric(f"x{j}")[row] for j in range(3)])
                # In 3-d one line through two minority points holds the row;
                # either end may be the seed.
                parents = smote_parents(syn_vec, minority_pts)
                assert len({frozenset(pair[:2]) for pair in parents}) == 1
                drawn = [(seed_i, nb_i, u) for seed_i, nb_i, u in parents
                         if nb_i in brute_force_knn(minority_pts, seed_i, k)]
                assert drawn
                for seed_i, nb_i, u in drawn:
                    assert 0.0 < u < 1.0
                lo = np.minimum(pts[seed_i], pts[nb_i])
                hi = np.maximum(pts[seed_i], pts[nb_i])
                assert ((syn_vec >= lo) & (syn_vec <= hi)).all()


class TestSmoteCounts:
    def make(self, m=4, n_maj=40, seed=0):
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.normal(0, 1, (m, 2)), rng.normal(4, 1, (n_maj, 2))])
        return labeled_points(pts, np.r_[np.ones(m), np.zeros(n_maj)])

    def test_default_percentages(self):
        out = smote(self.make(), SmoteSpec(k=2, seed=1))
        y = out.label_values()
        # 4 originals + 8 synthetic; majority undersampled to 16
        assert int((y == 1).sum()) == 12
        assert int((y == 0).sum()) == 16
        assert out.n_rows == 28

    def test_fractional_over_pct(self):
        out = smote(self.make(m=4), SmoteSpec(k=2, over_pct=150.0, seed=3))
        y = out.label_values()
        assert int((y == 1).sum()) == 4 + 6  # round(1.5 * 4) synthetic rows

    def test_oversampling_majority_with_replacement_warns(self):
        d = self.make(m=4, n_maj=5)
        with pytest.warns(UserWarning, match="replacement"):
            out = smote(d, SmoteSpec(k=2, over_pct=200.0, under_pct=200.0, seed=0))
        assert int((out.label_values() == 0).sum()) == 16

    def test_synthetic_non_feature_cells_missing(self):
        d = generate_synthetic(SyntheticSpec(
            n_rows=60, minority_fraction=0.2, n_numeric=3, n_categorical=1, seed=5))
        out = smote(d, SmoteSpec(k=2, seed=5))
        n_min_orig = int((generate_synthetic(SyntheticSpec(
            n_rows=60, minority_fraction=0.2, n_numeric=3, n_categorical=1,
            seed=5)).label_values() == 1).sum())
        syn = slice(n_min_orig, n_min_orig + 2 * n_min_orig)
        assert out.missing_mask("id")[syn].all()
        assert out.missing_mask("duration")[syn].all()
        assert out.missing_mask("event")[syn].all()
        assert not out.missing_mask("cat_00")[syn].any()  # copied from seeds

    @pytest.mark.parametrize("under_pct", [200.0, 2000.0])
    def test_output_names_its_source_rows(self, under_pct):
        d = self.make(m=5, n_maj=30, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # 2000% draws majority rows with replacement
            out = smote(d, SmoteSpec(k=2, under_pct=under_pct, seed=4))
        source = out.source_rows
        made = source < 0
        assert made.sum() == 10 and (np.flatnonzero(made) == np.arange(5, 15)).all()
        assert (source[:5] == np.arange(5)).all()           # the minority rows, in order
        assert datasets_equal(out.take_rows(np.flatnonzero(~made)),
                              d.take_rows(source[~made]))

    def test_categorical_copied_from_seed(self):
        d = labeled_points([[0, 0], [1, 1], [9, 9], [8, 9], [7, 9], [6, 9]],
                           [1, 1, 0, 0, 0, 0], extra_cats=[2, 2, 0, 0, 1, 1])
        out = smote(d, SmoteSpec(k=1, over_pct=100.0, seed=2))
        y = out.label_values()
        syn = np.flatnonzero(y == 1)[2:]
        assert (out.codes("grp")[syn] == 2).all()


class TestSmoteContract:
    def test_deterministic(self):
        d = generate_synthetic(SyntheticSpec(n_rows=100, minority_fraction=0.1, seed=6))
        spec = SmoteSpec(k=3, seed=9)
        assert datasets_equal(smote(d, spec), smote(d, spec))
        assert not datasets_equal(smote(d, spec), smote(d, SmoteSpec(k=3, seed=10)))

    def test_k_reduced_with_warning(self):
        d = labeled_points([[0, 0], [1, 1], [5, 5], [6, 6], [7, 7], [8, 8]],
                           [1, 1, 0, 0, 0, 0])
        with pytest.warns(UserWarning, match="k reduced"):
            smote(d, SmoteSpec(k=5, over_pct=100.0, under_pct=100.0, seed=0))

    def test_needs_both_classes_and_two_minority_rows(self):
        with pytest.raises(DomainError):
            smote(labeled_points([[0, 0], [1, 1]], [0, 0]), SmoteSpec())
        with pytest.raises(DomainError):
            smote(labeled_points([[0, 0], [1, 1], [2, 2]], [1, 0, 0]), SmoteSpec())

    def test_rejects_missing_numeric_features(self):
        d = labeled_points([[0, 0], [np.nan, 1], [5, 5], [6, 6]], [1, 1, 0, 0])
        with pytest.raises(DomainError, match="complete numeric"):
            smote(d, SmoteSpec(k=1))
