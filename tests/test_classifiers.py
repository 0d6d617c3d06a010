import collections
import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from survmix.classifiers import (
    _REGISTRY,
    ALGORITHMS,
    ClassifierSpec,
    fit,
    load_model,
    save_model,
)
from survmix.classifiers._encoding import DummyEncoder, FeatureSchema
from survmix.classifiers.bagging import BagParams, bootstrap_indices, fit_bagging
from survmix.classifiers.logistic import LogitModel, LogitParams, fit_logit
from survmix.classifiers.naive_bayes import NaiveBayesModel, NbParams, fit_naive_bayes
from survmix.classifiers import neural, trees
from survmix.classifiers.neural import (
    AnnModel,
    AnnParams,
    _sigmoid,
    fit_ann,
    forward,
    loss_and_gradients,
)
from survmix.classifiers.trees import (
    _BLOCK_ELEMENTS,
    CtreeParams,
    TreeParams,
    _best_numeric_splits,
    _ctree_statistics,
    _Encoded,
    fit_cart,
    fit_ctree,
    fit_tree,
)
from survmix.dataset import ColumnSpec, Dataset
from survmix.distributions import chi_square_sf
from survmix.errors import (
    ConvergenceError,
    DataError,
    DivergenceError,
    DomainError,
    SeparationError,
    SurvmixError,
)

VOCAB = ("a", "b", "c", "d")


def make_dataset(numeric=None, categorical=None, labels=None, vocab=VOCAB):
    """Assemble a feature/label dataset from plain sequences."""
    specs, columns = [], {}
    for name, values in (numeric or {}).items():
        specs.append(ColumnSpec(name, "numeric", "feature"))
        columns[name] = np.asarray(values, dtype=float)
    for name, values in (categorical or {}).items():
        specs.append(ColumnSpec(name, "categorical", "feature", vocab))
        columns[name] = np.array([vocab.index(v) for v in values], dtype=np.int32)
    specs.append(ColumnSpec("label", "numeric", "label"))
    columns["label"] = np.asarray(labels, dtype=float)
    return Dataset(specs, columns)


def random_dataset(rng, n, n_numeric=2, n_categorical=1, signal=1.0):
    y = rng.integers(0, 2, n).astype(float)
    numeric = {}
    for j in range(n_numeric):
        numeric[f"x{j}"] = rng.normal(size=n) + signal * y * (j == 0)
    categorical = {}
    for j in range(n_categorical):
        categorical[f"c{j}"] = [VOCAB[i] for i in rng.integers(0, len(VOCAB), n)]
    return make_dataset(numeric, categorical, y)


# -- brute-force split oracles -----------------------------------------------

def gini(p):
    return 2.0 * p * (1.0 - p)


def entropy(p):
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def numeric_split_oracle(values, y, impurity):
    """Best (decrease, threshold) over all midpoints; ties keep the smaller."""
    n = len(y)
    parent = impurity(sum(y) / n)
    best = None
    for t in sorted(set((a + b) / 2.0 for a, b in
                        itertools.pairwise(sorted(set(values))))):
        left = [yi for v, yi in zip(values, y) if v <= t]
        right = [yi for v, yi in zip(values, y) if v > t]
        dec = parent - (len(left) * impurity(sum(left) / len(left))
                        + len(right) * impurity(sum(right) / len(right))) / n
        if best is None or dec > best[0] + 1e-12:
            best = (dec, t)
    return best


def categorical_split_oracle(values, y, impurity):
    """Best decrease over every proper bipartition of the observed levels."""
    n = len(y)
    parent = impurity(sum(y) / n)
    levels = sorted(set(values))
    best = -math.inf
    for r in range(1, len(levels)):
        for subset in itertools.combinations(levels, r):
            left = [yi for v, yi in zip(values, y) if v in subset]
            right = [yi for v, yi in zip(values, y) if v not in subset]
            dec = parent - (len(left) * impurity(sum(left) / len(left))
                            + len(right) * impurity(sum(right) / len(right))) / n
            best = max(best, dec)
    return best


class TestGreedyTrees:
    def test_four_point_fixture_splits_at_midpoint(self):
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[0, 0, 1, 1])
        for fitter in (fit_cart, fit_tree):
            model = fitter(data, TreeParams(min_node_size=1))
            root = model.nodes[0]
            assert not root["leaf"] and root["threshold"] == 1.5
            assert model.nodes[root["left"]]["prob"] == 0.0
            assert model.nodes[root["right"]]["prob"] == 1.0
            assert np.array_equal(model.predict_proba(data), [0, 0, 1, 1])

    def test_four_point_fixture_matches_oracle(self):
        values, y = [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 1.0, 1.0]
        for impurity in (gini, entropy):
            assert numeric_split_oracle(values, y, impurity)[1] == 1.5

    def test_root_split_matches_numeric_oracle(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 40))
            values = rng.integers(0, 8, n).astype(float)  # plenty of ties
            y = rng.integers(0, 2, n).astype(float)
            if len(set(y)) < 2 or len(set(values)) < 2:
                continue
            data = make_dataset({"x": values}, labels=y)
            for fitter, impurity in ((fit_cart, gini), (fit_tree, entropy)):
                model = fitter(data, TreeParams(min_node_size=1, max_depth=1, cp=0.0))
                dec, threshold = numeric_split_oracle(values.tolist(), y.tolist(), impurity)
                root = model.nodes[0]
                if dec <= 0.0:
                    continue
                assert root["threshold"] == pytest.approx(threshold, abs=1e-12)

    def test_categorical_split_matches_subset_oracle(self):
        vocab = ("a", "b", "c", "d", "e", "f")
        for seed in range(25):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(12, 40))
            n_levels = int(rng.integers(3, 7))
            values = [vocab[i] for i in rng.integers(0, n_levels, n)]
            y = rng.integers(0, 2, n).astype(float)
            if len(set(y)) < 2 or len(set(values)) < 2:
                continue
            data = make_dataset(categorical={"c": values}, labels=y, vocab=vocab)
            for fitter, impurity in ((fit_cart, gini), (fit_tree, entropy)):
                model = fitter(data, TreeParams(min_node_size=1, max_depth=1, cp=1e-12))
                best = categorical_split_oracle(values, y.tolist(), impurity)
                root = model.nodes[0]
                if root["leaf"]:
                    assert best <= 1e-12
                    continue
                subset = set(root["subset"])
                left = [yi for v, yi in zip(values, y) if v in subset]
                right = [yi for v, yi in zip(values, y) if v not in subset]
                parent = impurity(y.mean())
                achieved = parent - (len(left) * impurity(sum(left) / len(left))
                                     + len(right) * impurity(sum(right) / len(right))) / n
                assert achieved == pytest.approx(best, abs=1e-12)

    def test_tie_broken_toward_smaller_split_value(self):
        # splits at 0.5 and 2.5 give equal Gini decrease; 1.5 gives none
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[0, 1, 1, 0])
        model = fit_cart(data, TreeParams(min_node_size=1, max_depth=1))
        assert model.nodes[0]["threshold"] == 0.5

    def test_tie_broken_toward_first_feature(self):
        data = make_dataset({"x0": [0, 1, 2, 3], "x1": [0, 1, 2, 3]},
                            labels=[0, 0, 1, 1])
        model = fit_cart(data, TreeParams(min_node_size=1))
        assert model.nodes[0]["feature"] == "x0"

    def test_single_class_gives_single_leaf(self):
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[1, 1, 1, 1])
        model = fit_cart(data, TreeParams(min_node_size=1))
        assert model.nodes == [{"leaf": True, "n": 4, "prob": 1.0}]
        assert np.array_equal(model.predict_proba(data), np.ones(4))

    def test_min_node_size_at_or_above_n_gives_single_leaf(self):
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[0, 0, 1, 1])
        for size in (4, 10):
            model = fit_cart(data, TreeParams(min_node_size=size))
            assert model.nodes[0] == {"leaf": True, "n": 4, "prob": 0.5}

    def test_cp_threshold_stops_growth(self):
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[0, 0, 1, 1])
        assert fit_cart(data, TreeParams(min_node_size=1, cp=0.9)).nodes[0]["leaf"]

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 200, signal=2.0)
        model = fit_cart(data, TreeParams(min_node_size=1, max_depth=2, cp=0.0))
        depths = {0: 0}  # node index -> depth; children come after their parent
        for i, node in enumerate(model.nodes):
            if not node["leaf"]:
                depths[node["left"]] = depths[node["right"]] = depths[i] + 1
        assert max(depths.values()) <= 2

    def test_leaf_probabilities_are_class_frequencies(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 150)
        model = fit_cart(data, TreeParams(min_node_size=10))
        probs = model.predict_proba(data)
        y = data.label_values()
        for p in np.unique(probs):
            members = probs == p
            assert y[members].mean() == p

    def test_monotone_rescaling_preserves_structure(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 20, 120).astype(float)
        y = (values > 9).astype(float) * rng.integers(0, 2, 120)
        base = make_dataset({"x": values}, labels=y)
        scaled = make_dataset({"x": 3.0 * values + 7.0}, labels=y)
        for fitter in (fit_cart, fit_tree):
            m1 = fitter(base, TreeParams(min_node_size=5))
            m2 = fitter(scaled, TreeParams(min_node_size=5))
            assert len(m1.nodes) == len(m2.nodes)
            for a, b in zip(m1.nodes, m2.nodes):
                if a["leaf"]:
                    assert a == b
                else:
                    assert b["threshold"] == 3.0 * a["threshold"] + 7.0
            assert np.array_equal(m1.predict_proba(base), m2.predict_proba(scaled))

    def test_zero_rows_rejected(self):
        data = make_dataset({"x": []}, labels=[])
        with pytest.raises(DomainError, match="zero rows"):
            fit_cart(data, TreeParams())

    def test_missing_feature_rejected(self):
        specs = [ColumnSpec("x", "numeric", "feature"),
                 ColumnSpec("label", "numeric", "label")]
        data = Dataset(specs, {"x": np.array([1.0, np.nan]),
                               "label": np.array([0.0, 1.0])})
        with pytest.raises(DomainError, match="missing"):
            fit_cart(data, TreeParams(min_node_size=1))

    def test_unseen_level_routed_as_reference_with_warning(self):
        train = make_dataset(categorical={"c": ["a", "a", "a", "b", "b", "b"]},
                             labels=[1, 1, 1, 0, 0, 1], vocab=("a", "b", "c"))
        model = fit_cart(train, TreeParams(min_node_size=1))
        assert not model.nodes[0]["leaf"]
        query = make_dataset(categorical={"c": ["c", "a"]}, labels=[0, 0],
                             vocab=("a", "b", "c"))
        with pytest.warns(UserWarning, match="not seen in training"):
            probs = model.predict_proba(query)
        assert probs[0] == probs[1]  # reference level is "a" (most frequent)


def reference_impurity(p, criterion):
    p = np.asarray(p, dtype=float)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log(p) + q * np.log(q))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def reference_numeric_split(values, y, criterion):
    """The per-feature split search that sorted each feature at every node;
    (decrease, threshold), or None when the feature is constant."""
    order = np.argsort(values, kind="stable")
    vs, ys = values[order], y[order]
    n = len(ys)
    boundaries = np.flatnonzero(np.diff(vs) > 0)
    if boundaries.size == 0:
        return None
    cum_pos = np.cumsum(ys)
    n_left = boundaries + 1.0
    pos_left = cum_pos[boundaries]
    n_right = n - n_left
    pos_right = cum_pos[-1] - pos_left
    parent = reference_impurity(cum_pos[-1] / n, criterion)
    child = (n_left * reference_impurity(pos_left / n_left, criterion)
             + n_right * reference_impurity(pos_right / n_right, criterion)) / n
    decrease = parent - child
    best = int(np.argmax(decrease))
    threshold = 0.5 * (vs[boundaries[best]] + vs[boundaries[best] + 1])
    return float(decrease[best]), float(threshold)


def kernel_case(name):
    """(values as features × rows, labels, the node's rows) for one input."""
    rng = np.random.default_rng(sum(map(ord, name)))
    shapes = {"ties": (6, 50), "constant_columns": (5, 40), "single_value": (3, 30),
              "one_row": (3, 1), "two_rows": (4, 2), "many_columns": (40, 2000),
              "long_columns": (3, 50_000)}
    n_features, n = shapes[name]
    values = rng.integers(0, 6, (n_features, n)).astype(float)
    if name in ("many_columns", "long_columns"):
        values[1::2] = rng.normal(size=values[1::2].shape)
    if name == "constant_columns":
        values[[0, 3]] = -2.5
    if name == "single_value":
        values[:] = 7.25
    if name == "two_rows":
        values[:2] = [[1.0, 1.0], [3.0, -1.0]]
    y = rng.integers(0, 2, n).astype(float)
    node = np.arange(n)
    if n > 2:  # a node below the root: a subset of the rows
        node = np.flatnonzero(rng.random(n) < 0.7)
    return values, y, node


def assert_segment_matches_reference(values, y, rows, weights, gains, thresholds,
                                     criterion):
    """Each feature's gain and threshold in one node equal, bit for bit, the
    reference's on the node's rows copied as often as their weights say."""
    repeats = weights.astype(int)
    for f in range(len(values)):
        found = reference_numeric_split(np.repeat(values[f, rows], repeats),
                                        np.repeat(y[rows], repeats), criterion)
        if found is None:
            assert gains[f] == -np.inf, f
        else:
            assert (gains[f].hex(), thresholds[f].hex()) == \
                (found[0].hex(), found[1].hex()), f


KERNEL_CASES = ("ties", "constant_columns", "single_value", "one_row", "two_rows",
                "many_columns", "long_columns")


class TestNumericSplitKernel:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_matches_per_feature_reference(self, case, criterion, weighted):
        values, y, node = kernel_case(case)
        weights = np.zeros(len(y))
        weights[node] = (np.random.default_rng(len(node)).integers(1, 4, len(node))
                         if weighted else 1.0)
        order = node[np.argsort(values[:, node], axis=1, kind="stable")].astype(np.int32)
        gains, thresholds = _best_numeric_splits(values, order, np.array([0, len(node)]),
                                                 np.zeros(1, dtype=int), weights,
                                                 weights * y, criterion)
        assert_segment_matches_reference(values, y, node, weights[node], gains[0],
                                         thresholds[0], criterion)

    @pytest.mark.parametrize("block", [None, 50])
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_segments_match_per_node_reference(self, criterion, block, monkeypatch):
        # Nodes of two weighted trees side by side, of 1 to 120 rows; with a
        # 50-cell block the segments fall into many blocks, some longer than one.
        if block is not None:
            monkeypatch.setattr(trees, "_BLOCK_ELEMENTS", block)
        rng = np.random.default_rng(29)
        n_rows = 400
        values = rng.integers(0, 5, (4, n_rows)).astype(float)
        values[1] = rng.normal(size=n_rows)
        y = rng.integers(0, 2, n_rows).astype(float)
        weights = rng.integers(0, 4, (2, n_rows)).astype(float)
        weights[:, :10] = 2.0  # ten rows sampled by both trees
        values[3, :10] = 1.5  # a feature constant in the first node
        segments = []  # (tree, rows)
        for tree in range(2):
            sampled = np.flatnonzero(weights[tree] > 0)
            sampled = np.concatenate((sampled[:10], rng.permutation(sampled[10:])))
            bounds = np.cumsum([10, 1, 2, 120, 37, 3])
            segments += [(tree, np.sort(rows)) for rows in np.split(sampled, bounds)]
        order = np.hstack([
            rows[np.argsort(values[:, rows], axis=1, kind="stable")] + tree * n_rows
            for tree, rows in segments]).astype(np.int32)
        starts = np.cumsum([0] + [len(rows) for _, rows in segments])
        offsets = np.array([tree * n_rows for tree, _ in segments])
        flat = weights.ravel()
        gains, thresholds = _best_numeric_splits(values, order, starts, offsets, flat,
                                                 flat * np.tile(y, 2), criterion)
        for s, (tree, rows) in enumerate(segments):
            assert_segment_matches_reference(values, y, rows, weights[tree, rows],
                                             gains[s], thresholds[s], criterion)
        assert gains[0, 3] == -np.inf

    def test_cases_span_blocks(self):
        for case in ("many_columns", "long_columns"):
            values, _, node = kernel_case(case)
            assert len(values) * len(node) > _BLOCK_ELEMENTS
        assert len(kernel_case("long_columns")[2]) > _BLOCK_ELEMENTS


def root_statistics(data):
    """`_ctree_statistics` of every feature at the root of `data`, by name:
    (statistic, degrees of freedom)."""
    encoded = _Encoded(data)
    statistic, df = _ctree_statistics(encoded, np.arange(data.n_rows),
                                      np.array([0, data.n_rows]))
    return {name: (s, d) for (name, _), s, d in
            zip(encoded.schema.features, statistic[0], df[0])}


def root_pvalues(data):
    return {name: chi_square_sf(*test) for name, test in root_statistics(data).items()}


def solve_exactly(matrix, vector):
    """The solution of a nonsingular system of Fractions (Gauss–Jordan)."""
    k = len(vector)
    rows = [list(matrix[i]) + [vector[i]] for i in range(k)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(k):
            if r != col:
                rows[r] = [a - rows[r][col] * b for a, b in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


class TestCtree:
    def null_fixture(self, data_seed):
        rng = np.random.default_rng(data_seed)
        x = rng.normal(size=100)
        y = np.repeat([0.0, 1.0], 50)[rng.permutation(100)]
        return make_dataset({"x": x}, labels=y)

    @pytest.mark.parametrize("x, levels, y", [
        ([0.5, 3.0], "ab", [0, 1]),
        ([1.0, 2.0, 2.0, 7.25, -3.0], "abacb", [1, 0, 0, 1, 0]),
        ([0.1, 0.1, 0.1, 5.0, 2.5, -1.0, 0.3], "aabbccc", [1, 1, 0, 0, 1, 0, 0]),
        ([4.0, -2.0, 0.7, 0.7, 9.5, 1.0, 3.3, -0.2, 6.0], "abcdabcaa",
         [1, 0, 1, 1, 0, 0, 1, 0, 0]),
    ])
    def test_closed_form_equals_exact_permutation_moments(self, x, levels, y):
        # Over every permutation of the node's labels, in exact arithmetic:
        # the mean and variance of T = Σ_{y=1} x and the quadratic form of the
        # positive counts per level must be the closed forms ctree uses.
        n, n1 = len(y), sum(y)
        n0 = n - n1
        vocab = tuple(sorted(set(levels)))
        data = make_dataset({"x": x}, {"c": list(levels)}, y, vocab=vocab)
        arrangements = collections.Counter(itertools.permutations(y))
        assert sum(arrangements.values()) == math.factorial(n)

        def moments(statistic):
            """The mean and covariance of a vector `statistic` of the labels
            over all n! permutations."""
            values = [(statistic(labels), count) for labels, count in arrangements.items()]
            k, total = len(values[0][0]), math.factorial(n)
            mean = [sum(c * v[i] for v, c in values) / total for i in range(k)]
            return mean, [[sum(c * (v[i] - mean[i]) * (v[j] - mean[j]) for v, c in values)
                           / total for j in range(k)] for i in range(k)]

        factor = Fraction(n1 * n0, n * (n - 1))
        xs = [Fraction(v) for v in x]
        x_bar = sum(xs) / n

        def numeric_t(labels):
            return [sum(v for v, label in zip(xs, labels) if label)]
        [mean], [[variance]] = moments(numeric_t)
        assert mean == n1 * x_bar
        assert variance == factor * sum((v - x_bar) ** 2 for v in xs)
        statistic, df = root_statistics(data)["x"]
        exact = (numeric_t(y)[0] - mean) ** 2 / variance
        assert statistic == pytest.approx(float(exact), rel=1e-12)
        assert df == 1

        # Each level's positive count; the last level is left out, since the
        # counts' full covariance is singular (they sum to n1).
        totals = [levels.count(level) for level in vocab]
        k = len(vocab) - 1

        def counts(labels):
            return [Fraction(sum(1 for c, label in zip(levels, labels) if c == level and label))
                    for level in vocab[:-1]]
        mean, covariance = moments(counts)
        assert mean == [Fraction(n1 * total, n) for total in totals[:-1]]
        assert covariance == [[factor * ((totals[i] if i == j else 0)
                                         - Fraction(totals[i] * totals[j], n))
                               for j in range(k)] for i in range(k)]
        deviation = [c - m for c, m in zip(counts(y), mean)]
        quadratic = sum(d * w for d, w in zip(deviation, solve_exactly(covariance, deviation)))
        pearson = 0
        for level, total in zip(vocab, totals):
            for label, size in ((0, n0), (1, n1)):
                observed = sum(1 for c, lab in zip(levels, y) if c == level and lab == label)
                expected = Fraction(total * size, n)
                pearson += (observed - expected) ** 2 / expected
        assert quadratic == pearson * Fraction(n - 1, n)
        statistic, df = root_statistics(data)["c"]
        assert statistic == pytest.approx(float(quadratic), rel=1e-12)
        assert df == k

    def test_closed_form_matches_monte_carlo_at_n_2000(self):
        # 10^5 label permutations at n = 2,000 against the χ² p-values, for a
        # skewed numeric feature with ties and a three-level one.  Under a
        # uniform permutation the positives per distinct value follow the
        # multivariate hypergeometric law, so each draw samples that law
        # exactly.  The Monte Carlo p-value's standard error is
        # sqrt(p(1 − p)/10^5), about 3e-4 here; the χ² approximation's own
        # error at this n is smaller still (the statistic is a sum over 2,000
        # rows).  So the two must agree within 4 standard errors; the draws
        # are seeded.
        n, draws = 2000, 100_000
        rng = np.random.default_rng(3)
        y = (rng.random(n) < 0.3).astype(float)
        x = np.floor(rng.exponential(1.0 + 0.15 * y) * 4) / 4
        levels = np.array(list("abc"))[rng.choice(3, n, p=[0.5, 0.3, 0.2])]
        levels[(rng.random(n) < 0.07) & (y == 1)] = "c"
        pvalues = root_pvalues(make_dataset({"x": x}, {"c": levels.tolist()}, y,
                                            vocab=("a", "b", "c")))
        n1 = y.sum()
        draw = np.random.default_rng(8)
        for name, values in (("x", x), ("c", levels)):
            distinct, inverse = np.unique(values, return_inverse=True)
            sizes = np.bincount(inverse)
            if name == "x":
                def statistic(positives):   # |T − E T|
                    return np.abs(positives @ distinct - n1 * x.mean())
            else:
                def statistic(positives):   # Pearson's χ² × n1 n0 / n²
                    return ((positives - sizes * n1 / n) ** 2 / sizes).sum(axis=-1)
            observed = statistic(np.bincount(inverse, weights=y))
            positives = draw.multivariate_hypergeometric(sizes, int(n1), size=draws)
            monte_carlo = np.mean(statistic(positives) >= observed * (1 - 1e-12))
            p = pvalues[name]
            assert 0.005 < p < 0.1, name
            assert abs(monte_carlo - p) <= 4 * math.sqrt(p * (1 - p) / draws), name

    def test_independent_feature_not_split(self):
        data = self.null_fixture(0)
        assert root_pvalues(data)["x"] >= 0.05
        model = fit_ctree(data, CtreeParams(min_node_size=5))
        assert model.nodes[0]["leaf"]

    def test_null_rarely_splits_across_seeds(self):
        leaves = sum(
            fit_ctree(self.null_fixture(s), CtreeParams(min_node_size=5)).nodes[0]["leaf"]
            for s in range(40))
        assert leaves >= 35  # alpha = 0.05 false-split rate

    def test_aligned_feature_minimal_pvalue(self):
        # x = y: the statistic is (n − 1) r² at its largest, r² = 1, so the
        # p-value is the smallest any feature can have in this node.
        x = np.repeat([0.0, 1.0], 50)
        data = make_dataset({"x": x}, labels=x)
        assert root_pvalues(data)["x"] == pytest.approx(chi_square_sf(99.0, 1), rel=1e-12)
        model = fit_ctree(data, CtreeParams(min_node_size=5))
        assert model.nodes[0]["threshold"] == 0.5
        assert np.array_equal(model.predict_proba(data), x)

    def test_zero_variance_feature_excluded(self):
        x = np.repeat([0.0, 1.0], 20)
        data = make_dataset({"flat": np.zeros(40), "x": x}, labels=x)
        model = fit_ctree(data, CtreeParams(min_node_size=5))
        assert model.nodes[0]["feature"] == "x"
        flat_only = make_dataset({"flat": np.zeros(40)}, labels=x)
        for alpha in (0.05, 1.0):   # an untested feature never splits
            assert fit_ctree(flat_only, CtreeParams(alpha=alpha,
                                                    min_node_size=5)).nodes[0]["leaf"]

    def test_underflowing_pvalues_are_compared_by_their_logs(self):
        # From χ² ≈ 1,485 on one degree a p-value underflows to 0.0.  Of two
        # such features the stronger wins, though it comes second in the
        # schema, as it does under the greedy criterion.
        rng = np.random.default_rng(5)
        y = np.repeat([0.0, 1.0], 1000)
        data = make_dataset({"strong": y + 0.2 * rng.normal(size=2000), "exact": y},
                            labels=y)
        statistics = root_statistics(data)
        assert 1485 <= statistics["strong"][0] < statistics["exact"][0]
        assert root_pvalues(data) == {"strong": 0.0, "exact": 0.0}
        assert fit_ctree(data, CtreeParams()).nodes[0]["feature"] == "exact"
        assert fit_cart(data, TreeParams()).nodes[0]["feature"] == "exact"

    def test_bonferroni_adjustment_blocks_weak_evidence(self):
        # A feature whose raw p-value lies between alpha/31 and alpha clears
        # alpha alone; among 30 noise features the Bonferroni factor 31
        # pushes its adjusted p-value past alpha, and growth stops.
        alpha = 0.02
        rng = np.random.default_rng(42)
        y = np.repeat([0.0, 1.0], 30)
        strong = {"x": 0.5 * y + rng.normal(size=60)}
        assert alpha / 31 < root_pvalues(make_dataset(strong, labels=y))["x"] < alpha
        params = CtreeParams(alpha=alpha, min_node_size=5)
        model = fit_ctree(make_dataset(strong, labels=y), params)
        assert model.nodes[0]["feature"] == "x"
        noisy = dict(strong)
        for j in range(30):
            noisy[f"n{j}"] = rng.normal(size=60)
        assert fit_ctree(make_dataset(noisy, labels=y), params).nodes[0]["leaf"]

    def test_categorical_association_detected(self):
        values = ["a"] * 20 + ["b"] * 20
        y = np.repeat([1.0, 0.0], 20)
        data = make_dataset(categorical={"c": values}, labels=y, vocab=("a", "b"))
        model = fit_ctree(data, CtreeParams(min_node_size=5))
        root = model.nodes[0]
        assert root["feature"] == "c" and root["subset"] in (["a"], ["b"])

    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e-170, 1e-310])
    def test_same_tree_at_any_scale_of_a_feature(self, scale):
        # The statistic is scale-free: a feature scaled far out of unit range
        # must neither overflow its sums of squares nor underflow them to 0.
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 400).astype(float)
        x0 = rng.normal(size=400) + 1.2 * y
        x1 = rng.normal(size=400) + 0.6 * y
        base = make_dataset({"x0": x0, "x1": x1}, labels=y)
        scaled = make_dataset({"x0": x0 * scale, "x1": x1}, labels=y)
        want = fit_ctree(base, CtreeParams())
        got = fit_ctree(scaled, CtreeParams())
        assert len(want.nodes) > 3
        assert [{k: v for k, v in node.items() if k != "threshold"} for node in got.nodes] \
            == [{k: v for k, v in node.items() if k != "threshold"} for node in want.nodes]
        assert np.array_equal(got.predict_proba(scaled), want.predict_proba(base))

    def test_same_tree_for_every_seed(self):
        data = random_dataset(np.random.default_rng(9), 80, signal=1.5)
        trees_fitted = [fit(data, ClassifierSpec("ctree", seed=seed,
                                                 params={"min_node_size": 10}))
                        for seed in (4, 5)]
        assert len(trees_fitted[0].nodes) > 1
        assert trees_fitted[0].nodes == trees_fitted[1].nodes


class TestBagging:
    def test_weighted_members_equal_cart_on_copied_samples(self):
        rng = np.random.default_rng(21)
        n = 60
        y = rng.integers(0, 2, n).astype(float)
        levels = ["a"] * 20 + ["b"] * 20 + ["c"] * 19 + ["d"]  # "d": a rare level
        train = make_dataset({"x0": rng.normal(size=n) + y,
                              "x1": rng.integers(0, 6, n).astype(float)},
                             {"c": rng.permutation(levels).tolist()}, y)
        params = BagParams(members=25, min_node_size=6, cp=0.0)
        bag = fit_bagging(train, params, seed=3)
        codes = train.codes("c")
        level_missing = reference_tied = node_at_min_size = False
        for t, tree in enumerate(bag.trees):
            index = bootstrap_indices(3, t, n)
            cart = fit_cart(train.take_rows(index), params)
            assert tree.nodes == cart.nodes, t
            assert tree.schema.to_state() == cart.schema.to_state(), t
            counts = collections.Counter(codes[index].tolist())
            level_missing |= len(counts) < 4
            reference_tied |= list(counts.values()).count(max(counts.values())) > 1
            node_at_min_size |= any(node["n"] == params.min_node_size for node in tree.nodes)
        assert level_missing and reference_tied and node_at_min_size

    def test_ensemble_is_mean_of_recomputed_members(self):
        rng = np.random.default_rng(11)
        train = random_dataset(rng, 120, signal=1.0)
        test = random_dataset(np.random.default_rng(12), 40, signal=1.0)
        params = BagParams(members=3, min_node_size=10)
        bag = fit_bagging(train, params, seed=7)
        members = []
        for t in range(3):
            sample = train.take_rows(bootstrap_indices(7, t, train.n_rows))
            members.append(fit_cart(sample, params).predict_proba(test))
        assert np.array_equal(bag.predict_proba(test), np.mean(members, axis=0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_probability_does_not_depend_on_batch(self, n):
        # rows predicted alone, or n at a time, get the bytes that predicting
        # all 500 at once gives them
        train = random_dataset(np.random.default_rng(14), 200, signal=0.5)
        params = BagParams(members=50, min_node_size=3, cp=0.0)
        bag = fit_bagging(train, params, seed=5)
        test = random_dataset(np.random.default_rng(15), 500, signal=0.5)
        batched = np.concatenate([bag.predict_proba(test.take_rows(rows))
                                  for rows in np.array_split(np.arange(500),
                                                             range(n, 500, n))])
        assert batched.tobytes() == bag.predict_proba(test).tobytes()

    def test_pure_dataset_predicts_one(self):
        data = make_dataset({"x": np.arange(30.0)}, labels=np.ones(30))
        bag = fit_bagging(data, BagParams(members=4), seed=2)
        assert np.array_equal(bag.predict_proba(data), np.ones(30))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        data = random_dataset(rng, 80)
        p1 = fit_bagging(data, BagParams(members=5), seed=3).predict_proba(data)
        p2 = fit_bagging(data, BagParams(members=5), seed=3).predict_proba(data)
        p3 = fit_bagging(data, BagParams(members=5), seed=4).predict_proba(data)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, p3)


def hstack_transform(encoder, data):
    """The block-by-block `DummyEncoder.transform` the one-matrix fill
    replaced: the reference."""
    mapped = encoder.schema.map_columns(data)
    blocks = []
    for name, kind in encoder.schema.features:
        if kind == "numeric":
            v = mapped[name]
            if encoder.standardize:
                v = (v - encoder.means[name]) / encoder.scales[name]
            blocks.append(v[:, None])
        else:
            levels = encoder.schema.levels[name]
            ref = encoder.schema.reference[name]
            keep = [i for i, lv in enumerate(levels) if lv != ref]
            block = np.zeros((len(mapped[name]), len(keep)))
            for j, level_code in enumerate(keep):
                block[:, j] = mapped[name] == level_code
            blocks.append(block)
    return np.hstack(blocks)


class TestDummyEncoder:
    @pytest.mark.parametrize("standardize", [False, True])
    def test_transform_equals_the_stacked_blocks(self, standardize):
        rng = np.random.default_rng(22)
        data = random_dataset(rng, 60, n_numeric=3, n_categorical=2)
        # a categorical with one observed level gets no dummy column
        data = data.with_column(ColumnSpec("one", "categorical", "feature", VOCAB),
                                np.full(60, 2, dtype=np.int32))
        encoder = DummyEncoder.fit(data, standardize=standardize)
        got = encoder.transform(data)
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.shape == (60, len(encoder.column_names))
        assert not any(c.startswith("one=") for c in encoder.column_names)
        assert got.tobytes() == hstack_transform(encoder, data).tobytes()

    def test_schema_without_features_rejected(self):
        data = make_dataset({"x": [0.0, 1.0]}, labels=[0, 1])
        with pytest.raises(DomainError, match="no feature columns to encode"):
            DummyEncoder(FeatureSchema((), {}, {})).transform(data)


def loglik_grid_oracle(x, y):
    """Three-stage grid refinement of the 2-parameter log-likelihood."""
    x, y = np.asarray(x, float), np.asarray(y, float)

    def loglik(b0, b1):
        z = b0 + b1 * x
        return np.sum(y * z) - np.sum(np.logaddexp(0.0, z))

    center, width = (0.0, 0.0), 5.0
    for step in (0.1, 0.01, 1e-4):
        b0s = np.arange(center[0] - width, center[0] + width + step / 2, step)
        b1s = np.arange(center[1] - width, center[1] + width + step / 2, step)
        values = np.array([[loglik(b0, b1) for b1 in b1s] for b0 in b0s])
        i, j = np.unravel_index(np.argmax(values), values.shape)
        center, width = (b0s[i], b1s[j]), 2 * step
    return center


class TestLogit:
    def test_symmetric_null_gives_zero_coefficients(self):
        data = make_dataset({"x": [-1, -1, 1, 1]}, labels=[0, 1, 1, 0])
        model = fit_logit(data, LogitParams())
        assert model.intercept == 0.0
        assert np.array_equal(model.coefficients, [0.0])
        assert np.array_equal(model.predict_proba(data), np.full(4, 0.5))

    def test_six_point_fixture_matches_grid_oracle(self):
        x = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
        y = [0, 0, 1, 0, 1, 1]
        model = fit_logit(make_dataset({"x": x}, labels=y), LogitParams())
        b0, b1 = loglik_grid_oracle(x, y)
        assert model.intercept == pytest.approx(b0, abs=1e-4)
        assert model.coefficients[0] == pytest.approx(b1, abs=1e-4)
        # closed form for the saturated two-level fit
        assert model.intercept == pytest.approx(math.log(0.5), abs=1e-8)
        assert model.coefficients[0] == pytest.approx(2 * math.log(2.0), abs=1e-8)

    def test_separable_data_raises(self):
        data = make_dataset({"x": [-1.0, 1.0]}, labels=[0, 1])
        with pytest.raises(SeparationError, match="x"):
            fit_logit(data, LogitParams())

    def test_duplicate_column_reported_as_aliased(self):
        data = make_dataset({"x0": [0, 1, 2, 3], "x1": [0, 1, 2, 3]},
                            labels=[0, 1, 0, 1])
        with pytest.raises(DomainError, match="aliased.*x1"):
            fit_logit(data, LogitParams())

    def test_constant_column_reported_as_aliased(self):
        data = make_dataset({"x0": [1, 1, 1, 1], "x1": [0, 1, 2, 3]},
                            labels=[0, 1, 0, 1])
        with pytest.raises(DomainError, match="aliased.*x0"):
            fit_logit(data, LogitParams())

    def test_single_class_rejected(self):
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[1, 1, 1, 1])
        with pytest.raises(DomainError, match="both classes"):
            fit_logit(data, LogitParams())
        with pytest.raises(DomainError, match="no feature columns"):
            fit_logit(make_dataset(labels=[1, 1, 1, 1]), LogitParams())

    def test_zero_coefficient_model_is_constant(self):
        data = make_dataset({"x": [0.0, 5.0, -3.0]}, labels=[0, 1, 0])
        encoder = DummyEncoder.fit(data)
        model = LogitModel(encoder, 0.7, np.zeros(1), 0.0)
        expected = 1.0 / (1.0 + math.exp(-0.7))
        assert np.allclose(model.predict_proba(data), expected, atol=1e-15)

    def test_probability_recovery_on_generated_data(self):
        rng = np.random.default_rng(15)
        n = 4000
        x = rng.normal(size=n)
        p = 1.0 / (1.0 + np.exp(-(0.4 + 1.3 * x)))
        y = (rng.random(n) < p).astype(float)
        model = fit_logit(make_dataset({"x": x}, labels=y), LogitParams())
        assert model.intercept == pytest.approx(0.4, abs=0.15)
        assert model.coefficients[0] == pytest.approx(1.3, abs=0.15)


class TestNaiveBayes:
    def test_two_feature_fixture_matches_hand_product(self):
        data = make_dataset({"x": [1.0, 2.0, 3.0, 5.0]},
                            {"c": ["a", "a", "a", "b"]},
                            [0, 0, 1, 1], vocab=("a", "b"))
        model = fit_naive_bayes(data, NbParams())
        query = make_dataset({"x": [2.5]}, {"c": ["a"]}, [0], vocab=("a", "b"))

        def gaussian(x, mean, var):
            return math.exp(-(x - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)

        # class 0: x in {1,2}; class 1: x in {3,5}; Laplace add-one over 2 levels
        s0 = 0.5 * gaussian(2.5, 1.5, 0.25) * (2 + 1) / (2 + 2)
        s1 = 0.5 * gaussian(2.5, 4.0, 1.0) * (1 + 1) / (2 + 2)
        assert model.predict_proba(query)[0] == pytest.approx(s1 / (s0 + s1), abs=1e-12)

    def test_identical_distributions_give_priors(self):
        data = make_dataset({"x": [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]},
                            {"c": ["a", "b", "a", "b", "a", "b"]},
                            [0, 0, 1, 1, 1, 1], vocab=("a", "b"))
        model = fit_naive_bayes(data, NbParams())
        probs = model.predict_proba(data)
        np.testing.assert_allclose(probs, 2.0 / 3.0, atol=1e-12)

    def test_equidistant_query_is_half(self):
        data = make_dataset({"x": [0.0, 2.0, 4.0, 6.0]}, labels=[0, 0, 1, 1])
        model = fit_naive_bayes(data, NbParams())
        query = make_dataset({"x": [3.0]}, labels=[0])
        assert model.predict_proba(query)[0] == pytest.approx(0.5, abs=1e-12)

    def test_constant_feature_uses_variance_floor(self):
        data = make_dataset({"x": [1.0, 1.0, 1.0, 1.0], "z": [0, 1, 2, 3]},
                            labels=[0, 0, 1, 1])
        model = fit_naive_bayes(data, NbParams())
        probs = model.predict_proba(data)
        assert np.isfinite(probs).all()

    def test_single_class_training(self):
        data = make_dataset({"x": [0.0, 1.0, 2.0]}, labels=[1, 1, 1])
        model = fit_naive_bayes(data, NbParams())
        assert np.array_equal(model.predict_proba(data), np.ones(3))

    def test_zero_rows_rejected(self):
        data = make_dataset({"x": []}, labels=[])
        with pytest.raises(DomainError, match="zero rows"):
            fit_naive_bayes(data, NbParams())

    def test_cells_of_1e160_score_without_nan(self):
        # (x - mean)² overflows for both classes at 1e160: the direct form
        # gave inf - inf, a NaN, for every such row.
        data = make_dataset({"x": [0.0, 1.0, 2.0, 3.0, 5.0, 9.0], "y": [0.0, 1, 0, 1, 0, 1]},
                            {"c": ["a", "b", "a", "b", "b", "a"]},
                            [0, 0, 0, 1, 1, 1], vocab=("a", "b"))
        model = fit_naive_bayes(data, NbParams())
        cells = [1e160, -1e160, 1.5e154, 1e150, 2.0, 1e308]
        query = make_dataset({"x": cells, "y": [0.0, 1.0] * 3}, {"c": ["a", "b"] * 3},
                             [0] * 6, vocab=("a", "b"))
        probs = model.predict_proba(query)
        assert np.isfinite(probs).all()
        # class 1's spread is the wider, so it takes every far cell
        assert probs[[0, 1, 2, 5]].tolist() == [1.0, 1.0, 1.0, 1.0]
        in_range = query.take_rows([3, 4])
        assert probs[3:5].tobytes() == model.predict_proba(in_range).tobytes()

    def test_fit_on_an_overflowing_class_variance_names_the_feature(self):
        # (x - mean)² overflows at 1e160, so the variance would be stored as
        # inf and every score would be NaN.
        data = make_dataset({"x": np.array([0.0, 1, 2, 3, 5, 9]) * 1e160,
                             "y": [0.0, 1, 0, 1, 0, 1]}, labels=[0, 0, 0, 1, 1, 1])
        with pytest.raises(SurvmixError, match="naive Bayes: feature 'x'"):
            fit_naive_bayes(data, NbParams())

    def test_far_cell_of_an_uninformative_feature_leaves_the_others_to_decide(self):
        # Equal means and variances: the two quadratic terms cancel, though
        # each alone overflows, and the levels decide as if x sat at the mean.
        data = make_dataset({"x": [0.0, 1.0, 2.0, 3.0]}, {"c": ["a", "a", "b", "a"]},
                            [0, 0, 1, 1], vocab=("a", "b"))
        fitted = fit_naive_bayes(data, NbParams())
        model = NaiveBayesModel(fitted.schema, fitted.priors,
                                {"x": ((0.5, 0.5), (2.0, 2.0))}, fitted.level_logprob)

        def scores(x):
            return model.predict_proba(make_dataset({"x": x}, {"c": ["a", "b"]}, [0, 0],
                                                    vocab=("a", "b")))
        np.testing.assert_allclose(scores([1e160, -1e160]), scores([0.5, 0.5]), rtol=1e-12)


def where_sigmoid(z):
    """The `np.where` logistic function `_sigmoid` replaced."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def masked_sigmoid(z):
    """The masked logistic function `_sigmoid` replaced: the reference."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestAnn:
    def test_sigmoid_equals_masked_reference_bit_for_bit(self):
        tiny = np.finfo(float).smallest_subnormal
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0,
                          tiny, -tiny, 1e3 * tiny, -1e3 * tiny, 1e-300, -1e-300])
        rng = np.random.default_rng(31)
        z = np.concatenate((edges, rng.normal(scale=20.0, size=10**6),
                            rng.uniform(-800.0, 800.0, 1000)))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _sigmoid(z)
        assert np.array_equal(got.view(np.int64), masked_sigmoid(z).view(np.int64))
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_fit_equals_a_fit_with_the_where_link(self, monkeypatch):
        data = random_dataset(np.random.default_rng(19), 120)
        fast = fit_ann(data, AnnParams(epochs=40), seed=3).to_state()
        monkeypatch.setattr(neural, "_sigmoid", where_sigmoid)
        assert fit_ann(data, AnnParams(epochs=40), seed=3).to_state() == fast

    def test_zero_weights_predict_half(self):
        data = make_dataset({"x": [0.0, 3.0, -2.0]}, labels=[0, 1, 0])
        encoder = DummyEncoder.fit(data, standardize=True)
        model = AnnModel(encoder, np.zeros((1, 4)), np.zeros(4), np.zeros(4), 0.0)
        assert np.array_equal(model.predict_proba(data), np.full(3, 0.5))

    def test_fixed_221_forward_matches_hand_arithmetic(self):
        w1 = np.array([[0.1, -0.2], [0.3, 0.4]])
        b1 = np.array([0.05, -0.05])
        w2 = np.array([0.7, -0.6])
        b2 = 0.2
        x = np.array([[1.0, 2.0], [-0.5, 0.25]])
        _, probs = forward(x, w1, b1, w2, b2)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        for i in range(2):
            h1 = sig(x[i, 0] * 0.1 + x[i, 1] * 0.3 + 0.05)
            h2 = sig(x[i, 0] * -0.2 + x[i, 1] * 0.4 - 0.05)
            expected = sig(h1 * 0.7 + h2 * -0.6 + 0.2)
            assert probs[i] == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_central_differences(self):
        x = np.array([[0.2, -1.0], [1.5, 0.3], [-0.7, 0.9],
                      [0.0, 0.0], [2.0, -0.5], [-1.2, 1.1]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
        lam = 1e-4
        eps = 1e-5
        for seed in range(5):
            rng = np.random.default_rng(seed)
            w1 = rng.normal(scale=0.5, size=(2, 3))
            b1 = rng.normal(scale=0.5, size=3)
            w2 = rng.normal(scale=0.5, size=3)
            b2 = float(rng.normal(scale=0.5))
            _, grads = loss_and_gradients(x, y, w1, b1, w2, b2, lam)
            analytic = np.concatenate([grads[0].ravel(), grads[1],
                                       grads[2], [grads[3]]])
            flat = np.concatenate([w1.ravel(), b1, w2, [b2]])

            def loss_at(theta):
                tw1 = theta[:6].reshape(2, 3)
                tb1 = theta[6:9]
                tw2 = theta[9:12]
                tb2 = float(theta[12])
                return loss_and_gradients(x, y, tw1, tb1, tw2, tb2, lam)[0]

            numeric = np.empty_like(flat)
            for k in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[k] += eps
                down[k] -= eps
                numeric[k] = (loss_at(up) - loss_at(down)) / (2 * eps)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(analytic)
            assert rel < 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(16)
        data = random_dataset(rng, 50)
        m1 = fit_ann(data, AnnParams(epochs=20), seed=5)
        m2 = fit_ann(data, AnnParams(epochs=20), seed=5)
        m3 = fit_ann(data, AnnParams(epochs=20), seed=6)
        assert np.array_equal(m1.w1, m2.w1) and m1.b2 == m2.b2
        assert not np.array_equal(m1.w1, m3.w1)

    def test_divergence_raises(self):
        rng = np.random.default_rng(17)
        data = random_dataset(rng, 20)
        with pytest.raises(DivergenceError, match="learning rate"):
            fit_ann(data, AnnParams(learning_rate=1e6, epochs=500), seed=0)

    def test_learns_separable_data(self):
        rng = np.random.default_rng(18)
        n = 200
        x = rng.normal(size=n)
        y = (x > 0).astype(float)
        data = make_dataset({"x": x}, labels=y)
        model = fit_ann(data, AnnParams(), seed=1)
        probs = model.predict_proba(data)
        assert probs[y == 1].mean() > 0.8 and probs[y == 0].mean() < 0.2


class TestDispatchAndPersistence:
    def fixed_dataset(self, seed=20, n=70):
        return random_dataset(np.random.default_rng(seed), n, signal=1.5)

    def spec_for(self, algo):
        params = {"rpart": {"min_node_size": 5},
                  "tree": {"min_node_size": 5},
                  "ctree": {"min_node_size": 10},
                  "bag": {"members": 3, "min_node_size": 10},
                  "ann": {"epochs": 30},
                  "logit": {},
                  "nb": {}}[algo]
        return ClassifierSpec(algo, seed=2, params=params)

    def test_every_algorithm_round_trips(self, tmp_path):
        data = self.fixed_dataset()
        query = self.fixed_dataset(seed=21, n=30)
        for algo in ALGORITHMS:
            model = fit(data, self.spec_for(algo))
            probs = model.predict_proba(query)
            assert probs.shape == (30,)
            assert ((probs >= 0.0) & (probs <= 1.0)).all()
            path = tmp_path / f"{algo}.bin"
            save_model(model, path)
            restored = load_model(path)
            assert np.array_equal(restored.predict_proba(query), probs)

    def test_model_file_is_versioned_json(self, tmp_path):
        model = fit(self.fixed_dataset(), self.spec_for("nb"))
        path = tmp_path / "model.bin"
        save_model(model, path)
        document = json.loads(path.read_text())
        assert document["format"] == "survmix-classifier"
        assert document["version"] == 1
        assert document["algorithm"] == "nb"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(DomainError, match="unknown algorithm"):
            ClassifierSpec("boost")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(DomainError, match="unknown parameter"):
            ClassifierSpec("rpart", params={"depth": 3})

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_zero_rows_rejected_by_every_algorithm(self, algo):
        data = make_dataset({"x": []}, {"c": []}, labels=[])
        with pytest.raises(DomainError, match="cannot fit a classifier on zero rows"):
            fit(data, ClassifierSpec(algo))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_features_checked_before_labels(self, algo):
        # Every fit captures its feature schema before it reads the labels.
        with pytest.raises(DomainError, match="no feature columns"):
            fit(make_dataset(labels=[1.0, np.nan]), ClassifierSpec(algo))

    def test_parameter_classes_are_flat(self):
        # A parameter class's fields are exactly the names a spec accepts.
        names = {"rpart": "cp max_depth min_node_size",
                 "tree": "cp max_depth min_node_size",
                 "ctree": "alpha max_depth min_node_size",
                 "bag": "cp max_depth members min_node_size",
                 "logit": "max_iter",
                 "nb": "variance_floor",
                 "ann": "epochs hidden learning_rate weight_decay"}
        assert tuple(names) == ALGORITHMS
        for algo, entry in _REGISTRY.items():
            params = dataclasses.fields(entry.params)
            assert not any(dataclasses.is_dataclass(f.type) for f in params), algo
            assert sorted(f.name for f in params) == names[algo].split()
            valid = ", ".join(names[algo].split())
            with pytest.raises(DomainError, match=f"; valid: {valid}$"):
                ClassifierSpec(algo, params={"depth": 3})

    def test_string_parameters_coerced(self):
        data = make_dataset({"x": [0, 1, 2, 3]}, labels=[0, 0, 1, 1])
        model = fit(data, ClassifierSpec("rpart", params={"min_node_size": "1",
                                                          "cp": "1e-4"}))
        assert not model.nodes[0]["leaf"]

    def test_invalid_parameter_value_rejected(self):
        with pytest.raises(DomainError, match="expected int"):
            fit(make_dataset({"x": [0, 1]}, labels=[0, 1]),
                ClassifierSpec("rpart", params={"min_node_size": "many"}))

    def test_corrupt_model_file_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_text("not json")
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(path)
        path.write_text(json.dumps({"format": "other"}))
        with pytest.raises(DataError, match="not a classifier"):
            load_model(path)
        path.write_text(json.dumps({"format": "survmix-classifier", "version": 99,
                                    "algorithm": "nb", "state": {}}))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_convergence_error_when_iterations_exhausted(self):
        rng = np.random.default_rng(22)
        n = 200
        x = rng.normal(size=n)
        y = (rng.random(n) < 1 / (1 + np.exp(-3 * x))).astype(float)
        with pytest.raises(ConvergenceError, match="did not converge"):
            fit_logit(make_dataset({"x": x}, labels=y), LogitParams(max_iter=1))
