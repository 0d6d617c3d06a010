import itertools
import json
import math

import numpy as np
import pytest

from survmix.classifiers import (
    ALGORITHMS,
    ClassifierSpec,
    fit,
    load_model,
    save_model,
)
from survmix.classifiers._encoding import DummyEncoder, FeatureSchema
from survmix.classifiers.bagging import BagParams, bootstrap_indices, fit_bagging
from survmix.classifiers.logistic import LogitModel, LogitParams, fit_logit
from survmix.classifiers.naive_bayes import NbParams, fit_naive_bayes
from survmix.classifiers.neural import (
    AnnModel,
    AnnParams,
    fit_ann,
    forward,
    loss_and_gradients,
)
from survmix.classifiers.trees import (
    CtreeParams,
    TreeParams,
    _permutation_pvalues,
    fit_cart,
    fit_ctree,
    fit_tree,
)
from survmix.dataset import ColumnSpec, Dataset
from survmix.errors import (
    ConvergenceError,
    DataError,
    DivergenceError,
    DomainError,
    SeparationError,
)
from survmix.rng import substream

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


class TestCtree:
    def pvalues(self, data, seed, permutations):
        schema = FeatureSchema.fit(data)
        mapped = schema.map_columns(data)
        y = data.label_values().astype(float)
        return _permutation_pvalues(schema, mapped, y, np.arange(data.n_rows),
                                    substream(seed, "oracle"), permutations)

    def null_fixture(self, data_seed):
        rng = np.random.default_rng(data_seed)
        x = rng.normal(size=100)
        y = np.repeat([0.0, 1.0], 50)[rng.permutation(100)]
        return make_dataset({"x": x}, labels=y)

    def test_independent_feature_not_split(self):
        data = self.null_fixture(0)
        assert self.pvalues(data, 0, 10_000)["x"] >= 0.05
        model = fit_ctree(data, CtreeParams(min_node_size=5), seed=0)
        assert model.nodes[0]["leaf"]

    def test_null_rarely_splits_across_seeds(self):
        leaves = sum(
            fit_ctree(self.null_fixture(s), CtreeParams(min_node_size=5),
                      seed=s).nodes[0]["leaf"]
            for s in range(40))
        assert leaves >= 35  # alpha = 0.05 false-split rate

    def test_aligned_feature_minimal_pvalue(self):
        x = np.repeat([0.0, 1.0], 50)
        data = make_dataset({"x": x}, labels=x)
        p = self.pvalues(data, 0, 10_000)["x"]
        assert p == pytest.approx(1.0 / 10_001, rel=1e-12)
        model = fit_ctree(data, CtreeParams(min_node_size=5), seed=0)
        assert model.nodes[0]["threshold"] == 0.5
        assert np.array_equal(model.predict_proba(data), x)

    def test_zero_variance_feature_excluded(self):
        x = np.repeat([0.0, 1.0], 20)
        data = make_dataset({"flat": np.zeros(40), "x": x}, labels=x)
        model = fit_ctree(data, CtreeParams(min_node_size=5), seed=1)
        assert model.nodes[0]["feature"] == "x"
        flat_only = make_dataset({"flat": np.zeros(40)}, labels=x)
        assert fit_ctree(flat_only, CtreeParams(min_node_size=5), seed=1).nodes[0]["leaf"]

    def test_bonferroni_adjustment_blocks_weak_evidence(self):
        # One perfectly aligned feature: raw p = 1/(B+1) = 0.01 with B = 99.
        # Alone it clears alpha = 0.02; among 30 noise features the Bonferroni
        # factor pushes the adjusted p-value past alpha and growth stops.
        rng = np.random.default_rng(42)
        x = np.repeat([0.0, 1.0], 30)
        strong = {"x": x}
        model = fit_ctree(make_dataset(strong, labels=x),
                          CtreeParams(alpha=0.02, permutations=99, min_node_size=5),
                          seed=3)
        assert not model.nodes[0]["leaf"]
        noisy = dict(strong)
        for j in range(30):
            noisy[f"n{j}"] = rng.normal(size=60)
        model = fit_ctree(make_dataset(noisy, labels=x),
                          CtreeParams(alpha=0.02, permutations=99, min_node_size=5),
                          seed=3)
        assert model.nodes[0]["leaf"]

    def test_categorical_association_detected(self):
        values = ["a"] * 20 + ["b"] * 20
        y = np.repeat([1.0, 0.0], 20)
        data = make_dataset(categorical={"c": values}, labels=y, vocab=("a", "b"))
        model = fit_ctree(data, CtreeParams(min_node_size=5), seed=0)
        root = model.nodes[0]
        assert root["feature"] == "c" and root["subset"] in (["a"], ["b"])

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 80, signal=1.5)
        m1 = fit_ctree(data, CtreeParams(min_node_size=10), seed=4)
        m2 = fit_ctree(data, CtreeParams(min_node_size=10), seed=4)
        assert m1.nodes == m2.nodes


class TestBagging:
    def test_identity_sample_hook_equals_cart(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 100, signal=1.5)
        bag = fit_bagging(data, BagParams(members=1, tree=TreeParams(min_node_size=5),
                                          bootstrap=False), seed=0)
        cart = fit_cart(data, TreeParams(min_node_size=5))
        assert bag.trees[0].nodes == cart.nodes
        assert np.array_equal(bag.predict_proba(data), cart.predict_proba(data))

    def test_ensemble_is_mean_of_recomputed_members(self):
        rng = np.random.default_rng(11)
        train = random_dataset(rng, 120, signal=1.0)
        test = random_dataset(np.random.default_rng(12), 40, signal=1.0)
        params = TreeParams(min_node_size=10)
        bag = fit_bagging(train, BagParams(members=3, tree=params), seed=7)
        members = []
        for t in range(3):
            sample = train.take_rows(bootstrap_indices(7, t, train.n_rows))
            members.append(fit_cart(sample, params).predict_proba(test))
        assert np.array_equal(bag.predict_proba(test), np.mean(members, axis=0))

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

    def test_reference_level_choice_does_not_change_fit(self):
        rng = np.random.default_rng(14)
        n = 60
        values = [VOCAB[i] for i in rng.integers(0, 3, n)]
        x = rng.normal(size=n)
        shift = (np.array([VOCAB.index(v) for v in values]) == 1).astype(float)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(x + shift)))).astype(float)
        data = make_dataset({"x": x}, {"c": values}, y)
        reference_a = fit_logit(data, LogitParams(), reference={"c": "a"})
        reference_c = fit_logit(data, LogitParams(), reference={"c": "c"})
        assert reference_a.coefficient_names != reference_c.coefficient_names
        np.testing.assert_allclose(reference_a.predict_proba(data),
                                   reference_c.predict_proba(data), atol=1e-8)

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


class TestAnn:
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
                  "ctree": {"permutations": 99, "min_node_size": 10},
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
