"""The frontier tree engine against the recursive grower it replaced.

The oracle below is the recursive, one-node-at-a-time `_grow` with its
selectors and split searches, kept as it was apart from an `events` set
that records which stopping rules and corner cases a fit reached, and
ctree's tests, which it computes node by node from the plain closed forms
and ranks by p-value, those that underflow to 0 by their logs.  Every model
the engine grows breadth first (rpart, tree, ctree and each bag member) must
equal the oracle's, grown in preorder, node for node, also with blocks and
frontiers small enough that every depth spans many of them.
"""

import collections

import numpy as np
import pytest

from survmix.classifiers import trees
from survmix.classifiers.bagging import BagParams, bootstrap_indices, fit_bagging
from survmix.classifiers.trees import (
    CtreeParams,
    TreeParams,
    _Encoded,
    fit_cart,
    fit_ctree,
    fit_tree,
)
from survmix.dataset import ColumnSpec, Dataset
from survmix.distributions import chi_square_log_sf, chi_square_sf

# -- the oracle: the recursive grower ------------------------------------------

ORACLE_BLOCK = 1 << 15


def oracle_impurity(p, criterion):
    p = np.asarray(p, dtype=float)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log(p) + q * np.log(q))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def oracle_numeric_splits(values, order, weights, positives, criterion):
    n_features, m = order.shape
    gains = np.full(n_features, -np.inf)
    thresholds = np.zeros(n_features)
    if m < 2:
        return gains, thresholds
    flat = values.ravel()
    step = max(1, ORACLE_BLOCK // m)
    for start in range(0, n_features, step):
        rows = order[start:start + step]
        features = np.arange(start, start + len(rows))
        vs = flat[rows + (features * values.shape[1])[:, None]]
        cum_n = np.cumsum(weights[rows], axis=1)
        cum_pos = np.cumsum(positives[rows], axis=1)
        n, pos = cum_n[0, -1], cum_pos[0, -1]
        n_left, pos_left = cum_n[:, :-1], cum_pos[:, :-1]
        n_right = n - n_left
        pos_right = pos - pos_left
        parent = oracle_impurity(pos / n, criterion)
        child = (n_left * oracle_impurity(pos_left / n_left, criterion)
                 + n_right * oracle_impurity(pos_right / n_right, criterion)) / n
        decrease = np.where(vs[:, 1:] > vs[:, :-1], parent - child, -np.inf)
        best = np.argmax(decrease, axis=1)  # first maximum: smallest split value
        local = features - start
        gains[features] = decrease[local, best]
        thresholds[features] = 0.5 * (vs[local, best] + vs[local, best + 1])
    return gains, thresholds


def oracle_categorical_split(codes, weights, weighted_labels, n_levels, criterion):
    totals = np.bincount(codes, weights=weights, minlength=n_levels)
    positives = np.bincount(codes, weights=weighted_labels, minlength=n_levels)
    present = np.flatnonzero(totals > 0)
    if present.size < 2:
        return None
    rates = positives[present] / totals[present]
    order = present[np.argsort(rates, kind="stable")]  # ties: level order
    n = totals.sum()
    n_pos = positives[present].sum()
    n_left = np.cumsum(totals[order])[:-1]
    pos_left = np.cumsum(positives[order])[:-1]
    n_right = n - n_left
    pos_right = n_pos - pos_left
    parent = oracle_impurity(n_pos / n, criterion)
    child = (n_left * oracle_impurity(pos_left / n_left, criterion)
             + n_right * oracle_impurity(pos_right / n_right, criterion)) / n
    decrease = parent - child
    best = int(np.argmax(decrease))
    subset = tuple(sorted(order[:best + 1].tolist()))
    return float(decrease[best]), ("categorical", None, subset)


def oracle_greedy_selector(data, weights, criterion, cp, events):
    positives = weights * data.y

    def select(rows, order):
        gains, thresholds = oracle_numeric_splits(
            data.values, order, weights, positives, criterion)
        if (gains == -np.inf).any():
            events.add("feature constant in a node")
        row_weights, row_positives = weights[rows], positives[rows]
        best = None
        for name, kind in data.schema.features:
            if kind == "numeric":
                i = data.numeric[name]
                if gains[i] == -np.inf:
                    continue
                found = float(gains[i]), ("numeric", float(thresholds[i]), None)
            else:
                found = oracle_categorical_split(
                    data.mapped[name][rows], row_weights, row_positives,
                    len(data.schema.levels[name]), criterion)
                if found is None:
                    continue
            decrease, split = found
            if best is None or decrease > best[0]:
                best = (decrease, name, split)
        if best is not None and best[0] < cp:
            events.add("cp cut-off")
        if best is None or best[0] < cp:
            return None
        return best[1], best[2]
    return select


def oracle_ctree_tests(data, rows):
    """The closed-form permutation statistic and its degrees of freedom of
    every feature that varies in the node of `rows`, in schema order."""
    y = data.y[rows]
    n, n1 = len(rows), y.sum()
    n0 = n - n1
    tests = {}
    for name, kind in data.schema.features:
        x = data.mapped[name][rows]
        if kind == "numeric":
            if x.min() == x.max():
                continue
            d = x - x.mean()
            variance = n1 * n0 / (n * (n - 1)) * (d * d).sum()
            tests[name] = (d[y == 1].sum() ** 2 / variance, 1)
            continue
        levels = np.unique(x)
        if len(levels) < 2:
            continue
        table = np.array([[np.sum((x == level) & (y == c)) for c in (0, 1)]
                          for level in levels], dtype=float)
        expected = np.outer(table.sum(axis=1), [n0, n1]) / n
        pearson = ((table - expected) ** 2 / expected).sum()
        tests[name] = (pearson * (n - 1) / n, len(levels) - 1)
    return tests


def oracle_ctree_selector(data, params):
    kinds = dict(data.schema.features)
    ones = np.ones(len(data.y))

    def select(rows, order):
        tests = oracle_ctree_tests(data, rows)
        if not tests:
            return None
        adjusted = {name: min(1.0, chi_square_sf(*test) * len(tests))
                    for name, test in tests.items()}

        def rank(name):   # ties: the first in schema order; p = 0 by the log
            return adjusted[name], (chi_square_log_sf(*tests[name])
                                    if adjusted[name] == 0.0 else 0.0)
        name = min(adjusted, key=rank)
        if adjusted[name] >= params.alpha:
            return None
        if kinds[name] == "numeric":
            i = data.numeric[name]
            gains, thresholds = oracle_numeric_splits(
                data.values[i:i + 1], order[i:i + 1], ones, data.y, "gini")
            if gains[0] == -np.inf:
                return None
            return name, ("numeric", float(thresholds[0]), None)
        found = oracle_categorical_split(data.mapped[name][rows], ones[rows],
                                         data.y[rows], len(data.schema.levels[name]),
                                         "gini")
        if found is None:
            return None
        return name, found[1]
    return select


def oracle_grow(data, weights, select, min_node_size, max_depth, events):
    """The flat node list of a tree grown on `data` with integer row weights."""
    nodes = []
    positives = weights * data.y
    goes_left = np.zeros(len(weights), dtype=bool)

    def build(rows, order, depth):
        index = len(nodes)
        nodes.append(None)
        n = float(weights[rows].sum())
        pos = float(positives[rows].sum())
        leaf = {"leaf": True, "n": int(n), "prob": pos / n}
        if depth >= max_depth and not (n <= min_node_size or pos in (0.0, n)):
            events.add("max_depth cut-off")
        if n <= min_node_size or depth >= max_depth or pos in (0.0, n):
            nodes[index] = leaf
            return index
        chosen = select(rows, order)
        if chosen is None:
            nodes[index] = leaf
            return index
        name, (kind, threshold, subset) = chosen
        if kind == "numeric":
            go_left = data.mapped[name][rows] <= threshold
        else:
            lut = np.zeros(len(data.schema.levels[name]), dtype=bool)
            lut[list(subset)] = True
            go_left = lut[data.mapped[name][rows]]
        node = {"leaf": False, "feature": name, "kind": kind, "n": int(n)}
        if kind == "numeric":
            node["threshold"] = threshold
        else:
            node["subset"] = [data.schema.levels[name][c] for c in subset]
        # Split every feature's value order stably by the side each row takes.
        goes_left[rows] = go_left
        in_left = goes_left[order]
        left, right = rows[go_left], rows[~go_left]
        left_order = order[in_left].reshape(len(order), left.size)
        right_order = order[~in_left].reshape(len(order), right.size)
        node["left"] = build(left, left_order, depth + 1)
        node["right"] = build(right, right_order, depth + 1)
        nodes[index] = node
        return index

    sampled = weights > 0
    rows = np.flatnonzero(sampled)
    build(rows, data.order[sampled[data.order]].reshape(len(data.order), rows.size), 0)
    if any(node["n"] == min_node_size for node in nodes):
        events.add("node at exactly min_node_size")
    return nodes


def oracle_greedy(train, weights, criterion, params, events=None):
    data = _Encoded(train)
    events = set() if events is None else events
    select = oracle_greedy_selector(data, weights, criterion, params.cp, events)
    return oracle_grow(data, weights, select, params.min_node_size, params.max_depth,
                       events)


def oracle_ctree(train, params):
    data = _Encoded(train)
    select = oracle_ctree_selector(data, params)
    return oracle_grow(data, np.ones(len(data.y)), select, params.min_node_size,
                       params.max_depth, set())


def oracle_bag(train, params, seed, events=None):
    n = train.n_rows
    return [oracle_greedy(train, np.bincount(bootstrap_indices(seed, t, n),
                                             minlength=n).astype(float),
                          "gini", params, events)
            for t in range(params.members)]


# -- fixtures ------------------------------------------------------------------

LEVELS = ("a", "b", "c", "d", "e")


def dataset(seed, n, n_numeric=3, n_categorical=1, discrete=True, n_levels=5):
    """Labels tied to the first numeric feature and to the first two levels;
    with `discrete`, the second numeric feature takes four values (ties, and
    constant in small nodes); the last level is rare."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n).astype(float)
    specs, columns = [], {}
    for j in range(n_numeric):
        x = rng.normal(size=n) + (y if j == 0 else 0.0)
        if discrete and j == 1:
            x = rng.integers(0, 4, n).astype(float)
        specs.append(ColumnSpec(f"x{j}", "numeric", "feature"))
        columns[f"x{j}"] = x
    vocab = LEVELS[:n_levels]
    for j in range(n_categorical):
        p = np.r_[np.ones(n_levels - 1), 0.01]
        codes = rng.choice(n_levels, size=n, p=p / p.sum())
        if n_levels > 1:
            codes = np.where(rng.random(n) < 0.4, y.astype(int), codes)
        codes[:n_levels] = np.arange(n_levels)[:n]  # every level observed
        specs.append(ColumnSpec(f"c{j}", "categorical", "feature", vocab))
        columns[f"c{j}"] = codes.astype(np.int32)
    specs.append(ColumnSpec("label", "numeric", "label"))
    columns["label"] = y
    return Dataset(specs, columns)


def underflow_dataset(seed, n=2000):
    """`dataset`'s mixed shape plus two numeric features so close to the
    labels that their p-values underflow to 0 at the root, the later one
    the closer: ctree must tell them apart by their logs."""
    train = dataset(seed, n)
    rng = np.random.default_rng(seed)
    for name, noise in (("close", 0.28), ("closer", 0.2)):
        train = train.with_column(ColumnSpec(name, "numeric", "feature"),
                                  train.label_values() + noise * rng.normal(size=n))
    return train


SHAPES = {
    "mixed": dict(n=300),
    "numeric only": dict(n=200, n_categorical=0),
    "categorical only": dict(n=200, n_numeric=0, n_categorical=2),
    "continuous": dict(n=250, discrete=False),
    "one level": dict(n=60, n_levels=1),
    "two rows": dict(n=2),
    "one row": dict(n=1),
}
GREEDY_PARAMS = [TreeParams(), TreeParams(min_node_size=3, max_depth=6, cp=0.0),
                 TreeParams(min_node_size=1, cp=0.01)]


# -- the engine against the oracle ---------------------------------------------

class TestFrontierEngine:
    @pytest.mark.parametrize("params", GREEDY_PARAMS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_trees_equal_oracle(self, shape, params):
        train = dataset(len(shape), **SHAPES[shape])
        ones = np.ones(train.n_rows)
        assert fit_cart(train, params).nodes == oracle_greedy(train, ones, "gini", params)
        assert fit_tree(train, params).nodes == oracle_greedy(train, ones, "entropy",
                                                              params)

    @pytest.mark.parametrize("shape", ["mixed", "numeric only", "categorical only",
                                       "one level", "two rows"])
    def test_bag_members_equal_oracle(self, shape):
        train = dataset(40 + len(shape), **SHAPES[shape])
        params = BagParams(members=7, min_node_size=4, cp=0.0)
        bag = fit_bagging(train, params, seed=5)
        assert [tree.nodes for tree in bag.trees] == oracle_bag(train, params, 5)

    @pytest.mark.parametrize("shape, seed", [
        (shape, seed) for shape in ("mixed", "numeric only", "categorical only")
        for seed in (0, 1, 2)] + [("underflow", 0)])
    def test_ctree_equals_oracle(self, shape, seed):
        if shape == "underflow":
            train = underflow_dataset(seed)
            tests = oracle_ctree_tests(_Encoded(train), np.arange(train.n_rows))
            assert chi_square_sf(*tests["close"]) == chi_square_sf(*tests["closer"]) == 0.0
        else:
            train = dataset(60 + seed, **SHAPES[shape])
        params = CtreeParams(min_node_size=8)
        model = fit_ctree(train, params)
        assert len(model.nodes) > 1
        assert model.nodes == oracle_ctree(train, params)

    @pytest.mark.parametrize("frontier", [None, 1])
    def test_block_boundaries_keep_every_node(self, frontier, monkeypatch):
        # Grown with the default bounds, then with 64-cell blocks (every
        # depth spans many blocks) and, in the second case, one tree per
        # frontier.  The fixture must reach each stopping rule and corner
        # case the engine handles.
        train = dataset(7, 240, n_numeric=4)
        params = BagParams(members=12, min_node_size=6, max_depth=5, cp=0.004)
        events = set()
        expected_bag = oracle_bag(train, params, 9, events)
        expected_cart = oracle_greedy(train, np.ones(train.n_rows), "gini", params, events)
        assert events == {"node at exactly min_node_size", "max_depth cut-off",
                          "cp cut-off", "feature constant in a node"}
        codes = train.codes("c0")
        assert any(len(collections.Counter(codes[bootstrap_indices(9, t, 240)]))
                   < len(LEVELS) for t in range(params.members))
        default_bag = fit_bagging(train, params, seed=9)
        default_cart = fit_cart(train, params)

        monkeypatch.setattr(trees, "_BLOCK_ELEMENTS", 64)
        if frontier is not None:
            monkeypatch.setattr(trees, "_FRONTIER_ELEMENTS", frontier)
        bag = fit_bagging(train, params, seed=9)
        cart = fit_cart(train, params)
        assert [tree.nodes for tree in bag.trees] == expected_bag
        assert [tree.nodes for tree in default_bag.trees] == expected_bag
        assert cart.nodes == default_cart.nodes == expected_cart
        assert [tree.schema.to_state() for tree in bag.trees] == \
            [tree.schema.to_state() for tree in default_bag.trees]
