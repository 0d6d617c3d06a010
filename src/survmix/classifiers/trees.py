"""Binary classification trees.

Three growth strategies share one recursive partitioner:

* ``rpart`` — greedy search over all features maximizing the Gini decrease,
* ``tree`` — the same search with the entropy (deviance) criterion,
* ``ctree`` — per node, a label-permutation test picks the most significant
  feature (Bonferroni-adjusted); the node splits only while the adjusted
  p-value stays below ``alpha``, with the split point then chosen by Gini.

Numeric splits test midpoints between consecutive distinct sorted values and
send ``value <= threshold`` left; ties in quality keep the smallest split
value.  Categorical splits scan prefixes of the node's levels ordered by
positive-class rate (optimal for concave impurities), and store the left
subset as level names.  Unseen levels are routed as the reference level.

The partitioner grows on integer row weights: a row of weight k counts as k
copies of itself and a row of weight 0 is left out.  The single-tree fits
weight every row 1; bagging passes each member's bootstrap counts.  Every
numeric feature is sorted once at the root (a stable argsort), and each node
carries its rows in value order for every numeric feature as one int32
(features, rows) array, which a split partitions stably (SLIQ presorting:
Mehta, Agrawal & Rissanen, EDBT 1996).  One kernel scores all numeric
features of a node at once from weighted cumulative counts and positives, in
blocks of at most `_BLOCK_ELEMENTS` node cells (one feature at least).
Categorical features keep their per-feature scan, with weighted counts.
Splits are scored only at distinct-value boundaries and sums of integer
weights are exact, so a weighted tree equals, node for node, the tree grown
on the rows copied as often as their weights say.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ..rng import substream
from ._encoding import FeatureSchema

_PERM_BLOCK = 256
# Node cells (rows × features) the numeric split kernel scores at once; a
# fixed bound, not a parameter, that keeps its temporaries small.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TreeParams:
    """Stopping rules shared by the greedy criteria."""

    min_node_size: int = 20
    max_depth: int = 30
    cp: float = 1e-4

    def __post_init__(self):
        if self.min_node_size < 1:
            raise DomainError("min_node_size must be at least 1")
        if self.max_depth < 0:
            raise DomainError("max_depth must not be negative")
        if self.cp < 0.0:
            raise DomainError("cp must not be negative")


@dataclass(frozen=True)
class CtreeParams:
    alpha: float = 0.05
    permutations: int = 999
    min_node_size: int = 20
    max_depth: int = 30

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha must be in (0, 1]")
        if self.permutations < 1:
            raise DomainError("permutations must be at least 1")
        if self.min_node_size < 1:
            raise DomainError("min_node_size must be at least 1")
        if self.max_depth < 0:
            raise DomainError("max_depth must not be negative")


def _impurity(p, criterion):
    p = np.asarray(p, dtype=float)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log(p) + q * np.log(q))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def _best_numeric_splits(values, order, weights, positives, criterion):
    """The best split of every numeric feature of one node.

    `values` holds the numeric columns as rows (features × training rows) and
    `order` the node's rows in value order, one row per feature; `weights` and
    `positives` are each training row's weight and weight × label.  Returns
    the decreases (−inf for a feature constant in the node) and thresholds.
    Features are scored in blocks of at most `_BLOCK_ELEMENTS` node cells,
    and of one feature at least.
    """
    n_features, m = order.shape
    gains = np.full(n_features, -np.inf)
    thresholds = np.zeros(n_features)
    if m < 2:
        return gains, thresholds
    flat = values.ravel()
    step = max(1, _BLOCK_ELEMENTS // m)
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
        parent = _impurity(pos / n, criterion)
        child = (n_left * _impurity(pos_left / n_left, criterion)
                 + n_right * _impurity(pos_right / n_right, criterion)) / n
        decrease = np.where(vs[:, 1:] > vs[:, :-1], parent - child, -np.inf)
        best = np.argmax(decrease, axis=1)  # first maximum: smallest split value
        local = features - start
        gains[features] = decrease[local, best]
        thresholds[features] = 0.5 * (vs[local, best] + vs[local, best + 1])
    return gains, thresholds


def _best_categorical_split(codes, weights, weighted_labels, n_levels, criterion):
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
    parent = _impurity(n_pos / n, criterion)
    child = (n_left * _impurity(pos_left / n_left, criterion)
             + n_right * _impurity(pos_right / n_right, criterion)) / n
    decrease = parent - child
    best = int(np.argmax(decrease))
    subset = tuple(sorted(order[:best + 1].tolist()))
    return float(decrease[best]), ("categorical", None, subset)


def _greedy_selector(data, weights, criterion, cp):
    positives = weights * data.y

    def select(rows, order):
        gains, thresholds = _best_numeric_splits(
            data.values, order, weights, positives, criterion)
        row_weights, row_positives = weights[rows], positives[rows]
        best = None
        for name, kind in data.schema.features:
            if kind == "numeric":
                i = data.numeric[name]
                if gains[i] == -np.inf:
                    continue
                found = float(gains[i]), ("numeric", float(thresholds[i]), None)
            else:
                found = _best_categorical_split(
                    data.mapped[name][rows], row_weights, row_positives,
                    len(data.schema.levels[name]), criterion)
                if found is None:
                    continue
            decrease, split = found
            if best is None or decrease > best[0]:
                best = (decrease, name, split)
        if best is None or best[0] < cp:
            return None
        return best[1], best[2]
    return select


def _permutation_pvalues(schema, mapped, y, rows, rng, permutations):
    """One-sided permutation p-values of per-feature association statistics.

    Numeric features use the absolute difference of class means, categorical
    ones the chi-square statistic of the level-by-class table.  All features
    share each permutation of the node labels.
    """
    yb = y[rows].astype(float)
    n = len(rows)
    n1 = yb.sum()
    n0 = n - n1

    numeric_names, numeric_cols = [], []
    cat_blocks = []  # (name, one-hot matrix, level totals)
    for name, kind in schema.features:
        if kind == "numeric":
            v = mapped[name][rows]
            if np.ptp(v) > 0:
                numeric_names.append(name)
                numeric_cols.append(v)
        else:
            codes = mapped[name][rows]
            n_levels = len(schema.levels[name])
            totals = np.bincount(codes, minlength=n_levels).astype(float)
            present = np.flatnonzero(totals > 0)
            if present.size >= 2:
                onehot = (codes[:, None] == present[None, :]).astype(float)
                cat_blocks.append((name, onehot, totals[present]))
    names = numeric_names + [name for name, _, _ in cat_blocks]
    if not names:
        return None

    x_num = np.column_stack(numeric_cols) if numeric_cols else np.empty((n, 0))

    def stats(labels):
        # labels: (n, b) matrix of 0/1 columns
        pieces = []
        if x_num.shape[1]:
            sums = x_num.T @ labels
            mean1 = sums / n1
            mean0 = (x_num.sum(axis=0)[:, None] - sums) / n0
            pieces.append(np.abs(mean1 - mean0))
        for _, onehot, totals in cat_blocks:
            o1 = onehot.T @ labels
            o0 = totals[:, None] - o1
            e1 = totals[:, None] * (n1 / n)
            e0 = totals[:, None] * (n0 / n)
            chi2 = ((o1 - e1) ** 2 / e1 + (o0 - e0) ** 2 / e0).sum(axis=0)
            pieces.append(chi2[None, :])
        return np.vstack(pieces)

    observed = stats(yb[:, None])[:, 0]
    exceed = np.zeros(len(names))
    done = 0
    while done < permutations:
        block = min(_PERM_BLOCK, permutations - done)
        perms = np.empty((n, block))
        for j in range(block):
            perms[:, j] = yb[rng.permutation(n)]
        exceed += (stats(perms) >= observed[:, None]).sum(axis=1)
        done += block
    pvalues = (1.0 + exceed) / (permutations + 1.0)
    return dict(zip(names, pvalues))


def _ctree_selector(data, params, rng):
    kinds = dict(data.schema.features)
    ones = np.ones(len(data.y))

    def select(rows, order):
        pvalues = _permutation_pvalues(data.schema, data.mapped, data.y, rows, rng,
                                       params.permutations)
        if pvalues is None:
            return None
        adjusted = {name: min(1.0, p * len(pvalues)) for name, p in pvalues.items()}
        name = min(adjusted, key=lambda k: (adjusted[k], _feature_rank(data.schema, k)))
        if adjusted[name] >= params.alpha:
            return None
        if kinds[name] == "numeric":
            i = data.numeric[name]
            gains, thresholds = _best_numeric_splits(
                data.values[i:i + 1], order[i:i + 1], ones, data.y, "gini")
            if gains[0] == -np.inf:
                return None
            return name, ("numeric", float(thresholds[0]), None)
        found = _best_categorical_split(data.mapped[name][rows], ones[rows], data.y[rows],
                                        len(data.schema.levels[name]), "gini")
        if found is None:
            return None
        return name, found[1]
    return select


def _feature_rank(schema, name):
    for i, (feature, _) in enumerate(schema.features):
        if feature == name:
            return i
    raise KeyError(name)


class _Encoded:
    """A training set encoded once for tree growing: its schema, the mapped
    columns, the labels, the numeric columns as rows of one matrix and each
    such row's stable argsort (int32)."""

    def __init__(self, train: Dataset):
        self.y = _labels(train)
        self.schema = FeatureSchema.fit(train)
        self.mapped = self.schema.map_columns(train)
        names = [name for name, kind in self.schema.features if kind == "numeric"]
        self.numeric = {name: i for i, name in enumerate(names)}
        self.values = np.array([self.mapped[name] for name in names],
                               dtype=float).reshape(len(names), len(self.y))
        self.order = np.argsort(self.values, axis=1, kind="stable").astype(np.int32)


def _grow(data, weights, select, min_node_size, max_depth):
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
    return nodes


def _grow_greedy(data, weights, criterion, params):
    select = _greedy_selector(data, weights, criterion, params.cp)
    return _grow(data, weights, select, params.min_node_size, params.max_depth)


class DecisionTreeModel:
    """A fitted tree: flat node list, root at index 0."""

    def __init__(self, algorithm, schema, nodes):
        self.algorithm = algorithm
        self.schema = schema
        self.nodes = nodes

    def predict_proba(self, data: Dataset) -> np.ndarray:
        mapped = self.schema.map_columns(data)
        n = data.n_rows
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            index, rows = stack.pop()
            if rows.size == 0:
                continue
            node = self.nodes[index]
            if node["leaf"]:
                out[rows] = node["prob"]
                continue
            name = node["feature"]
            if node["kind"] == "numeric":
                go_left = mapped[name][rows] <= node["threshold"]
            else:
                levels = self.schema.levels[name]
                lut = np.zeros(len(levels), dtype=bool)
                lut[[levels.index(lv) for lv in node["subset"]]] = True
                go_left = lut[mapped[name][rows]]
            stack.append((node["left"], rows[go_left]))
            stack.append((node["right"], rows[~go_left]))
        return out

    def to_state(self) -> dict:
        return {"schema": self.schema.to_state(), "nodes": self.nodes}

    @classmethod
    def from_state(cls, algorithm, state) -> "DecisionTreeModel":
        return cls(algorithm, FeatureSchema.from_state(state["schema"]), state["nodes"])


def _labels(data: Dataset) -> np.ndarray:
    if data.n_rows == 0:
        raise DomainError("cannot fit a classifier on zero rows")
    return data.label_values().astype(float)


def fit_cart(train: Dataset, params: TreeParams) -> DecisionTreeModel:
    return _fit_greedy("rpart", "gini", train, params)


def fit_tree(train: Dataset, params: TreeParams) -> DecisionTreeModel:
    return _fit_greedy("tree", "entropy", train, params)


def _fit_greedy(algorithm, criterion, train, params):
    data = _Encoded(train)
    nodes = _grow_greedy(data, np.ones(len(data.y)), criterion, params)
    return DecisionTreeModel(algorithm, data.schema, nodes)


def fit_ctree(train: Dataset, params: CtreeParams, seed: int = 0) -> DecisionTreeModel:
    data = _Encoded(train)
    select = _ctree_selector(data, params, substream(seed, "ctree"))
    nodes = _grow(data, np.ones(len(data.y)), select, params.min_node_size,
                  params.max_depth)
    return DecisionTreeModel("ctree", data.schema, nodes)
