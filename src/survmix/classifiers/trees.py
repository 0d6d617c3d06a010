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
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ..rng import substream
from ._encoding import FeatureSchema

_PERM_BLOCK = 256


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


def _best_numeric_split(values, y, criterion):
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
    parent = _impurity(cum_pos[-1] / n, criterion)
    child = (n_left * _impurity(pos_left / n_left, criterion)
             + n_right * _impurity(pos_right / n_right, criterion)) / n
    decrease = parent - child
    best = int(np.argmax(decrease))  # first maximum: smallest split value
    threshold = 0.5 * (vs[boundaries[best]] + vs[boundaries[best] + 1])
    return float(decrease[best]), ("numeric", float(threshold), None)


def _best_categorical_split(codes, y, n_levels, criterion):
    totals = np.bincount(codes, minlength=n_levels).astype(float)
    positives = np.bincount(codes, weights=y, minlength=n_levels)
    present = np.flatnonzero(totals > 0)
    if present.size < 2:
        return None
    rates = positives[present] / totals[present]
    order = present[np.lexsort((present, rates))]
    n = float(len(codes))
    n_left = np.cumsum(totals[order])[:-1]
    pos_left = np.cumsum(positives[order])[:-1]
    n_right = n - n_left
    pos_right = positives[present].sum() - pos_left
    parent = _impurity(positives[present].sum() / n, criterion)
    child = (n_left * _impurity(pos_left / n_left, criterion)
             + n_right * _impurity(pos_right / n_right, criterion)) / n
    decrease = parent - child
    best = int(np.argmax(decrease))
    subset = tuple(sorted(int(c) for c in order[:best + 1]))
    return float(decrease[best]), ("categorical", None, subset)


def _greedy_selector(schema, mapped, y, criterion, cp):
    def select(rows):
        best = None
        for name, kind in schema.features:
            if kind == "numeric":
                found = _best_numeric_split(mapped[name][rows], y[rows], criterion)
            else:
                found = _best_categorical_split(
                    mapped[name][rows], y[rows], len(schema.levels[name]), criterion)
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


def _ctree_selector(schema, mapped, y, params, rng):
    kinds = dict(schema.features)

    def select(rows):
        pvalues = _permutation_pvalues(schema, mapped, y, rows, rng, params.permutations)
        if pvalues is None:
            return None
        adjusted = {name: min(1.0, p * len(pvalues)) for name, p in pvalues.items()}
        name = min(adjusted, key=lambda k: (adjusted[k], _feature_rank(schema, k)))
        if adjusted[name] >= params.alpha:
            return None
        if kinds[name] == "numeric":
            found = _best_numeric_split(mapped[name][rows], y[rows], "gini")
        else:
            found = _best_categorical_split(
                mapped[name][rows], y[rows], len(schema.levels[name]), "gini")
        if found is None:
            return None
        return name, found[1]
    return select


def _feature_rank(schema, name):
    for i, (feature, _) in enumerate(schema.features):
        if feature == name:
            return i
    raise KeyError(name)


def _grow(schema, mapped, y, select, min_node_size, max_depth):
    nodes = []

    def build(rows, depth):
        index = len(nodes)
        nodes.append(None)
        n = rows.size
        pos = float(y[rows].sum())
        leaf = {"leaf": True, "n": int(n), "prob": pos / n}
        if n <= min_node_size or depth >= max_depth or pos in (0.0, n):
            nodes[index] = leaf
            return index
        chosen = select(rows)
        if chosen is None:
            nodes[index] = leaf
            return index
        name, (kind, threshold, subset) = chosen
        if kind == "numeric":
            go_left = mapped[name][rows] <= threshold
        else:
            lut = np.zeros(len(schema.levels[name]), dtype=bool)
            lut[list(subset)] = True
            go_left = lut[mapped[name][rows]]
        node = {"leaf": False, "feature": name, "kind": kind, "n": int(n)}
        if kind == "numeric":
            node["threshold"] = threshold
        else:
            node["subset"] = [schema.levels[name][c] for c in subset]
        node["left"] = build(rows[go_left], depth + 1)
        node["right"] = build(rows[~go_left], depth + 1)
        nodes[index] = node
        return index

    build(np.arange(len(y)), 0)
    return nodes


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
    y = _labels(train)
    schema = FeatureSchema.fit(train)
    mapped = schema.map_columns(train)
    select = _greedy_selector(schema, mapped, y, criterion, params.cp)
    nodes = _grow(schema, mapped, y, select, params.min_node_size, params.max_depth)
    return DecisionTreeModel(algorithm, schema, nodes)


def fit_ctree(train: Dataset, params: CtreeParams, seed: int = 0) -> DecisionTreeModel:
    y = _labels(train)
    schema = FeatureSchema.fit(train)
    mapped = schema.map_columns(train)
    rng = substream(seed, "ctree")
    select = _ctree_selector(schema, mapped, y, params, rng)
    nodes = _grow(schema, mapped, y, select, params.min_node_size, params.max_depth)
    return DecisionTreeModel("ctree", schema, nodes)
