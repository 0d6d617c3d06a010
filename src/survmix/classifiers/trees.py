"""Binary classification trees.

Three growth strategies share one frontier engine (`_grow`):

* ``rpart`` — greedy search over all features maximizing the Gini decrease,
* ``tree`` — the same search with the entropy (deviance) criterion,
* ``ctree`` — conditional inference (Hothorn, Hornik & Zeileis 2006): per
  node, the closed-form permutation test of each feature's association with
  the label picks the most significant feature (Bonferroni-adjusted); the
  node splits only while the adjusted p-value stays below ``alpha``, at that
  feature's Gini split.

Numeric splits test midpoints between consecutive distinct sorted values and
send ``value <= threshold`` left; ties in quality keep the smallest split
value.  Categorical splits scan prefixes of the node's levels ordered by
positive-class rate (optimal for concave impurities), and store the left
subset as level names.  Unseen levels are routed as the reference level.

The engine grows on integer row weights: a row of weight k counts as k
copies of itself and a row of weight 0 is left out.  The single-tree fits
weight every row 1; bagging passes each member's bootstrap counts.  Every
numeric feature is sorted once at the root (a stable argsort).  A frontier
is a set of open nodes grown together.  For each numeric feature it keeps
one integer row that lists every node's rows in value order, node after
node, and a last row lists them in row order (SLIQ presorting: Mehta,
Agrawal & Rissanen, EDBT 1996; Shafer, Agrawal & Mehta's SPRINT, VLDB 1996).

Every tree grows breadth first: one frontier holds every open node of one
depth in every tree grown together, which for bagging is as many members as
`_FRONTIER_ELEMENTS` allows.  One segmented kernel scores all numeric
features of all those nodes from weighted cumulative counts and positives;
each categorical feature is scored from one `bincount` over (node, level)
keys; the criteria differ only in how they choose a feature among these
splits; and one stable pass per row sends each node's rows to its children.
Each tree's node list is rebuilt in preorder from parent links.  The kernels
work in blocks of at most `_BLOCK_ELEMENTS` cells.  Splits are scored only at
distinct-value boundaries and sums of integer weights are exact, so a
weighted tree equals, node for node, the tree grown on the rows copied as
often as their weights say, and a tree grown among others equals the tree
grown alone.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..distributions import chi_square_log_sf
from ..errors import DomainError
from ._encoding import FeatureSchema

# Cells the split kernels score at once; a fixed bound, not a parameter, that
# keeps their temporaries small.
_BLOCK_ELEMENTS = 1 << 15
# Entries (rows × (numeric features + 1)) of the root frontier of the trees
# grown together: a fixed bound on the frontier's own arrays (4 MB as int32),
# so that a bag fit adds little to the pipeline's peak memory.
_FRONTIER_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class _StopRules:
    """Stopping rules shared by every tree."""

    min_node_size: int = 20
    max_depth: int = 30

    def __post_init__(self):
        if self.min_node_size < 1:
            raise DomainError("min_node_size must be at least 1")
        if self.max_depth < 0:
            raise DomainError("max_depth must not be negative")


@dataclass(frozen=True)
class TreeParams(_StopRules):
    """The stopping rules of the greedy criteria."""

    cp: float = 1e-4

    def __post_init__(self):
        super().__post_init__()
        if self.cp < 0.0:
            raise DomainError("cp must not be negative")


@dataclass(frozen=True)
class CtreeParams(_StopRules):
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha must be in (0, 1]")
        super().__post_init__()


def _impurity(p, criterion):
    p = np.asarray(p, dtype=float)
    if criterion == "gini":
        return 2.0 * p * (1.0 - p)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(p * np.log(p) + q * np.log(q))
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def _segment_blocks(starts, per_segment=0):
    """Ranges [first, last) of consecutive segments (segment s spans positions
    `starts[s]:starts[s + 1]`) whose positions, plus `per_segment` cells for
    each segment, number at most `_BLOCK_ELEMENTS`; one segment at least."""
    cost = starts + per_segment * np.arange(len(starts))
    first, n_segments = 0, len(starts) - 1
    while first < n_segments:
        last = int(np.searchsorted(cost, cost[first] + _BLOCK_ELEMENTS, "right")) - 1
        last = min(max(last, first + 1), n_segments)
        yield first, last
        first = last


def _best_numeric_splits(values, order, starts, offsets, weights, positives, criterion):
    """The best split of every numeric feature in every segment of a frontier.

    `values` holds the numeric columns as rows (features × training rows).
    Row f of `order` lists the segments one after another, segment s at
    positions `starts[s]:starts[s + 1]` (never empty) holding one node's rows
    in the value order of feature f, as indices into `weights` and
    `positives` (each row's weight and weight × label): the row plus
    `offsets[s]`.  Returns the decreases (−inf for a feature constant in the
    segment) and thresholds, segments × features.

    Whole segments, at most `_BLOCK_ELEMENTS` positions of them (one segment
    at least), are scored for as many features as keep the block within
    `_BLOCK_ELEMENTS` cells (one feature at least).  The weights are integers
    held in floats, so one running sum over the block, set back at each
    segment's head by the previous segment's total, gives every node its own
    cumulative counts exactly.
    """
    n_features = len(order)
    gains = np.full((len(starts) - 1, n_features), -np.inf)
    thresholds = np.zeros(gains.shape)
    if not n_features:
        return gains, thresholds
    flat, n_rows = values.ravel(), values.shape[1]
    pairs = weights + 1j * positives
    for first, last in _segment_blocks(starts):
        span = slice(starts[first], starts[last])
        lengths = np.diff(starts[first:last + 1])
        heads = starts[first:last] - starts[first]
        ends = heads + lengths - 1
        width = len(order[0, span])
        # What every feature shares: each position's node offset, node totals
        # and parent impurity.
        shift = np.repeat(offsets[first:last], lengths)
        totals = np.add.reduceat(pairs.take(order[0, span]), heads)
        n, pos = totals.real, totals.imag
        n_at, pos_at = np.repeat(n, lengths), np.repeat(pos, lengths)
        segment = np.repeat(np.arange(last - first), lengths)
        parent = np.repeat(_impurity(pos / n, criterion), lengths)
        step = max(1, _BLOCK_ELEMENTS // width)
        for f0 in range(0, n_features, step):
            ids = order[f0:f0 + step, span]
            features = slice(f0, f0 + len(ids))
            cells = np.subtract(ids, shift, dtype=np.intp)
            cells += (np.arange(f0, f0 + len(ids)) * n_rows)[:, None]
            vs = flat.take(cells)
            # Weights and positives run in one complex cumulative sum.
            cum = pairs.take(ids)
            cum[:, heads[1:]] -= totals[:-1]
            np.cumsum(cum, axis=1, out=cum)
            n_left, pos_left = cum.real, cum.imag
            n_right = n_at - n_left
            pos_right = pos_at - pos_left
            with np.errstate(divide="ignore", invalid="ignore"):  # n_right = 0 at ends
                child = n_left * _impurity(pos_left / n_left, criterion)
                child += n_right * _impurity(pos_right / n_right, criterion)
            child /= n_at
            decrease = np.subtract(parent, child, out=child)
            constant = np.ones(ids.shape, dtype=bool)
            np.less_equal(vs[:, 1:], vs[:, :-1], out=constant[:, :-1])
            constant[:, ends] = True  # no split past a segment's last row
            np.copyto(decrease, -np.inf, where=constant)
            best_gain = np.maximum.reduceat(decrease, heads, axis=1)
            # The first maximum of each segment, the smallest split value: the
            # first hit where the (feature, segment) pair changes.
            hits = np.flatnonzero(decrease == np.repeat(best_gain, lengths, axis=1))
            pair = hits // width * (last - first) + segment[hits % width]
            firsts = hits[np.flatnonzero(np.diff(pair, prepend=-1))]
            best = (firsts % width).reshape(best_gain.shape)
            local = np.arange(len(ids))[:, None]
            upper = vs[local, np.minimum(best + 1, width - 1)]
            gains[first:last, features] = best_gain.T
            thresholds[first:last, features] = (0.5 * (vs[local, best] + upper)).T
    return gains, thresholds


def _best_categorical_splits(codes, n_levels, starts, weights, positives, criterion):
    """The best split of one categorical feature in every segment.

    `codes`, `weights` and `positives` give each position's level code,
    weight and weight × label; segment s spans `starts[s]:starts[s + 1]`.  A
    segment's present levels are ordered by positive rate (ties in level
    order) and each proper prefix is a candidate left side.  Returns the
    decreases (−inf where fewer than two levels are present) and whether each
    level goes left, segments × levels.  Blocks of whole segments keep the
    positions plus the segments × levels tables within `_BLOCK_ELEMENTS`.
    """
    gains = np.full(len(starts) - 1, -np.inf)
    left = np.zeros((len(gains), n_levels), dtype=bool)
    if n_levels < 2:
        return gains, left
    for first, last in _segment_blocks(starts, n_levels):
        count, span = last - first, slice(starts[first], starts[last])
        keys = (np.repeat(np.arange(count), np.diff(starts[first:last + 1])) * n_levels
                + codes[span])
        totals = np.bincount(keys, weights=weights[span], minlength=count * n_levels)
        pos = np.bincount(keys, weights=positives[span], minlength=count * n_levels)
        totals, pos = totals.reshape(count, n_levels), pos.reshape(count, n_levels)
        present = totals > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(present, pos / totals, np.inf)
        order = np.argsort(rates, axis=1, kind="stable")  # absent levels last
        n = totals.sum(axis=1)[:, None]
        n_pos = pos.sum(axis=1)[:, None]
        n_left = np.cumsum(np.take_along_axis(totals, order, axis=1), axis=1)[:, :-1]
        pos_left = np.cumsum(np.take_along_axis(pos, order, axis=1), axis=1)[:, :-1]
        n_right = n - n_left
        pos_right = n_pos - pos_left
        parent = _impurity(n_pos / n, criterion)
        with np.errstate(divide="ignore", invalid="ignore"):  # n_right = 0 past them
            child = (n_left * _impurity(pos_left / n_left, criterion)
                     + n_right * _impurity(pos_right / n_right, criterion)) / n
        valid = np.arange(n_levels - 1) < present.sum(axis=1)[:, None] - 1
        decrease = np.where(valid, parent - child, -np.inf)
        best = np.argmax(decrease, axis=1)  # first maximum
        gains[first:last] = decrease[np.arange(count), best]
        np.put_along_axis(left[first:last], order,
                          np.arange(n_levels) <= best[:, None], axis=1)
    return gains, left


class _Frontier:
    """Open nodes that are scored and split together.

    Row f of `order` (int32 or int64) lists node s at positions
    `starts[s]:starts[s + 1]`: its rows in the value order of numeric feature
    f, and in ascending order in the last row.  An entry is a row plus the
    node's offset, tree × training rows, so that it indexes the flat weights.
    `nodes` holds the node ids, `rows` and `segment` each position's row and
    node.
    """

    def __init__(self, order, starts, offsets, nodes, depth):
        self.order, self.starts, self.offsets = order, starts, offsets
        self.nodes, self.depth = nodes, depth
        self.segment = np.repeat(np.arange(len(nodes)), np.diff(starts))
        self.rows = order[-1] - offsets[self.segment]


def _splits(data, frontier, weights, positives, criterion):
    """Every feature's best split in every node of `frontier`, features in
    schema order: the impurity decreases (−inf where the feature cannot split
    the node), the thresholds of the numeric features and, per categorical
    feature, segments × levels masks of the levels sent left."""
    order, starts = frontier.order, frontier.starts
    numeric_gains, numeric_thresholds = _best_numeric_splits(
        data.values, order[:-1], starts, frontier.offsets, weights, positives, criterion)
    gain = np.empty((len(frontier.nodes), len(data.schema.features)))
    threshold = np.zeros(gain.shape)
    left = {}
    row_weights, row_positives = weights[order[-1]], positives[order[-1]]
    for j, (name, kind) in enumerate(data.schema.features):
        if kind == "numeric":
            gain[:, j] = numeric_gains[:, data.numeric[name]]
            threshold[:, j] = numeric_thresholds[:, data.numeric[name]]
        else:
            gain[:, j], left[name] = _best_categorical_splits(
                data.mapped[name][frontier.rows], len(data.schema.levels[name]),
                starts, row_weights, row_positives, criterion)
    return gain, threshold, left


# A chooser maps a frontier and its nodes × features decreases from `_splits`
# to the feature each node splits on, as its index in the schema (−1: none).

def _greedy_chooser(cp):
    """The feature of largest decrease, the first in schema order among
    equals; none when that decrease is below `cp` or no feature splits."""

    def choose(frontier, gain):
        feature = np.argmax(gain, axis=1)
        return np.where(gain[np.arange(len(feature)), feature] < cp, -1, feature)
    return choose


def _ctree_statistics(data, rows, starts):
    """Each feature's conditional-inference statistic in each node and its
    degrees of freedom, nodes × features in schema order; node s holds
    `rows[starts[s]:starts[s + 1]]`, of both classes, every weight 1.

    A numeric feature's statistic is the standardized linear statistic
    T = Σ_{y=1} x of Strasser & Weber (1999): (T − E T)² / Var T under
    permutations of the node's labels, with E T = n₁x̄ and
    Var T = n₁n₀/(n(n − 1)) Σ(x − x̄)², on one degree of freedom.  A
    categorical feature's is Pearson's χ² on the present-level × class table
    times (n − 1)/n, their quadratic form, on k − 1 degrees of freedom for k
    present levels.  Sums run node by node (`reduceat`, `bincount`), one
    feature at a time and never through BLAS.  Values where a feature is
    constant in a node are meaningless."""
    heads, lengths = starts[:-1], np.diff(starts)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    y = data.y[rows]
    n = lengths.astype(float)
    n1 = np.add.reduceat(y, heads)
    n0 = n - n1
    statistic = np.empty((len(n), len(data.schema.features)))
    df = np.ones(statistic.shape)
    for j, (name, kind) in enumerate(data.schema.features):
        if kind == "numeric":
            column = data.values[data.numeric[name]][rows]
            # The statistic does not depend on scale, and a power-of-two
            # scale is exact: bring the column to unit size, so that its
            # squares neither overflow nor underflow.
            peak = np.abs(column).max()
            if np.isfinite(peak) and peak > 0.0:
                column = np.ldexp(column, -np.frexp(peak)[1])
            centred = column - np.repeat(np.add.reduceat(column, heads) / n, lengths)
            t = np.add.reduceat(centred * y, heads)
            variance = n1 * n0 / (n * (n - 1.0)) * np.add.reduceat(centred * centred,
                                                                    heads)
            with np.errstate(divide="ignore", invalid="ignore"):
                statistic[:, j] = t * t / variance
            continue
        n_levels = len(data.schema.levels[name])
        keys = segment * n_levels + data.mapped[name][rows]
        totals = np.bincount(keys, minlength=len(n) * n_levels).reshape(-1, n_levels)
        pos = np.bincount(keys, y, minlength=len(n) * n_levels).reshape(-1, n_levels)
        deviation = pos - totals * (n1 / n)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(totals > 0, deviation * deviation / totals, 0.0)
        statistic[:, j] = n * (n - 1.0) / (n1 * n0) * terms.sum(axis=1)
        df[:, j] = np.count_nonzero(totals, axis=1) - 1
    return statistic, df


def _ctree_chooser(data, alpha):
    """The feature of smallest Bonferroni-adjusted p-value, the first in
    schema order among equals; none unless that p-value is below `alpha`.
    A feature is tested in a node where it can split it, and the adjustment
    multiplies by the number of such features.  p-values are compared by
    their logs, log p + log(count) against log(alpha), so that one whose p
    underflows to 0 still ranks by its size."""
    log_alpha = math.log(alpha)

    def choose(frontier, gain):
        testable = gain > -np.inf
        statistic, df = _ctree_statistics(data, frontier.rows, frontier.starts)
        tested = testable.sum(axis=1)
        # An untested feature keeps log p = +inf, which no alpha accepts.
        log_adjusted = np.full(statistic.shape, np.inf)
        for s, j in zip(*np.nonzero(testable)):
            log_adjusted[s, j] = (chi_square_log_sf(statistic[s, j], df[s, j])
                                  + math.log(tested[s]))
        feature = np.argmin(log_adjusted, axis=1)
        chosen = log_adjusted[np.arange(len(feature)), feature]
        return np.where(chosen < log_alpha, feature, -1)
    return choose


class _Encoded:
    """A training set encoded once for tree growing: its schema, the mapped
    columns, the labels, the numeric columns as rows of one matrix and each
    such row's stable argsort (int32)."""

    def __init__(self, train: Dataset):
        self.schema = FeatureSchema.fit(train)
        self.mapped = self.schema.map_columns(train)
        self.y = train.label_values().astype(float)
        names = [name for name, kind in self.schema.features if kind == "numeric"]
        self.numeric = {name: i for i, name in enumerate(names)}
        self.values = np.array([self.mapped[name] for name in names],
                               dtype=float).reshape(len(names), len(self.y))
        self.order = np.argsort(self.values, axis=1, kind="stable").astype(np.int32)


def _trees_per_frontier(data):
    """How many trees `_grow` should grow together on `data`: as many as keep
    their root frontier within `_FRONTIER_ELEMENTS` entries, one at least."""
    return max(1, _FRONTIER_ELEMENTS // ((len(data.order) + 1) * len(data.y)))


def _goes_left(data, frontier, feature, threshold, left):
    """Whether each position's row goes left under its node's split."""
    rows, segment = frontier.rows, frontier.segment
    chosen = feature[segment]
    go_left = np.zeros(len(rows), dtype=bool)
    for j in np.unique(feature[feature >= 0]).tolist():
        name, kind = data.schema.features[j]
        at = np.flatnonzero(chosen == j)
        column = data.mapped[name][rows[at]]
        if kind == "numeric":
            go_left[at] = column <= threshold[segment[at]]
        else:
            go_left[at] = left[name][segment[at], column]
    return go_left


def _grow(data, weights, choose, criterion, min_node_size, max_depth):
    """The flat node lists of the trees grown on `data`, one per row of
    `weights`, tree t with the integer row weights `weights[t]`.

    Breadth first, every open node of one depth in every tree forms one
    frontier: `_splits` scores all of them at once under `criterion`,
    `choose` picks each node's feature, and one stable pass per row of the
    frontier's `order` sends each node's rows to its children.  A node is a
    leaf at `min_node_size` weight or less, at `max_depth`, when pure, or
    when `choose` finds no split.  Each tree's node list is put in preorder
    from the parent links at the end.
    """
    n_trees, n_rows = weights.shape
    flat_weights = weights.ravel()
    flat_positives = (weights * data.y).ravel()
    index_type = np.int32 if weights.size <= np.iinfo(np.int32).max else np.int64
    marks = np.zeros(weights.size, dtype=np.int8)  # 0 drop, 1 left, 2 right
    node_n = weights.sum(axis=1).tolist()
    node_pos = (weights * data.y).sum(axis=1).tolist()
    node_split = [None] * n_trees
    node_children = [None] * n_trees

    def is_open(n, pos, depth):
        return ~((n <= min_node_size) | (depth >= max_depth) | (pos == 0.0) | (pos == n))

    grown = np.flatnonzero(is_open(np.array(node_n), np.array(node_pos), 0))
    sampled = weights[grown] > 0
    offsets = grown * n_rows
    order = np.empty((len(data.order) + 1, int(sampled.sum())), dtype=index_type)
    for f, feature_order in enumerate(data.order):
        order[f] = (feature_order + offsets[:, None])[sampled[:, feature_order]]
    order[-1] = (np.arange(n_rows) + offsets[:, None])[sampled]
    starts = np.concatenate(([0], np.cumsum(sampled.sum(axis=1))))
    frontier = _Frontier(order, starts, offsets, grown, 0) if grown.size else None
    while frontier is not None:
        gain, threshold, left = _splits(data, frontier, flat_weights, flat_positives,
                                        criterion)
        feature = choose(frontier, gain)
        split = feature >= 0
        if not split.any():
            break
        threshold = threshold[np.arange(len(feature)), feature]
        segment, ids = frontier.segment, frontier.order[-1]
        go_right = ~_goes_left(data, frontier, feature, threshold, left)
        keys = segment * 2 + go_right
        size = 2 * len(feature)
        counts = np.bincount(keys, minlength=size).reshape(-1, 2)
        child_n = np.bincount(keys, flat_weights[ids], minlength=size).reshape(-1, 2)
        child_pos = np.bincount(keys, flat_positives[ids], minlength=size).reshape(-1, 2)
        opened = is_open(child_n, child_pos, frontier.depth + 1) & split[:, None]

        first_child = len(node_n)
        splits = np.flatnonzero(split)
        node_n += child_n[splits].ravel().tolist()
        node_pos += child_pos[splits].ravel().tolist()
        node_split += [None] * (2 * len(splits))
        node_children += [None] * (2 * len(splits))
        children = np.full((len(feature), 2), -1)
        children[splits] = first_child + np.arange(2 * len(splits)).reshape(-1, 2)
        thresholds = threshold.tolist()
        for s in splits.tolist():
            name, kind = data.schema.features[feature[s]]
            if kind == "numeric":
                rule = thresholds[s]
            else:
                levels = data.schema.levels[name]
                rule = [levels[c] for c in np.flatnonzero(left[name][s]).tolist()]
            node = int(frontier.nodes[s])
            node_split[node] = (name, kind, rule)
            node_children[node] = tuple(children[s].tolist())

        # One stable pass per row: the rows of open left children, node by
        # node, then those of open right children.
        marks[ids] = np.where(opened[segment, go_right.astype(int)], 1 + go_right, 0)
        n_left = int(counts[opened[:, 0], 0].sum())
        n_kept = n_left + int(counts[opened[:, 1], 1].sum())
        order = np.empty((len(frontier.order), n_kept), dtype=index_type)
        for row, new_row in zip(frontier.order, order):
            mark = marks.take(row)
            np.compress(mark == 1, row, out=new_row[:n_left])
            np.compress(mark == 2, row, out=new_row[n_left:])
        lefts, rights = np.flatnonzero(opened[:, 0]), np.flatnonzero(opened[:, 1])
        starts = np.concatenate(([0], np.cumsum(counts[lefts, 0]),
                                 n_left + np.cumsum(counts[rights, 1])))
        offsets = np.concatenate((frontier.offsets[lefts], frontier.offsets[rights]))
        nodes = np.concatenate((children[lefts, 0], children[rights, 1]))
        frontier = (_Frontier(order, starts, offsets, nodes, frontier.depth + 1)
                    if nodes.size else None)

    return [_preorder(root, node_n, node_pos, node_split, node_children)
            for root in range(n_trees)]


def _preorder(root, node_n, node_pos, node_split, node_children):
    """The flat node list of the tree at node id `root`, in preorder, from
    each node id's weighted count, positives, split and children."""
    visit, stack = [], [root]
    while stack:
        node = stack.pop()
        visit.append(node)
        if node_children[node] is not None:
            stack += reversed(node_children[node])
    index = {node: i for i, node in enumerate(visit)}
    nodes = []
    for node in visit:
        n, pos = node_n[node], node_pos[node]
        if node_split[node] is None:
            nodes.append({"leaf": True, "n": int(n), "prob": pos / n})
            continue
        name, kind, rule = node_split[node]
        entry = {"leaf": False, "feature": name, "kind": kind, "n": int(n),
                 "threshold" if kind == "numeric" else "subset": rule}
        entry["left"], entry["right"] = (index[c] for c in node_children[node])
        nodes.append(entry)
    return nodes


def _grow_greedy(data, weights, criterion, params):
    return _grow(data, weights, _greedy_chooser(params.cp), criterion,
                 params.min_node_size, params.max_depth)


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


def fit_cart(train: Dataset, params: TreeParams) -> DecisionTreeModel:
    return _fit_greedy("rpart", "gini", train, params)


def fit_tree(train: Dataset, params: TreeParams) -> DecisionTreeModel:
    return _fit_greedy("tree", "entropy", train, params)


def _fit_greedy(algorithm, criterion, train, params):
    data = _Encoded(train)
    [nodes] = _grow_greedy(data, np.ones((1, len(data.y))), criterion, params)
    return DecisionTreeModel(algorithm, data.schema, nodes)


def fit_ctree(train: Dataset, params: CtreeParams) -> DecisionTreeModel:
    data = _Encoded(train)
    [nodes] = _grow(data, np.ones((1, len(data.y))), _ctree_chooser(data, params.alpha),
                    "gini", params.min_node_size, params.max_depth)
    return DecisionTreeModel("ctree", data.schema, nodes)
