"""Binary classification trees.

Three growth strategies share one frontier engine (`_grow`):

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

The engine grows on integer row weights: a row of weight k counts as k
copies of itself and a row of weight 0 is left out.  The single-tree fits
weight every row 1; bagging passes each member's bootstrap counts.  Every
numeric feature is sorted once at the root (a stable argsort).  A frontier
is a set of open nodes grown together.  For each numeric feature it keeps
one integer row that lists every node's rows in value order, node after
node, and a last row lists them in row order (SLIQ presorting: Mehta,
Agrawal & Rissanen, EDBT 1996; Shafer, Agrawal & Mehta's SPRINT, VLDB 1996).

The greedy criteria grow breadth first: one frontier holds every open node
of one depth in every tree grown together, which for bagging is as many
members as `_FRONTIER_ELEMENTS` allows.  One segmented kernel scores all
numeric features of all those nodes from weighted cumulative counts and
positives; each categorical feature is scored from one `bincount` over
(node, level) keys; and one stable pass per row sends each node's rows to
its children.  ctree's node order fixes the order of its random draws, so it
grows depth first, one node per frontier, in preorder.  Each tree's node
list is rebuilt in preorder from parent links.  The kernels work in blocks
of at most `_BLOCK_ELEMENTS` cells.  Splits are scored only at
distinct-value boundaries and sums of integer weights are exact, so a
weighted tree equals, node for node, the tree grown on the rows copied as
often as their weights say, and a tree grown among others equals the tree
grown alone.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ..rng import substream
from ._encoding import FeatureSchema

_PERM_BLOCK = 256
# Cells the split kernels score at once; a fixed bound, not a parameter, that
# keeps their temporaries small.
_BLOCK_ELEMENTS = 1 << 15
# Entries (rows × (numeric features + 1)) of the root frontier of the trees
# grown together: a fixed bound on the frontier's own arrays (4 MB as int32),
# so that a bag fit adds little to the pipeline's peak memory.
_FRONTIER_ELEMENTS = 1 << 20


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


# A selector maps (frontier, flat weights, flat weights × labels) to each
# node's split: the feature's index in the schema (−1: none), the threshold of
# a numeric split and, per categorical feature, segments × levels masks of the
# levels sent left.
_NO_SPLIT = (np.full(1, -1), np.zeros(1), {})


def _greedy_selector(data, criterion, cp):
    """The split of largest impurity decrease of every node: features compared
    in schema order, a later one only when strictly better; none when the
    decrease is below `cp` or no feature splits."""

    def select(frontier, weights, positives):
        order, starts = frontier.order, frontier.starts
        gains, thresholds = _best_numeric_splits(
            data.values, order[:-1], starts, frontier.offsets, weights, positives,
            criterion)
        best = np.full(len(frontier.nodes), -np.inf)
        feature = np.full(len(best), -1)
        threshold = np.zeros(len(best))
        left = {}
        row_weights, row_positives = weights[order[-1]], positives[order[-1]]
        for j, (name, kind) in enumerate(data.schema.features):
            if kind == "numeric":
                gain = gains[:, data.numeric[name]]
            else:
                gain, left[name] = _best_categorical_splits(
                    data.mapped[name][frontier.rows], len(data.schema.levels[name]),
                    starts, row_weights, row_positives, criterion)
            better = gain > best
            best[better] = gain[better]
            feature[better] = j
            if kind == "numeric":
                threshold[better] = thresholds[better, data.numeric[name]]
        feature[best < cp] = -1
        return feature, threshold, left
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
        # Row j of `idx` is the draw rng.permutation(n) would give as the j-th
        # call; one gather then fills the whole block.
        idx = rng.permuted(np.tile(np.arange(n), (block, 1)), axis=1)
        perms = np.ascontiguousarray(yb[idx].T)
        exceed += (stats(perms) >= observed[:, None]).sum(axis=1)
        done += block
    pvalues = (1.0 + exceed) / (permutations + 1.0)
    return dict(zip(names, pvalues))


def _ctree_selector(data, params, rng):
    """The split of the node of a one-node frontier (of the one tree, weighted
    by ones) that the permutation tests choose."""
    kinds = dict(data.schema.features)

    def select(frontier, weights, positives):
        rows = frontier.rows
        pvalues = _permutation_pvalues(data.schema, data.mapped, data.y, rows, rng,
                                       params.permutations)
        if pvalues is None:
            return _NO_SPLIT
        adjusted = {name: min(1.0, p * len(pvalues)) for name, p in pvalues.items()}
        name = min(adjusted, key=lambda k: (adjusted[k], _feature_rank(data.schema, k)))
        if adjusted[name] >= params.alpha:
            return _NO_SPLIT
        feature = np.array([_feature_rank(data.schema, name)])
        if kinds[name] == "numeric":
            i = data.numeric[name]
            gains, thresholds = _best_numeric_splits(
                data.values[i:i + 1], frontier.order[i:i + 1], frontier.starts,
                frontier.offsets, weights, positives, "gini")
            if gains[0, 0] == -np.inf:
                return _NO_SPLIT
            return feature, thresholds[:, 0], {}
        gains, left = _best_categorical_splits(
            data.mapped[name][rows], len(data.schema.levels[name]), frontier.starts,
            weights[rows], positives[rows], "gini")
        if gains[0] == -np.inf:
            return _NO_SPLIT
        return feature, np.zeros(1), {name: left}
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


def _grow(data, weights, select, min_node_size, max_depth, depth_first=False):
    """The flat node lists of the trees grown on `data`, one per row of
    `weights`, tree t with the integer row weights `weights[t]`.

    Breadth first, every open node of one depth in every tree forms one
    frontier: `select` scores all of them at once, and one stable pass per
    row of the frontier's `order` sends each node's rows to its children.
    Depth first, a frontier holds one node, taken from the top of a stack
    that the left child tops next, so nodes are selected in preorder.  A
    node is a leaf at `min_node_size` weight or less, at `max_depth`, when
    pure, or when `select` finds no split.  Each tree's node list is put in
    preorder from the parent links at the end.
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
    stack = [_Frontier(order, starts, offsets, grown, 0)] if grown.size else []
    while stack:
        frontier = stack.pop()
        feature, threshold, left = select(frontier, flat_weights, flat_positives)
        split = feature >= 0
        if not split.any():
            continue
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
        depth = frontier.depth + 1
        if depth_first:  # each child its own frontier, the left one on top
            stack += [_Frontier(order[:, starts[s]:starts[s + 1]],
                                starts[s:s + 2] - starts[s], offsets[s:s + 1],
                                nodes[s:s + 1], depth)
                      for s in reversed(range(len(nodes)))]
        elif nodes.size:
            stack.append(_Frontier(order, starts, offsets, nodes, depth))

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
    return _grow(data, weights, _greedy_selector(data, criterion, params.cp),
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
    [nodes] = _grow_greedy(data, np.ones((1, len(data.y))), criterion, params)
    return DecisionTreeModel(algorithm, data.schema, nodes)


def fit_ctree(train: Dataset, params: CtreeParams, seed: int = 0) -> DecisionTreeModel:
    data = _Encoded(train)
    select = _ctree_selector(data, params, substream(seed, "ctree"))
    [nodes] = _grow(data, np.ones((1, len(data.y))), select, params.min_node_size,
                    params.max_depth, depth_first=True)
    return DecisionTreeModel("ctree", data.schema, nodes)
