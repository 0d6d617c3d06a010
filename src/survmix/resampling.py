"""Train/test splitting and minority oversampling (SMOTE).

The split is unstratified: a seeded permutation assigns exactly
round(train_fraction * n) rows (round half up) to the training side, and both
sides keep the original row order.

SMOTE oversamples the rarer label class by interpolating between a minority
row and one of its k nearest minority neighbors — Euclidean distance on
numeric features standardized to the minority subset — at a uniform position
u in (0, 1), so every synthetic numeric cell lies strictly between its two
parents.  The neighbors are found one block of minority rows at a time, so
the search holds at most `_BLOCK_ELEMENTS` differences, not m × m × p.
Categorical feature cells are copied from the seed row; id, duration and
event cells of synthetic rows are left missing.  The majority class is then
undersampled to (under_pct / 100) times the number of synthetic rows.
Output order: original minority rows, synthetic rows (seed-major), sampled
majority rows (ascending original index).

Both hand back each output row's source row as `Dataset.source_rows`: the
row's index in the input, -1 for a synthetic row.  A caller that wrote the
input can then write the output from the input's rows (`write_csv`).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import ColumnSpec, Dataset, MISSING_CODE
from .errors import DomainError
from .rng import substream

_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise DomainError("train_fraction must lie strictly between 0 and 1")


def split(data: Dataset, spec: SplitSpec) -> tuple:
    """Partition rows into (train, test) with |train| = round(f * n)."""
    n = data.n_rows
    if n < 2:
        raise DomainError("split needs at least two rows")
    data.label_values()  # label column present with no missing labels
    n_train = int(np.floor(spec.train_fraction * n + 0.5))
    if not 1 <= n_train <= n - 1:
        raise DomainError(
            f"train_fraction {spec.train_fraction} leaves an empty side for n={n}")
    perm = substream(spec.seed, "split").permutation(n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return data.take_rows(train_idx), data.take_rows(test_idx)


@dataclass(frozen=True)
class SmoteSpec:
    k: int = 5
    over_pct: float = 200.0
    under_pct: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise DomainError("k must be at least 1")
        if self.over_pct < 0 or self.under_pct < 0:
            raise DomainError("over_pct and under_pct must be non-negative")


def _minority_value(y: np.ndarray) -> int:
    ones = int((y == 1).sum())
    zeros = int(y.size - ones)
    if ones == 0 or zeros == 0:
        raise DomainError("smote needs both classes present")
    return 1 if ones <= zeros else 0


def _neighbor_table(z: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other rows of `z`, nearest first, ties broken
    toward the smaller row index, as a stable sort of each row's distances
    orders them.  Rows are taken in blocks of at most `_BLOCK_ELEMENTS`
    cells of the difference tensor, and each row's distances are the ones
    the whole tensor gives.  Only the candidates up to a row's k-th
    distance, ties at it included, are sorted (NaN, as sorts place it,
    counts as the largest distance)."""
    m, p = z.shape
    step = max(1, _BLOCK_ELEMENTS // (m * p))
    table = np.empty((m, k), dtype=np.intp)
    for lo in range(0, m, step):
        d2 = _distances(z, lo, min(m, lo + step))
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        rows, cols = np.nonzero(~(d2 > kth))   # each row's candidates, by index
        order = np.lexsort((d2[rows, cols], rows))   # stable: ties keep index order
        firsts = np.searchsorted(rows[order], np.arange(len(d2)))
        table[lo:lo + len(d2)] = cols[order][firsts[:, None] + np.arange(k)]
    return table


def _distances(z: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Squared Euclidean distances from rows lo..hi-1 of `z` to every row,
    inf to the row itself."""
    diff = z[lo:hi, None, :] - z[None, :, :]
    d2 = np.square(diff, out=diff).sum(axis=2)
    d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
    return d2


def smote(data: Dataset, spec: SmoteSpec) -> Dataset:
    """Rebalance by synthetic minority oversampling plus majority undersampling."""
    y = data.label_values()
    minority = _minority_value(y)
    min_idx = np.flatnonzero(y == minority)
    maj_idx = np.flatnonzero(y != minority)
    m = min_idx.size
    if m < 2:
        raise DomainError("smote needs at least two minority rows")

    numeric_features = [n for n in data.feature_names()
                        if data.spec(n).kind == "numeric"]
    if not numeric_features:
        raise DomainError("smote needs at least one numeric feature")
    for name in numeric_features:
        if np.isnan(data.numeric(name)[np.concatenate([min_idx, maj_idx])]).any():
            raise DomainError(f"smote requires complete numeric features; {name!r} has NA")

    k_eff = min(spec.k, m - 1)
    if k_eff < spec.k:
        warnings.warn(f"smote: only {m} minority rows; k reduced from {spec.k} to {k_eff}")

    x_min = np.column_stack([data.numeric(n)[min_idx] for n in numeric_features])
    mu = x_min.mean(axis=0)
    sd = x_min.std(axis=0)
    sd[sd == 0.0] = 1.0
    z = (x_min - mu) / sd
    neighbor_table = _neighbor_table(z, k_eff)

    rng = substream(spec.seed, "smote")
    # Draw order (part of the determinism contract): extra-row subsample,
    # neighbor picks, interpolation positions, majority sample.
    target = int(np.floor(spec.over_pct / 100.0 * m + 0.5))
    base = int(spec.over_pct // 100)
    counts = np.full(m, base, dtype=np.int64)
    extra = target - base * m
    if extra > 0:
        chosen = rng.choice(m, size=extra, replace=False)
        counts[chosen] += 1
    seeds_local = np.repeat(np.arange(m), counts)
    n_syn = seeds_local.size
    picks = rng.integers(0, k_eff, size=n_syn) if n_syn else np.empty(0, dtype=np.int64)
    u = rng.random(n_syn)
    while (u == 0.0).any():  # u must lie in the open interval
        u[u == 0.0] = rng.random(int((u == 0.0).sum()))
    neighbors_local = neighbor_table[seeds_local, picks] if n_syn else np.empty(0, dtype=np.int64)

    n_keep = int(np.floor(spec.under_pct / 100.0 * n_syn + 0.5))
    if n_keep <= maj_idx.size:
        kept_maj = np.sort(rng.choice(maj_idx.size, size=n_keep, replace=False))
    else:
        warnings.warn("smote: under_pct asks for more majority rows than exist; "
                      "sampling with replacement")
        kept_maj = np.sort(rng.choice(maj_idx.size, size=n_keep, replace=True))
    kept_maj = maj_idx[kept_maj]

    columns = {}
    for s in data.specs:
        col = data.column(s.name)
        part_min = col[min_idx]
        part_maj = col[kept_maj]
        if n_syn:
            seed_rows = col[min_idx[seeds_local]]
            if s.kind == "numeric" and s.name in numeric_features:
                nb_rows = col[min_idx[neighbors_local]]
                part_syn = seed_rows + u * (nb_rows - seed_rows)
            elif s.role == "feature":           # categorical feature: copy the seed
                part_syn = seed_rows
            elif s.role == "label":
                part_syn = seed_rows
            elif s.kind == "numeric":           # id/duration/event: left missing
                part_syn = np.full(n_syn, np.nan)
            else:
                part_syn = np.full(n_syn, MISSING_CODE, dtype=np.int32)
        else:
            part_syn = part_min[:0]
        columns[s.name] = np.concatenate([part_min, part_syn, part_maj])
    return Dataset(data.specs, columns,
                   source_rows=np.concatenate([min_idx, np.full(n_syn, -1), kept_maj]))
