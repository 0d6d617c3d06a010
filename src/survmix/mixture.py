"""Convex two-classifier mixtures and the dual-cutoff abstention rule.

The mixture score is ``alpha * p_a + (1 - alpha) * p_b``.  The weight is
found by grid search maximizing AUC times class-separation.  AUC is rank-based
and so piecewise constant in alpha: it jumps wherever the mixed scores of a
positive and a negative row cross.  The separation is piecewise linear in
alpha.  The whole grid is scored in bounded blocks, one row per alpha, and
ties go to the larger weight.  Classification abstains on the middle band:
scores strictly below the low cutoff are labeled negative, strictly above the
high cutoff positive, and everything else — including scores exactly at a
cutoff — stays unclassified.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DomainError
from .evaluation import separation_score

ABSTENTION_LABELS = ("negative", "positive", "unclassified")

DEFAULT_CUTOFF_LOW = 0.2
DEFAULT_CUTOFF_HIGH = 0.8

# Mixed scores optimize_weight holds at once.  Bounded in elements, not rows,
# so its temporaries stay near 2 MB however many rows and alphas there are:
# 1,001 alphas over 10k rows at once would take 80 MB per array.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class GridPoint:
    alpha: float
    auc: float
    separation: float
    objective: float

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "auc": self.auc,
                "separation": self.separation, "objective": self.objective}


@dataclass(frozen=True)
class AbstentionResult:
    """Per-row labels plus the three group counts and fractions."""

    probabilities: np.ndarray
    labels: tuple
    counts: dict
    fractions: dict


class MixtureModel:
    """Two trained classifiers blended by a fixed weight."""

    def __init__(self, alpha, component_a, component_b,
                 cutoff_low=DEFAULT_CUTOFF_LOW, cutoff_high=DEFAULT_CUTOFF_HIGH):
        if not 0.0 <= alpha <= 1.0:
            raise DomainError("alpha must lie in [0, 1]")
        if not (0.0 <= cutoff_low < cutoff_high <= 1.0):
            raise DomainError("cutoffs must satisfy 0 <= low < high <= 1")
        self.alpha = float(alpha)
        self.component_a = component_a
        self.component_b = component_b
        self.cutoff_low = float(cutoff_low)
        self.cutoff_high = float(cutoff_high)

    def predict_proba(self, data: Dataset) -> np.ndarray:
        p_a = self.component_a.predict_proba(data)
        p_b = self.component_b.predict_proba(data)
        return mix_scores(self.alpha, p_a, p_b)

    def classify(self, data: Dataset) -> AbstentionResult:
        return classify_scores(self.predict_proba(data),
                               self.cutoff_low, self.cutoff_high)


def mix_scores(alpha, scores_a, scores_b) -> np.ndarray:
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    if scores_a.shape != scores_b.shape:
        raise DomainError("component score vectors must have equal length")
    # checked before mixing, which would warn on 0 * inf
    if not (np.isfinite(scores_a).all() and np.isfinite(scores_b).all()):
        raise DomainError("scores must lie in [0, 1]")
    return alpha * scores_a + (1.0 - alpha) * scores_b


def optimize_weight(scores_a, scores_b, labels, grid_step=0.01):
    """Best mixture weight on the alpha grid, with the full objective trace.

    Returns (alpha, trace); the trace holds one GridPoint per alpha in grid
    order, and the returned alpha is the largest grid point attaining the
    maximal objective.

    Each GridPoint equals, bit for bit, what ``roc_curve`` and
    ``separation_score`` give on ``mix_scores(alpha, scores_a, scores_b)``.
    The inputs are validated once: ``separation_score`` checks the mixed
    scores at the two ends of the grid (alpha 0, then 1) with the checks and
    messages the per-point functions share.  Once both ends pass, both
    components lie in [0, 1], and so does every row between them, because
    rounding is monotone.  The grid is then scored in blocks of at most
    _BLOCK_ELEMENTS mixed scores: AUC comes from tie-aware rank sums in
    integers, and separation from a 1-D mean per row, which sums in the
    order ``separation_score`` does.
    """
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    labels = np.asarray(labels)
    if not (scores_a.shape == scores_b.shape == labels.shape):
        raise DomainError("score and label vectors must have equal length")
    if not 0.0 < grid_step <= 1.0:
        raise DomainError("grid_step must lie in (0, 1]")
    n_steps = int(math.ceil(1.0 / grid_step - 1e-9))
    alphas = np.minimum(np.arange(n_steps + 1) * grid_step, 1.0)
    if alphas[-1] < 1.0:
        alphas = np.append(alphas, 1.0)

    for alpha in (alphas[0], alphas[-1]):  # the input checks; see above
        separation_score(mix_scores(alpha, scores_a, scores_b), labels)
    positive = labels == 1
    rows = max(1, _BLOCK_ELEMENTS // labels.size)
    auc, separation = [], []
    for start in range(0, alphas.size, rows):
        block = alphas[start:start + rows, None]
        mixed = block * scores_a + (1.0 - block) * scores_b
        auc.append(_rank_auc(mixed, positive))
        separation.append(_row_separation(mixed, positive))
    auc = np.concatenate(auc)
    separation = np.concatenate(separation)
    objective = auc * separation
    # the last index of the maximum: ties go to the larger alpha
    best = objective.size - 1 - int(np.argmax(objective[::-1]))
    trace = [GridPoint(*point) for point in zip(
        alphas.tolist(), auc.tolist(), separation.tolist(), objective.tolist())]
    return float(alphas[best]), trace


def _rank_auc(mixed, positive):
    """Mann-Whitney AUC of each row of ``mixed``, equal to ``roc_curve``'s.

    With mid-ranks for ties, twice the positives' rank sum minus
    pos * (pos + 1) is the integer twice_area that ``roc_curve`` accumulates,
    and it is divided by the same integer 2 * pos * neg.  Runs of equal
    scores, not the order within them, set the ranks, so any sort will do.
    """
    n = positive.size
    pos = int(positive.sum())
    order = np.argsort(mixed, axis=1)
    ordered = np.take_along_axis(mixed, order, axis=1)
    starts_run = np.ones(mixed.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=starts_run[:, 1:])
    ends_run = np.roll(starts_run, -1, axis=1)
    index = np.arange(n)
    # 0-based first and last position of the run each element belongs to
    first = np.maximum.accumulate(np.where(starts_run, index, 0), axis=1)
    last = np.minimum.accumulate(np.where(ends_run, index, n)[:, ::-1], axis=1)
    twice_rank = first + last[:, ::-1] + 2
    twice_rank_sum = (twice_rank * positive[order]).sum(axis=1)
    return (twice_rank_sum - pos * (pos + 1)) / (2 * pos * (n - pos))


def _row_separation(mixed, positive):
    """``separation_score`` of each row of ``mixed``."""
    rows_pos, rows_neg = mixed[:, positive], mixed[:, ~positive]
    return np.array([abs(p.mean() - q.mean()) for p, q in zip(rows_pos, rows_neg)])


def classify_scores(scores, cutoff_low=DEFAULT_CUTOFF_LOW,
                    cutoff_high=DEFAULT_CUTOFF_HIGH) -> AbstentionResult:
    """Split scores into negative / positive / unclassified by strict cutoffs."""
    scores = np.asarray(scores, dtype=float)
    if not (0.0 <= cutoff_low < cutoff_high <= 1.0):
        raise DomainError("cutoffs must satisfy 0 <= low < high <= 1")
    if scores.ndim != 1 or np.isnan(scores).any() \
            or (scores < 0).any() or (scores > 1).any():
        raise DomainError("scores must be a vector of probabilities in [0, 1]")
    labels = np.where(scores < cutoff_low, "negative",
                      np.where(scores > cutoff_high, "positive", "unclassified"))
    n = len(scores)
    counts = {name: int((labels == name).sum()) for name in ABSTENTION_LABELS}
    fractions = {name: counts[name] / n if n else 0.0 for name in ABSTENTION_LABELS}
    return AbstentionResult(probabilities=scores, labels=tuple(labels.tolist()),
                            counts=counts, fractions=fractions)
