"""Scoring diagnostics: ROC curves, AUC, confusion matrices, cutoff selection,
class-separation score and score histograms.

Classification is closed on the positive side everywhere: a row is predicted
positive iff score >= cutoff.  With that rule a cutoff of 1 classifies
everything negative whenever scores stay below 1, which is the reported
behavior of degenerate all-negative scorers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

CUTOFF_CRITERIA = ("youden", "closest01", "product")


@dataclass(frozen=True)
class RocCurve:
    """Operating points at every distinct score plus a top sentinel.

    thresholds are strictly decreasing; the first one is the sentinel (1.0, or
    +inf when some score reaches 1.0) so the (0, 0) corner is always present,
    and the last threshold equals the minimum score so (1, 1) is present.
    fpr/tpr are exact count ratios; auc is the trapezoidal area, accumulated
    in integer arithmetic so it equals the Mann-Whitney statistic bit for bit.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def _check_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DomainError("scores and labels must be equal-length vectors")
    if np.isnan(scores).any() or (scores < 0).any() or (scores > 1).any():
        raise DomainError("scores must lie in [0, 1]")
    if not np.isin(labels, (0, 1)).all():
        raise DomainError("labels must be 0 or 1")
    labels = labels.astype(np.int64)
    if labels.sum() == 0 or labels.sum() == labels.size:
        raise DomainError("both classes must be present")
    return scores, labels


def roc_curve(scores, labels) -> RocCurve:
    """ROC curve under the score >= threshold rule."""
    scores, labels = _check_scores_labels(scores, labels)
    pos = int(labels.sum())
    neg = int(labels.size - pos)

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    # last index of each run of equal scores
    last = np.flatnonzero(np.diff(s) != 0)
    last = np.append(last, s.size - 1)
    cum_tp = np.cumsum(y)[last]
    cum_fp = (np.arange(1, s.size + 1) - np.cumsum(y))[last]

    sentinel = 1.0 if s[0] < 1.0 else math.inf
    thresholds = np.concatenate(([sentinel], s[last]))
    tp = np.concatenate(([0], cum_tp)).astype(np.int64)
    fp = np.concatenate(([0], cum_fp)).astype(np.int64)

    # 2*area accumulated exactly in integers: sum of dFP * (TP_i + TP_{i+1})
    twice_area = int(np.sum(np.diff(fp) * (tp[:-1] + tp[1:])))
    auc = twice_area / (2 * pos * neg)
    return RocCurve(thresholds=thresholds, fpr=fp / neg, tpr=tp / pos, auc=auc)


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp

    def _ratio(self, num, den) -> float:
        return num / den if den else 0.0

    @property
    def sensitivity(self) -> float:  # a.k.a. recall / TPR
        return self._ratio(self.tp, self.tp + self.fn)

    @property
    def specificity(self) -> float:
        return self._ratio(self.tn, self.tn + self.fp)

    @property
    def precision(self) -> float:
        return self._ratio(self.tp, self.tp + self.fp)

    @property
    def accuracy(self) -> float:
        return self._ratio(self.tp + self.tn, self.total)

    def to_dict(self) -> dict:
        return {"tn": self.tn, "fp": self.fp, "fn": self.fn, "tp": self.tp,
                "sensitivity": self.sensitivity, "specificity": self.specificity,
                "precision": self.precision, "accuracy": self.accuracy}


def confusion(scores, labels, cutoff: float) -> ConfusionMatrix:
    """Confusion counts for the score >= cutoff rule."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(np.int64)
    pred = scores >= cutoff
    return ConfusionMatrix(
        tn=int(((labels == 0) & ~pred).sum()),
        fp=int(((labels == 0) & pred).sum()),
        fn=int(((labels == 1) & ~pred).sum()),
        tp=int(((labels == 1) & pred).sum()),
    )


@dataclass(frozen=True)
class OptimalCutoff:
    criterion: str
    cutoff: float
    tpr: float
    fpr: float
    value: float


def select_cutoff(curve: RocCurve, criterion: str) -> OptimalCutoff:
    """Best operating point under one of three criteria.

    youden     maximize TPR - FPR
    closest01  minimize distance to the (0, 1) corner
    product    maximize TPR * (1 - FPR)

    Ties are broken toward the larger threshold; with constant scores every
    criterion ties and the sentinel (cutoff 1, everything negative) wins.
    """
    if criterion not in CUTOFF_CRITERIA:
        raise DomainError(f"unknown cutoff criterion {criterion!r}")
    if criterion == "youden":
        values = curve.tpr - curve.fpr
    elif criterion == "closest01":
        values = -np.sqrt((1.0 - curve.tpr) ** 2 + curve.fpr ** 2)
    else:
        values = curve.tpr * (1.0 - curve.fpr)
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:  # strict: earlier (larger) threshold wins ties
            best = i
    value = values[best] if criterion != "closest01" else -values[best]
    return OptimalCutoff(criterion=criterion, cutoff=float(curve.thresholds[best]),
                         tpr=float(curve.tpr[best]), fpr=float(curve.fpr[best]),
                         value=float(value))


def separation_score(scores, labels) -> float:
    """Absolute gap between the mean scores of the two classes, in [0, 1]."""
    scores, labels = _check_scores_labels(scores, labels)
    return float(abs(scores[labels == 1].mean() - scores[labels == 0].mean()))


def score_histogram(scores, labels, bins: int = 20) -> dict:
    """Per-class score histograms over [0, 1] for external plotting."""
    scores, labels = _check_scores_labels(scores, labels)
    if bins < 1:
        raise DomainError("bins must be positive")
    edges = np.linspace(0.0, 1.0, bins + 1)
    neg, _ = np.histogram(scores[labels == 0], bins=edges)
    pos, _ = np.histogram(scores[labels == 1], bins=edges)
    return {"bin_edges": edges.tolist(),
            "negative": neg.astype(int).tolist(),
            "positive": pos.astype(int).tolist()}
