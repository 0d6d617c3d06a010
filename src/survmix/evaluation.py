"""Scoring diagnostics: ROC curves, AUC, confusion matrices, cutoff selection,
class-separation score and score histograms.

Classification is closed on the positive side everywhere: a row is predicted
positive iff score >= cutoff.  With that rule a cutoff of 1 classifies
everything negative whenever scores stay below 1, which is the reported
behavior of degenerate all-negative scorers.  The ROC curve counts the
positives and negatives at or above every threshold once, and a chosen
cutoff's confusion matrix is read from those counts.
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
    tp/fp count the positives and negatives with score >= each threshold
    (int64), so their last entries are the class sizes; fpr/tpr are their
    exact ratios; auc is the trapezoidal area, accumulated in integer
    arithmetic so it equals the Mann-Whitney statistic bit for bit.
    """

    thresholds: np.ndarray
    tp: np.ndarray
    fp: np.ndarray
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
    return RocCurve(thresholds=thresholds, tp=tp, fp=fp, fpr=fp / neg, tpr=tp / pos,
                    auc=auc)


def select_cutoff(curve: RocCurve, criterion: str) -> tuple:
    """Best operating point under one of three criteria.

    youden     maximize TPR - FPR
    closest01  minimize distance to the (0, 1) corner
    product    maximize TPR * (1 - FPR)

    Ties are broken toward the larger threshold; with constant scores every
    criterion ties and the sentinel (cutoff 1, everything negative) wins.

    Returns (point, confusion) as metrics.json holds them: point is
    {cutoff, tpr, fpr, value}, and confusion is {tn, fp, fn, tp,
    sensitivity, specificity, precision, accuracy} for the score >= cutoff
    rule, taken from the curve's counts at the chosen point.  Both classes
    are present, so only precision can lack a denominator, at a cutoff that
    predicts no row positive; it is 0 there.
    """
    if criterion not in CUTOFF_CRITERIA:
        raise DomainError(f"unknown cutoff criterion {criterion!r}")
    if criterion == "youden":
        values = curve.tpr - curve.fpr
    elif criterion == "closest01":
        values = -np.sqrt((1.0 - curve.tpr) ** 2 + curve.fpr ** 2)
    else:
        values = curve.tpr * (1.0 - curve.fpr)
    best = int(np.argmax(values))  # the first maximum: the larger threshold wins ties
    value = values[best] if criterion != "closest01" else -values[best]
    tp, fp = int(curve.tp[best]), int(curve.fp[best])
    tn, fn = int(curve.fp[-1]) - fp, int(curve.tp[-1]) - tp
    point = {"cutoff": float(curve.thresholds[best]), "tpr": float(curve.tpr[best]),
             "fpr": float(curve.fpr[best]), "value": float(value)}
    confusion = {"tn": tn, "fp": fp, "fn": fn, "tp": tp,
                 "sensitivity": tp / (tp + fn), "specificity": tn / (tn + fp),
                 "precision": tp / (tp + fp) if tp + fp else 0.0,
                 "accuracy": (tp + tn) / (tp + tn + fp + fn)}
    return point, confusion


def separation_score(scores, labels) -> float:
    """Absolute gap between the mean scores of the two classes, in [0, 1]."""
    scores, labels = _check_scores_labels(scores, labels)
    return float(abs(scores[labels == 1].mean() - scores[labels == 0].mean()))


def score_histogram(scores, labels) -> dict:
    """Per-class score histograms over 20 equal bins of [0, 1], for external
    plotting."""
    scores, labels = _check_scores_labels(scores, labels)
    edges = np.linspace(0.0, 1.0, 21)
    neg, _ = np.histogram(scores[labels == 0], bins=edges)
    pos, _ = np.histogram(scores[labels == 1], bins=edges)
    return {"bin_edges": edges.tolist(),
            "negative": neg.astype(int).tolist(),
            "positive": pos.astype(int).tolist()}
