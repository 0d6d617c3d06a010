import math

import numpy as np
import pytest

from survmix.errors import DomainError
from survmix.evaluation import (
    ConfusionMatrix,
    confusion,
    roc_curve,
    score_histogram,
    select_cutoff,
    separation_score,
)


def mann_whitney_auc(scores, labels):
    # Brute-force pair counting: P(pos > neg) + 0.5 P(pos == neg).
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = sum(1 for p in pos for q in neg if p > q)
    ties = sum(1 for p in pos for q in neg if p == q)
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def sweep_cutoff(scores, labels, criterion):
    # Exhaustive sweep over the sentinel plus every distinct score, descending,
    # keeping the first (largest-threshold) maximizer.
    sentinel = 1.0 if max(scores) < 1.0 else math.inf
    candidates = [sentinel] + sorted(set(scores), reverse=True)
    best_c, best_v = None, -math.inf
    for c in candidates:
        cm = confusion(scores, labels, c)
        tpr = cm.tp / (cm.tp + cm.fn)
        fpr = cm.fp / (cm.fp + cm.tn)
        v = {"youden": tpr - fpr,
             "closest01": -math.hypot(1.0 - tpr, fpr),
             "product": tpr * (1.0 - fpr)}[criterion]
        if v > best_v:
            best_c, best_v = c, v
    return best_c


class TestRocCurve:
    def test_worked_auc(self):
        curve = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert curve.auc == 0.75

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        curve = roc_curve(scores, labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert (np.diff(curve.thresholds) < 0).all()
        assert (np.diff(curve.fpr) >= 0).all() and (np.diff(curve.tpr) >= 0).all()

    def test_constant_scores_two_points_auc_half(self):
        curve = roc_curve([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1])
        assert len(curve.thresholds) == 2
        assert curve.auc == 0.5
        assert curve.thresholds[0] == 1.0

    def test_sentinel_is_inf_when_scores_reach_one(self):
        curve = roc_curve([1.0, 0.2], [1, 0])
        assert math.isinf(curve.thresholds[0])
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)

    def test_matches_mann_whitney_on_random_fixtures(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            n = int(rng.integers(5, 40))
            # quantize some fixtures to force score ties
            scores = np.round(rng.random(n), 1 if rng.random() < 0.5 else 6)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            curve = roc_curve(scores, labels)
            assert abs(curve.auc - mann_whitney_auc(scores, labels)) < 1e-12

    def test_auc_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(7)
        scores = rng.random(80)
        labels = rng.integers(0, 2, 80)
        labels[:2] = [0, 1]
        transformed = scores ** 3  # strictly increasing on [0, 1]
        assert roc_curve(scores, labels).auc == roc_curve(transformed, labels).auc

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            roc_curve([0.1, 0.9], [1, 1])

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(DomainError):
            roc_curve([0.5, 1.2], [0, 1])


class TestConfusion:
    def test_cutoff_zero_everything_positive(self):
        cm = confusion([0.1, 0.5, 0.9], [0, 1, 0], 0.0)
        assert (cm.tn, cm.fn) == (0, 0)
        assert (cm.fp, cm.tp) == (2, 1)

    def test_closed_on_positive_side(self):
        cm = confusion([0.5, 0.49999], [1, 0], 0.5)
        assert cm.tp == 1 and cm.tn == 1

    def test_reported_recall_anchor(self):
        # confusion row with 118 hits / 32 misses on 150 positives -> 79% recall
        cm = ConfusionMatrix(tn=6612, fp=2413, fn=32, tp=118)
        assert cm.sensitivity == pytest.approx(118 / 150)
        assert round(cm.sensitivity, 2) == 0.79

    def test_degenerate_ratios_are_zero(self):
        cm = ConfusionMatrix(tn=5, fp=0, fn=0, tp=0)
        assert cm.sensitivity == 0.0 and cm.precision == 0.0
        assert cm.specificity == 1.0


class TestSelectCutoff:
    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(4, 60))
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            curve = roc_curve(scores, labels)
            for criterion in ("youden", "closest01", "product"):
                got = select_cutoff(curve, criterion).cutoff
                want = sweep_cutoff(list(scores), list(labels), criterion)
                assert got == want, (criterion, scores, labels)

    def test_constant_scores_choose_all_negative_corner(self):
        curve = roc_curve([0.4] * 6, [0, 1, 0, 1, 0, 1])
        for criterion in ("youden", "closest01", "product"):
            assert select_cutoff(curve, criterion).cutoff == 1.0

    def test_perfect_scorer(self):
        curve = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        best = select_cutoff(curve, "youden")
        assert best.cutoff == 0.8 and best.value == 1.0

    def test_unknown_criterion(self):
        curve = roc_curve([0.2, 0.8], [0, 1])
        with pytest.raises(DomainError):
            select_cutoff(curve, "f1")


class TestSeparation:
    def test_worked_value(self):
        assert separation_score([0.2, 0.4, 0.7, 0.9], [0, 0, 1, 1]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError):
            separation_score([0.2, 0.4], [0, 0])


class TestHistogram:
    def test_counts_partition_classes(self):
        rng = np.random.default_rng(3)
        scores = rng.random(200)
        labels = rng.integers(0, 2, 200)
        labels[:2] = [0, 1]
        h = score_histogram(scores, labels, bins=10)
        assert sum(h["negative"]) == int((labels == 0).sum())
        assert sum(h["positive"]) == int((labels == 1).sum())
        assert len(h["bin_edges"]) == 11

    def test_score_of_one_lands_in_last_bin(self):
        h = score_histogram([1.0, 0.0], [1, 0], bins=4)
        assert h["positive"][-1] == 1 and h["negative"][0] == 1
