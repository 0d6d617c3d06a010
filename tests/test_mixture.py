import math

import numpy as np
import pytest

from survmix import mixture
from survmix.classifiers import ClassifierSpec, fit
from survmix.dataset import ColumnSpec, Dataset
from survmix.errors import DomainError
from survmix.evaluation import roc_curve, separation_score
from survmix.mixture import (
    ABSTENTION_LABELS,
    MixtureModel,
    classify_scores,
    mix_scores,
    optimize_weight,
)


def exhaustive_best_alpha(scores_a, scores_b, labels, step):
    # Re-scan of the documented objective; later alphas win ties.
    count = int(round(1.0 / step))
    best_alpha, best = None, -np.inf
    for i in range(count + 1):
        alpha = min(i * step, 1.0)
        mixed = alpha * scores_a + (1 - alpha) * scores_b
        objective = roc_curve(mixed, labels).auc * separation_score(mixed, labels)
        if objective >= best:
            best_alpha, best = alpha, objective
    return best_alpha


def per_point_optimize_weight(scores_a, scores_b, labels, grid_step):
    # Reference: one mix_scores + roc_curve + separation_score per grid point.
    scores_a = np.asarray(scores_a, dtype=float)
    scores_b = np.asarray(scores_b, dtype=float)
    n_steps = int(math.ceil(1.0 / grid_step - 1e-9))
    alphas = np.minimum(np.arange(n_steps + 1) * grid_step, 1.0)
    if alphas[-1] < 1.0:
        alphas = np.append(alphas, 1.0)
    trace = []
    best_alpha, best = None, -math.inf
    for alpha in alphas:
        mixed = mix_scores(alpha, scores_a, scores_b)
        auc = roc_curve(mixed, labels).auc
        separation = separation_score(mixed, labels)
        objective = auc * separation
        trace.append({"alpha": float(alpha), "auc": auc, "separation": separation,
                      "objective": objective})
        if objective >= best:
            best_alpha, best = float(alpha), objective
    return best_alpha, trace


def trace_bits(trace):
    return [tuple(float(value).hex() for value in point.values())
            for point in trace]


def random_scores(rng, n):
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 3] = 1
    rng.shuffle(labels)
    noise_a = np.clip(0.35 + 0.3 * labels + rng.normal(0, 0.25, n), 0, 1)
    noise_b = np.clip(0.45 + 0.15 * labels + rng.normal(0, 0.3, n), 0, 1)
    return noise_a, noise_b, labels


class TestMixScores:
    def test_arithmetic(self):
        assert mix_scores(0.5, [0.2], [0.6])[0] == pytest.approx(0.4, abs=1e-15)

    def test_boundary_weights(self):
        rng = np.random.default_rng(0)
        a, b = rng.random(20), rng.random(20)
        assert np.array_equal(mix_scores(1.0, a, b), a)
        assert np.array_equal(mix_scores(0.0, a, b), b)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        a, b = rng.random(30), rng.random(30)
        previous = mix_scores(0.0, a, b)
        for alpha in np.linspace(0.1, 1.0, 10):
            current = mix_scores(alpha, a, b)
            moved = np.sign(current - previous)
            expected = np.sign(a - b)
            assert (moved[expected != 0] == expected[expected != 0]).all()
            previous = current

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="equal length"):
            mix_scores(0.5, [0.1, 0.2], [0.3])


class TestOptimizeWeight:
    def test_dominant_component_takes_full_weight(self):
        rng = np.random.default_rng(2)
        labels = np.repeat([0, 1], 25)
        perfect = labels.astype(float)
        random = rng.random(50)
        alpha, trace = optimize_weight(perfect, random, labels)
        assert alpha == 1.0
        assert trace[-1]["objective"] == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_components_give_symmetric_trace(self):
        # component b scores are component a's swapped within label groups,
        # so the mixtures at alpha and 1-alpha are permutations of each other
        labels = np.array([0, 0, 1, 1])
        scores_a = np.array([0.2, 0.4, 0.6, 0.9])
        scores_b = np.array([0.4, 0.2, 0.9, 0.6])
        _, trace = optimize_weight(scores_a, scores_b, labels, grid_step=0.01)
        objectives = [point["objective"] for point in trace]
        assert len(objectives) == 101
        np.testing.assert_allclose(objectives, objectives[::-1], atol=1e-12)

    def test_fifty_point_fixture_matches_fine_grid_oracle(self):
        for seed in range(8):
            rng = np.random.default_rng(seed)
            a, b, labels = random_scores(rng, 50)
            alpha, trace = optimize_weight(a, b, labels, grid_step=0.001)
            assert alpha == exhaustive_best_alpha(a, b, labels, 0.001)
            best = max(point["objective"] for point in trace)
            chosen = [point for point in trace if point["alpha"] == alpha]
            assert chosen[0]["objective"] == best

    def test_returned_alpha_attains_trace_maximum(self):
        rng = np.random.default_rng(9)
        a, b, labels = random_scores(rng, 80)
        alpha, trace = optimize_weight(a, b, labels)
        best = max(point["objective"] for point in trace)
        by_alpha = {point["alpha"]: point["objective"] for point in trace}
        assert by_alpha[alpha] == best
        assert all(point["alpha"] <= alpha for point in trace
                   if point["objective"] == best)

    def test_grid_includes_both_boundaries(self):
        rng = np.random.default_rng(10)
        a, b, labels = random_scores(rng, 40)
        _, trace = optimize_weight(a, b, labels, grid_step=0.3)
        alphas = [point["alpha"] for point in trace]
        assert alphas[0] == 0.0 and alphas[-1] == 1.0

    @pytest.mark.parametrize("grid_step", [0.3, 0.02, 0.001])
    @pytest.mark.parametrize("case", ["continuous", "tied", "constant", "equal"])
    def test_trace_bit_identical_to_per_point_reference(self, case, grid_step):
        rng = np.random.default_rng(12)
        n = 300
        a, b, labels = random_scores(rng, n)
        if case == "tied":
            a, b = np.round(a, 1), np.round(b, 1)
        elif case == "constant":
            b = np.full(n, 0.4)
        elif case == "equal":
            b = a.copy()
        alpha, trace = optimize_weight(a, b, labels, grid_step)
        ref_alpha, ref_trace = per_point_optimize_weight(a, b, labels, grid_step)
        assert alpha == ref_alpha
        assert trace_bits(trace) == trace_bits(ref_trace)
        if grid_step == 0.001:  # the grid spans several scoring blocks
            assert len(trace) > 3 * (mixture._BLOCK_ELEMENTS // n)

    def test_rows_above_block_bound_bit_identical(self):
        rng = np.random.default_rng(13)
        n = mixture._BLOCK_ELEMENTS + 5
        a, b, labels = random_scores(rng, n)
        a = np.round(a, 2)
        alpha, trace = optimize_weight(a, b, labels, 0.3)
        ref_alpha, ref_trace = per_point_optimize_weight(a, b, labels, 0.3)
        assert alpha == ref_alpha
        assert trace_bits(trace) == trace_bits(ref_trace)

    @pytest.mark.parametrize("corrupt, message", [
        ({"a": np.nan}, "scores must lie in"),
        ({"b": np.nan}, "scores must lie in"),
        ({"a": 1.5}, "scores must lie in"),
        ({"b": -0.1}, "scores must lie in"),
        ({"labels": 2}, "labels must be 0 or 1"),
        # mix_scores rejects the inf before any label is checked
        ({"a": np.inf, "labels": 2}, "scores must lie in"),
    ], ids=["nan_a", "nan_b", "above_one_a", "below_zero_b", "label_two",
            "inf_a_and_label_two"])
    @pytest.mark.filterwarnings("error")
    def test_invalid_input_rejected_as_per_point_reference(self, corrupt, message):
        rng = np.random.default_rng(14)
        inputs = dict(zip(("a", "b", "labels"), random_scores(rng, 30)))
        for name, value in corrupt.items():
            inputs[name][3] = value
        a, b, labels = inputs["a"], inputs["b"], inputs["labels"]
        with pytest.raises(DomainError, match=message) as expected:
            per_point_optimize_weight(a, b, labels, 0.01)
        with pytest.raises(DomainError) as raised:
            optimize_weight(a, b, labels)
        assert str(raised.value) == str(expected.value)

    def test_single_class_rejected(self):
        with pytest.raises(DomainError, match="both classes"):
            optimize_weight([0.1, 0.9], [0.2, 0.8], [1, 1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError, match="equal length"):
            optimize_weight([0.1, 0.9], [0.2], [0, 1])


class TestClassifyScores:
    def test_rule_application(self):
        labels = classify_scores(np.array([0.1, 0.9, 0.5]))
        assert labels == ("negative", "positive", "unclassified")

    def test_cutoff_equality_is_unclassified(self):
        labels = classify_scores(np.array([0.2, 0.8]))
        assert labels == ("unclassified", "unclassified")

    def test_invalid_cutoffs_rejected(self):
        with pytest.raises(DomainError, match="cutoffs"):
            classify_scores(np.array([0.5]), cutoff_low=0.8, cutoff_high=0.2)

    def test_invalid_scores_rejected(self):
        with pytest.raises(DomainError, match="probabilities"):
            classify_scores(np.array([1.5]))


class TestMixtureModel:
    def make_components(self):
        rng = np.random.default_rng(11)
        n = 80
        x = rng.normal(size=n)
        y = (rng.random(n) < 1 / (1 + np.exp(-2 * x))).astype(float)
        data = Dataset([ColumnSpec("x", "numeric", "feature"),
                        ColumnSpec("label", "numeric", "label")],
                       {"x": x, "label": y})
        model_a = fit(data, ClassifierSpec("logit"))
        model_b = fit(data, ClassifierSpec("nb"))
        return data, model_a, model_b

    def test_predictions_blend_components(self):
        data, model_a, model_b = self.make_components()
        mixture = MixtureModel(0.3, model_a, model_b)
        expected = 0.3 * model_a.predict_proba(data) + 0.7 * model_b.predict_proba(data)
        assert np.array_equal(mixture.predict_proba(data), expected)

    def test_classify_returns_partition(self):
        data, model_a, model_b = self.make_components()
        mixture = MixtureModel(0.5, model_a, model_b)
        labels = classify_scores(mixture.predict_proba(data))
        assert len(labels) == data.n_rows
        assert sum(labels.count(name) for name in ABSTENTION_LABELS) == data.n_rows

    def test_invalid_alpha_rejected(self):
        data, model_a, model_b = self.make_components()
        with pytest.raises(DomainError, match="alpha"):
            MixtureModel(1.5, model_a, model_b)

    def test_schema_mismatch_rejected(self):
        data, model_a, model_b = self.make_components()
        other = Dataset([ColumnSpec("z", "numeric", "feature"),
                         ColumnSpec("label", "numeric", "label")],
                        {"z": np.zeros(3), "label": np.array([0.0, 1.0, 0.0])})
        mixture = MixtureModel(0.5, model_a, model_b)
        with pytest.raises(DomainError):
            mixture.predict_proba(other)
