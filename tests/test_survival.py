"""Kaplan-Meier, Greenwood, confidence-band, and log-rank tests."""

import math

import numpy as np
import pytest

from survmix.dataset import SyntheticSpec, generate_synthetic
from survmix.distributions import chi_square_sf
from survmix.errors import DomainError
from survmix.survival import km_fit, logrank_test


def km_oracle(durations, events):
    """Plain-Python product-limit reference."""
    times = sorted({t for t, e in zip(durations, events) if e == 1})
    out = []
    s = 1.0
    for t in times:
        r = sum(1 for u in durations if u >= t)
        d = sum(1 for u, e in zip(durations, events) if u == t and e == 1)
        s *= (r - d) / r
        out.append((t, r, d, s))
    return out


def survival_at(curve, t):
    """The curve as a right-continuous step function: 1.0 before the first
    event time."""
    index = np.searchsorted(curve.times, np.asarray(t, dtype=float), side="right")
    return np.array([1.0, *curve.survival])[index]


def random_sample(rng, n, censor_fraction=0.3, tie_scale=None):
    if tie_scale is None:
        durations = rng.exponential(5.0, n) + 0.01
    else:
        durations = rng.integers(1, tie_scale, n).astype(float)
    events = (rng.random(n) >= censor_fraction).astype(int)
    return durations, events


class TestKaplanMeier:
    def test_textbook_fixture(self):
        durations = [1.0, 1.0, 2.0] + [10.0] * 7
        events = [1, 1, 1] + [0] * 7
        curve = km_fit(durations, events, 0.95)
        assert curve.times.tolist() == [1.0, 2.0]
        assert curve.at_risk.tolist() == [10, 8]
        assert curve.deaths.tolist() == [2, 1]
        assert curve.survival[0] == 0.8
        assert curve.survival[1] == 0.7

    def test_all_censored_curve_is_flat_one(self):
        curve = km_fit([2.0, 5.0, 7.0], [0, 0, 0], 0.95)
        assert curve.times.size == 0
        assert survival_at(curve, [0.1, 2.0, 100.0]).tolist() == [1.0, 1.0, 1.0]

    def test_single_subject_event(self):
        curve = km_fit([3.0], [1], 0.95)
        assert curve.survival.tolist() == [0.0]
        assert survival_at(curve, 2.999) == 1.0
        assert survival_at(curve, 3.0) == 0.0

    def test_no_censoring_matches_counting_exactly(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 51))
            durations = rng.integers(1, 8, n).astype(float)  # forces ties
            curve = km_fit(durations, np.ones(n, dtype=int), 0.95)
            for t, s in zip(curve.times, curve.survival):
                assert s == np.count_nonzero(durations > t) / n

    def test_censoring_shrinks_risk_set(self):
        curve = km_fit([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 1], 0.95)
        assert curve.times.tolist() == [1.0, 3.0, 4.0]
        assert curve.at_risk.tolist() == [4, 2, 1]
        assert np.allclose(curve.survival, [0.75, 0.375, 0.0], rtol=1e-15)

    def test_tie_censoring_counts_in_risk_set_then_leaves(self):
        curve = km_fit([1.0, 1.0, 2.0], [1, 0, 1], 0.95)
        assert curve.at_risk.tolist() == [3, 1]
        assert np.allclose(curve.survival, [2.0 / 3.0, 0.0], rtol=1e-15)

    def test_matches_oracle_under_censoring(self):
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            durations, events = random_sample(rng, 60, tie_scale=10)
            if events.sum() == 0:
                continue
            curve = km_fit(durations, events, 0.95)
            expected = km_oracle(durations.tolist(), events.tolist())
            assert curve.times.tolist() == [row[0] for row in expected]
            assert curve.at_risk.tolist() == [row[1] for row in expected]
            assert curve.deaths.tolist() == [row[2] for row in expected]
            assert np.allclose(curve.survival, [row[3] for row in expected],
                               rtol=1e-12)

    def test_step_lookup_is_right_continuous(self):
        curve = km_fit([1.0, 2.0, 4.0], [1, 1, 1], 0.95)
        got = survival_at(curve, [0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 9.0])
        want = [1.0, 2 / 3, 2 / 3, 1 / 3, 1 / 3, 0.0, 0.0]
        assert np.allclose(got, want, rtol=1e-15)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            km_fit([], [], 0.95)
        with pytest.raises(DomainError):
            km_fit([1.0, 2.0], [1], 0.95)
        with pytest.raises(DomainError):
            km_fit([0.0, 2.0], [1, 1], 0.95)
        with pytest.raises(DomainError):
            km_fit([1.0, 2.0], [1, 2], 0.95)


class TestGreenwood:
    def test_textbook_fixture_variance(self):
        durations = [1.0, 1.0, 2.0] + [10.0] * 7
        events = [1, 1, 1] + [0] * 7
        curve = km_fit(durations, events, 0.95)
        assert not np.isnan(curve.variance).any()
        assert curve.variance[0] == pytest.approx(0.016, abs=1e-12)
        assert math.sqrt(curve.variance[0]) == pytest.approx(0.1265, abs=5e-5)
        want_second = 0.7 ** 2 * (2 / (10 * 8) + 1 / (8 * 7))
        assert curve.variance[1] == pytest.approx(want_second, rel=1e-12)

    def test_no_censoring_reduces_to_binomial_variance(self):
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(5, 40))
            durations = rng.integers(1, 6, n).astype(float)
            curve = km_fit(durations, np.ones(n, dtype=int), 0.95)
            keep = ~np.isnan(curve.variance)
            s = curve.survival[keep]
            assert np.allclose(curve.variance[keep], s * (1.0 - s) / n, rtol=1e-10)

    def test_log_variance_sum_is_nondecreasing(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            durations, events = random_sample(rng, 80, tie_scale=12)
            curve = km_fit(durations, events, 0.95)
            keep = ~np.isnan(curve.variance) & (curve.survival > 0.0)
            cum = curve.variance[keep] / curve.survival[keep] ** 2
            assert (np.diff(cum) >= -1e-15).all()

    def test_undefined_once_risk_set_exhausts(self):
        curve = km_fit([1.0, 2.0, 2.0], [1, 1, 1], 0.95)
        assert np.isnan(curve.variance).tolist() == [False, True]

    def test_no_events_gives_empty_variance(self):
        curve = km_fit([1.0, 2.0], [0, 0], 0.95)
        assert curve.variance.size == 0
        assert curve.ci_lower.size == curve.ci_upper.size == 0


class TestConfidenceBands:
    def fixture_curve(self, level=0.95):
        durations = [1.0, 1.0, 2.0] + [10.0] * 7
        events = [1, 1, 1] + [0] * 7
        return km_fit(durations, events, level)

    def test_hand_log_minus_log_bounds(self):
        curve = self.fixture_curve()
        z = 1.959964
        s, sd = 0.8, math.sqrt(0.016)
        theta = z * sd / (s * math.log(s))
        lo, hi = sorted([s ** math.exp(theta), s ** math.exp(-theta)])
        assert curve.ci_lower[0] == pytest.approx(lo, abs=1e-6)
        assert curve.ci_upper[0] == pytest.approx(hi, abs=1e-6)

    def test_bounds_bracket_curve_inside_unit_interval(self):
        for seed in range(10):
            rng = np.random.default_rng(400 + seed)
            durations, events = random_sample(rng, 50, tie_scale=9)
            if events.sum() == 0:
                continue
            curve = km_fit(durations, events, 0.95)
            keep = ~np.isnan(curve.ci_lower)
            assert (keep == ~np.isnan(curve.ci_upper)).all()
            assert (curve.ci_lower[keep] >= 0.0).all()
            assert (curve.ci_upper[keep] <= 1.0).all()
            assert (curve.ci_lower[keep] <= curve.survival[keep]).all()
            assert (curve.ci_upper[keep] >= curve.survival[keep]).all()

    def test_higher_level_widens_band(self):
        narrow = self.fixture_curve(level=0.90)
        wide = self.fixture_curve(level=0.99)
        keep = ~np.isnan(narrow.ci_lower)
        assert (wide.ci_lower[keep] < narrow.ci_lower[keep]).all()
        assert (wide.ci_upper[keep] > narrow.ci_upper[keep]).all()

    def test_undefined_where_curve_hits_zero(self):
        curve = km_fit([1.0, 2.0], [1, 1], 0.95)
        assert np.isnan(curve.ci_lower).tolist() == [False, True]
        assert np.isnan(curve.ci_upper).tolist() == [False, True]

    def test_level_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                km_fit([1.0], [1], bad)


class TestLogrank:
    def test_identical_groups_score_zero(self):
        durations = [1.0, 2.0, 3.0, 4.0] * 2
        events = [1, 1, 1, 0] * 2
        groups = ["a"] * 4 + ["b"] * 4
        result = logrank_test(durations, events, groups)
        assert result["chi_square"] == 0.0
        assert result["p_value"] == 1.0
        assert result["df"] == 1

    def test_hand_hypergeometric_fixture(self):
        durations = [1.0, 3.0, 2.0, 4.0]
        events = [1, 1, 1, 0]
        groups = ["a", "a", "b", "b"]
        result = logrank_test(durations, events, groups)
        # time 1: r=4, r_a=2, d=1; time 2: r=3, r_a=1, d=1; time 3: r=2, r_a=1, d=1
        observed = 2.0
        expected = 2 / 4 + 1 / 3 + 1 / 2
        variance = (2 / 4) * (2 / 4) * (3 / 3) + (1 / 3) * (2 / 3) * (2 / 2) \
            + (1 / 2) * (1 / 2) * (1 / 1)
        want = (observed - expected) ** 2 / variance
        assert result["chi_square"] == pytest.approx(want, rel=1e-12)
        assert result["p_value"] == pytest.approx(chi_square_sf(want, 1), rel=1e-12)
        assert result["observed"] == {"a": 2.0, "b": 1.0}
        assert result["expected"]["a"] == pytest.approx(expected, rel=1e-12)
        assert result["expected"]["b"] == pytest.approx(3.0 - expected, rel=1e-12)

    def test_group_relabel_invariance(self):
        rng = np.random.default_rng(7)
        durations, events = random_sample(rng, 120, tie_scale=15)
        groups = rng.integers(0, 2, 120)
        first = logrank_test(durations, events, groups)
        second = logrank_test(durations, events, 1 - groups)
        assert first["chi_square"] == pytest.approx(second["chi_square"], rel=1e-12)
        assert first["p_value"] == second["p_value"]
        assert first["observed"]["0"] == second["observed"]["1"]
        assert first["expected"]["0"] == pytest.approx(second["expected"]["1"], rel=1e-12)

    def test_planted_hazard_ratio_is_detected(self):
        data = generate_synthetic(SyntheticSpec(
            n_rows=2000, n_numeric=1, n_categorical=0, minority_fraction=0.5,
            class_separation=0.0, hazard_ratio_true=3.0, seed=5))
        result = logrank_test(data.column("duration"), data.column("event"),
                              data.column("label"))
        assert result["p_value"] < 1e-6

    def test_single_event_group_against_censored_group(self):
        result = logrank_test([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0],
                              ["a", "a", "b", "b"])
        assert math.isfinite(result["chi_square"])
        assert 0.0 <= result["p_value"] <= 1.0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            logrank_test([1.0, 2.0], [1, 1], ["a", "a"])
        with pytest.raises(DomainError):
            logrank_test([1.0, 2.0, 3.0], [1, 1, 1], ["a", "b", "c"])
        with pytest.raises(DomainError):
            logrank_test([1.0, 2.0], [0, 0], ["a", "b"])
        with pytest.raises(DomainError):
            logrank_test([1.0, 2.0, 3.0], [1, 1], ["a", "b"])
