"""Design assembly, partial-likelihood, fitting, and inference tests."""

import dataclasses
import math

import numpy as np
import pytest

from survmix.cox import (DesignMatrix, build_design, cox_fit,
                         cox_tests, detect_separation, hazard_ratios,
                         parse_formula)
from survmix.dataset import ColumnSpec, Dataset, SyntheticSpec, generate_synthetic
from survmix.distributions import chi_square_sf
from survmix.errors import DomainError, SeparationError
from survmix.survival import logrank_test

from helpers import cox_evaluation


def make_data(numeric=None, categorical=None, vocab=("a", "b", "c")):
    specs, columns = [], {}
    for name, values in (numeric or {}).items():
        specs.append(ColumnSpec(name, "numeric", "feature"))
        columns[name] = np.asarray(values, dtype=float)
    for name, codes in (categorical or {}).items():
        specs.append(ColumnSpec(name, "categorical", "feature", tuple(vocab)))
        columns[name] = np.asarray(codes, dtype=np.int32)
    return Dataset(specs, columns)


def loglik_oracle(x, durations, events, beta, ties):
    """Plain-Python partial log-likelihood for either tie correction."""
    eta = [float(np.dot(row, beta)) for row in np.atleast_2d(x)]
    w = [math.exp(v) for v in eta]
    ll = 0.0
    for t in sorted({u for u, e in zip(durations, events) if e == 1}):
        risk = [i for i, u in enumerate(durations) if u >= t]
        dead = [i for i, (u, e) in enumerate(zip(durations, events))
                if u == t and e == 1]
        s0 = sum(w[i] for i in risk)
        s0d = sum(w[i] for i in dead)
        ll += sum(eta[i] for i in dead)
        for k in range(len(dead)):
            frac = k / len(dead) if ties == "efron" else 0.0
            ll -= math.log(s0 - frac * s0d)
    return ll


def random_cox_fixture(rng, n, p, tie_scale=None):
    x = rng.standard_normal((n, p))
    if tie_scale is None:
        durations = rng.exponential(4.0, n) + 0.01
    else:
        durations = rng.integers(1, tie_scale, n).astype(float)
    events = (rng.random(n) < 0.75).astype(int)
    if events.sum() == 0:
        events[0] = 1
    return x, durations, events


def design_of(matrix, names=None):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    names = tuple(names or (f"x{j}" for j in range(matrix.shape[1])))
    return DesignMatrix(column_names=names, reference_levels={}, matrix=matrix,
                        row_index=np.arange(matrix.shape[0]),
                        dropped_columns=())


class TestFormulaAndDesign:
    def test_parse_formula_terms_and_star_expansion(self):
        assert parse_formula("inno + sector + inno:sector") == \
            ["inno", "sector", "inno:sector"]
        assert parse_formula("a*b") == ["a", "b", "a:b"]
        assert parse_formula("a + a*b") == ["a", "b", "a:b"]
        with pytest.raises(DomainError):
            parse_formula("a + + b")

    def test_single_binary_column_passes_through(self):
        data = make_data(numeric={"inno": [1, 0, 1, 0]})
        design = build_design(data, ["inno"])
        assert design.column_names == ("inno",)
        assert design.matrix[:, 0].tolist() == [1.0, 0.0, 1.0, 0.0]
        assert design.row_index.tolist() == [0, 1, 2, 3]

    def test_categorical_reference_override(self):
        data = make_data(categorical={"sector": [0, 1, 2, 2, 1]})
        design = build_design(data, ["sector"], references={"sector": "c"})
        assert design.column_names == ("sector=a", "sector=b")
        assert design.reference_levels == {"sector": "c"}
        assert design.matrix.tolist() == [[1, 0], [0, 1], [0, 0], [0, 0], [0, 1]]

    def test_default_reference_is_most_frequent(self):
        data = make_data(categorical={"sector": [0, 1, 1, 2]})
        design = build_design(data, ["sector"])
        assert design.reference_levels == {"sector": "b"}
        assert design.column_names == ("sector=a", "sector=c")

    def test_interaction_columns_are_products(self):
        rng = np.random.default_rng(0)
        inno = rng.integers(0, 2, 30).astype(float)
        sector = rng.integers(0, 3, 30)
        data = make_data(numeric={"inno": inno}, categorical={"sector": sector})
        design = build_design(data, ["inno", "sector", "inno:sector"],
                              references={"sector": "a"})
        names = list(design.column_names)
        for level in ("b", "c"):
            j = names.index(f"inno:sector={level}")
            parent = names.index(f"sector={level}")
            want = design.matrix[:, names.index("inno")] * design.matrix[:, parent]
            assert np.array_equal(design.matrix[:, j], want)

    def test_rows_with_missing_cells_are_dropped(self):
        data = make_data(numeric={"x": [1.0, np.nan, 3.0, 4.0]},
                         categorical={"g": [0, 1, -1, 1]})
        design = build_design(data, ["x", "g"])
        assert design.row_index.tolist() == [0, 3]
        assert design.n_rows == 2

    def test_all_zero_interaction_column_reported(self):
        # disjoint carriers make one product column identically zero
        data = make_data(numeric={"u": [1, 1, 0, 0], "v": [0.0, 0, 1, 1]})
        design = build_design(data, ["u", "v", "u:v"])
        assert ("u:v", "all zeros") in design.dropped_columns
        assert "u:v" not in design.column_names

    def test_aliased_column_reported(self):
        data = make_data(numeric={"x": [1, 0, 1, 0, 1], "y": [0.0, 1, 0, 1, 0]})
        design = build_design(data, ["x", "y"])  # y = 1 - x
        assert design.column_names == ("x",)
        assert ("y", "aliased with earlier columns") in design.dropped_columns

    def test_constant_column_is_inestimable(self):
        data = make_data(numeric={"c": [2.0, 2.0, 2.0]})
        with pytest.raises(DomainError):
            build_design(data, ["c"])

    def test_validation_errors(self):
        data = make_data(numeric={"x": [1.0, 2.0]},
                         categorical={"g": [0, 1]})
        with pytest.raises(DomainError):
            build_design(data, ["nope"])
        with pytest.raises(DomainError):
            build_design(data, ["x", "g"], references={"g": "zzz"})
        with pytest.raises(DomainError):
            build_design(data, [])
        with pytest.raises(DomainError):
            build_design(make_data(categorical={"g": [0, 0, 0]}), ["g"])


class TestPartialLikelihood:
    def test_matches_oracle_both_methods(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x, durations, events = random_cox_fixture(rng, 25, 2, tie_scale=6)
            beta = rng.standard_normal(2) * 0.7
            for ties in ("efron", "breslow"):
                ll, _, _ = cox_evaluation(x, durations, events, beta, ties)
                want = loglik_oracle(x, durations, events, beta, ties)
                assert ll == pytest.approx(want, rel=1e-12)

    def test_methods_coincide_without_ties(self):
        rng = np.random.default_rng(11)
        x, durations, events = random_cox_fixture(rng, 40, 3)
        beta = rng.standard_normal(3) * 0.5
        le, ge, ie = cox_evaluation(x, durations, events, beta, "efron")
        lb, gb, ib = cox_evaluation(x, durations, events, beta, "breslow")
        assert le == pytest.approx(lb, rel=1e-10)
        assert np.allclose(ge, gb, atol=1e-10)
        assert np.allclose(ie, ib, atol=1e-10)

    def test_gradient_and_information_match_finite_differences(self):
        eps = 1e-5
        for seed, ties in [(0, "efron"), (1, "breslow"), (2, "efron")]:
            rng = np.random.default_rng(40 + seed)
            x, durations, events = random_cox_fixture(rng, 40, 3, tie_scale=8)
            beta = rng.standard_normal(3) * 0.4
            ll, score, info = cox_evaluation(x, durations, events, beta, ties)
            for j in range(3):
                step = np.zeros(3)
                step[j] = eps
                lp, sp, _ = cox_evaluation(x, durations, events, beta + step, ties)
                lm, sm, _ = cox_evaluation(x, durations, events, beta - step, ties)
                grad = (lp - lm) / (2 * eps)
                assert abs(grad - score[j]) <= 1e-6 * max(1.0, abs(score[j]))
                hess_col = (sp - sm) / (2 * eps)  # info is minus the Hessian
                assert np.allclose(-hess_col, info[:, j],
                                   atol=1e-6 * max(1.0, np.abs(info).max()))

    def test_validation(self):
        with pytest.raises(DomainError, match="align"):
            cox_evaluation(np.ones((3, 1)), [1.0, 2.0], [1, 1], [0.0])
        with pytest.raises(DomainError, match="at least one event"):
            cox_evaluation(np.ones((3, 1)), [1.0, 2.0, 3.0], [0, 0, 0], [0.0])


class TestCoxFit:
    def fixture_fit(self, ties="efron"):
        design = design_of([[1.0], [0.0], [1.0], [0.0]], names=("x",))
        return design, cox_fit(design, [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1], ties)

    def test_four_subject_closed_form(self):
        # dL/dbeta = 0 at exp(beta) = sqrt(2)
        _, fit = self.fixture_fit()
        assert fit.converged
        assert fit.beta[0] == pytest.approx(0.5 * math.log(2.0), abs=1e-8)
        assert fit.loglik_null == pytest.approx(-math.log(12.0), rel=1e-12)
        assert fit.se[0] > 0.0

    def test_zero_column_design(self):
        empty = design_of(np.empty((3, 0)))
        fit = cox_fit(empty, [1.0, 2.0, 3.0], [1, 1, 1])
        assert fit.beta.size == 0
        assert fit.loglik_fit == fit.loglik_null
        assert fit.converged

    def test_centering_invariance(self):
        rng = np.random.default_rng(3)
        x, durations, events = random_cox_fixture(rng, 60, 2)
        base = cox_fit(design_of(x), durations, events)
        shifted = x - x.mean(axis=0)
        again = cox_fit(design_of(shifted), durations, events)
        assert np.allclose(base.beta, again.beta, atol=1e-8)

    def test_no_tie_fits_coincide(self):
        rng = np.random.default_rng(8)
        x, durations, events = random_cox_fixture(rng, 50, 2)
        fe = cox_fit(design_of(x), durations, events, "efron")
        fb = cox_fit(design_of(x), durations, events, "breslow")
        assert np.allclose(fe.beta, fb.beta, atol=1e-10)

    def test_planted_hazard_ratio_recovered(self):
        data = generate_synthetic(SyntheticSpec(
            n_rows=2000, n_numeric=1, n_categorical=0, minority_fraction=0.5,
            class_separation=0.0, hazard_ratio_true=2.0, seed=3))
        design = build_design(data, ["label"])
        durations = data.column("duration")[design.row_index]
        events = data.column("event")[design.row_index].astype(int)
        fit = cox_fit(design, durations, events)
        assert fit.converged
        half = 1.959964 * fit.se[0]
        assert fit.beta[0] - half < math.log(2.0) < fit.beta[0] + half

    def test_separation_raises_and_screen_agrees(self):
        x = [[1.0], [1.0], [0.0], [0.0]]
        durations = [1.0, 2.0, 3.0, 4.0]
        events = [1, 1, 1, 1]
        design = design_of(x, names=("early",))
        flags = detect_separation(design, durations, events)
        assert [f["column"] for f in flags] == ["early"]
        assert "precede" in flags[0]["reason"]
        with pytest.raises(SeparationError, match="early"):
            cox_fit(design, durations, events)

    def test_validation(self):
        design = design_of([[1.0], [0.0]], names=("x",))
        with pytest.raises(DomainError, match="align"):
            cox_fit(design, [1.0, 2.0, 3.0], [1, 1, 1])
        with pytest.raises(DomainError, match="at least one event"):
            cox_fit(design, [1.0, 2.0], [0, 0])
        with pytest.raises(DomainError, match="ties"):
            cox_fit(design, [1.0, 2.0], [1, 1], ties="exact")


class TestInference:
    def test_three_statistics_against_direct_formulas(self):
        rng = np.random.default_rng(17)
        x, durations, events = random_cox_fixture(rng, 50, 2, tie_scale=7)
        design = design_of(x)
        fit = cox_fit(design, durations, events)
        tests = cox_tests(fit)
        _, _, info_hat = cox_evaluation(x, durations, events, fit.beta, "efron")
        assert tests["wald"]["statistic"] == pytest.approx(
            float(fit.beta @ info_hat @ fit.beta), rel=1e-12)
        assert tests["lr"]["statistic"] == pytest.approx(
            2.0 * (fit.loglik_fit - fit.loglik_null), rel=1e-12)
        _, score0, info0 = cox_evaluation(x, durations, events, np.zeros(2), "efron")
        want_score = float(score0 @ np.linalg.solve(info0, score0))
        assert tests["score"]["statistic"] == pytest.approx(want_score, rel=1e-10)
        for t in tests.values():
            assert t["df"] == 2
            assert t["p_value"] == pytest.approx(chi_square_sf(t["statistic"], 2),
                                                 rel=1e-12)
            assert t["statistic"] >= 0.0

    def test_fit_keeps_the_evaluations_the_tests_read(self):
        rng = np.random.default_rng(23)
        x, durations, events = random_cox_fixture(rng, 80, 3, tie_scale=9)
        for ties in ("efron", "breslow"):
            fit = cox_fit(design_of(x), durations, events, ties=ties)
            _, _, info_hat = cox_evaluation(x, durations, events, fit.beta, ties)
            _, score0, info0 = cox_evaluation(x, durations, events, np.zeros(3), ties)
            assert fit.information.tobytes() == info_hat.tobytes()
            assert fit.score_null.tobytes() == score0.tobytes()
            assert fit.information_null.tobytes() == info0.tobytes()

    def test_score_test_equals_logrank_without_ties(self):
        for seed in range(5):
            rng = np.random.default_rng(70 + seed)
            groups = rng.integers(0, 2, 80)
            durations = rng.exponential(3.0, 80) + 0.01
            events = (rng.random(80) < 0.7).astype(int)
            if events.sum() == 0 or len(np.unique(groups)) < 2:
                continue
            design = design_of(groups[:, None].astype(float), names=("grp",))
            fit = cox_fit(design, durations, events)
            tests = cox_tests(fit)
            reference = logrank_test(durations, events, groups)
            assert tests["score"]["statistic"] == pytest.approx(
                reference["chi_square"], abs=1e-8)

    def test_unconverged_fit_is_rejected(self):
        design = design_of([[1.0], [0.0], [1.0], [0.0]], names=("x",))
        fit = cox_fit(design, [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        broken = dataclasses.replace(fit, converged=False)
        with pytest.raises(DomainError):
            cox_tests(broken)
        with pytest.raises(DomainError):
            hazard_ratios(broken)

    def test_hazard_ratio_values(self):
        design = design_of([[1.0], [0.0], [1.0], [0.0]], names=("x",))
        fit = cox_fit(design, [1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
        for beta, want in [(0.0, 1.0), (math.log(2.0), 2.0), (-0.428, 0.6518)]:
            shaped = dataclasses.replace(fit, beta=np.array([beta]))
            ratio = hazard_ratios(shaped)[0]
            assert ratio["hazard_ratio"] == pytest.approx(want, abs=1e-4)
        ratios = hazard_ratios(fit)
        assert len(ratios) == len(fit.names) == 1
        z = 1.959964
        assert ratios[0]["ci_lower"] == pytest.approx(
            math.exp(fit.beta[0] - z * fit.se[0]), rel=1e-6)
        assert ratios[0]["ci_upper"] == pytest.approx(
            math.exp(fit.beta[0] + z * fit.se[0]), rel=1e-6)


class TestSeparationScreen:
    def test_zero_event_carriers_flagged(self):
        design = design_of([[1.0], [1.0], [0.0], [0.0]], names=("d",))
        flags = detect_separation(design, [1.0, 2.0, 3.0, 4.0], [0, 0, 1, 1])
        assert flags == [{"column": "d", "reason": "carriers have no events"}]

    def test_balanced_dummy_not_flagged(self):
        design = design_of([[1.0], [0.0], [1.0], [0.0]], names=("d",))
        assert detect_separation(design, [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1]) == []

    def test_non_dummy_columns_skipped(self):
        design = design_of([[0.5], [1.5], [2.5]], names=("z",))
        assert detect_separation(design, [1.0, 2.0, 3.0], [1, 0, 0]) == []

    def test_following_events_flagged(self):
        design = design_of([[0.0], [0.0], [1.0], [1.0]], names=("d",))
        flags = detect_separation(design, [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1])
        assert [f["column"] for f in flags] == ["d"]
        assert "follow" in flags[0]["reason"]
