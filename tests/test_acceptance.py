"""Acceptance gate: one test per shipping criterion.

Each test is a self-contained quantitative check with its tolerance and
runtime budget stated inline, so `pytest -v tests/test_acceptance.py` reads as
the release checklist.  Oracles are deliberately naive re-implementations
(pairwise counting, exhaustive sweeps, finite differences, brute-force k-NN)
kept independent of the library code they judge.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from survmix.cleansing import clean, profile_missing
from survmix.cox import CoxFit, DesignMatrix, cox_fit, cox_tests, hazard_ratios
from survmix.dataset import ColumnSpec, Dataset, SyntheticSpec, generate_synthetic
from survmix.evaluation import roc_curve, select_cutoff
from survmix.mixture import optimize_weight
from survmix.pipeline import PipelineConfig, run_pipeline
from survmix.resampling import SmoteSpec, smote
from survmix.survival import km_fit, logrank_test

from helpers import cox_evaluation, smote_parents

Z95 = 1.959963984540054


def single_column_design(x):
    x = np.asarray(x, dtype=float)
    return DesignMatrix(column_names=("g",), reference_levels={},
                        matrix=x[:, None],
                        row_index=np.arange(x.size), dropped_columns=())


def test_01_km_oracle_suite():
    # No censoring: the product-limit estimate must equal the empirical
    # survivor fraction exactly, not approximately. Budget: 1 s.
    t0 = time.perf_counter()
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 51))
        durations = np.round(rng.exponential(5.0, n), 1) + 0.1
        curve = km_fit(durations, np.ones(n, dtype=int), 0.95)
        for t, s in zip(curve.times, curve.survival):
            assert s == np.count_nonzero(durations > t) / n

    # worked 10-subject fixture: 2 deaths at t=1 of 10, 1 death at t=2 of 8
    durations = np.array([1.0, 1.0, 2.0] + [10.0] * 7)
    events = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
    curve = km_fit(durations, events, 0.95)
    step = np.array([1.0, *curve.survival])
    assert step[np.searchsorted(curve.times, 1.0, side="right")] == 0.8
    assert step[np.searchsorted(curve.times, 2.0, side="right")] == 0.7
    assert curve.variance[0] == pytest.approx(0.016, abs=1e-12)
    assert time.perf_counter() - t0 < 1.0


def test_02_auc_equals_mann_whitney():
    # Trapezoidal AUC == pairwise Mann-Whitney statistic to 1e-12 on 1,000
    # fixtures with heavy ties. Budget: 5 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n_pos = int(rng.integers(1, 30))
        n_neg = int(rng.integers(1, 30))
        scores = rng.random(n_pos + n_neg)
        if rng.random() < 0.5:
            scores = np.round(scores, 1)  # force ties
        labels = np.concatenate([np.ones(n_pos, dtype=int),
                                 np.zeros(n_neg, dtype=int)])
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        mann_whitney = (wins + 0.5 * ties) / (n_pos * n_neg)
        assert roc_curve(scores, labels).auc == pytest.approx(
            mann_whitney, abs=1e-12)
    assert time.perf_counter() - t0 < 5.0


def test_03_cox_correctness():
    # (a) analytic gradient/Hessian vs central finite differences, both tie
    # handlings; (b) 4-subject MLE vs a 1e-4 grid over the hand-written
    # likelihood; (c) 95% Wald CI covers the planted log-hazard in >= 90/100
    # replications. Budget: 60 s total.
    t0 = time.perf_counter()

    eps = 1e-5
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        n = 12
        x = rng.normal(size=(n, 2))
        durations = np.ceil(rng.exponential(4.0, n))  # integer ties
        events = (rng.random(n) < 0.8).astype(int)
        events[0] = 1
        beta = rng.normal(scale=0.4, size=2)
        for ties in ("efron", "breslow"):
            ll, score, info = cox_evaluation(x, durations, events, beta, ties)
            for j in range(2):
                step = np.zeros(2)
                step[j] = eps
                lp = cox_evaluation(x, durations, events, beta + step, ties)
                lm = cox_evaluation(x, durations, events, beta - step, ties)
                fd_grad = (lp[0] - lm[0]) / (2 * eps)
                assert abs(score[j] - fd_grad) <= 1e-6 * max(1.0, abs(score[j]))
                fd_hess = -(lp[1] - lm[1]) / (2 * eps)
                for i in range(2):
                    assert abs(info[i, j] - fd_hess[i]) <= \
                        1e-6 * max(1.0, abs(info[i, j]))

    # (b) x by event time = [1, 0, 1, 0], all events, no ties:
    # ll(b) = 2b - ln(2e^b + 2) - ln(e^b + 2) - ln(e^b + 1)
    grid = np.arange(-5.0, 5.0 + 1e-12, 1e-4)
    e = np.exp(grid)
    ll_grid = 2 * grid - np.log(2 * e + 2) - np.log(e + 2) - np.log(e + 1)
    oracle_beta = grid[np.argmax(ll_grid)]
    fit = cox_fit(single_column_design([1.0, 0.0, 1.0, 0.0]),
                  np.array([1.0, 2.0, 3.0, 4.0]), np.ones(4, dtype=int))
    assert fit.converged
    assert fit.beta[0] == pytest.approx(oracle_beta, abs=1e-4)

    # (c) planted hazard ratio 2 on two balanced groups of 1000
    covered = 0
    for rep in range(100):
        data = generate_synthetic(SyntheticSpec(
            n_rows=2000, n_numeric=1, n_categorical=0, minority_fraction=0.5,
            class_separation=0.0, hazard_ratio_true=2.0, seed=1000 + rep))
        fit = cox_fit(single_column_design(data.column("label")),
                      data.column("duration"), data.column("event").astype(int))
        low = fit.beta[0] - Z95 * fit.se[0]
        high = fit.beta[0] + Z95 * fit.se[0]
        covered += low <= math.log(2.0) <= high
    assert covered >= 90
    assert time.perf_counter() - t0 < 60.0


def test_04_score_test_equals_logrank():
    # With a single group dummy and no tied times, U(0)^2 / I(0) is the
    # log-rank chi-square; agreement to 1e-8 on 100 fixtures. Budget: 10 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    done = 0
    while done < 100:
        n = int(rng.integers(10, 60))
        durations = rng.choice(np.arange(1, 10 * n), size=n, replace=False) / 7.0
        groups = (rng.random(n) < 0.5).astype(int)
        events = (rng.random(n) < 0.7).astype(int)
        if groups.min() == groups.max() or events.sum() == 0:
            continue
        done += 1
        chi_logrank = logrank_test(durations, events, groups)["chi_square"]
        _, score, info = cox_evaluation(groups.astype(float)[:, None],
                                        durations, events, np.zeros(1))
        chi_score = float(score[0] ** 2 / info[0, 0]) if info[0, 0] > 0 else 0.0
        assert chi_score == pytest.approx(chi_logrank, abs=1e-8)
    assert time.perf_counter() - t0 < 10.0


def test_05_hazard_ratio_anchor():
    # exp(-0.428) must read as 0.6518, i.e. "a 35% lower hazard".
    fit = CoxFit(names=("x",), beta=np.array([-0.428]), se=np.array([0.1]),
                 loglik_null=0.0, loglik_fit=0.0, iterations=1,
                 converged=True, information=np.eye(1), score_null=np.zeros(1),
                 information_null=np.eye(1))
    ratio = hazard_ratios(fit)[0]["hazard_ratio"]
    assert f"{ratio:.4f}" == "0.6518"
    assert f"{ratio:.2f}" == "0.65"


def test_06_smote_properties():
    # Every synthetic row must lie coordinate-wise between its seed and
    # neighbor, and the neighbor must be one of the seed's k nearest minority
    # rows under the brute-force standardized-distance oracle. Budget: 10 s.
    t0 = time.perf_counter()
    k = 3
    for seed in range(200):
        rng = np.random.default_rng(600 + seed)
        n_min = int(rng.integers(4, 10))  # always < n_maj, so rows 0..n_min-1
        n_maj = int(rng.integers(10, 30))
        p = int(rng.integers(1, 4))
        n = n_min + n_maj
        features = rng.normal(size=(n, p))
        labels = np.concatenate([np.ones(n_min), np.zeros(n_maj)])
        specs = [ColumnSpec(f"f{j}", "numeric", "feature") for j in range(p)]
        specs.append(ColumnSpec("label", "numeric", "label"))
        columns = {f"f{j}": features[:, j] for j in range(p)}
        columns["label"] = labels
        data = Dataset(specs, columns)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = smote(data, SmoteSpec(k, 200.0, 100.0, seed))

        k_eff = min(k, n_min - 1)
        minority = features[:n_min]
        mu, sd = minority.mean(axis=0), minority.std(axis=0)
        sd = np.where(sd == 0.0, 1.0, sd)
        z = (minority - mu) / sd

        def among_nearest(seed_row, nb_row):
            d2 = ((z - z[seed_row]) ** 2).sum(axis=1)
            d2[seed_row] = np.inf
            return d2[nb_row] <= np.sort(d2)[k_eff - 1] + 1e-12

        n_syn = int((out.column("label") == 1.0).sum()) - n_min
        assert n_syn == 2 * n_min
        for i in range(n_syn):
            # over_pct = 200 gives each minority row two synthetic rows, drawn
            # in row order after the originals: row n_min + i has seed i // 2.
            seed_row = i // 2
            point = np.array([out.column(f"f{j}")[n_min + i] for j in range(p)])
            from_seed = [(nb_row, u) for s, nb_row, u
                         in smote_parents(point, minority) if s == seed_row]
            if p > 1:  # no third minority row lies on the seed's line
                assert len(from_seed) == 1
            drawn = [nb_row for nb_row, u in from_seed
                     if 0.0 < u < 1.0 and among_nearest(seed_row, nb_row)]
            assert drawn
            for nb_row in drawn:
                low = np.minimum(features[seed_row], features[nb_row])
                high = np.maximum(features[seed_row], features[nb_row])
                pad = 1e-12 * (1.0 + np.abs(high))
                assert ((low - pad <= point) & (point <= high + pad)).all()
    assert time.perf_counter() - t0 < 10.0


def test_07_cutoff_criteria_match_exhaustive_sweep():
    # Each criterion's pick must equal an exhaustive sweep over every
    # distinct score (plus the sentinel), ties to the larger threshold; the
    # constant-score fixture must return cutoff 1. Budget: 2 s.
    t0 = time.perf_counter()

    def sweep(scores, labels, value_of):
        top = 1.0 if scores.max() < 1.0 else math.inf
        candidates = [top] + sorted(set(scores.tolist()), reverse=True)
        pos, neg = (labels == 1).sum(), (labels == 0).sum()
        best_cut, best_value = None, -math.inf
        for c in candidates:  # descending: strict > keeps the larger threshold
            pred = scores >= c
            tpr = (pred & (labels == 1)).sum() / pos
            fpr = (pred & (labels == 0)).sum() / neg
            value = value_of(tpr, fpr)
            if value > best_value:
                best_cut, best_value = c, value
        return best_cut

    criteria = {
        "youden": lambda tpr, fpr: tpr - fpr,
        "closest01": lambda tpr, fpr: -math.hypot(1.0 - tpr, fpr),
        "product": lambda tpr, fpr: tpr * (1.0 - fpr),
    }
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(4, 101))
        scores = np.round(rng.random(n), 2)
        labels = (rng.random(n) < 0.4).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        curve = roc_curve(scores, labels)
        for name, value_of in criteria.items():
            assert select_cutoff(curve, name)[0]["cutoff"] == sweep(scores, labels,
                                                                    value_of)

    constant = np.full(30, 0.7)
    labels = np.concatenate([np.ones(10, dtype=int), np.zeros(20, dtype=int)])
    curve = roc_curve(constant, labels)
    for name in criteria:
        assert select_cutoff(curve, name)[0]["cutoff"] == 1.0
    assert time.perf_counter() - t0 < 2.0


def test_08_mixture_optimizer():
    # Coarse-grid argmax within one coarse step of a 10x finer grid on 50
    # fixtures; a perfect component wins the whole weight. Budget: 5 s.
    # Complementary signals (each score informative on a different half of
    # the rows) give the objective one pronounced interior peak.
    t0 = time.perf_counter()

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    coarse = 0.02
    for seed in range(50):
        rng = np.random.default_rng(800 + seed)
        n = 500
        labels = np.zeros(n, dtype=int)
        labels[: n // 3] = 1
        rng.shuffle(labels)
        half = rng.random(n) < 0.5
        signal = 2.2 * (labels - 0.5)
        scores_a = sigmoid(np.where(half, signal, 0.0) + rng.normal(0, 0.7, n))
        scores_b = sigmoid(np.where(half, 0.0, signal) + rng.normal(0, 0.7, n))
        alpha_coarse, _ = optimize_weight(scores_a, scores_b, labels, coarse)
        alpha_fine, _ = optimize_weight(scores_a, scores_b, labels, coarse / 10)
        assert abs(alpha_coarse - alpha_fine) <= coarse + 1e-12

    rng = np.random.default_rng(81)
    labels = np.concatenate([np.ones(20, dtype=int), np.zeros(20, dtype=int)])
    perfect = labels.astype(float)
    noise = rng.random(40)
    assert optimize_weight(perfect, noise, labels, 0.01)[0] == 1.0
    assert optimize_weight(noise, perfect, labels, 0.01)[0] == 0.0
    assert time.perf_counter() - t0 < 5.0


def test_09_classifier_sanity_at_desk_scale(tmp_path):
    # n=10,000, 20 features, 5% minority, unit separation: post-rebalance BAG
    # and ANN both reach test AUC >= 0.85, the mixture gives at most 0.01 of
    # the best component back, and the whole pipeline finishes in < 60 s.
    t0 = time.perf_counter()
    config = PipelineConfig(output_dir=str(tmp_path), synthetic_rows=10_000,
                            synthetic_numeric=18, synthetic_categorical=2,
                            synthetic_minority=0.05, synthetic_separation=1.0,
                            synthetic_hazard_ratio=2.0, seed=11,
                            algorithms=("bag", "ann"))
    report = run_pipeline(config)
    assert report.error is None
    metrics = json.loads(report.artifacts["metrics.json"])
    auc_bag = metrics["algorithms"]["bag"]["auc"]
    auc_ann = metrics["algorithms"]["ann"]["auc"]
    assert auc_bag >= 0.85
    assert auc_ann >= 0.85
    mixture = json.loads(report.artifacts["mixture.json"])
    assert {mixture["component_a"], mixture["component_b"]} == {"bag", "ann"}
    assert mixture["test_auc"] >= max(auc_bag, auc_ann) - 0.01
    assert time.perf_counter() - t0 < 60.0


def test_10_null_calibration():
    # No class signal, hazard ratio 1: log-rank and all three Cox test
    # p-values should be uniform; KS distance < 0.1 over 200 replications.
    # Budget: 120 s.
    t0 = time.perf_counter()

    def ks_distance(p):
        p = np.sort(np.asarray(p))
        n = p.size
        upper = np.arange(1, n + 1) / n
        lower = np.arange(0, n) / n
        return max(np.max(np.abs(p - upper)), np.max(np.abs(p - lower)))

    p_values = {"logrank": [], "wald": [], "lr": [], "score": []}
    for rep in range(200):
        data = generate_synthetic(SyntheticSpec(
            n_rows=400, n_numeric=1, n_categorical=0, minority_fraction=0.5,
            class_separation=0.0, hazard_ratio_true=1.0, seed=rep))
        durations = data.column("duration")
        events = data.column("event").astype(int)
        groups = data.column("label").astype(int)
        p_values["logrank"].append(logrank_test(durations, events, groups)["p_value"])
        design = single_column_design(groups)
        tests = cox_tests(cox_fit(design, durations, events))
        for name in ("wald", "lr", "score"):
            p_values[name].append(tests[name]["p_value"])
    for name, p in p_values.items():
        assert ks_distance(p) < 0.1, f"{name} p-values are not uniform"
    assert time.perf_counter() - t0 < 120.0


def test_11_mva_chain():
    # (a) label-independent missingness: the cleansing chain moves the class
    # ratio by at most 3 percentage points; (b) on the 4x4 fixture every
    # stage threshold equals the hand-computed quantile.
    rng = np.random.default_rng(11)
    data = generate_synthetic(SyntheticSpec(
        n_rows=6000, n_numeric=6, n_categorical=2, minority_fraction=0.10,
        class_separation=1.0, seed=11))
    columns = {}
    for spec in data.specs:
        col = data.column(spec.name).copy()
        if spec.role == "feature":
            mask = rng.random(col.size) < (0.08 if spec.kind == "numeric" else 0.05)
            col[mask] = np.nan if spec.kind == "numeric" else -1
        columns[spec.name] = col
    with_missing = Dataset(data.specs, columns)

    ratio_before = with_missing.label_values().mean()
    cleaned, report = clean(with_missing)
    ratio_after = cleaned.label_values().mean()
    assert cleaned.n_rows >= 1000
    assert abs(ratio_after - ratio_before) <= 0.03

    # 4x4 fixture with row NA counts {0,1,2,3}; hand quantiles by linear
    # interpolation: quartiles of {0,1,2,3} are (0.75, 1.5, 2.25).
    cells = np.ones((4, 4))
    cells[1, 0] = np.nan
    cells[2, 0] = cells[2, 1] = np.nan
    cells[3, 0] = cells[3, 1] = cells[3, 2] = np.nan
    fixture = Dataset([ColumnSpec(f"f{j}", "numeric", "feature") for j in range(4)],
                      {f"f{j}": cells[:, j] for j in range(4)})
    profile = profile_missing(fixture)
    assert profile.row_quartiles == (0.75, 1.5, 2.25)
    assert profile.column_quartiles == (0.75, 1.5, 2.25)

    _, report = clean(fixture)
    stages = {rec["stage"]: rec for rec in report["stages"]}
    # rows: drop NA count > Q3 = 2.25, so only the 3-NA row goes
    assert stages["drop_sparse_rows"]["threshold"] == 2.25
    assert stages["drop_sparse_rows"]["rows_after"] == 3
    # columns, re-profiled on 3 rows: counts {2,1,0,0} -> Q1 = 0.0
    assert stages["drop_sparse_columns"]["threshold"] == 0.0
    assert stages["drop_sparse_columns"]["dropped_columns"] == ["f0", "f1"]
    # harmonize at 30%: the survivors are complete, nothing to drop
    assert stages["harmonize_columns"]["threshold"] == 0.30
    assert stages["harmonize_columns"]["dropped_columns"] == []
    assert stages["drop_incomplete_rows"]["rows_after"] == 3
