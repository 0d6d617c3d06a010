"""End-to-end orchestration: clean, split, rebalance, train all classifiers,
evaluate, blend the best two, predict with abstention on second-era data, then
Kaplan-Meier and a Cox model suite on the predicted groups.

`run_pipeline` runs its ten stages from one table (`_STAGES`) through one
loop, which alone times each stage, records its detail in the report and
names the stage of a failure.  The evaluate, mix, predict, km and cox stages
are functions of in-memory inputs (`evaluate_stage` ... `cox_stage`) that
return their artifacts as {file name: text} plus the stage's detail; the
matching CLI subcommands run these same functions on files.  Every stage
persists its intermediate in the module serialization format (datasets as
CSV+schema, models as their versioned JSON), so each stage can be re-run
standalone from the previous stage's files and yields the same bytes as the
one-shot pipeline.  The run report is self-contained: config echo, seed,
per-stage counts, and artifact inventory.
"""

import copy
import time
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .classifiers import ALGORITHMS, ClassifierSpec, algorithm_of, fit, save_model
from .cleansing import clean, label_balance
from .cox import (DEFAULT_TIES, TIES_METHODS, build_design, cox_fit, cox_tests,
                  detect_separation, hazard_ratios, parse_formula)
from .dataset import (ColumnSpec, Dataset, SyntheticSpec, generate_synthetic,
                      load_csv, schema_path, write_dataset)
from .errors import DomainError, ParseError, SurvmixError
from .evaluation import CUTOFF_CRITERIA, roc_curve, select_cutoff, separation_score
from .fileio import atomic_write_text, csv_text, json_text, write_json
from .mixture import (ABSTENTION_LABELS, DEFAULT_CUTOFF_HIGH, DEFAULT_CUTOFF_LOW,
                      DEFAULT_GRID_STEP, MixtureModel, classify_scores, mix_scores,
                      optimize_weight)
from .resampling import SmoteSpec, SplitSpec, smote, split
from .survival import DEFAULT_CONFIDENCE, km_fit, logrank_test
from .svg import render_svg

SCHEMA_VERSION = 1

PREDICTED_COLUMN = "predicted_label"


# -- configuration -------------------------------------------------------------

def parse_config(text: str, source: str = "<config>") -> dict:
    """Flat sectioned key=value format -> {'section.key': 'value'} strings."""
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ParseError(f"{source}:{lineno}: empty section name")
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if section is None:
            raise ParseError(f"{source}:{lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError(f"{source}:{lineno}: empty key")
        out[f"{section}.{key}"] = value.strip()
    return out


def _csv_list(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _references(value: str) -> dict:
    refs = {}
    for pair in _csv_list(value):
        col, _, level = pair.partition("=")
        if not col.strip() or not level.strip():
            raise ValueError(pair)
        refs[col.strip()] = level.strip()
    return refs


# How `from_mapping` parses a field's text by its declared type; str, int
# and float parse themselves.
_PARSERS = {tuple: _csv_list, dict: _references}


def _key(key: str, default=MISSING, **kwargs):
    """A config field read from the config key `key`."""
    return field(default=default, metadata={"key": key}, **kwargs)


@dataclass(frozen=True)
class PipelineConfig:
    """Resolved pipeline parameters.  Each field names its config key; every
    default is the one the code that uses the setting declares."""

    output_dir: str = _key("data.output", "")
    train_path: str = _key("data.train", "")
    train_schema: str = _key("data.train_schema", "")
    predict_path: str = _key("data.predict", "")
    predict_schema: str = _key("data.predict_schema", "")
    synthetic_rows: int = _key("synthetic.rows", 0)  # > 0: both eras synthetic
    synthetic_numeric: int = _key("synthetic.numeric", SyntheticSpec.n_numeric)
    synthetic_categorical: int = _key("synthetic.categorical", SyntheticSpec.n_categorical)
    synthetic_minority: float = _key("synthetic.minority", SyntheticSpec.minority_fraction)
    synthetic_separation: float = _key("synthetic.separation",
                                       SyntheticSpec.class_separation)
    synthetic_hazard_ratio: float = _key("synthetic.hazard_ratio",
                                         SyntheticSpec.hazard_ratio_true)
    synthetic_horizon: float = _key("synthetic.horizon", SyntheticSpec.censoring_horizon)
    synthetic_predict_rows: int = _key("synthetic.predict_rows", 0)  # 0: synthetic_rows
    seed: int = _key("pipeline.seed", SplitSpec.seed)  # the seed of every stage's spec
    train_fraction: float = _key("split.train_fraction", SplitSpec.train_fraction)
    smote_k: int = _key("smote.k", SmoteSpec.k)
    smote_over: float = _key("smote.over", SmoteSpec.over_pct)
    smote_under: float = _key("smote.under", SmoteSpec.under_pct)
    algorithms: tuple = _key("train.algorithms", ALGORITHMS)
    mix_components: tuple = _key("mixture.components", ())  # (): top two by test AUC
    alpha_grid_step: float = _key("mixture.alpha_grid_step", DEFAULT_GRID_STEP)
    cutoff_low: float = _key("mixture.cutoff_low", DEFAULT_CUTOFF_LOW)
    cutoff_high: float = _key("mixture.cutoff_high", DEFAULT_CUTOFF_HIGH)
    km_confidence: float = _key("km.confidence", DEFAULT_CONFIDENCE)
    cox_formulas: tuple = _key("cox.formulas", ())  # (): auto suite from categoricals
    cox_ties: str = _key("cox.ties", DEFAULT_TIES)
    cox_references: dict = _key("cox.references", default_factory=dict)

    def __post_init__(self):
        if not self.output_dir:
            raise DomainError("config needs data.output (the output directory)")
        if self.synthetic_rows <= 0 and not self.train_path:
            raise DomainError("config needs data.train or synthetic.rows")
        if self.synthetic_rows <= 0 and not self.predict_path:
            raise DomainError("config needs data.predict or synthetic.rows")
        unknown = set(self.algorithms) - set(ALGORITHMS)
        if unknown:
            raise DomainError(f"unknown algorithms in config: {sorted(unknown)}")
        if len(self.algorithms) < 2:
            raise DomainError("the pipeline needs at least two algorithms to mix")
        if self.mix_components:
            if len(self.mix_components) != 2:
                raise DomainError("mixture.components must name exactly two algorithms")
            missing = set(self.mix_components) - set(self.algorithms)
            if missing:
                raise DomainError(
                    f"mixture components not in train.algorithms: {sorted(missing)}")
        if self.cox_ties not in TIES_METHODS:
            raise DomainError(f"unknown cox ties method {self.cox_ties!r}")

    @classmethod
    def from_mapping(cls, mapping) -> "PipelineConfig":
        by_key = {f.metadata["key"]: f for f in fields(cls)}
        values = {}
        for key, raw in mapping.items():
            if key not in by_key:
                raise DomainError(f"unknown config key {key!r}")
            f = by_key[key]
            try:
                values[f.name] = _PARSERS.get(f.type, f.type)(raw)
            except ValueError:
                raise DomainError(f"config key {key!r}: cannot parse {raw!r}")
        return cls(**values)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


# -- report --------------------------------------------------------------------

@dataclass
class RunReport:
    seed: int
    config: dict
    stages: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)   # relative path -> text
    error: "dict | None" = None

    def add_stage(self, name: str, seconds: float, detail: dict) -> None:
        self.stages.append({"name": name, "seconds": round(seconds, 6), **detail})

    def to_dict(self) -> dict:
        return copy.deepcopy({
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "seed": self.seed,
            "config": self.config,
            "stages": self.stages,
            "artifacts": sorted(self.artifacts),
            "error": self.error,
        })


def validate_report(obj) -> None:
    """Raise DomainError unless `obj` looks like a RunReport.to_dict payload."""
    if not isinstance(obj, dict):
        raise DomainError("report must be a JSON object")
    required = {"schema_version": int, "tool_version": str, "seed": int,
                "config": dict, "stages": list, "artifacts": list}
    for key, kind in required.items():
        if key not in obj:
            raise DomainError(f"report is missing key {key!r}")
        if not isinstance(obj[key], kind):
            raise DomainError(f"report key {key!r} must be {kind.__name__}")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise DomainError(f"unsupported report schema_version {obj['schema_version']}")
    if "error" not in obj:
        raise DomainError("report is missing key 'error'")
    if obj["error"] is not None and not isinstance(obj["error"], dict):
        raise DomainError("report key 'error' must be null or an object")
    seen = set()
    for stage in obj["stages"]:
        if not isinstance(stage, dict) or "name" not in stage or "seconds" not in stage:
            raise DomainError("each stage needs 'name' and 'seconds'")
        if stage["name"] in seen:
            raise DomainError(f"stage {stage['name']!r} appears more than once")
        seen.add(stage["name"])


def emit_report(report: RunReport, out_dir) -> None:
    """Write every collected artifact, then report.json."""
    write_artifacts(out_dir, report.artifacts)
    write_json(Path(out_dir) / "report.json", report.to_dict())


# -- file helpers ------------------------------------------------------------------

def write_artifacts(out_dir, artifacts: dict) -> None:
    """Write {file name: text} into `out_dir`, creating the directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(artifacts):
        atomic_write_text(out / name, artifacts[name])


def km_csv(curves: dict) -> str:
    """One row per distinct event time per group; undefined cells left empty."""
    per_group = [(np.full(len(c.times), group, dtype=object), c.times, c.at_risk, c.deaths,
                  c.survival, np.sqrt(c.variance), c.ci_lower, c.ci_upper)
                 for group, c in sorted(curves.items())]
    columns = [np.concatenate(parts) for parts in zip(*per_group)] or [()] * 8
    return csv_text(("group", "time", "at_risk", "deaths", "survival",
                     "sd", "ci_lo", "ci_hi"), columns, ",")


def row_ids(data: Dataset) -> list:
    """Values of the id column (`Dataset.values`; a missing categorical id
    becomes "row<i>"), or row numbers when there is none."""
    name = data.role_column("id")
    if name is None:
        return list(range(data.n_rows))
    values = data.values(name)
    if data.spec(name).kind == "categorical":
        return [v if v is not None else f"row{i}" for i, v in enumerate(values)]
    return values


def survival_columns(data: Dataset) -> tuple:
    """(durations, events as int) from the dataset's duration and event
    roles; a missing cell in either is rejected before the cast."""
    duration_col = data.role_column("duration")
    event_col = data.role_column("event")
    if duration_col is None or event_col is None:
        raise DomainError("dataset needs duration and event columns")
    for name in (duration_col, event_col):
        if data.missing_mask(name).any():
            raise DomainError(f"column {name!r} has missing cells")
    return data.column(duration_col), data.column(event_col).astype(int)


def classified_rows(data: Dataset, labels) -> tuple:
    """The rows given a predicted group, and those groups, in source order.
    The rows gain the group as the 0/1 column `predicted_label` (1 for
    positive), which the Cox suite uses as its main effect.
    """
    labels = np.asarray(labels)
    keep = np.flatnonzero(labels != "unclassified")
    if keep.size == 0:
        raise DomainError("every row was unclassified")
    groups = labels[keep]
    kept = data.take_rows(keep).with_column(
        ColumnSpec(PREDICTED_COLUMN, "numeric", "feature"),
        (groups == "positive").astype(float))
    return kept, groups


# -- analyses -----------------------------------------------------------------------

def rank_algorithms(metrics: dict) -> list:
    """Algorithm names by descending test AUC; vocabulary order breaks ties."""
    return sorted(metrics, key=lambda a: (-metrics[a]["auc"], ALGORITHMS.index(a)))


def cox_suite_formulas(data: Dataset) -> list:
    """Paper-shaped model suite: main effect, then + and * per categorical."""
    cats = [s.name for s in data.specs
            if s.kind == "categorical" and s.role == "feature"]
    suite = [PREDICTED_COLUMN]
    suite += [f"{PREDICTED_COLUMN} + {c}" for c in cats]
    suite += [f"{PREDICTED_COLUMN} * {c}" for c in cats]
    return suite


def cox_summary_text(suite: list, ties: str) -> str:
    """Fixed-width per-model summary table."""
    lines = [f"Cox proportional hazards (ties: {ties})", ""]
    for i, model in enumerate(suite, start=1):
        lines.append(f"Model ({i}): {model['formula']}")
        if "error" in model:
            lines.append(f"  not estimated: {model['error']}")
            lines.append("")
            continue
        lines.append(f"  n = {model['n']}, events = {model['events']}, "
                     f"iterations = {model['iterations']}")
        lines.append(f"  {'column':<28} {'beta':>10} {'se':>10} "
                     f"{'HR':>8} {'95% CI':>20}")
        for c in model["coefficients"]:
            ci = f"[{c['ci_lower']:.4f}, {c['ci_upper']:.4f}]"
            lines.append(f"  {c['name']:<28} {c['beta']:>10.4f} {c['se']:>10.4f} "
                         f"{c['hazard_ratio']:>8.4f} {ci:>20}")
        t = model["tests"]
        parts = [f"Wald {t['wald']['statistic']:.3f} "
                 f"(df {t['wald']['df']}, p {t['wald']['p_value']:.3g})",
                 f"LR {t['lr']['statistic']:.3f} "
                 f"(df {t['lr']['df']}, p {t['lr']['p_value']:.3g})"]
        if t["score"] is None:
            parts.append("Score unavailable (singular information)")
        else:
            parts.append(f"Score {t['score']['statistic']:.3f} "
                         f"(df {t['score']['df']}, p {t['score']['p_value']:.3g})")
        lines.append("  " + " | ".join(parts))
        if model["separation_flags"]:
            for f in model["separation_flags"]:
                lines.append(f"  flagged: {f['column']} ({f['reason']})")
        lines.append("")
    return "\n".join(lines) + "\n"


def km_svg(curves: dict) -> str:
    series = []
    for group in sorted(curves):
        c = curves[group]
        x = np.concatenate([[0.0], c.times])
        y = np.concatenate([[1.0], c.survival])
        series.append((group, x, y))
    return render_svg(series, title="Survival by predicted group",
                      x_label="time", y_label="survival")


# -- stage bodies shared with the CLI subcommands -----------------------------------
#
# Each takes in-memory inputs and returns what later stages need (metrics,
# mixture and mixed scores, labels or Cox suite; km has none), then its
# artifacts as {file name: text}, then the detail dict the run report records.

def evaluate_stage(models: dict, data: Dataset) -> tuple:
    """(metrics, artifacts, detail): per-model AUC, separation, optimal
    cutoffs and their confusion matrices in metrics.json, and one
    roc_<algorithm>.csv per model; `metrics` holds each model's scores too."""
    labels = data.label_values()
    metrics, artifacts = {}, {}
    for name, model in models.items():
        scores = model.predict_proba(data)
        curve = roc_curve(scores, labels)
        cutoffs, matrices = {}, {}
        for criterion in CUTOFF_CRITERIA:
            cutoffs[criterion], matrices[criterion] = select_cutoff(curve, criterion)
        metrics[name] = {"auc": curve.auc,
                         "separation": separation_score(scores, labels),
                         "cutoffs": cutoffs, "confusion": matrices, "scores": scores}
        artifacts[f"roc_{name}.csv"] = csv_text(("threshold", "fpr", "tpr"), (
            curve.thresholds, curve.fpr, curve.tpr), ",")
    ranking = rank_algorithms(metrics)
    public = {a: {k: v for k, v in m.items() if k != "scores"}
              for a, m in metrics.items()}
    artifacts["metrics.json"] = json_text({"algorithms": public, "ranking": ranking})
    detail = {"ranking": ranking,
              "auc": {a: metrics[a]["auc"] for a in ranking},
              "cutoffs": {a: public[a]["cutoffs"] for a in ranking}}
    return metrics, artifacts, detail


def mix_stage(model_a, model_b, scores_a, scores_b, labels, grid_step,
              cutoff_low, cutoff_high) -> tuple:
    """(mixture, mixed scores, artifacts, detail) for mixture.json.

    `scores_a` and `scores_b` are the components' scores on the labelled
    rows, so no model is run here.  The objective is the trace's record at
    the chosen alpha; the test AUC is `roc_curve`'s on the mixed scores,
    which that record's AUC equals bit for bit.
    """
    alpha, trace = optimize_weight(scores_a, scores_b, labels, grid_step)
    mixture = MixtureModel(alpha, model_a, model_b, cutoff_low, cutoff_high)
    mixed = mix_scores(alpha, scores_a, scores_b)
    best = next(point["objective"] for point in reversed(trace) if point["alpha"] == alpha)
    test_auc = roc_curve(mixed, labels).auc
    components = [algorithm_of(model_a), algorithm_of(model_b)]
    artifacts = {"mixture.json": json_text({
        "component_a": components[0], "component_b": components[1],
        "alpha": alpha, "cutoff_low": cutoff_low, "cutoff_high": cutoff_high,
        "grid_step": grid_step, "objective": best, "test_auc": test_auc,
        "trace": trace})}
    detail = {"components": components, "alpha": alpha, "objective": best,
              "test_auc": test_auc}
    return mixture, mixed, artifacts, detail


def predict_stage(data: Dataset, scores, cutoff_low, cutoff_high) -> tuple:
    """(labels, artifacts, detail) for labels.csv; detail counts each label."""
    labels = classify_scores(scores, cutoff_low, cutoff_high)
    artifacts = {"labels.csv": csv_text(("id", "probability", "label"), (
        row_ids(data), scores, labels), ",")}
    counts = {name: labels.count(name) for name in ABSTENTION_LABELS}
    fractions = {name: n / len(labels) if labels else 0.0 for name, n in counts.items()}
    detail = {"rows": data.n_rows, "counts": counts, "fractions": fractions}
    return labels, artifacts, detail


def km_stage(data: Dataset, groups, confidence: float) -> tuple:
    """(artifacts, detail) for km.csv, km.svg and logrank.json; `groups`
    holds one group value per row of `data`."""
    durations, events = survival_columns(data)
    curves = {}
    for value in np.unique(groups):
        mask = groups == value
        curves[str(value)] = km_fit(durations[mask], events[mask], confidence)
    if len(curves) == 2 and events.sum() > 0:
        logrank = logrank_test(durations, events, groups)
    else:
        logrank = {"error": "log-rank needs two groups with at least one event"}
    artifacts = {"km.csv": km_csv(curves), "km.svg": km_svg(curves),
                 "logrank.json": json_text(logrank)}
    detail = {"groups": {g: {"n": int((groups == g).sum()),
                             "events": int(events[groups == g].sum()),
                             "final_survival": (float(c.survival[-1])
                                                if len(c.times) else 1.0)}
                         for g, c in curves.items()},
              "logrank": logrank, "confidence": confidence}
    return artifacts, detail


def cox_stage(data: Dataset, formulas, ties: str, references: dict) -> tuple:
    """(suite, artifacts, detail) for cox.json and cox_summary.txt; no
    formulas means the default suite (`cox_suite_formulas`).  Each model is
    fitted on its own, so an error in one never blocks the rest."""
    all_durations, all_events = survival_columns(data)
    suite = []
    for formula in list(formulas) or cox_suite_formulas(data):
        entry = {"formula": formula}
        try:
            design = build_design(data, parse_formula(formula), references)
            durations = all_durations[design.row_index]
            events = all_events[design.row_index]
            flags = detect_separation(design, durations, events)
            fit_ = cox_fit(design, durations, events, ties=ties)
            tests = cox_tests(fit_)
            ratios = hazard_ratios(fit_)
            entry.update({
                "n": int(design.n_rows),
                "events": int(events.sum()),
                "coefficients": [
                    {"name": n, "beta": float(b), "se": float(s), **r}
                    for n, b, s, r in zip(fit_.names, fit_.beta, fit_.se, ratios)],
                "tests": tests,
                "iterations": fit_.iterations,
                "converged": fit_.converged,
                "reference_levels": dict(design.reference_levels),
                "dropped_columns": [list(d) for d in design.dropped_columns],
                "separation_flags": flags,
            })
        except SurvmixError as exc:
            entry["error"] = str(exc)
            entry["error_kind"] = exc.kind
        suite.append(entry)
    artifacts = {"cox.json": json_text({"ties": ties, "models": suite}),
                 "cox_summary.txt": cox_summary_text(suite, ties)}
    detail = {"models": [{k: m.get(k) for k in ("formula", "n", "converged", "error")
                          if k in m} for m in suite]}
    return suite, artifacts, detail


# -- the pipeline ----------------------------------------------------------------
#
# Each stage reads the config and earlier stages' values from `run`, stores
# its own values there, and returns (artifacts, detail).  A dataset is dropped
# from `run` by the last stage that reads it: `raw` by clean, `cleaned` by
# split, `train` by smote.  Each dataset row is rendered once per run: clean
# keeps the rows `write_csv` returns for cleaned.csv, split writes train.csv
# and test.csv from their bytes by source row and keeps train's, and smote
# writes train_balanced.csv from train's, rendering only its synthetic rows,
# and drops them.

def _load_era(config: PipelineConfig, era: str) -> Dataset:
    if config.synthetic_rows <= 0:
        path, schema = ((config.train_path, config.train_schema) if era == "train"
                        else (config.predict_path, config.predict_schema))
        return load_csv(path, schema or schema_path(path))
    rows, seed = config.synthetic_rows, config.seed
    if era == "predict":
        rows = config.synthetic_predict_rows or config.synthetic_rows
        seed = config.seed + 1   # a distinct draw plays the second era
    return generate_synthetic(SyntheticSpec(
        n_rows=rows, n_numeric=config.synthetic_numeric,
        n_categorical=config.synthetic_categorical,
        minority_fraction=config.synthetic_minority,
        class_separation=config.synthetic_separation,
        hazard_ratio_true=config.synthetic_hazard_ratio,
        censoring_horizon=config.synthetic_horizon, seed=seed))


def _train_one(train: Dataset, algorithm: str, seed: int) -> tuple:
    t0 = time.perf_counter()
    model = fit(train, ClassifierSpec(algorithm, seed=seed))
    return model, round(time.perf_counter() - t0, 6)


def _load(run) -> tuple:
    run.raw = _load_era(run.config, "train")
    run.era = _load_era(run.config, "predict")
    return {}, {"train_rows": run.raw.n_rows, "predict_rows": run.era.n_rows}


def _clean(run) -> tuple:
    run.cleaned, mva = clean(run.raw)
    detail = {"rows_in": run.raw.n_rows, "rows_out": run.cleaned.n_rows,
              "stages": mva["stages"]}
    del run.raw
    run.rows = write_dataset(run.cleaned, run.out / "cleaned.csv")
    return {"mva_report.json": json_text(mva)}, detail


def _split(run) -> tuple:
    config = run.config
    run.train, run.test = split(run.cleaned,
                                SplitSpec(config.train_fraction, config.seed))
    del run.cleaned
    train_rows = write_dataset(run.train, run.out / "train.csv", run.rows)
    write_dataset(run.test, run.out / "test.csv", run.rows)
    run.rows = train_rows
    return {}, {"train_rows": run.train.n_rows, "test_rows": run.test.n_rows,
                "train_balance": label_balance(run.train),
                "test_balance": label_balance(run.test)}


def _smote(run) -> tuple:
    config = run.config
    run.balanced = smote(run.train, SmoteSpec(config.smote_k, config.smote_over,
                                              config.smote_under, config.seed))
    detail = {"rows_in": run.train.n_rows, "rows_out": run.balanced.n_rows,
              "balance_before": label_balance(run.train),
              "balance_after": label_balance(run.balanced)}
    del run.train
    write_dataset(run.balanced, run.out / "train_balanced.csv", run.rows)
    del run.rows
    return {}, detail


def _train(run) -> tuple:
    algorithms = run.config.algorithms
    results = {algo: _train_one(run.balanced, algo, run.config.seed)
               for algo in algorithms}
    run.models = {algo: model for algo, (model, _) in results.items()}
    for algo in algorithms:
        save_model(run.models[algo], run.out / f"model_{algo}.json")
    return {}, {"algorithms": list(algorithms),
                "seconds_per_model": {algo: seconds
                                      for algo, (_, seconds) in results.items()}}


def _evaluate(run) -> tuple:
    run.metrics, artifacts, detail = evaluate_stage(run.models, run.test)
    run.ranking = detail["ranking"]
    return artifacts, detail


def _mix(run) -> tuple:
    config = run.config
    a, b = config.mix_components or run.ranking[:2]
    run.mixture, _, artifacts, detail = mix_stage(
        run.models[a], run.models[b], run.metrics[a]["scores"],
        run.metrics[b]["scores"], run.test.label_values(),
        config.alpha_grid_step, config.cutoff_low, config.cutoff_high)
    return artifacts, detail


def _predict(run) -> tuple:
    mixture = run.mixture
    run.labels, artifacts, detail = predict_stage(
        run.era, mixture.predict_proba(run.era),
        mixture.cutoff_low, mixture.cutoff_high)
    return artifacts, detail


def _km(run) -> tuple:
    run.classified, groups = classified_rows(run.era, run.labels)
    return km_stage(run.classified, groups, run.config.km_confidence)


def _cox(run) -> tuple:
    config = run.config
    _, artifacts, detail = cox_stage(run.classified, config.cox_formulas,
                                     config.cox_ties, config.cox_references)
    return artifacts, detail


_STAGES = (("load", _load), ("clean", _clean), ("split", _split),
           ("smote", _smote), ("train", _train), ("evaluate", _evaluate),
           ("mix", _mix), ("predict", _predict), ("km", _km), ("cox", _cox))


def run_pipeline(config: PipelineConfig) -> RunReport:
    """Execute every stage; emit artifacts and report.json into the output dir.

    Any stage failure stops the run, records {stage, message, kind} in the
    report's error field, and still emits the partial report.  The failed
    stage's own artifacts are not emitted.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(seed=config.seed, config=config.to_dict())
    run = SimpleNamespace(config=config, out=out_dir)
    for name, stage in _STAGES:
        t0 = time.perf_counter()
        try:
            artifacts, detail = stage(run)
        except SurvmixError as exc:
            report.error = {"stage": name, "message": str(exc), "kind": exc.kind}
            break
        report.artifacts.update(artifacts)
        report.add_stage(name, time.perf_counter() - t0, detail)
    emit_report(report, out_dir)
    return report
