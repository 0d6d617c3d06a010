"""The three benchmark workloads: set-up, timed operation and output checks.

Every function here runs inside a child process whose working directory is
the workload's work directory, so the program sees relative paths only and
its artifacts (config echo included) do not depend on where the checkout is.

  inputs/   written by set-up: CSV + schema sidecars (and, for rescore, models)
  out/      written by the timed operation
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

ALGORITHMS = ("rpart", "tree", "ctree", "bag", "logit", "nb", "ann")
TREE_ALGORITHMS = ("rpart", "tree", "ctree", "bag")
STAGES = ("load", "clean", "split", "smote", "train", "evaluate", "mix",
          "predict", "km", "cox")
LAYERS = ("pipeline", "cli", "classifiers", "dataset", "fileio", "cleansing",
          "resampling", "evaluation", "mixture", "survival", "cox", "svg")
CLI_STEPS = ("mix", "predict", "km", "cox")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "pipeline" or "cli"
    rows: int                 # train era (pipeline) or calibration file (cli)
    predict_rows: int         # predict era (pipeline) or new era (cli)
    numeric: int
    categorical: int
    minority: float
    separation: float = 0.5
    hazard_ratio: float = 1.0
    algorithms: tuple = ALGORITHMS
    alpha_grid_step: float = 0.01
    model_rows: int = 0       # cli: source rows of the models trained in set-up

    @property
    def rows_consumed(self) -> int:
        return self.rows + self.predict_rows


WORKLOADS = {
    "desk": Workload("desk", "pipeline", 10_000, 10_000, 18, 2, 0.05),
    "cohort": Workload("cohort", "pipeline", 25_000, 25_000, 18, 2, 0.05,
                       algorithms=("logit", "nb")),
    "rescore": Workload("rescore", "cli", 10_000, 25_000, 10, 4, 0.1,
                        separation=1.0, hazard_ratio=2.0, algorithms=("bag", "ann"),
                        alpha_grid_step=0.001, model_rows=2_000),
}

# Spans each workload must hit in a traced run; one that never fires means a
# refactor moved the work out of the benchmark's sight.
_COMMON_SPANS = (
    "dataset.load_csv", "fileio.atomic_write_text", "evaluation.roc_curve",
    "evaluation.separation_score", "mixture.optimize_weight", "survival.km_fit",
    "survival.logrank_test", "cox.build_design", "cox.cox_fit", "cox.cox_tests",
    "cox.detect_separation", "svg.render_svg")
_PIPELINE_SPANS = _COMMON_SPANS + (
    "pipeline.run_pipeline", "dataset.write_csv", "cleansing.clean",
    "resampling.split", "resampling.smote", "classifiers.save_model")


def expected_spans(workload: Workload) -> tuple:
    fits = tuple(f"classifiers.fit.{a}" for a in workload.algorithms)
    predicts = tuple(f"classifiers.predict_proba.{a}" for a in workload.algorithms)
    if workload.kind == "pipeline":
        return _PIPELINE_SPANS + fits + predicts
    return (_COMMON_SPANS + predicts + ("classifiers.load_model",)
            + tuple(f"cli.{step}" for step in CLI_STEPS))


# -- metrics ---------------------------------------------------------------------

END_TO_END = {
    "wall_s": "s", "rows_per_s": "rows/s", "cpu_s": "s", "peak_rss_mb": "MB",
    "setup_s": "s", "mix_auc": "auc",
}


def _per_layer() -> dict:
    out = {f"pipeline.stage.{s}.s": "s" for s in STAGES}
    out["pipeline.train.parallelism"] = "ratio"
    out.update({f"cli.{step}.s": "s" for step in CLI_STEPS})
    out.update({f"classifiers.fit.{a}.s": "s" for a in ALGORITHMS})
    out.update({f"classifiers.predict_proba.{a}.s": "s" for a in ALGORITHMS})
    out["classifiers.predict_proba.rows"] = "count"
    out["classifiers.save_model.s"] = "s"
    out["classifiers.load_model.s"] = "s"
    out.update({f"classifiers.tree_nodes.{a}": "count" for a in TREE_ALGORITHMS})
    out.update({
        "dataset.write_csv.s": "s", "dataset.write_csv.rows": "count",
        "dataset.load_csv.s": "s", "dataset.load_csv.rows": "count",
        "fileio.atomic_write_text.s": "s", "fileio.atomic_write_text.calls": "count",
        "fileio.bytes_written": "bytes",
        "cleansing.clean.s": "s",
        "resampling.split.s": "s", "resampling.smote.s": "s",
        "resampling.smote.rss_growth_mb": "MB",
        "evaluation.roc_curve.s": "s", "evaluation.roc_curve.calls": "count",
        "evaluation.separation_score.s": "s",
        "mixture.optimize_weight.s": "s", "mixture.grid_points": "count",
        "survival.km_fit.s": "s", "survival.logrank_test.s": "s",
        "cox.build_design.s": "s", "cox.cox_fit.s": "s", "cox.cox_tests.s": "s",
        "cox.detect_separation.s": "s", "cox.cox_fit.calls": "count",
        "cox.newton_iterations": "count",
        "svg.render_svg.s": "s",
    })
    out.update({f"{layer}.self_s": "s" for layer in LAYERS})
    out["trace.wall_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


PER_LAYER = _per_layer()

# Per-layer metrics that are counts and must repeat exactly between runs.
EXACT_COUNTS = tuple(name for name, unit in PER_LAYER.items()
                     if unit in ("count", "bytes"))


# -- set-up ----------------------------------------------------------------------

def _era(workload: Workload, rows: int, seed: int):
    """`rows` generated rows with exactly round(rows * minority) minority rows.

    The generator draws each label independently, so the minority count, and
    with it the SMOTE and tree work, would vary from seed to seed.  Drawing
    twice the rows and keeping the first rows of each class fixes the count.
    """
    import numpy as np
    from survmix.dataset import (ColumnSpec, Dataset, SyntheticSpec,
                                 generate_synthetic)
    data = generate_synthetic(SyntheticSpec(
        n_rows=2 * rows, n_numeric=workload.numeric,
        n_categorical=workload.categorical, minority_fraction=workload.minority,
        class_separation=workload.separation,
        hazard_ratio_true=workload.hazard_ratio, seed=seed))
    y = data.label_values()
    n_minority = round(rows * workload.minority)
    keep = np.sort(np.concatenate([np.flatnonzero(y == 1)[:n_minority],
                                   np.flatnonzero(y == 0)[:rows - n_minority]]))
    columns = {name: data.column(name)[keep] for name in data.names}
    columns["id"] = np.arange(rows, dtype=np.int32)
    ids = ColumnSpec("id", "categorical", "id",
                     tuple(f"r{i:07d}" for i in range(rows)))
    return Dataset([ids if s.name == "id" else s for s in data.specs], columns)


def _write(data, stem: Path) -> None:
    """Write `data` as CSV + schema sidecar, as the CLI's `generate` does."""
    from survmix.dataset import write_csv, write_schema
    write_csv(data, stem.with_suffix(".csv"))
    write_schema(data.specs, stem.with_suffix(".schema"))


def setup(workload: Workload, seed: int, inputs: Path) -> None:
    """Generate the workload's inputs from `seed` and write them to `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload.kind == "pipeline":
        _write(_era(workload, workload.rows, seed), inputs / "train")
        _write(_era(workload, workload.predict_rows, seed + 1), inputs / "predict")
        return
    from survmix.classifiers import ClassifierSpec, fit, save_model
    from survmix.resampling import SmoteSpec, smote
    source = _era(workload, workload.model_rows, seed)
    balanced = smote(source, SmoteSpec(seed=seed))
    for algorithm in workload.algorithms:
        model = fit(balanced, ClassifierSpec(algorithm, seed=seed))
        save_model(model, inputs / f"model_{algorithm}.json")
    _write(_era(workload, workload.rows, seed + 1), inputs / "calibration")
    _write(_era(workload, workload.predict_rows, seed + 2), inputs / "era")


# -- the timed operation -----------------------------------------------------------

def prepare(workload: Workload, seed: int):
    """The timed operation as a callable taking an optional tracer.

    Everything that is not the operation itself (config parsing, imports)
    happens here, before the clock starts.
    """
    if workload.kind == "pipeline":
        from survmix import pipeline
        config = pipeline.PipelineConfig.from_mapping({
            "data.train": "inputs/train.csv", "data.predict": "inputs/predict.csv",
            "data.output": "out", "pipeline.seed": str(seed),
            "train.algorithms": ",".join(workload.algorithms),
            "mixture.alpha_grid_step": repr(workload.alpha_grid_step)})

        def operation(tracer=None):
            # Looked up at call time so that a traced run calls the wrapper.
            pipeline.run_pipeline(config)
            return []
        return operation

    from survmix import cli
    a, b = (f"inputs/model_{algo}.json" for algo in workload.algorithms)
    steps = {
        "mix": ["mix", "--data", "inputs/calibration.csv", "--model-a", a,
                "--model-b", b, "--alpha-grid-step", repr(workload.alpha_grid_step),
                "--out-dir", "out/mix"],
        "predict": ["predict", "--data", "inputs/era.csv",
                    "--mixture", "out/mix/mixture.json", "--model-a", a,
                    "--model-b", b, "--out", "out/labels.csv"],
        "km": ["km", "--data", "inputs/era.csv", "--labels", "out/labels.csv",
               "--out-dir", "out/surv"],
        "cox": ["cox", "--data", "inputs/era.csv", "--labels", "out/labels.csv",
                "--out-dir", "out/surv"],
    }

    def operation(tracer=None):
        errors = []
        for step in CLI_STEPS:
            if tracer is None:
                status = cli.main(steps[step])
            else:
                with tracer.span(f"cli.{step}"):
                    status = cli.main(steps[step])
            if status != 0:
                errors.append(f"cli {step} exited with status {status}")
                break
        return errors
    return operation


# -- checks ------------------------------------------------------------------------

def check_outputs(workload: Workload) -> list:
    """Correctness failures of the artifacts under out/ (empty when all hold).

    Every written dataset and model is read back through `load_csv` and
    `load_model`.
    """
    from survmix.classifiers import load_model
    from survmix.dataset import load_csv
    from survmix.errors import SurvmixError
    from survmix.pipeline import validate_report

    out = Path("out")
    errors = []
    if workload.kind == "pipeline":
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report.get("error") is not None:
            return [f"report.error: {report['error']}"]
        try:
            validate_report(report)
        except SurvmixError as exc:
            errors.append(f"validate_report: {exc}")
        for schema in sorted(out.glob("*.schema")):
            try:
                load_csv(schema.with_suffix(".csv"), schema)
            except SurvmixError as exc:
                errors.append(f"{schema.stem}.csv does not reload: {exc}")
        for model in sorted(out.glob("model_*.json")):
            try:
                load_model(model)
            except SurvmixError as exc:
                errors.append(f"{model.name} does not reload: {exc}")
    else:
        labels = (out / "labels.csv").read_text(encoding="utf-8").splitlines()
        if len(labels) != workload.predict_rows + 1:
            errors.append(f"labels.csv has {len(labels) - 1} rows, "
                          f"expected {workload.predict_rows}")
    auc = mix_auc(workload)
    if not (0.0 < auc <= 1.0 and math.isfinite(auc)):
        errors.append(f"mixture test_auc {auc!r} is not a probability")
    return errors


def mix_auc(workload: Workload) -> float:
    path = Path("out/mixture.json" if workload.kind == "pipeline"
                else "out/mix/mixture.json")
    return float(json.loads(path.read_text(encoding="utf-8"))["test_auc"])


def artifact_digest() -> str:
    """SHA-256 over every artifact under out/, timings and output dir left out."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path("out").rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report["config"].pop("output_dir", None)
            for stage in report["stages"]:
                stage.pop("seconds", None)
                stage.pop("seconds_per_model", None)
            data = json.dumps(report, sort_keys=True).encode("utf-8")
        digest.update(path.relative_to("out").as_posix().encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


# -- per-layer figures read from artifacts ------------------------------------------

def artifact_layer_metrics(workload: Workload) -> dict:
    """Stage seconds from report.json and tree node counts from model JSON."""
    metrics = {f"pipeline.stage.{s}.s": 0.0 for s in STAGES}
    metrics["pipeline.train.parallelism"] = 0.0
    if workload.kind == "pipeline":
        report = json.loads(Path("out/report.json").read_text(encoding="utf-8"))
        for stage in report["stages"]:
            metrics[f"pipeline.stage.{stage['name']}.s"] = stage["seconds"]
            if stage["name"] == "train" and stage["seconds"] > 0:
                metrics["pipeline.train.parallelism"] = (
                    sum(stage["seconds_per_model"].values()) / stage["seconds"])
        model_dir = Path("out")
    else:
        model_dir = Path("inputs")
    for algorithm in TREE_ALGORITHMS:
        path = model_dir / f"model_{algorithm}.json"
        nodes = 0
        if path.exists():
            state = json.loads(path.read_text(encoding="utf-8"))["state"]
            trees = state["trees"] if algorithm == "bag" else [state]
            nodes = sum(len(tree["nodes"]) for tree in trees)
        metrics[f"classifiers.tree_nodes.{algorithm}"] = nodes
    return metrics
