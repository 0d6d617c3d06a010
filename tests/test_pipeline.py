import collections
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from survmix import dataset, fileio, resampling
from survmix.classifiers import ClassifierSpec, fit, save_model
from survmix.cli import main as cli_main
from survmix.dataset import (ColumnSpec, Dataset, SyntheticSpec, generate_synthetic,
                             load_csv, write_csv, write_schema)
from survmix.errors import DomainError, ParseError
from survmix.pipeline import (
    PipelineConfig,
    RunReport,
    classified_rows,
    cox_stage,
    cox_suite_formulas,
    parse_config,
    rank_algorithms,
    run_pipeline,
    validate_report,
)

CONFIG_TEXT = """\
# synthetic two-era run
[data]
output = {out}

[synthetic]
rows = 500
numeric = 4
categorical = 2
minority = 0.2
separation = 1.5
hazard_ratio = 2.0

[pipeline]
seed = 7
"""


def small_config(out_dir, **overrides):
    base = dict(output_dir=str(out_dir), synthetic_rows=500, synthetic_numeric=4,
                synthetic_categorical=2, synthetic_minority=0.2,
                synthetic_separation=1.5, synthetic_hazard_ratio=2.0, seed=7)
    base.update(overrides)
    return PipelineConfig(**base)


def strip_timing(report: RunReport) -> dict:
    payload = report.to_dict()
    payload["config"].pop("output_dir")
    for stage in payload["stages"]:
        stage.pop("seconds")
        stage.pop("seconds_per_model", None)
    return json.loads(json.dumps(payload, default=float))


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    with pytest.warns(UserWarning):  # undersampling draws with replacement here
        report = run_pipeline(small_config(out))
    return out, report


class TestParseConfig:
    def test_sections_and_comments(self):
        mapping = parse_config("# c\n[a]\nx = 1\n\n[b]\ny = two words\n")
        assert mapping == {"a.x": "1", "b.y": "two words"}

    def test_value_may_contain_equals(self):
        assert parse_config("[a]\nx = p=q\n") == {"a.x": "p=q"}

    def test_key_outside_section_rejected(self):
        with pytest.raises(ParseError, match="outside"):
            parse_config("x = 1\n")

    def test_bare_line_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            parse_config("[a]\njust words\n")

    def test_empty_section_rejected(self):
        with pytest.raises(ParseError, match="section"):
            parse_config("[]\n")

    def test_error_names_source_and_line(self):
        with pytest.raises(ParseError, match=r"my\.cfg:3"):
            parse_config("[a]\nx = 1\noops\n", source="my.cfg")


class TestPipelineConfig:
    def test_from_mapping_round_trip(self, tmp_path):
        mapping = parse_config(CONFIG_TEXT.format(out=tmp_path))
        config = PipelineConfig.from_mapping(mapping)
        assert config.synthetic_rows == 500
        assert config.seed == 7
        assert config.train_fraction == 0.8  # untouched default
        assert config.to_dict()["algorithms"] == list(config.algorithms)

    def test_unknown_key_rejected(self, tmp_path):
        mapping = {"data.output": str(tmp_path), "synthetic.rows": "10",
                   "data.predic": "x.csv"}
        with pytest.raises(DomainError, match="predic"):
            PipelineConfig.from_mapping(mapping)

    def test_unparseable_value_rejected(self, tmp_path):
        mapping = {"data.output": str(tmp_path), "synthetic.rows": "ten"}
        with pytest.raises(DomainError, match="cannot parse"):
            PipelineConfig.from_mapping(mapping)

    def test_needs_output_dir(self):
        with pytest.raises(DomainError, match="output"):
            PipelineConfig(output_dir="", synthetic_rows=10)

    def test_needs_data_or_synthetic(self, tmp_path):
        with pytest.raises(DomainError, match="data.train or synthetic.rows"):
            PipelineConfig(output_dir=str(tmp_path))

    def test_mixture_components_must_be_two_known(self, tmp_path):
        with pytest.raises(DomainError, match="exactly two"):
            small_config(tmp_path, mix_components=("bag",))
        with pytest.raises(DomainError, match="not in train.algorithms"):
            small_config(tmp_path, algorithms=("bag", "ann"),
                         mix_components=("bag", "logit"))

    def test_references_parsed(self, tmp_path):
        mapping = {"data.output": str(tmp_path), "synthetic.rows": "10",
                   "cox.references": "cat_00=b, cat_01=d"}
        config = PipelineConfig.from_mapping(mapping)
        assert config.cox_references == {"cat_00": "b", "cat_01": "d"}

    def test_formulas_parsed(self, tmp_path):
        mapping = {"data.output": str(tmp_path), "synthetic.rows": "10",
                   "cox.formulas": " a + b ,, a*b ,"}
        config = PipelineConfig.from_mapping(mapping)
        assert config.cox_formulas == ("a + b", "a*b")


class TestRunPipeline:
    def test_all_stages_complete(self, finished_run):
        _, report = finished_run
        assert report.error is None
        assert [s["name"] for s in report.stages] == [
            "load", "clean", "split", "smote", "train", "evaluate",
            "mix", "predict", "km", "cox"]

    def test_artifacts_on_disk(self, finished_run):
        out, report = finished_run
        for name in report.artifacts:
            assert (out / name).exists()
        assert (out / "report.json").exists()
        for stem in ("cleaned", "train", "test", "train_balanced"):
            assert (out / f"{stem}.csv").exists()
            assert (out / f"{stem}.schema").exists()

    def test_report_round_trips_and_validates(self, finished_run):
        out, _ = finished_run
        payload = json.loads((out / "report.json").read_text())
        validate_report(payload)

    def test_mixture_uses_top_two_by_auc(self, finished_run):
        out, report = finished_run
        metrics = json.loads((out / "metrics.json").read_text())
        mixture = json.loads((out / "mixture.json").read_text())
        assert [mixture["component_a"], mixture["component_b"]] == \
            metrics["ranking"][:2]
        aucs = [metrics["algorithms"][a]["auc"] for a in metrics["ranking"]]
        assert aucs == sorted(aucs, reverse=True)

    def test_labels_cover_prediction_era(self, finished_run):
        out, report = finished_run
        lines = (out / "labels.csv").read_text().splitlines()
        assert lines[0] == "id,probability,label"
        assert len(lines) == 1 + 500
        labels = {line.split(",")[2] for line in lines[1:]}
        assert labels <= {"negative", "positive", "unclassified"}

    def test_km_rows_match_event_times(self, finished_run):
        out, _ = finished_run
        km_lines = (out / "km.csv").read_text().splitlines()[1:]
        labels = {line.split(",")[0]: line.split(",")[2]
                  for line in (out / "labels.csv").read_text().splitlines()[1:]}
        data = load_csv(out / "cleaned.csv", out / "cleaned.schema")
        # distinct event times within each classified predicted group
        predict = {g: set() for g in ("negative", "positive")}
        per_group = {g: 0 for g in predict}
        for line in km_lines:
            group, time = line.split(",")[:2]
            assert group in predict
            per_group[group] += 1
            predict[group].add(time)
        assert all(per_group[g] == len(predict[g]) for g in predict)  # no dupes

    def test_logrank_artifact_has_verdict(self, finished_run):
        out, _ = finished_run
        payload = json.loads((out / "logrank.json").read_text())
        assert "error" in payload or 0.0 <= payload["p_value"] <= 1.0

    def test_cox_suite_has_five_models(self, finished_run):
        out, _ = finished_run
        payload = json.loads((out / "cox.json").read_text())
        assert len(payload["models"]) == 5  # main effect, +cat, *cat per categorical
        fitted = [m for m in payload["models"] if "error" not in m]
        assert fitted, "at least one Cox model must fit"
        for model in fitted:
            assert model["converged"]
            names = [c["name"] for c in model["coefficients"]]
            assert "predicted_label" in names
        text = (out / "cox_summary.txt").read_text()
        assert "Model (5)" in text

    def test_deterministic_across_runs(self, finished_run, tmp_path):
        _, first = finished_run
        with pytest.warns(UserWarning):
            second = run_pipeline(small_config(tmp_path))
        assert strip_timing(first) == strip_timing(second)
        assert first.artifacts == second.artifacts

    def test_failure_recorded_and_report_still_emitted(self, tmp_path):
        config = small_config(tmp_path, synthetic_rows=1)
        report = run_pipeline(config)
        assert report.error is not None
        assert report.error["kind"] == "data"
        payload = json.loads((tmp_path / "report.json").read_text())
        validate_report(payload)
        assert payload["error"]["stage"] == report.error["stage"]

    def test_non_utf8_input_fails_the_load_stage(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(n_rows=20, seed=1))
        write_csv(data, tmp_path / "train.csv")
        write_schema(data.specs, tmp_path / "train.schema")
        with open(tmp_path / "train.csv", "ab") as fh:
            fh.write(b"\xff\n")
        report = run_pipeline(PipelineConfig(
            output_dir=str(tmp_path / "out"), train_path=str(tmp_path / "train.csv"),
            predict_path=str(tmp_path / "train.csv")))
        assert report.error["stage"] == "load"
        assert report.error["kind"] == "data"
        assert "not UTF-8" in report.error["message"]
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        validate_report(payload)
        assert payload["error"]["stage"] == "load"

    def test_cell_over_the_csv_field_limit_fails_the_load_stage(self, tmp_path):
        data = generate_synthetic(SyntheticSpec(n_rows=20, seed=1))
        write_csv(data, tmp_path / "train.csv")
        write_schema(data.specs, tmp_path / "train.schema")
        with open(tmp_path / "train.csv", "a") as fh:
            fh.write("x" * 131_073 + "\n")
        report = run_pipeline(PipelineConfig(
            output_dir=str(tmp_path / "out"), train_path=str(tmp_path / "train.csv"),
            predict_path=str(tmp_path / "train.csv")))
        assert report.error["stage"] == "load"
        assert report.error["kind"] == "data"
        assert "train.csv:22: field larger than field limit" in report.error["message"]
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        validate_report(payload)
        assert payload["error"] == report.error

    def test_missing_event_cell_fails_the_km_stage(self, tmp_path):
        for stem, rows, seed in (("train", 600, 5), ("predict", 400, 6)):
            data = generate_synthetic(SyntheticSpec(
                n_rows=rows, n_numeric=4, minority_fraction=0.2, class_separation=1.5,
                seed=seed))
            if stem == "predict":   # every tenth event blank
                events = data.column("event").copy()
                events[::10] = np.nan
                data = Dataset(data.specs, {name: events if name == "event"
                                            else data.column(name) for name in data.names})
            write_csv(data, tmp_path / f"{stem}.csv")
            write_schema(data.specs, tmp_path / f"{stem}.schema")
        report = run_pipeline(PipelineConfig(
            output_dir=str(tmp_path / "out"), train_path=str(tmp_path / "train.csv"),
            predict_path=str(tmp_path / "predict.csv"), algorithms=("logit", "nb"),
            seed=5))
        assert report.error == {"stage": "km", "kind": "data",
                                "message": "column 'event' has missing cells"}

    def test_explicit_components_respected(self, tmp_path):
        with pytest.warns(UserWarning):
            report = run_pipeline(small_config(
                tmp_path, algorithms=("logit", "nb"),
                mix_components=("nb", "logit")))
        assert report.error is None
        mixture = json.loads((tmp_path / "mixture.json").read_text())
        assert mixture["component_a"] == "nb"
        assert mixture["component_b"] == "logit"


class TestStageComposability:
    def test_saved_intermediates_reproduce_models(self, finished_run, tmp_path):
        # Re-fitting from the serialized balanced training set must reproduce
        # the pipeline's model file byte for byte.
        out, report = finished_run
        balanced = load_csv(out / "train_balanced.csv", out / "train_balanced.schema")
        model = fit(balanced, ClassifierSpec("rpart", seed=7))
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text() == \
            (out / "model_rpart.json").read_text()


class TestTracedEntryPoints:
    """perfbench's tracer (perfbench/tracer.py) wraps survmix functions by
    identity wherever a survmix module binds them, and reads their arguments
    as below; a run that routes around them fails here, not only in a traced
    benchmark run."""

    def test_run_calls_the_functions_the_tracer_wraps(self, tmp_path, monkeypatch):
        calls = collections.defaultdict(list)

        def spy(func):
            def wrapper(*args, **kwargs):
                calls[func.__name__].append((args, kwargs))
                return func(*args, **kwargs)
            for module in list(sys.modules.values()):
                if module is not None and module.__name__.split(".")[0] == "survmix":
                    for attr, value in list(vars(module).items()):
                        if value is func:
                            monkeypatch.setattr(module, attr, wrapper)

        for func in (resampling.split, resampling.smote, dataset.write_csv,
                     fileio.atomic_write, fileio.atomic_write_text):
            spy(func)
        with pytest.warns(UserWarning):  # undersampling draws with replacement here
            report = run_pipeline(small_config(tmp_path, algorithms=("logit", "nb")))
        assert report.error is None
        assert (len(calls["split"]), len(calls["smote"])) == (1, 1)
        written = {Path(args[1] if len(args) > 1 else kwargs["path"]).name:
                   args[0] if args else kwargs["data"] for args, kwargs in calls["write_csv"]}
        assert sorted(written) == ["cleaned.csv", "test.csv", "train.csv",
                                   "train_balanced.csv"]
        assert all(isinstance(data, Dataset) for data in written.values())
        # the tracer counts the bytes of `atomic_write_text`'s one str
        texts = [args[1] if len(args) > 1 else kwargs["text"]
                 for args, kwargs in calls["atomic_write_text"]]
        assert texts and all(type(text) is str for text in texts)
        # every file the run leaves went through the one atomic writer
        paths = [args[0] if args else kwargs["path"] for args, kwargs in calls["atomic_write"]]
        assert sorted(Path(p).name for p in paths) == \
            sorted(p.name for p in tmp_path.iterdir())


class TestHelpers:
    def test_rank_algorithms_breaks_ties_in_catalogue_order(self):
        metrics = {"ann": {"auc": 0.9}, "bag": {"auc": 0.9}, "logit": {"auc": 0.95}}
        assert rank_algorithms(metrics) == ["logit", "bag", "ann"]

    def test_cox_suite_shape(self, finished_run):
        out, _ = finished_run
        data = load_csv(out / "cleaned.csv", out / "cleaned.schema")
        suite = cox_suite_formulas(data)
        assert suite[0] == "predicted_label"
        assert "predicted_label + cat_00" in suite
        assert "predicted_label * cat_01" in suite
        assert len(suite) == 5

    def test_classified_rows_keep_source_order(self):
        data = generate_synthetic(SyntheticSpec(n_rows=300, seed=2))
        labels = np.array(["positive", "negative", "unclassified"])[np.arange(300) % 3]
        kept, groups = classified_rows(data, labels)
        expected = np.flatnonzero(labels != "unclassified")
        for name in data.names:
            assert np.array_equal(kept.column(name), data.column(name)[expected])
        assert groups.tolist() == labels[expected].tolist()
        assert kept.column("predicted_label").tolist() == \
            [float(g == "positive") for g in groups]

    def test_cox_stage_ignores_the_order_of_its_rows(self):
        data = generate_synthetic(SyntheticSpec(n_rows=600, hazard_ratio_true=2.0,
                                                seed=3))
        labels = np.array(["positive", "negative", "unclassified"])[np.arange(600) % 3]
        kept, _ = classified_rows(data, labels)
        assert len(set(kept.column("duration"))) < kept.n_rows   # ties are met
        _, artifacts, _ = cox_stage(kept, (), "efron", {})
        shuffled = np.random.default_rng(0).permutation(kept.n_rows)
        _, moved, _ = cox_stage(kept.take_rows(shuffled), (), "efron", {})
        assert moved == artifacts

    def test_cox_summary_lists_the_flags_of_a_converged_model(self):
        # The b carriers' events all come before the others', but half of
        # them are censored late, so the fit converges and is still flagged.
        rows = np.arange(200)
        carrier = rows < 100
        late = carrier & (rows % 2 == 1)
        data = Dataset(
            [ColumnSpec("x", "categorical", "feature", ("a", "b")),
             ColumnSpec("duration", "numeric", "duration"),
             ColumnSpec("event", "numeric", "event")],
            {"x": carrier.astype(np.int32),
             "duration": np.where(carrier, np.where(late, 500.0, rows / 2 + 1.0),
                                  rows + 0.5),
             "event": (~late).astype(float)})
        suite, artifacts, _ = cox_stage(data, ("x",), "efron", {})
        assert suite[0]["converged"]
        assert "  flagged: x=b (carriers' events all precede the others')\n" in \
            artifacts["cox_summary.txt"]

    def test_validate_report_rejects_missing_keys(self):
        with pytest.raises(DomainError, match="missing key"):
            validate_report({"schema_version": 1})

    def test_validate_report_rejects_duplicate_stage(self, finished_run):
        _, report = finished_run
        payload = json.loads(json.dumps(report.to_dict(), default=float))
        payload["stages"].append(payload["stages"][0])
        with pytest.raises(DomainError, match="more than once"):
            validate_report(payload)

    def test_validate_report_rejects_wrong_version(self, finished_run):
        _, report = finished_run
        payload = json.loads(json.dumps(report.to_dict(), default=float))
        payload["schema_version"] = 99
        with pytest.raises(DomainError, match="schema_version"):
            validate_report(payload)


# -- golden run: the pipeline's artifacts, and the subcommands that re-run them --

GOLDEN_ALGORITHMS = ("rpart", "logit", "nb")

# The first 16 hex digits of the sha256 of every artifact of `golden_run`,
# recorded before the stage code was shared between `run_pipeline` and the
# CLI (Python 3.11, numpy 2.4, x86-64).  report.json is hashed without its
# timings and output dir.
GOLDEN_DIGESTS = {
    "cleaned.csv": "540dfb36ccdcba58",
    "cleaned.schema": "a58736a4e57f2563",
    # re-pinned when every fit's row sums became blocked BLAS products
    # (`newton.over_rows`): its last bits moved (at most 4.6e-15 relative in
    # se), cox_summary.txt did not; and again when each Cox fit came to order
    # its rows by duration, event and design row rather than take them in
    # duration order with ties as given: the tied rows' sums moved its last
    # bits (at most 2.5e-13 relative in beta, 5.2e-15 in se), and
    # cox_summary.txt did not
    "cox.json": "986b858ab38c8d49",
    "cox_summary.txt": "a10934345bffa8df",
    "km.csv": "630491e02fdcd7aa",
    "km.svg": "d4017eeda13c55f5",
    # labels.csv, metrics.json, mixture.json, model_logit.json, report.json
    # and roc_logit.csv re-pinned with cox.json: logit's last bits moved
    # (coefficients by at most 5.8e-12 relative), no label, alpha or chosen
    # pair did
    "labels.csv": "9edfa91f9d5f63d5",
    "logrank.json": "4975a481e7829976",
    "metrics.json": "4e8100d26fec5413",
    "mixture.json": "d3d82ec186d79a56",
    "model_logit.json": "329b4b996ca1ac44",
    "model_nb.json": "0ad04049b90f7f0a",
    "model_rpart.json": "6b6eded60f859c3a",
    "mva_report.json": "183988039331554e",
    "report.json": "5f38a623a01874cc",
    "roc_logit.csv": "6a2042d53c1c8af3",
    "roc_nb.csv": "84f05b7bda0815e9",
    "roc_rpart.csv": "d775c68f23b37ca4",
    "test.csv": "5bbce84240f51a3a",
    "test.schema": "a58736a4e57f2563",
    "train.csv": "63c126a6d4912d89",
    "train.schema": "a58736a4e57f2563",
    "train_balanced.csv": "4b038be77c5b7754",
    "train_balanced.schema": "a58736a4e57f2563",
}

# The same for the tree models the golden run leaves out, fitted directly on
# its train_balanced.csv with its seed.
GOLDEN_TREE_DIGESTS = {
    "model_tree.json": "dd4b8a252ab2a4f7",
    # re-pinned when ctree's permutation draws gave way to closed-form p-values
    "model_ctree.json": "5ab5b251a6911283",
    "model_bag.json": "dcab471bb348f24f",
}


def artifact_digests(out_dir) -> dict:
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "report.json":
            report = json.loads(data)
            report["config"].pop("output_dir")
            for stage in report["stages"]:
                stage.pop("seconds")
                stage.pop("seconds_per_model", None)
            data = json.dumps(report, sort_keys=True).encode("utf-8")
        digests[path.name] = hashlib.sha256(data).hexdigest()[:16]
    return digests


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """A seeded run from CSV inputs on both eras, with relative paths only."""
    root = tmp_path_factory.mktemp("golden")
    for stem, rows, seed in (("train", 600, 5), ("predict", 400, 6)):
        data = generate_synthetic(SyntheticSpec(
            n_rows=rows, n_numeric=4, n_categorical=2, minority_fraction=0.2,
            class_separation=1.5, hazard_ratio_true=2.0, seed=seed))
        write_csv(data, root / f"{stem}.csv")
        write_schema(data.specs, root / f"{stem}.schema")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        report = run_pipeline(PipelineConfig(
            output_dir="out", train_path="train.csv", predict_path="predict.csv",
            algorithms=GOLDEN_ALGORITHMS, seed=5))
    assert report.error is None
    return root


class TestGoldenRun:
    def test_artifact_digests_unchanged(self, golden_run):
        assert artifact_digests(golden_run / "out") == GOLDEN_DIGESTS

    def test_tree_model_digests_unchanged(self, golden_run, tmp_path):
        out = golden_run / "out"
        balanced = load_csv(out / "train_balanced.csv", out / "train_balanced.schema")
        for name in GOLDEN_TREE_DIGESTS:
            algorithm = name[len("model_"):-len(".json")]
            save_model(fit(balanced, ClassifierSpec(algorithm, seed=5)), tmp_path / name)
        assert artifact_digests(tmp_path) == GOLDEN_TREE_DIGESTS

    def test_subcommands_reproduce_pipeline_artifacts(self, golden_run, tmp_path):
        out = golden_run / "out"
        assert_dataset_subcommands_reproduce(golden_run, 5, tmp_path)
        mixture = json.loads((out / "mixture.json").read_text())
        a, b = mixture["component_a"], mixture["component_b"]
        steps = [
            ["evaluate", "--data", out / "test.csv", "--out-dir", tmp_path,
             *[arg for algo in GOLDEN_ALGORITHMS
               for arg in ("--model", out / f"model_{algo}.json")]],
            ["mix", "--data", out / "test.csv", "--model-a", out / f"model_{a}.json",
             "--model-b", out / f"model_{b}.json", "--out-dir", tmp_path / "mix"],
            ["predict", "--data", golden_run / "predict.csv",
             "--mixture", tmp_path / "mix" / "mixture.json",
             "--model-a", out / f"model_{a}.json",
             "--model-b", out / f"model_{b}.json", "--out", tmp_path / "labels.csv"],
            ["km", "--data", golden_run / "predict.csv",
             "--labels", tmp_path / "labels.csv", "--out-dir", tmp_path],
            ["cox", "--data", golden_run / "predict.csv",
             "--labels", tmp_path / "labels.csv", "--out-dir", tmp_path],
        ]
        for argv in steps:
            assert cli_main([str(arg) for arg in argv]) == 0, argv[0]
        compared = ["metrics.json", *[f"roc_{algo}.csv" for algo in GOLDEN_ALGORITHMS],
                    "labels.csv", "km.csv", "km.svg", "logrank.json", "cox.json",
                    "cox_summary.txt"]
        for name in compared:
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
        assert (tmp_path / "mix" / "mixture.json").read_bytes() == \
            (out / "mixture.json").read_bytes()

    def test_dataset_subcommands_reproduce_quoted_levels(self, quoted_run, tmp_path):
        assert_dataset_subcommands_reproduce(quoted_run, 3, tmp_path)


DATASET_ARTIFACTS = ("cleaned", "train", "test", "train_balanced")


def assert_dataset_subcommands_reproduce(root, seed, tmp_path):
    """`clean`, `split` and `smote` on a run's train era write its datasets,
    schemas and missing-value report byte for byte."""
    steps = [
        ["clean", "--data", root / "train.csv", "--out", tmp_path / "cleaned.csv",
         "--report", tmp_path / "mva_report.json"],
        ["split", "--data", tmp_path / "cleaned.csv", "--seed", seed,
         "--train-out", tmp_path / "train.csv", "--test-out", tmp_path / "test.csv"],
        ["smote", "--data", tmp_path / "train.csv", "--seed", seed,
         "--out", tmp_path / "train_balanced.csv"],
    ]
    for argv in steps:
        assert cli_main([str(arg) for arg in argv]) == 0, argv[0]
    compared = ["mva_report.json", *[f"{stem}.{suffix}" for stem in DATASET_ARTIFACTS
                                     for suffix in ("csv", "schema")]]
    for name in compared:
        assert (tmp_path / name).read_bytes() == (root / "out" / name).read_bytes(), name


QUOTED_LEVELS = ("semi;colon", 'say "hi"', '"', ";")


@pytest.fixture(scope="module")
def quoted_run(tmp_path_factory):
    """A seeded run whose categorical levels each need quoting in a ';' file."""
    root = tmp_path_factory.mktemp("quoted")
    for stem, rows, seed in (("train", 400, 3), ("predict", 200, 4)):
        data = generate_synthetic(SyntheticSpec(
            n_rows=rows, n_numeric=3, n_categorical=2, minority_fraction=0.2,
            class_separation=1.5, seed=seed))
        data = Dataset([ColumnSpec(s.name, s.kind, s.role, QUOTED_LEVELS)
                        if s.name.startswith("cat_") else s for s in data.specs],
                       {name: data.column(name) for name in data.names})
        write_csv(data, root / f"{stem}.csv")
        write_schema(data.specs, root / f"{stem}.schema")
    assert ';"semi;colon";' in (root / "train.csv").read_text()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        report = run_pipeline(PipelineConfig(
            output_dir="out", train_path="train.csv", predict_path="predict.csv",
            algorithms=("logit", "nb"), seed=3))
    assert report.error is None
    return root
