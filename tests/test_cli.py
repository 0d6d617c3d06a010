import contextlib
import csv
import inspect
import io
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from survmix import cli, cox, mixture, survival
from survmix.classifiers import ClassifierSpec, fit, load_model
from survmix.cli import build_parser, main
from survmix.dataset import ColumnSpec, Dataset, SyntheticSpec, load_csv, write_dataset
from survmix.fileio import text_cells
from survmix.pipeline import PipelineConfig, row_ids
from survmix.resampling import SmoteSpec, SplitSpec


def call(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def separable_fixture(tmp_path):
    data = Dataset(
        [ColumnSpec("x", "numeric", "feature"),
         ColumnSpec("duration", "numeric", "duration"),
         ColumnSpec("event", "numeric", "event")],
        {"x": np.array([1.0, 1.0, 0.0, 0.0]),
         "duration": np.array([1.0, 2.0, 3.0, 4.0]),
         "event": np.ones(4)})
    path = tmp_path / "sep.csv"
    write_dataset(data, path)
    return path


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """simulate -> clean -> split -> smote -> train x2, shared by the flow tests."""
    root = tmp_path_factory.mktemp("cli")
    assert call("simulate", "--rows", 400, "--numeric", 3, "--categorical", 2,
                "--minority", 0.25, "--separation", 1.5, "--hazard-ratio", 2.0,
                "--seed", 4, "--out", root / "data.csv")[0] == 0
    assert call("clean", "--data", root / "data.csv", "--out", root / "clean.csv",
                "--report", root / "mva.json")[0] == 0
    assert call("split", "--data", root / "clean.csv", "--seed", 4,
                "--train-out", root / "train.csv",
                "--test-out", root / "test.csv")[0] == 0
    with pytest.warns(UserWarning):
        assert call("smote", "--data", root / "train.csv", "--seed", 4,
                    "--out", root / "bal.csv")[0] == 0
    for algo in ("bag", "logit"):
        assert call("train", "--data", root / "bal.csv", "--algo", algo,
                    "--seed", 4, "--out", root / f"m_{algo}.json")[0] == 0
    return root


class TestExitCodes:
    def test_help_exits_zero(self):
        assert call("--help")[0] == 0

    def test_subcommand_help_exits_zero(self):
        assert call("cox", "--help")[0] == 0

    def test_version_exits_zero(self):
        assert call("--version")[0] == 0

    def test_module_runs_as_a_script(self):
        # `python -m survmix.cli` runs the CLI from a checkout, not installed
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1])] + sys.path))
        result = subprocess.run([sys.executable, "-m", "survmix.cli", "--version"],
                                capture_output=True, text=True, env=env, timeout=60)
        assert (result.returncode, result.stdout) == (0, "survmix 0.1.0\n")

    def test_no_arguments_is_usage_error(self):
        assert call()[0] == 1

    def test_unknown_subcommand_is_usage_error(self):
        code, _, err = call("frobnicate")
        assert code == 1
        assert "frobnicate" in err

    def test_unknown_flag_is_usage_error(self):
        assert call("simulate", "--rows", 5, "--frob", 1, "--out", "x.csv")[0] == 1

    def test_missing_input_names_the_path(self, tmp_path):
        code, _, err = call("clean", "--data", "/no/such/file.csv",
                            "--out", tmp_path / "out.csv")
        assert code == 2
        assert "/no/such/file.csv" in err

    @pytest.mark.parametrize("bad", ["data", "schema"])
    def test_non_utf8_input_is_exit_two(self, tmp_path, bad):
        (tmp_path / "in.csv").write_bytes(b"x\n1.0\n" + (b"\xff\n" if bad == "data" else b""))
        (tmp_path / "in.schema").write_bytes(b"x = numeric,feature\n"
                                             + (b"# \xff\n" if bad == "schema" else b""))
        code, _, err = call("clean", "--data", tmp_path / "in.csv",
                            "--out", tmp_path / "out.csv", "--report", tmp_path / "mva.json")
        assert code == 2
        assert f"in.{'csv' if bad == 'data' else 'schema'}: not UTF-8" in err
        assert "Traceback" not in err

    def test_bad_domain_value_is_exit_two(self, staged, tmp_path):
        code, _, err = call("split", "--data", staged / "clean.csv",
                            "--train-fraction", 1.5,
                            "--train-out", tmp_path / "a.csv",
                            "--test-out", tmp_path / "b.csv")
        assert code == 2

    def test_evaluate_two_models_of_one_algorithm_is_exit_two(self, staged, tmp_path):
        code, _, err = call("evaluate", "--data", staged / "test.csv",
                            "--model", staged / "m_logit.json",
                            "--model", staged / "m_bag.json",
                            "--model", staged / "m_logit.json",
                            "--out-dir", tmp_path / "out")
        assert code == 2
        assert "'logit'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("level", ["a|b", "two\nlines"])
    def test_clean_rejects_level_the_sidecar_cannot_store(self, tmp_path, level):
        with open(tmp_path / "in.csv", "w", newline="") as fh:
            csv.writer(fh, delimiter=";", lineterminator="\n").writerows(
                [["x", "c"], ["1.0", "a"], ["2.0", level]])
        (tmp_path / "in.schema").write_text("x = numeric,feature\nc = categorical,feature\n")
        code, _, err = call("clean", "--data", tmp_path / "in.csv",
                            "--out", tmp_path / "out.csv", "--report", tmp_path / "mva.json")
        assert code == 2
        assert "in.csv:3: column 'c'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "in.schema"]

    def test_cell_over_the_csv_field_limit_is_exit_two(self, tmp_path):
        (tmp_path / "in.csv").write_text("x;c\n1.0;a\n2.0;" + "b" * 131_073 + "\n")
        (tmp_path / "in.schema").write_text("x = numeric,feature\nc = categorical,feature\n")
        code, _, err = call("clean", "--data", tmp_path / "in.csv",
                            "--out", tmp_path / "out.csv", "--report", tmp_path / "mva.json")
        assert code == 2
        assert "in.csv:3: field larger than field limit (131072)" in err
        assert "Traceback" not in err

    def test_separable_cox_is_exit_three_with_diagnostics(self, tmp_path):
        path = separable_fixture(tmp_path)
        code, _, err = call("cox", "--data", path, "--formula", "x",
                            "--out-dir", tmp_path / "out")
        assert code == 3
        assert "separation" in err
        assert "x" in err
        # the per-model artifacts are still written for inspection
        payload = json.loads((tmp_path / "out" / "cox.json").read_text())
        assert payload["models"][0]["error_kind"] == "numeric"


class TestStageFlow:
    def test_evaluate_writes_per_model_roc(self, staged, tmp_path):
        code, _, _ = call("evaluate", "--data", staged / "test.csv",
                          "--model", staged / "m_bag.json",
                          "--model", staged / "m_logit.json",
                          "--out-dir", tmp_path)
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert set(metrics["algorithms"]) == {"bag", "logit"}
        assert (tmp_path / "roc_bag.csv").exists()
        assert (tmp_path / "roc_logit.csv").exists()
        assert (tmp_path / "histogram.json").exists()
        header = (tmp_path / "roc_bag.csv").read_text().splitlines()[0]
        assert header == "threshold,fpr,tpr"

    def test_evaluate_single_model_uses_plain_roc_name(self, staged, tmp_path):
        code, _, _ = call("evaluate", "--data", staged / "test.csv",
                          "--model", staged / "m_bag.json", "--out-dir", tmp_path)
        assert code == 0
        assert (tmp_path / "roc.csv").exists()

    def test_mix_then_predict_then_km_and_cox(self, staged, tmp_path):
        assert call("mix", "--data", staged / "test.csv",
                    "--model-a", staged / "m_bag.json",
                    "--model-b", staged / "m_logit.json",
                    "--out-dir", tmp_path)[0] == 0
        mixture = json.loads((tmp_path / "mixture.json").read_text())
        assert {mixture["component_a"], mixture["component_b"]} == {"bag", "logit"}
        assert 0.0 <= mixture["alpha"] <= 1.0

        assert call("predict", "--data", staged / "clean.csv",
                    "--mixture", tmp_path / "mixture.json",
                    "--model-a", staged / "m_bag.json",
                    "--model-b", staged / "m_logit.json",
                    "--out", tmp_path / "labels.csv")[0] == 0
        lines = (tmp_path / "labels.csv").read_text().splitlines()
        data = load_csv(staged / "clean.csv", staged / "clean.schema")
        assert len(lines) == 1 + data.n_rows

        assert call("km", "--data", staged / "clean.csv",
                    "--labels", tmp_path / "labels.csv",
                    "--out-dir", tmp_path / "km")[0] == 0
        km_lines = (tmp_path / "km" / "km.csv").read_text().splitlines()
        assert km_lines[0] == "group,time,at_risk,deaths,survival,sd,ci_lo,ci_hi"
        assert (tmp_path / "km" / "km.svg").exists()
        assert (tmp_path / "km" / "logrank.json").exists()

        assert call("cox", "--data", staged / "clean.csv",
                    "--labels", tmp_path / "labels.csv",
                    "--out-dir", tmp_path / "cox")[0] == 0
        payload = json.loads((tmp_path / "cox" / "cox.json").read_text())
        assert len(payload["models"]) == 5

    def test_predict_rejects_swapped_models(self, staged, tmp_path):
        assert call("mix", "--data", staged / "test.csv",
                    "--model-a", staged / "m_bag.json",
                    "--model-b", staged / "m_logit.json",
                    "--out-dir", tmp_path)[0] == 0
        code, _, err = call("predict", "--data", staged / "clean.csv",
                            "--mixture", tmp_path / "mixture.json",
                            "--model-a", staged / "m_logit.json",
                            "--model-b", staged / "m_bag.json",
                            "--out", tmp_path / "labels.csv")
        assert code == 2
        assert "component_a" in err

    def test_km_by_dataset_column(self, staged, tmp_path):
        code, _, err = call("km", "--data", staged / "clean.csv",
                            "--group-column", "cat_00",
                            "--out-dir", tmp_path)
        assert code == 0
        groups = {line.split(",")[0]
                  for line in (tmp_path / "km.csv").read_text().splitlines()[1:]}
        assert groups == {"a", "b", "c", "d"}
        logrank = json.loads((tmp_path / "logrank.json").read_text())
        assert "error" in logrank  # four groups: test not applicable

    def test_labels_row_mismatch_rejected(self, staged, tmp_path):
        (tmp_path / "labels.csv").write_text("id,probability,label\nr1,0.5,positive\n")
        code, _, err = call("km", "--data", staged / "clean.csv",
                            "--labels", tmp_path / "labels.csv",
                            "--out-dir", tmp_path)
        assert code == 2

    def test_labels_short_row_rejected(self, staged, tmp_path):
        (tmp_path / "labels.csv").write_text("id,probability,label\nr1,0.5\n")
        code, _, err = call("km", "--data", staged / "clean.csv",
                            "--labels", tmp_path / "labels.csv",
                            "--out-dir", tmp_path)
        assert code == 2
        assert "labels.csv:2: expected 3 fields, got 2" in err

    @pytest.mark.parametrize("text, message", [
        ("", "labels.csv: expected header id,probability,label"),
        ("id,prob,label\r\n", "labels.csv: expected header id,probability,label"),
        # a record number, not a line number: record 2 spans two lines
        ('id,probability,label\r\n"r\n1",0.5,positive\r\nr2,0.5\r\n',
         "labels.csv:3: expected 3 fields, got 2"),
        ("id,probability,label\nr1,0.5,positive\nr2,0.5,maybe\n",
         "labels.csv: unknown labels ['maybe']"),
        ("id,probability,label\nr1,0.5," + "p" * 131_073 + "\n",
         "labels.csv:2: field larger than field limit (131072)"),
    ], ids=["empty", "bad_header", "record_number", "unknown_label", "field_limit"])
    def test_labels_file_errors(self, staged, tmp_path, text, message):
        (tmp_path / "labels.csv").write_bytes(text.encode())
        code, _, err = call("km", "--data", staged / "clean.csv",
                            "--labels", tmp_path / "labels.csv",
                            "--out-dir", tmp_path)
        assert code == 2
        assert message in err

    def test_labels_file_reads_as_str(self, staged, tmp_path):
        # km and cox get the labels as the pipeline hands them on: a str
        # array, which np.unique sorts without comparing Python objects
        data = load_csv(staged / "clean.csv", staged / "clean.schema")
        labels = (["positive", "unclassified", "negative"] * data.n_rows)[:data.n_rows]
        ids = text_cells(row_ids(data))
        (tmp_path / "labels.csv").write_text("id,probability,label\n" + "".join(
            f"{i},0.5,{label}\n" for i, label in zip(ids, labels)))
        got = cli._read_labels(tmp_path / "labels.csv", data)
        assert got.dtype.kind == "U"
        assert got.tolist() == labels

    @pytest.mark.parametrize("command", ["km", "cox"])
    def test_labels_need_duration_and_event(self, staged, tmp_path, command):
        data = load_csv(staged / "clean.csv", staged / "clean.schema")
        data = data.drop_columns([data.role_column("duration")])
        write_dataset(data, tmp_path / "d.csv")
        (tmp_path / "labels.csv").write_text("id,probability,label\n" + "".join(
            f"{i},0.9,positive\n" for i in text_cells(row_ids(data))))
        code, _, err = call(command, "--data", tmp_path / "d.csv",
                            "--labels", tmp_path / "labels.csv", "--out-dir", tmp_path)
        assert code == 2
        assert "dataset needs duration and event columns" in err

    @pytest.mark.parametrize("role", ["duration", "event"])
    @pytest.mark.parametrize("command", ["km", "cox"])
    def test_missing_survival_cell_is_exit_two(self, staged, tmp_path, command, role):
        data = load_csv(staged / "clean.csv", staged / "clean.schema")
        name = data.role_column(role)
        cells = data.column(name).copy()
        cells[7] = np.nan
        data = Dataset(data.specs, {n: cells if n == name else data.column(n)
                                    for n in data.names})
        write_dataset(data, tmp_path / "d.csv")
        (tmp_path / "labels.csv").write_text("id,probability,label\n" + "".join(
            f"{i},0.5,{('positive', 'negative')[k % 2]}\n"
            for k, i in enumerate(text_cells(row_ids(data)))))
        code, _, err = call(command, "--data", tmp_path / "d.csv",
                            "--labels", tmp_path / "labels.csv", "--out-dir", tmp_path)
        assert code == 2
        assert f"column {name!r} has missing cells" in err

    def test_cox_reads_reference_levels_from_a_file(self, staged, tmp_path):
        (tmp_path / "refs.txt").write_text("# reference levels\n\ncat_00 = b\n")
        assert call("cox", "--data", staged / "clean.csv", "--formula", "num_00 + cat_00",
                    "--references", tmp_path / "refs.txt", "--out-dir", tmp_path)[0] == 0
        payload = json.loads((tmp_path / "cox.json").read_text())
        assert payload["models"][0]["reference_levels"] == {"cat_00": "b"}
        (tmp_path / "bad.txt").write_text("cat_00 b\n")
        code, _, err = call("cox", "--data", staged / "clean.csv",
                            "--formula", "num_00 + cat_00",
                            "--references", tmp_path / "bad.txt", "--out-dir", tmp_path)
        assert code == 2
        assert "bad.txt:1: expected 'column = level'" in err

    def test_train_param_override(self, staged, tmp_path):
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", "rpart",
                            "--seed", 4, "--param", "max_depth=2",
                            "--out", tmp_path / "m.json")
        assert code == 0
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", "rpart",
                            "--param", "no_such=1", "--out", tmp_path / "m.json")
        assert code == 2
        assert "no_such" in err

    def test_bag_takes_its_member_tree_params_flat(self, staged, tmp_path):
        # `members` and the member trees' stopping rules are one flat set of
        # names; each is coerced from its string, and the stopping rules are
        # checked before the member count.
        data = load_csv(staged / "bal.csv", staged / "bal.schema")
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", "bag",
                            "--seed", 4, "--param", "members=3",
                            "--param", "min_node_size=40", "--out", tmp_path / "m.json")
        assert code == 0, err
        want = fit(data, ClassifierSpec("bag", seed=4,
                                        params={"members": 3, "min_node_size": 40}))
        default = fit(data, ClassifierSpec("bag", seed=4, params={"members": 3}))
        assert load_model(tmp_path / "m.json").to_state() == want.to_state() \
            != default.to_state()
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", "bag",
                            "--param", "members=0", "--param", "min_node_size=0",
                            "--out", tmp_path / "bad.json")
        assert code == 2
        assert "min_node_size must be at least 1" in err and "members" not in err
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("algo, param", [("ctree", "permutations=99"),
                                             ("bag", "bootstrap=false")])
    def test_removed_params_rejected(self, staged, tmp_path, algo, param):
        # ctree's permutation count and the bag's bootstrap switch are gone
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", algo,
                            "--param", param, "--out", tmp_path / "m.json")
        assert code == 2
        assert "unknown parameter" in err and param.split("=")[0] in err
        assert not (tmp_path / "m.json").exists()


class TestPipelineCommand:
    def test_config_run_with_flag_overrides(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "[data]\noutput = placeholder\n\n"
            "[synthetic]\nrows = 400\nnumeric = 3\ncategorical = 1\n"
            "minority = 0.25\nseparation = 1.5\nhazard_ratio = 2.0\n\n"
            "[pipeline]\nseed = 9\n")
        with pytest.warns(UserWarning):
            code, _, err = call("pipeline", "--config", config,
                                "--out", tmp_path / "out",
                                "--set", "synthetic.rows=450",
                                "--mix-components", "logit,nb")
        assert code == 0, err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["synthetic_rows"] == 450  # flag beat the file
        assert report["config"]["mix_components"] == ["logit", "nb"]
        assert report["error"] is None

    def test_pipeline_without_output_dir_fails_cleanly(self):
        code, _, err = call("pipeline", "--set", "synthetic.rows=50")
        assert code == 2
        assert "output" in err

    def test_stage_failure_maps_to_exit_code(self, tmp_path):
        code, _, err = call("pipeline", "--out", tmp_path,
                            "--set", "synthetic.rows=1")
        assert code == 2
        assert "stage" in err
        assert (tmp_path / "report.json").exists()


def with_vocabulary(data, column, rename):
    """`data` with every level of a categorical column renamed."""
    spec = data.spec(column)
    renamed = ColumnSpec(column, spec.kind, spec.role,
                         tuple(rename(v) for v in spec.vocabulary))
    return Dataset([renamed if s.name == column else s for s in data.specs],
                   {name: data.column(name) for name in data.names})


def read_csv_rows(path):
    return list(csv.reader(io.StringIO(path.read_text())))


class TestArtifactCsvRoundTrip:
    def test_ids_with_comma_and_quote_read_back_from_labels_csv(self, staged, tmp_path):
        data = with_vocabulary(load_csv(staged / "clean.csv", staged / "clean.schema"),
                               "id", lambda v: f'{v},"q"')
        write_dataset(data, tmp_path / "era.csv")
        models = ["--model-a", staged / "m_bag.json", "--model-b", staged / "m_logit.json"]
        assert call("mix", "--data", staged / "test.csv", *models,
                    "--out-dir", tmp_path / "mix")[0] == 0
        assert call("predict", "--data", tmp_path / "era.csv",
                    "--mixture", tmp_path / "mix" / "mixture.json", *models,
                    "--out", tmp_path / "labels.csv")[0] == 0
        rows = read_csv_rows(tmp_path / "labels.csv")
        assert {len(row) for row in rows} == {3}
        assert [row[0] for row in rows[1:]] == list(data.strings("id"))
        for command in ("km", "cox"):
            code, _, err = call(command, "--data", tmp_path / "era.csv",
                                "--labels", tmp_path / "labels.csv",
                                "--out-dir", tmp_path / command)
            assert code == 0, err

    def test_group_values_with_comma_read_back_from_km_csv(self, staged, tmp_path):
        data = with_vocabulary(load_csv(staged / "clean.csv", staged / "clean.schema"),
                               "cat_00", lambda v: f"{v},x")
        write_dataset(data, tmp_path / "era.csv")
        assert call("km", "--data", tmp_path / "era.csv", "--group-column", "cat_00",
                    "--out-dir", tmp_path)[0] == 0
        rows = read_csv_rows(tmp_path / "km.csv")
        assert {len(row) for row in rows} == {8}
        assert {row[0] for row in rows[1:]} == {"a,x", "b,x", "c,x", "d,x"}


# (subcommand, flag's dest, PipelineConfig field or None, the owner's default)
DEFAULT_OWNERS = [
    ("simulate", "numeric", "synthetic_numeric", SyntheticSpec.n_numeric),
    ("simulate", "categorical", "synthetic_categorical", SyntheticSpec.n_categorical),
    ("simulate", "minority", "synthetic_minority", SyntheticSpec.minority_fraction),
    ("simulate", "separation", "synthetic_separation", SyntheticSpec.class_separation),
    ("simulate", "hazard_ratio", "synthetic_hazard_ratio", SyntheticSpec.hazard_ratio_true),
    ("simulate", "horizon", "synthetic_horizon", SyntheticSpec.censoring_horizon),
    ("simulate", "seed", "seed", SyntheticSpec.seed),
    ("split", "train_fraction", "train_fraction", SplitSpec.train_fraction),
    ("split", "seed", "seed", SplitSpec.seed),
    ("smote", "smote_k", "smote_k", SmoteSpec.k),
    ("smote", "smote_over", "smote_over", SmoteSpec.over_pct),
    ("smote", "smote_under", "smote_under", SmoteSpec.under_pct),
    ("smote", "seed", "seed", SmoteSpec.seed),
    ("train", "seed", "seed", ClassifierSpec.seed),
    ("mix", "alpha_grid_step", "alpha_grid_step", mixture.DEFAULT_GRID_STEP),
    ("mix", "cutoff_low", "cutoff_low", mixture.DEFAULT_CUTOFF_LOW),
    ("mix", "cutoff_high", "cutoff_high", mixture.DEFAULT_CUTOFF_HIGH),
    ("km", "confidence", "km_confidence", survival.DEFAULT_CONFIDENCE),
    ("cox", "ties", "cox_ties", cox.DEFAULT_TIES),
]

REQUIRED_FLAGS = {
    "simulate": ["--rows", "1", "--out", "d.csv"],
    "split": ["--data", "d.csv", "--train-out", "a.csv", "--test-out", "b.csv"],
    "smote": ["--data", "d.csv", "--out", "b.csv"],
    "train": ["--data", "d.csv", "--algo", "nb", "--out", "m.json"],
    "mix": ["--data", "d.csv", "--model-a", "a.json", "--model-b", "b.json"],
    "km": ["--data", "d.csv"],
    "cox": ["--data", "d.csv"],
}

CONFIG_KEYS = [
    "data.output", "data.train", "data.train_schema", "data.predict",
    "data.predict_schema", "synthetic.rows", "synthetic.numeric",
    "synthetic.categorical", "synthetic.minority", "synthetic.separation",
    "synthetic.hazard_ratio", "synthetic.horizon", "synthetic.predict_rows",
    "pipeline.seed", "split.train_fraction", "smote.k", "smote.over", "smote.under",
    "train.algorithms", "mixture.components", "mixture.alpha_grid_step",
    "mixture.cutoff_low", "mixture.cutoff_high", "km.confidence", "cox.formulas",
    "cox.ties", "cox.references",
]


def config_text(value) -> str:
    """A config value as the config file spells it."""
    if isinstance(value, tuple):
        return ",".join(value)
    if isinstance(value, dict):
        return ",".join(f"{k}={v}" for k, v in value.items())
    return str(value)


class TestSettingsHaveOneOwner:
    def test_flag_and_config_defaults_are_their_owners(self):
        parser = build_parser()
        config = {f.name: f.default for f in fields(PipelineConfig)}
        for command, dest, name, owner in DEFAULT_OWNERS:
            flag = getattr(parser.parse_args([command, *REQUIRED_FLAGS[command]]), dest)
            assert (type(flag), flag) == (type(owner), owner), (command, dest)
            assert (type(config[name]), config[name]) == (type(owner), owner), name
        grid_step = inspect.signature(mixture.optimize_weight).parameters["grid_step"]
        assert grid_step.default == mixture.DEFAULT_GRID_STEP
        assert inspect.signature(cox.cox_fit).parameters["ties"].default == cox.DEFAULT_TIES

    def test_each_field_has_one_key_that_round_trips(self):
        keys = [f.metadata.get("key") for f in fields(PipelineConfig)]
        assert keys == CONFIG_KEYS and len(set(keys)) == len(keys)
        sample = PipelineConfig(
            output_dir="out", train_path="t.csv", train_schema="t.schema",
            predict_path="p.csv", predict_schema="p.schema", synthetic_rows=12,
            synthetic_numeric=3, synthetic_categorical=1, synthetic_minority=0.3,
            synthetic_separation=2.5, synthetic_hazard_ratio=1.5, synthetic_horizon=7.0,
            synthetic_predict_rows=9, seed=11, train_fraction=0.7, smote_k=3,
            smote_over=150.0, smote_under=120.0, algorithms=("bag", "ann", "nb"),
            mix_components=("ann", "bag"), alpha_grid_step=0.05, cutoff_low=0.3,
            cutoff_high=0.75, km_confidence=0.9, cox_formulas=("a + b", "a * b"),
            cox_ties="breslow", cox_references={"c": "x", "d": "y"})
        mapping = {}
        for f in fields(PipelineConfig):
            value = getattr(sample, f.name)
            default = f.default if f.default is not MISSING else f.default_factory()
            assert value != default, f.name   # every key is exercised
            mapping[f.metadata["key"]] = config_text(value)
        assert PipelineConfig.from_mapping(mapping) == sample
