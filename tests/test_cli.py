import contextlib
import csv
import io
import json

import numpy as np
import pytest

from survmix.cli import main
from survmix.dataset import ColumnSpec, Dataset, load_csv, write_csv, write_schema


def call(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def write_dataset(data, path):
    write_csv(data, path)
    write_schema(data.specs, path.with_suffix(".schema"))


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

    def test_train_param_override(self, staged, tmp_path):
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", "rpart",
                            "--seed", 4, "--param", "max_depth=2",
                            "--out", tmp_path / "m.json")
        assert code == 0
        code, _, err = call("train", "--data", staged / "bal.csv", "--algo", "rpart",
                            "--param", "no_such=1", "--out", tmp_path / "m.json")
        assert code == 2
        assert "no_such" in err


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
