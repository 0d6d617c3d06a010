"""Metamorphic relations of a whole run: the same predict era in another
layout must give the same analyses.

Each relation rewrites the predict era's files, runs the pipeline from
files again, and compares the artifacts that the rewrite must not move with
those of the untouched run (Chen, Cheung & Yiu 1998; Segura et al. 2016).
Only relations that hold today are pinned.
"""

import csv
import json

import numpy as np
import pytest

from survmix.dataset import SyntheticSpec, generate_synthetic, write_dataset
from survmix.pipeline import PipelineConfig, run_pipeline


def run(root, name):
    report = run_pipeline(PipelineConfig(
        output_dir=str(root / name), train_path=str(root / "train.csv"),
        predict_path=str(root / f"{name}.csv"), algorithms=("rpart", "logit", "nb"),
        seed=5))
    assert report.error is None, report.error
    return root / name


def write_era(root, name, header, rows, schema):
    (root / f"{name}.csv").write_text(
        "".join(";".join(cells) + "\n" for cells in [header] + rows), encoding="utf-8")
    (root / f"{name}.schema").write_text("".join(schema), encoding="utf-8")


@pytest.fixture(scope="module")
def eras(tmp_path_factory):
    """The untouched run's directory, and the predict era's header, rows and
    schema lines."""
    root = tmp_path_factory.mktemp("metamorphic")
    for stem, rows, seed in (("train", 2000, 5), ("predict", 1500, 6)):
        write_dataset(generate_synthetic(SyntheticSpec(n_rows=rows, seed=seed)),
                      root / f"{stem}.csv")
    header, *rows = [line.split(";") for line in
                     (root / "predict.csv").read_text(encoding="utf-8").splitlines()]
    schema = (root / "predict.schema").read_text(encoding="utf-8").splitlines(True)
    assert len(rows) == 1500 and len(schema) == len(header)
    return root, run(root, "predict"), header, rows, schema


def labels_rows(out):
    with open(out / "labels.csv", newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def cox_models(out):
    return {m["formula"]: m for m in json.loads((out / "cox.json").read_text())["models"]}


def test_columns_reversed_keep_cox_and_km(eras):
    root, base, header, rows, schema = eras
    write_era(root, "reversed", header[::-1], [cells[::-1] for cells in rows],
              schema[::-1])
    out = run(root, "reversed")
    models = cox_models(base)
    assert len(models) > 1 and all("error" not in m for m in models.values())
    assert cox_models(out) == models
    assert (out / "km.csv").read_bytes() == (base / "km.csv").read_bytes()


def test_rows_shuffled_keep_labels_km_and_cox(eras):
    root, base, header, rows, schema = eras
    order = np.random.default_rng(13).permutation(len(rows))
    write_era(root, "shuffled", header, [rows[i] for i in order], schema)
    out = run(root, "shuffled")
    want = labels_rows(base)
    got = labels_rows(out)
    assert got[0] == want[0] and got[1:] != want[1:]
    assert sorted(got[1:]) == sorted(want[1:])
    assert (out / "km.csv").read_bytes() == (base / "km.csv").read_bytes()
    assert cox_models(out) == cox_models(base)
