"""Command-line interface.

One subcommand per pipeline stage (simulate, clean, split, smote, train,
evaluate, mix, predict, km, cox) plus `pipeline`, which runs everything from a
config file.  Stages exchange data through the on-disk serialization formats
(CSV + schema sidecar for datasets, versioned JSON for models), so a pipeline
run can be reproduced stage by stage.  The evaluate, mix, predict, km and cox
subcommands only load their inputs and write files: the work is done by the
pipeline's own stage functions (`survmix.pipeline.evaluate_stage` ...
`cox_stage`), so they write the same bytes as the pipeline does.

Exit codes: 0 success, 1 usage error, 2 data/domain error (bad files, bad
values), 3 numerical failure (non-convergence, separation, divergence).
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import (ALGORITHMS, ClassifierSpec, algorithm_of, fit,
                          load_model, save_model)
from .cleansing import clean
from .cox import parse_formula
from .dataset import Dataset, SyntheticSpec, generate_synthetic, load_csv
from .errors import (DataError, DomainError, NumericError, ParseError,
                     SurvmixError)
from .evaluation import score_histogram
from .fileio import (atomic_write_text, json_text, read_text, text_cells,
                     write_json)
from .mixture import ABSTENTION_LABELS, MixtureModel
from .pipeline import (PipelineConfig, classified_rows, cox_stage,
                       evaluate_stage, km_stage, mix_stage, parse_config,
                       predict_stage, row_ids, run_pipeline, write_artifacts,
                       write_dataset)
from .resampling import SmoteSpec, SplitSpec, smote, split


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # data errors, so usage failures are rerouted through an exception.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _schema_path(data_path, explicit):
    return explicit if explicit else str(Path(data_path).with_suffix(".schema"))


def _load(args) -> Dataset:
    if not Path(args.data).exists():  # name the flag's own path, not the sidecar
        raise DataError(f"input file not found: {args.data}")
    return load_csv(args.data, _schema_path(args.data, args.schema))


def _parse_pairs(pairs, flag) -> dict:
    out = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise DomainError(f"{flag} expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _read_references(path) -> dict:
    """Reference levels, one 'column = level' line per entry."""
    refs = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, level = line.partition("=")
        if not sep or not name.strip() or not level.strip():
            raise ParseError(f"{path}:{lineno}: expected 'column = level'")
        refs[name.strip()] = level.strip()
    return refs


def _read_labels(path, data: Dataset) -> np.ndarray:
    """Predicted labels aligned to `data` rows, checked by id."""
    rows = list(csv.reader(io.StringIO(read_text(path))))
    if not rows or rows[0] != ["id", "probability", "label"]:
        raise ParseError(f"{path}: expected header id,probability,label")
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
    ids = [r[0] for r in rows[1:]]
    labels = [r[2] for r in rows[1:]]
    unknown = set(labels) - set(ABSTENTION_LABELS)
    if unknown:
        raise DomainError(f"{path}: unknown labels {sorted(unknown)}")
    if len(labels) != data.n_rows:
        raise DomainError(f"{path}: {len(labels)} label rows "
                          f"for {data.n_rows} data rows")
    if text_cells(row_ids(data)) != ids:
        raise DomainError(f"{path}: row ids do not match the dataset")
    return np.asarray(labels, dtype=object)


# -- subcommand handlers ---------------------------------------------------------

def _cmd_simulate(args):
    spec = SyntheticSpec(n_rows=args.rows, n_numeric=args.numeric,
                         n_categorical=args.categorical,
                         minority_fraction=args.minority,
                         class_separation=args.separation,
                         hazard_ratio_true=args.hazard_ratio,
                         censoring_horizon=args.horizon, seed=args.seed)
    write_dataset(generate_synthetic(spec), args.out)


def _cmd_clean(args):
    cleaned, report = clean(_load(args))
    write_dataset(cleaned, args.out)
    write_json(args.report, report.to_dict())


def _cmd_split(args):
    train, test = split(_load(args), SplitSpec(args.train_fraction, args.seed))
    write_dataset(train, args.train_out)
    write_dataset(test, args.test_out)


def _cmd_smote(args):
    spec = SmoteSpec(args.smote_k, args.smote_over, args.smote_under, args.seed)
    write_dataset(smote(_load(args), spec), args.out)


def _cmd_train(args):
    spec = ClassifierSpec(args.algo, seed=args.seed,
                          params=_parse_pairs(args.param, "--param"))
    save_model(fit(_load(args), spec), args.out)


def _cmd_evaluate(args):
    data = _load(args)
    models = {}
    for path in args.model:
        model = load_model(path)
        if algorithm_of(model) in models:
            raise DomainError(f"two --model files hold algorithm "
                              f"{algorithm_of(model)!r}; evaluate takes one per algorithm")
        models[algorithm_of(model)] = model
    metrics, artifacts, _ = evaluate_stage(models, data)
    if len(models) == 1:  # one model's curve goes to plain roc.csv
        (name,) = models
        artifacts["roc.csv"] = artifacts.pop(f"roc_{name}.csv")
    artifacts["histogram.json"] = json_text(
        {name: score_histogram(m["scores"], data.label_values())
         for name, m in metrics.items()})
    write_artifacts(args.out_dir, artifacts)


def _cmd_mix(args):
    data = _load(args)
    model_a, model_b = load_model(args.model_a), load_model(args.model_b)
    _, mixed, artifacts, _ = mix_stage(
        model_a, model_b, model_a.predict_proba(data), model_b.predict_proba(data),
        data.label_values(), args.alpha_grid_step, args.cutoff_low, args.cutoff_high)
    _, labelled, _ = predict_stage(data, mixed, args.cutoff_low, args.cutoff_high)
    write_artifacts(args.out_dir, {**artifacts, **labelled})


def _cmd_predict(args):
    document = json.loads(read_text(args.mixture))
    model_a, model_b = load_model(args.model_a), load_model(args.model_b)
    for key, model in (("component_a", model_a), ("component_b", model_b)):
        if document.get(key) != algorithm_of(model):
            raise DomainError(
                f"{args.mixture}: {key} is {document.get(key)!r} but the "
                f"supplied model is {algorithm_of(model)!r}")
    mixture = MixtureModel(document["alpha"], model_a, model_b,
                           document["cutoff_low"], document["cutoff_high"])
    data = _load(args)
    _, artifacts, _ = predict_stage(data, mixture.predict_proba(data),
                                    mixture.cutoff_low, mixture.cutoff_high)
    atomic_write_text(args.out, artifacts["labels.csv"])


def _cmd_km(args):
    data = _load(args)
    if args.labels:
        data, groups = classified_rows(data, _read_labels(args.labels, data))
    elif args.group_column:
        groups = np.asarray(text_cells(data.values(args.group_column)), dtype=object)
        keep = ~data.missing_mask(args.group_column)
        if not keep.any():
            raise DomainError("no rows left to group")
        data, groups = data.take_rows(np.flatnonzero(keep)), groups[keep]
    else:
        raise DomainError("km needs --labels or --group-column")
    artifacts, _ = km_stage(data, groups, args.confidence)
    write_artifacts(args.out_dir, artifacts)


def _cmd_cox(args):
    data = _load(args)
    if args.labels:
        data, _ = classified_rows(data, _read_labels(args.labels, data))
    elif not args.formula:
        raise DomainError("cox needs --formula (or --labels for the default suite)")
    formulas = args.formula or ()
    for formula in formulas:
        parse_formula(formula)  # reject malformed formulas before fitting any
    references = _read_references(args.references) if args.references else {}
    suite, artifacts, _ = cox_stage(data, formulas, args.ties, references)
    write_artifacts(args.out_dir, artifacts)
    failures = [m for m in suite if m.get("error_kind") == "numeric"]
    if failures:
        raise NumericError("; ".join(
            f"{m['formula']}: {m['error']}" for m in failures))


def _cmd_pipeline(args):
    mapping = {}
    if args.config:
        mapping = parse_config(read_text(args.config), source=str(args.config))
    mapping.update(_parse_pairs(args.set, "--set"))  # flags win over the file
    if args.out:
        mapping["data.output"] = args.out
    if args.seed is not None:
        mapping["pipeline.seed"] = str(args.seed)
    if args.mix_components:
        mapping["mixture.components"] = args.mix_components
    config = PipelineConfig.from_mapping(mapping)
    report = run_pipeline(config)
    if report.error is not None:
        print(f"error in stage {report.error['stage']}: "
              f"{report.error['message']}", file=sys.stderr)
        return 3 if report.error["kind"] == "numeric" else 2
    return 0


# -- parser ----------------------------------------------------------------------

def _add_data_flags(p, out=True):
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--schema", default=None,
                   help="schema sidecar (default: input path with .schema)")
    if out:
        p.add_argument("--out", required=True, help="output CSV path")


def build_parser() -> _Parser:
    parser = _Parser(prog="survmix", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"survmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("simulate", help="generate a seeded synthetic dataset")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--numeric", type=int, default=10)
    p.add_argument("--categorical", type=int, default=2)
    p.add_argument("--minority", type=float, default=0.05)
    p.add_argument("--separation", type=float, default=1.0)
    p.add_argument("--hazard-ratio", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("clean", help="missing-value analysis and row/column drops")
    _add_data_flags(p)
    p.add_argument("--report", default="mva_report.json",
                   help="where to write the cleansing report JSON")
    p.set_defaults(handler=_cmd_clean)

    p = sub.add_parser("split", help="holdout split")
    _add_data_flags(p, out=False)
    p.add_argument("--train-fraction", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("smote", help="rebalance the training partition")
    _add_data_flags(p)
    p.add_argument("--smote-k", type=int, default=5)
    p.add_argument("--smote-over", type=float, default=200.0)
    p.add_argument("--smote-under", type=float, default=200.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_smote)

    p = sub.add_parser("train", help="fit one classifier")
    _add_data_flags(p, out=False)
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="hyperparameter override (repeatable)")
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="ROC/AUC, cutoffs, confusion matrices")
    _add_data_flags(p, out=False)
    p.add_argument("--model", action="append", required=True,
                   help="model file (repeatable)")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("mix", help="optimize the two-component mixture weight")
    _add_data_flags(p, out=False)
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--alpha-grid-step", type=float, default=0.01)
    p.add_argument("--cutoff-low", type=float, default=0.2)
    p.add_argument("--cutoff-high", type=float, default=0.8)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_mix)

    p = sub.add_parser("predict", help="classify with abstention")
    _add_data_flags(p, out=False)
    p.add_argument("--mixture", required=True, help="mixture.json from `mix`")
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--out", required=True, help="labels.csv path")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("km", help="Kaplan-Meier curves and log-rank test")
    _add_data_flags(p, out=False)
    p.add_argument("--labels", default=None, help="labels.csv from `predict`")
    p.add_argument("--group-column", default=None,
                   help="group by a dataset column instead of predicted labels")
    p.add_argument("--confidence", type=float, default=0.95)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_km)

    p = sub.add_parser("cox", help="Cox proportional hazards model suite")
    _add_data_flags(p, out=False)
    p.add_argument("--labels", default=None, help="labels.csv from `predict`")
    p.add_argument("--formula", action="append",
                   help='e.g. "group + sector + group:sector" (repeatable)')
    p.add_argument("--ties", choices=("efron", "breslow"), default="efron")
    p.add_argument("--references", default=None,
                   help="reference-levels file, one 'column = level' per line")
    p.add_argument("--out-dir", default=".")
    p.set_defaults(handler=_cmd_cox)

    p = sub.add_parser("pipeline", help="run every stage from a config file")
    p.add_argument("--config", default=None, help="sectioned key=value file")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="config override (repeatable; flags win)")
    p.add_argument("--out", default=None, help="output directory (data.output)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--mix-components", default=None, metavar="A,B",
                   help="mixture components, e.g. bag,ann (default: top two by AUC)")
    p.set_defaults(handler=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version print and exit(0)
        return 0 if not exc.code else 1
    try:
        status = args.handler(args)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SurvmixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if status is None else status


def entrypoint() -> None:
    sys.exit(main())
