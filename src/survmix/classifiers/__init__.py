"""Binary classifiers behind one fit/predict/save interface.

Seven algorithms are available under fixed names:

========  =====================================================
rpart     greedy binary tree, Gini impurity
tree      greedy binary tree, entropy (deviance)
ctree     conditional-inference splitting with Bonferroni adjustment
bag       bootstrap-aggregated Gini trees
logit     logistic regression (Newton with step-halving)
nb        Gaussian/Laplace naive Bayes
ann       single-hidden-layer backpropagation network
========  =====================================================

``fit(train, ClassifierSpec(...))`` returns a model object exposing
``predict_proba(data)``; ``save_model``/``load_model`` round-trip any model
through a versioned JSON document.  Each algorithm is one entry of
``_REGISTRY`` (parameter class, fit function, model class, loader), which is
all that the functions here consult.  A parameter class is a flat dataclass
whose fields are the names a spec may set; every fit first captures a
`FeatureSchema`, which rejects zero rows.
"""

import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

from ..dataset import Dataset
from ..errors import DataError, DomainError
from ..fileio import atomic_write, read_json_object
from ._encoding import DummyEncoder, FeatureSchema
from .bagging import BaggingModel, BagParams, fit_bagging
from .logistic import LogitModel, LogitParams, fit_logit
from .naive_bayes import NaiveBayesModel, NbParams, fit_naive_bayes
from .neural import AnnModel, AnnParams, fit_ann
from .trees import (CtreeParams, DecisionTreeModel, TreeParams, fit_cart,
                    fit_ctree, fit_tree)


@dataclass(frozen=True)
class _Algorithm:
    params: type        # flat parameter dataclass, one field per parameter name
    fit: Callable       # (train, params[, seed=]) -> model
    seeded: bool        # whether `fit` draws random numbers from `seed`
    model: type         # fitted model class
    load: Callable      # model state -> model


_REGISTRY = {
    "rpart": _Algorithm(TreeParams, fit_cart, False, DecisionTreeModel,
                        partial(DecisionTreeModel.from_state, "rpart")),
    "tree": _Algorithm(TreeParams, fit_tree, False, DecisionTreeModel,
                       partial(DecisionTreeModel.from_state, "tree")),
    "ctree": _Algorithm(CtreeParams, fit_ctree, False, DecisionTreeModel,
                        partial(DecisionTreeModel.from_state, "ctree")),
    "bag": _Algorithm(BagParams, fit_bagging, True, BaggingModel,
                      BaggingModel.from_state),
    "logit": _Algorithm(LogitParams, fit_logit, False, LogitModel,
                        LogitModel.from_state),
    "nb": _Algorithm(NbParams, fit_naive_bayes, False, NaiveBayesModel,
                     NaiveBayesModel.from_state),
    "ann": _Algorithm(AnnParams, fit_ann, True, AnnModel, AnnModel.from_state),
}

ALGORITHMS = tuple(_REGISTRY)

_FORMAT = "survmix-classifier"
_VERSION = 1


_PARAM_FIELDS = {name: {f.name: f for f in dataclasses.fields(entry.params)}
                 for name, entry in _REGISTRY.items()}


@dataclass(frozen=True)
class ClassifierSpec:
    """What to fit: algorithm name, seed, and hyperparameter overrides."""

    algorithm: str
    seed: int = 0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise DomainError(
                f"unknown algorithm {self.algorithm!r}; choose from {', '.join(ALGORITHMS)}")
        unknown = set(self.params) - set(_PARAM_FIELDS[self.algorithm])
        if unknown:
            valid = ", ".join(sorted(_PARAM_FIELDS[self.algorithm]))
            raise DomainError(
                f"unknown parameter(s) {sorted(unknown)} for {self.algorithm}; valid: {valid}")


def _coerce(value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise DomainError(f"expected {kind.__name__}, got {value!r}") from None


def build_params(spec: ClassifierSpec):
    """The per-algorithm parameter object for a spec, defaults filled in."""
    fields = _PARAM_FIELDS[spec.algorithm]
    return _REGISTRY[spec.algorithm].params(
        **{name: _coerce(raw, fields[name].type) for name, raw in spec.params.items()})


def fit(train: Dataset, spec: ClassifierSpec):
    """Fit the requested classifier on a complete training dataset."""
    entry = _REGISTRY[spec.algorithm]
    params = build_params(spec)
    if entry.seeded:
        return entry.fit(train, params, seed=spec.seed)
    return entry.fit(train, params)


def algorithm_of(model) -> str:
    """The algorithm name a fitted model belongs to."""
    name = getattr(model, "algorithm", None)
    if name not in ALGORITHMS or not isinstance(model, _REGISTRY[name].model):
        raise DomainError(f"not a classifier model: {type(model).__name__}")
    return name


def save_model(model, path) -> None:
    document = {"format": _FORMAT, "version": _VERSION,
                "algorithm": algorithm_of(model), "state": model.to_state()}
    atomic_write(path, (json.dumps(document, sort_keys=True), "\n"))   # no second copy


def load_model(path):
    document = read_json_object(path)
    if document.get("format") != _FORMAT:
        raise DataError(f"model file {path} is not a classifier document")
    if document.get("version") != _VERSION:
        raise DataError(f"model file {path} has unsupported version "
                        f"{document.get('version')!r} (expected {_VERSION})")
    algorithm = document.get("algorithm")
    if algorithm not in ALGORITHMS:
        raise DataError(f"model file {path} names unknown algorithm {algorithm!r}")
    try:
        return _REGISTRY[algorithm].load(document.get("state"))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"model file {path} has a malformed {algorithm} state "
                        f"({type(exc).__name__}: {exc})") from None
