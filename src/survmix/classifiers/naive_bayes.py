"""Naive Bayes with per-class Gaussians and Laplace-smoothed level tables.

Class priors are the empirical label frequencies.  Numeric features get a
per-class mean and maximum-likelihood variance (floored to keep densities
finite on constant features); categorical features get add-one smoothed
level frequencies over the training levels.  Posteriors are evaluated in
log space and normalized pairwise, so an absent class simply keeps posterior
zero instead of poisoning the arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ._encoding import FeatureSchema

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class NbParams:
    variance_floor: float = 1e-9

    def __post_init__(self):
        if self.variance_floor <= 0.0:
            raise DomainError("variance_floor must be positive")


class NaiveBayesModel:
    algorithm = "nb"

    def __init__(self, schema, priors, numeric_stats, level_logprob):
        self.schema = schema
        self.priors = tuple(float(p) for p in priors)
        # name -> (means[2], variances[2]) and name -> log-probability (2, L)
        self.numeric_stats = {n: (np.asarray(m, float), np.asarray(v, float))
                              for n, (m, v) in numeric_stats.items()}
        self.level_logprob = {n: np.asarray(t, float) for n, t in level_logprob.items()}

    def predict_proba(self, data: Dataset) -> np.ndarray:
        mapped = self.schema.map_columns(data)
        n = data.n_rows
        scores = np.zeros((2, n))
        for c in (0, 1):
            if self.priors[c] == 0.0:
                scores[c] = -np.inf
                continue
            scores[c] += np.log(self.priors[c])
            for name, kind in self.schema.features:
                if kind == "numeric":
                    mean, var = self.numeric_stats[name]
                    x = mapped[name]
                    scores[c] += -0.5 * (_LOG_2PI + np.log(var[c])) \
                        - (x - mean[c]) ** 2 / (2.0 * var[c])
                else:
                    scores[c] += self.level_logprob[name][c][mapped[name]]
        top = np.maximum(scores[0], scores[1])
        e0 = np.exp(scores[0] - top)
        e1 = np.exp(scores[1] - top)
        return e1 / (e0 + e1)

    def to_state(self) -> dict:
        return {"schema": self.schema.to_state(), "priors": list(self.priors),
                "numeric_stats": {n: {"mean": m.tolist(), "var": v.tolist()}
                                  for n, (m, v) in self.numeric_stats.items()},
                "level_logprob": {n: t.tolist() for n, t in self.level_logprob.items()}}

    @classmethod
    def from_state(cls, state) -> "NaiveBayesModel":
        stats = {n: (d["mean"], d["var"]) for n, d in state["numeric_stats"].items()}
        return cls(FeatureSchema.from_state(state["schema"]), state["priors"],
                   stats, state["level_logprob"])


def fit_naive_bayes(train: Dataset, params: NbParams) -> NaiveBayesModel:
    if train.n_rows == 0:
        raise DomainError("cannot fit a classifier on zero rows")
    y = train.label_values()
    schema = FeatureSchema.fit(train)
    mapped = schema.map_columns(train)
    n = len(y)
    masks = [y == 0, y == 1]
    priors = [masks[0].sum() / n, masks[1].sum() / n]
    numeric_stats, level_logprob = {}, {}
    for name, kind in schema.features:
        if kind == "numeric":
            x = mapped[name]
            means, variances = np.zeros(2), np.ones(2)
            for c in (0, 1):
                if masks[c].any():
                    means[c] = x[masks[c]].mean()
                    variances[c] = max(float(x[masks[c]].var()), params.variance_floor)
            numeric_stats[name] = (means, variances)
        else:
            codes = mapped[name]
            n_levels = len(schema.levels[name])
            table = np.zeros((2, n_levels))
            for c in (0, 1):
                counts = np.bincount(codes[masks[c]], minlength=n_levels)
                table[c] = np.log(counts + 1.0) - np.log(masks[c].sum() + n_levels)
            level_logprob[name] = table
    return NaiveBayesModel(schema, priors, numeric_stats, level_logprob)
