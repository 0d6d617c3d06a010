"""Naive Bayes with per-class Gaussians and Laplace-smoothed level tables.

Class priors are the empirical label frequencies.  Numeric features get a
per-class mean and maximum-likelihood variance (floored to keep densities
finite on constant features; one that overflows is an error naming the
feature); categorical features get add-one smoothed level frequencies over
the training levels.  Posteriors are evaluated in log space and normalized
pairwise, so an absent class simply keeps posterior zero instead of
poisoning the arithmetic.  A row whose cell lies so far from
the means that the squared distance overflows in both classes is redone as
a log-odds with the two classes' quadratic terms compared at a common
power-of-two scale; every other row keeps the direct form's bits.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import DomainError
from ._encoding import FeatureSchema
from .neural import _sigmoid

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
        with np.errstate(over="ignore", invalid="ignore"):   # such rows are redone below
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
            proba = e1 / (e0 + e1)
        redo = ~np.isfinite(top)   # a quadratic term overflowed in both classes
        if redo.any():
            proba[redo] = _sigmoid(self._log_odds(mapped, redo))
        return proba

    def _log_odds(self, mapped: dict, rows: np.ndarray) -> np.ndarray:
        """Class 1's score less class 0's for the `rows` (a mask).  Each
        numeric feature's two quadratic terms are compared at the scale of
        the larger distance to a mean, a power of two, so neither
        overflows; their difference may, to an infinity of the right
        sign."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_odds = np.full(np.count_nonzero(rows),
                               np.log(self.priors[1]) - np.log(self.priors[0]))
            for name, kind in self.schema.features:
                x = mapped[name][rows]
                if kind == "numeric":
                    mean, var = self.numeric_stats[name]
                    d0, d1 = x - mean[0], x - mean[1]
                    scale = np.frexp(np.maximum(np.abs(d0), np.abs(d1)))[1]
                    a0, a1 = np.ldexp(d0, -scale), np.ldexp(d1, -scale)
                    log_odds += 0.5 * (np.log(var[0]) - np.log(var[1])) + np.ldexp(
                        a0 * a0 / (2.0 * var[0]) - a1 * a1 / (2.0 * var[1]), 2 * scale)
                else:
                    table = self.level_logprob[name]
                    log_odds += table[1][x] - table[0][x]
        return log_odds

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
    schema = FeatureSchema.fit(train)
    mapped = schema.map_columns(train)
    y = train.label_values()
    n = len(y)
    masks = [y == 0, y == 1]
    priors = [masks[0].sum() / n, masks[1].sum() / n]
    numeric_stats, level_logprob = {}, {}
    for name, kind in schema.features:
        if kind == "numeric":
            x = mapped[name]
            means, variances = np.zeros(2), np.ones(2)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                for c in (0, 1):
                    if masks[c].any():
                        means[c] = x[masks[c]].mean()
                        variances[c] = max(float(x[masks[c]].var()), params.variance_floor)
            if not np.isfinite(variances).all():
                raise DomainError(f"naive Bayes: feature {name!r} has a class variance "
                                  f"too large to represent; rescale the column")
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
