"""Logistic regression fit by Newton's method on the log-likelihood.

The design matrix is an intercept column plus the dummy encoding of the
features.  Linearly dependent (aliased) columns are rejected up front by an
incremental orthogonalization pass, naming the offending columns.  The fit
is `newton.newton_ascent`, whose module states the step-halving, stopping
and separation rules it shares with the Cox fit; here the score tolerance is
1e-8 and the log-likelihood tolerance 1e-10.  A singular or non-finite
Newton step, or `max_iter` iterations without convergence, raise
`ConvergenceError`.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import ConvergenceError, DomainError
from ..newton import check_aliased, newton_ascent, over_rows
from ._encoding import DummyEncoder
from .neural import _sigmoid

_SCORE_TOL = 1e-8
_LOGLIK_TOL = 1e-10


@dataclass(frozen=True)
class LogitParams:
    max_iter: int = 50

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


def _log_likelihood(z, y):
    # sum(y*z - log(1 + e^z)), stable via logaddexp
    return float(np.sum(y * z) - np.sum(np.logaddexp(0.0, z)))


class LogitModel:
    algorithm = "logit"

    def __init__(self, encoder, intercept, coefficients, loglik):
        self.encoder = encoder
        self.intercept = float(intercept)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.loglik = float(loglik)

    def predict_proba(self, data: Dataset) -> np.ndarray:
        x = self.encoder.transform(data)
        return _sigmoid(self.intercept + x @ self.coefficients)

    def to_state(self) -> dict:
        return {"encoder": self.encoder.to_state(), "intercept": self.intercept,
                "coefficients": self.coefficients.tolist(), "loglik": self.loglik}

    @classmethod
    def from_state(cls, state) -> "LogitModel":
        return cls(DummyEncoder.from_state(state["encoder"]), state["intercept"],
                   np.array(state["coefficients"], dtype=float), state["loglik"])


def fit_logit(train: Dataset, params: LogitParams) -> LogitModel:
    encoder = DummyEncoder.fit(train)
    x = encoder.transform(train)
    y = train.label_values().astype(float)
    if len(np.unique(y)) < 2:
        raise DomainError("logistic regression needs both classes in training data")
    design = np.hstack([np.ones((x.shape[0], 1)), x])
    names = ["(intercept)"] + encoder.column_names
    aliased = check_aliased(design, names)
    if aliased:
        raise DomainError("aliased design columns: " + ", ".join(aliased))

    def evaluate(beta):
        z = design @ beta
        p = _sigmoid(z)
        w = p * (1.0 - p)
        return (_log_likelihood(z, y), over_rows(design, y - p),
                over_rows(design, design * w[:, None]))

    try:
        fit = newton_ascent(evaluate, names, params.max_iter, _SCORE_TOL, _LOGLIK_TOL)
    except np.linalg.LinAlgError:
        raise ConvergenceError("singular Hessian in logistic fit") from None
    if not fit.converged:
        raise ConvergenceError(
            f"logistic fit did not converge in {params.max_iter} iterations")
    return LogitModel(encoder, fit.beta[0], fit.beta[1:], fit.loglik)
