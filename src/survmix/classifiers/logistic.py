"""Logistic regression fit by Newton's method on the log-likelihood.

The design matrix is an intercept column plus the dummy encoding of the
features.  Linearly dependent (aliased) columns are rejected up front by an
incremental orthogonalization pass, naming the offending columns.  Steps are
halved when they fail to improve the log-likelihood; convergence is declared
when the largest score component falls below 1e-8 or the relative
log-likelihood change falls below 1e-10.  Coefficients walking past
magnitude 15 while the likelihood still improves indicate separated classes
and raise a numeric error rather than returning a meaningless fit.
"""

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import ConvergenceError, DomainError, SeparationError
from ._encoding import DummyEncoder

_SCORE_TOL = 1e-8
_LOGLIK_TOL = 1e-10
_COEF_LIMIT = 15.0
_MAX_HALVINGS = 30


@dataclass(frozen=True)
class LogitParams:
    max_iter: int = 50

    def __post_init__(self):
        if self.max_iter < 1:
            raise DomainError("max_iter must be at least 1")


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_likelihood(z, y):
    # sum(y*z - log(1 + e^z)), stable via logaddexp
    return float(np.sum(y * z) - np.sum(np.logaddexp(0.0, z)))


def check_aliased(design: np.ndarray, names) -> list:
    """Names of columns linearly dependent on earlier ones."""
    basis = np.empty((design.shape[0], 0))
    aliased = []
    for j, name in enumerate(names):
        col = design[:, j]
        resid = col - basis @ (basis.T @ col)
        norm = np.linalg.norm(resid)
        if norm <= 1e-8 * max(1.0, np.linalg.norm(col)):
            aliased.append(name)
        else:
            basis = np.hstack([basis, (resid / norm)[:, None]])
    return aliased


def newton_fit(design: np.ndarray, y: np.ndarray, names, max_iter: int):
    """Maximum-likelihood coefficients for a full-rank design."""
    beta = np.zeros(design.shape[1])
    z = design @ beta
    loglik = _log_likelihood(z, y)
    for _ in range(max_iter):
        p = _sigmoid(z)
        score = design.T @ (y - p)
        if np.max(np.abs(score)) < _SCORE_TOL:
            return beta, loglik
        w = p * (1.0 - p)
        hessian = design.T @ (design * w[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            _raise_separated(beta, names)
            raise ConvergenceError("singular Hessian in logistic fit") from None
        new_loglik = loglik
        for _ in range(_MAX_HALVINGS + 1):
            candidate = beta + step
            z_new = design @ candidate
            new_loglik = _log_likelihood(z_new, y)
            if new_loglik >= loglik or not np.isfinite(new_loglik):
                break
            step = 0.5 * step
        if not np.isfinite(new_loglik) or new_loglik < loglik:
            raise ConvergenceError("logistic fit cannot improve the log-likelihood")
        improved = new_loglik > loglik
        relative = abs(new_loglik - loglik) / max(1.0, abs(loglik))
        beta, z, loglik = candidate, z_new, new_loglik
        if improved and np.max(np.abs(beta)) > _COEF_LIMIT:
            _raise_separated(beta, names)
        if relative < _LOGLIK_TOL:
            return beta, loglik
    raise ConvergenceError(f"logistic fit did not converge in {max_iter} iterations")


def _raise_separated(beta, names):
    worst = int(np.argmax(np.abs(beta)))
    if abs(beta[worst]) > _COEF_LIMIT:
        raise SeparationError(
            f"classes appear separated (coefficient for {names[worst]!r} "
            f"exceeds {_COEF_LIMIT:g} in magnitude)")


class LogitModel:
    algorithm = "logit"

    def __init__(self, encoder, intercept, coefficients, loglik):
        self.encoder = encoder
        self.intercept = float(intercept)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.loglik = float(loglik)

    @property
    def coefficient_names(self):
        return list(self.encoder.column_names)

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


def fit_logit(train: Dataset, params: LogitParams,
              reference: dict | None = None) -> LogitModel:
    if train.n_rows == 0:
        raise DomainError("cannot fit a classifier on zero rows")
    y = train.label_values().astype(float)
    if len(np.unique(y)) < 2:
        raise DomainError("logistic regression needs both classes in training data")
    encoder = DummyEncoder.fit(train, reference=reference)
    x = encoder.transform(train)
    design = np.hstack([np.ones((x.shape[0], 1)), x])
    names = ["(intercept)"] + encoder.column_names
    aliased = check_aliased(design, names)
    if aliased:
        raise DomainError("aliased design columns: " + ", ".join(aliased))
    beta, loglik = newton_fit(design, y, names, params.max_iter)
    return LogitModel(encoder, beta[0], beta[1:], loglik)
