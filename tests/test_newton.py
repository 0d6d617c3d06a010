"""The shared Newton ascent against the two loops it replaced.

`reference_newton_fit` is the logistic fit's own loop and `reference_cox_fit`
the Cox fit's, as they stood before both called `newton.newton_ascent`.  On
designs whose ascent halves at least one step, the fits must give the same
bits; the error paths must give the same kinds of error.
"""

import numpy as np
import pytest

from survmix import cox, newton
from survmix.classifiers import logistic
from survmix.classifiers.logistic import LogitParams, fit_logit
from survmix.cox import CoxFit, DesignMatrix, cox_fit
from survmix.dataset import ColumnSpec, Dataset
from survmix.errors import ConvergenceError, DomainError, SeparationError

# -- references ------------------------------------------------------------------

_COEF_LIMIT = 15.0
_MAX_HALVINGS = 30


def reference_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_over_rows(a, b):
    # the row sums themselves are `over_rows`: this file checks the ascent
    return newton.over_rows(a, b)


def reference_newton_fit(design, y, names, max_iter):
    """The logistic fit's loop: maximum-likelihood coefficients and loglik."""
    score_tol, loglik_tol = 1e-8, 1e-10
    beta = np.zeros(design.shape[1])
    z = design @ beta
    loglik = logistic._log_likelihood(z, y)
    for _ in range(max_iter):
        p = reference_sigmoid(z)
        score = reference_over_rows(design, y - p)
        if np.max(np.abs(score)) < score_tol:
            return beta, loglik
        w = p * (1.0 - p)
        hessian = reference_over_rows(design, design * w[:, None])
        try:
            step = np.linalg.solve(hessian, score)
        except np.linalg.LinAlgError:
            reference_raise_separated(beta, names)
            raise ConvergenceError("singular Hessian in logistic fit") from None
        new_loglik = loglik
        for _ in range(_MAX_HALVINGS + 1):
            candidate = beta + step
            z_new = design @ candidate
            new_loglik = logistic._log_likelihood(z_new, y)
            if new_loglik >= loglik or not np.isfinite(new_loglik):
                break
            step = 0.5 * step
        if not np.isfinite(new_loglik) or new_loglik < loglik:
            raise ConvergenceError("logistic fit cannot improve the log-likelihood")
        improved = new_loglik > loglik
        relative = abs(new_loglik - loglik) / max(1.0, abs(loglik))
        beta, z, loglik = candidate, z_new, new_loglik
        if improved and np.max(np.abs(beta)) > _COEF_LIMIT:
            reference_raise_separated(beta, names)
        if relative < loglik_tol:
            return beta, loglik
    raise ConvergenceError(f"logistic fit did not converge in {max_iter} iterations")


def reference_raise_separated(beta, names):
    worst = int(np.argmax(np.abs(beta)))
    if abs(beta[worst]) > _COEF_LIMIT:
        raise SeparationError(
            f"classes appear separated (coefficient for {names[worst]!r} "
            f"exceeds {_COEF_LIMIT:g} in magnitude)")


def reference_cox_fit(design, durations, events, ties="efron"):
    """The Cox fit's loop, with its own tolerances and limits."""
    score_tol, loglik_tol, max_iter = 1e-9, 1e-9, 25
    matrix = design.matrix
    names = design.column_names
    prep = cox._prepare(matrix, durations, events, ties)
    beta = np.zeros(matrix.shape[1])
    loglik, score, info = cox._loglik(prep, beta)
    loglik_null, score_null, info_null = loglik, score, info
    iterations = 0
    converged = np.max(np.abs(score), initial=0.0) < score_tol
    while not converged and iterations < max_iter:
        iterations += 1
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            cox._raise_singular(matrix, names)
        if not np.isfinite(step).all():
            cox._raise_singular(matrix, names)
        new = None
        for half in range(_MAX_HALVINGS + 1):
            candidate = beta + step / 2.0 ** half
            new = cox._loglik(prep, candidate)
            if np.isfinite(new[0]) and new[0] >= loglik:
                break
        else:
            converged = True
            break
        if new[0] > loglik:
            worst = int(np.argmax(np.abs(candidate)))
            if abs(candidate[worst]) > _COEF_LIMIT:
                raise SeparationError(
                    f"complete separation suspected: coefficient for "
                    f"{names[worst]!r} diverged past |{_COEF_LIMIT}| with the "
                    f"likelihood still improving")
        improvement = new[0] - loglik
        beta, (loglik, score, info) = candidate, new
        if np.max(np.abs(score)) < score_tol:
            converged = True
        elif improvement <= loglik_tol * max(1.0, abs(loglik)):
            converged = True
    try:
        covariance = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        cox._raise_singular(matrix, names)
    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.diag(covariance))
    return CoxFit(names=names, beta=beta, se=se, loglik_null=loglik_null,
                  loglik_fit=loglik, iterations=iterations, converged=bool(converged),
                  information=info, score_null=score_null,
                  information_null=info_null)


# -- fixtures --------------------------------------------------------------------

def logit_data(x, y):
    x = np.atleast_2d(np.asarray(x, dtype=float).T).T
    names = [f"x{j}" for j in range(x.shape[1])]
    specs = [ColumnSpec(n, "numeric") for n in names]
    columns = dict(zip(names, x.T))
    specs.append(ColumnSpec("label", "numeric", "label"))
    columns["label"] = np.asarray(y, dtype=float)
    return Dataset(specs, columns)


def logit_design(data):
    x = np.column_stack([data.numeric(n) for n in data.feature_names()])
    return (np.hstack([np.ones((data.n_rows, 1)), x]), data.label_values().astype(float),
            ["(intercept)"] + list(data.feature_names()))


def cox_design(matrix, names=None):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    names = tuple(names or (f"x{j}" for j in range(matrix.shape[1])))
    return DesignMatrix(column_names=names, reference_levels={}, matrix=matrix,
                        row_index=np.arange(matrix.shape[0]), dropped_columns=())


def spy_ascent(monkeypatch, module):
    """Record the ascent that `module` runs and the step halvings it took:
    every evaluation after the one at 0 that is not an iteration's last."""
    record = {}

    def spying(evaluate, *args):
        calls = []

        def counted(beta):
            calls.append(None)
            return evaluate(beta)
        record["ascent"] = ascent = newton.newton_ascent(counted, *args)
        record["halvings"] = len(calls) - 1 - ascent.iterations
        return ascent
    monkeypatch.setattr(module, "newton_ascent", spying)
    return record


def logit_case(n, seed):
    """Two features with a strong effect: the first draw from `seed`'s stream
    whose ascent halves at least one step.  A logistic ascent from 0 halves
    only where a trial ties the optimum to its last bits, so which draws
    halve follows the bits of the row sums."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        x = rng.normal(size=(n, 2))
        eta = 3.0 * x[:, 0] - 1.5 * x[:, 1]
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        data = logit_data(x, y)
        with pytest.MonkeyPatch.context() as patch:
            record = spy_ascent(patch, logistic)
            fit_logit(data, LogitParams())
        if record["halvings"] >= 1:
            return data
    raise AssertionError(f"no draw of {n} rows from seed {seed} halves a step")


def cox_case(seed, ties):
    """Two covariates with two high-leverage rows and durations rounded to
    thirds, so that deaths tie; at these seeds the ascent halves a step."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(60, 2))
    x[:2] *= 6.0
    durations = np.ceil(3 * rng.exponential(np.exp(-x @ np.array([3.0, -1.5]))))
    events = (rng.random(60) < 0.8).astype(int)
    events[0] = 1
    return cox_design(x), durations, events


# -- bit equality ----------------------------------------------------------------

LOGIT_CASES = ((30, 6), (200, 4), (200, 11))
COX_SEEDS = (3, 4, 11)


class TestLogitMatchesItsLoop:
    @pytest.mark.parametrize("n,seed", LOGIT_CASES)
    def test_same_bits_after_step_halving(self, monkeypatch, n, seed):
        data = logit_case(n, seed)
        design, y, names = logit_design(data)
        beta, loglik = reference_newton_fit(design, y, names, 50)
        p = reference_sigmoid(design @ beta)
        information = reference_over_rows(design, design * (p * (1.0 - p))[:, None])
        record = spy_ascent(monkeypatch, logistic)
        model = fit_logit(data, LogitParams())
        assert record["halvings"] >= 1
        assert np.float64(model.intercept).tobytes() == beta[0].tobytes()
        assert model.coefficients.tobytes() == beta[1:].tobytes()
        assert model.loglik == loglik
        assert record["ascent"].information.tobytes() == information.tobytes()


class TestCoxMatchesItsLoop:
    @pytest.mark.parametrize("ties", ["efron", "breslow"])
    @pytest.mark.parametrize("seed", COX_SEEDS)
    def test_same_bits_after_step_halving(self, monkeypatch, seed, ties):
        design, durations, events = cox_case(seed, ties)
        want = reference_cox_fit(design, durations, events, ties)
        record = spy_ascent(monkeypatch, cox)
        got = cox_fit(design, durations, events, ties)
        assert record["halvings"] >= 1
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.loglik_fit == want.loglik_fit
        assert got.loglik_null == want.loglik_null
        for field in ("beta", "se", "information", "score_null", "information_null"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


# -- error kinds -----------------------------------------------------------------


class TestErrorKinds:
    def test_logit_separation_names_the_column(self):
        data = logit_data([-2.0, -1.0, 1.0, 2.0], [0, 0, 1, 1])
        with pytest.raises(SeparationError, match="'x0'"):
            reference_newton_fit(*logit_design(data), 50)
        with pytest.raises(SeparationError, match="'x0'"):
            fit_logit(data, LogitParams())

    def test_cox_separation_names_the_column(self):
        design = cox_design([[1.0], [1.0], [0.0], [0.0]], names=("early",))
        durations, events = [1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1]
        with pytest.raises(SeparationError, match="'early'"):
            reference_cox_fit(design, durations, events)
        with pytest.raises(SeparationError, match="'early'"):
            cox_fit(design, durations, events)

    def test_singular_logit_design_is_a_convergence_error(self, monkeypatch):
        # The alias screen rejects such a design before the ascent, so it is
        # switched off here; x1 = 2 x0 makes the Hessian singular bit for bit.
        rng = np.random.default_rng(7)
        x0 = rng.normal(size=20)
        data = logit_data(np.column_stack([x0, 2.0 * x0]), rng.integers(0, 2, 20))
        with pytest.raises(ConvergenceError, match="singular"):
            reference_newton_fit(*logit_design(data), 50)
        monkeypatch.setattr(logistic, "check_aliased", lambda design, names: [])
        with pytest.raises(ConvergenceError, match="singular"):
            fit_logit(data, LogitParams())

    def test_singular_cox_design_names_the_dependent_columns(self):
        rng = np.random.default_rng(8)
        x0 = rng.normal(size=30)
        design = cox_design(np.column_stack([x0, rng.normal(size=30), 2.0 * x0]))
        durations = rng.exponential(1.0, 30)
        events = np.ones(30, dtype=int)
        message = "singular information matrix; dependent columns: x2$"
        with pytest.raises(DomainError, match=message):
            reference_cox_fit(design, durations, events)
        with pytest.raises(DomainError, match=message):
            cox_fit(design, durations, events)


# -- alias screen ----------------------------------------------------------------


class TestAliasScreenAtAnyScale:
    """`check_aliased` judges each column at unit scale: a sum of squares of
    raw cells overflows from about 1e154 and underflows below 1e-162, and the
    unscaled screen called such a column aliased."""

    SCALES = (1e-300, 1e-170, 1e-9, 1.0, 1e155, 1e300)

    @pytest.mark.parametrize("scale", SCALES)
    def test_independent_and_dependent_columns(self, scale):
        x = np.random.default_rng(4).normal(size=40)
        design = np.column_stack([np.ones(40), x * scale, 2.0 * x * scale,
                                  np.full(40, 3.0 * scale), np.zeros(40)])
        assert newton.check_aliased(design, ["(intercept)", "x0", "x1", "c", "z"]) == [
            "x1", "c", "z"]

    def test_logit_feature_at_1e155_is_not_aliased(self):
        # The fit overflows at this scale; that is a numeric failure, not a
        # design column dependent on the intercept.
        rng = np.random.default_rng(5)
        data = logit_data(rng.normal(size=40) * 1e155, rng.integers(0, 2, 40))
        assert newton.check_aliased(*logit_design(data)[::2]) == []
        with pytest.raises(ConvergenceError, match="singular Hessian"):
            fit_logit(data, LogitParams())

    def test_cox_covariate_at_1e155_is_kept(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=30)
        data = Dataset([ColumnSpec("big", "numeric"), ColumnSpec("twice", "numeric")],
                       {"big": x * 1e155, "twice": 2.0 * x * 1e155})
        design = cox.build_design(data, ["big", "twice"])
        assert design.column_names == ("big",)
        assert design.dropped_columns == (("twice", "aliased with earlier columns"),)
