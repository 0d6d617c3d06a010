"""Cox proportional-hazards regression on right-censored durations.

Dummy-encoded design matrices with interaction terms, maximization of the
partial likelihood (Efron or Breslow tie handling), Wald/LR/score tests,
hazard ratios, and a screen for complete separation.  The baseline hazard is
never estimated; everything here lives in the partial likelihood.  The fit
is `newton.newton_ascent`, whose module states the step-halving, stopping
and separation rules it shares with the logistic fit; a singular information
matrix is a `DomainError` naming the dependent columns.

Efron and Breslow share one code path: each death in a tied group of size d
subtracts a fraction k/d (Efron) or 0 (Breslow) of the group's weight from
the risk-set sums, so with no ties the two methods coincide exactly.  The
observed information is a weighted cross-product Xᵀ diag(v) X (Therneau and
Grambsch 2000, §3), less Efron's correction over the tied deaths (Efron
1977), so it takes matrix products over the rows and nothing of size n·p².
`cox_fit` keeps the information at the estimate and the score and
information at 0 on the fit, for `cox_tests`.  Each fit puts its rows in
one order of its own, by duration, event and design row, so the order it
is given them moves no bit.
"""

from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, observed_levels
from .distributions import chi_square_sf
from .errors import DomainError
from .newton import check_aliased, newton_ascent, over_rows
from .survival import _check_samples

TIES_METHODS = ("efron", "breslow")
DEFAULT_TIES = "efron"

_SCORE_TOL = 1e-9
_LOGLIK_TOL = 1e-9
_MAX_ITER = 25


# -- design matrices -----------------------------------------------------------

@dataclass(frozen=True)
class DesignMatrix:
    """Dummy/product design aligned with `row_index` of the source dataset."""

    column_names: tuple
    reference_levels: dict
    matrix: np.ndarray
    row_index: np.ndarray   # dataset rows kept (no missing formula cells)
    dropped_columns: tuple  # (column name, reason) removed during assembly

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]


def parse_formula(text: str) -> list:
    """Terms from 'a + b + a:b'; 'a*b' expands to a + b + a:b."""
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise DomainError(f"empty term in formula {text!r}")
        if "*" in chunk:
            parts = [p.strip() for p in chunk.split("*")]
            if not all(parts):
                raise DomainError(f"empty factor in term {chunk!r}")
            terms.extend(parts)
            terms.append(":".join(parts))
        else:
            terms.append(chunk)
    seen, out = set(), []
    for t in terms:
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _encode_column(data: Dataset, name: str, keep, references) -> tuple:
    """(column names, columns, reference level or None) for one base column."""
    spec = data.spec(name)
    if spec.kind == "numeric":
        return [name], [data.numeric(name)[keep]], None
    codes = data.codes(name)[keep]
    counts = np.bincount(codes, minlength=len(spec.vocabulary))
    observed, heaviest = observed_levels(spec.vocabulary, counts)
    if len(observed) < 2:
        raise DomainError(f"column {name!r} has fewer than two observed levels")
    reference = references.get(name, heaviest)
    if reference not in observed:
        raise DomainError(f"reference level {reference!r} not observed in column {name!r}")
    names, cols = [], []
    for level in observed:
        if level != reference:
            names.append(f"{name}={level}")
            cols.append((codes == spec.vocabulary.index(level)).astype(float))
    return names, cols, reference


def build_design(data: Dataset, formula, references=None) -> DesignMatrix:
    """Assemble the design for the given terms, dropping rows with missing cells.

    Categorical columns are dummy-coded over their observed levels against
    the reference level (supplied per column, else the most frequent, ties to
    vocabulary order: `dataset.observed_levels`; a reference for a column
    outside the formula is unused, so one mapping serves a whole suite);
    interactions are elementwise products of their parents' columns.  All-zero
    columns and columns linearly dependent on an intercept plus their
    predecessors are removed and reported.
    """
    references = references or {}
    terms = list(formula)
    if not terms:
        raise DomainError("formula must name at least one term")
    base = []
    for term in terms:
        for part in term.split(":"):
            if part not in base:
                base.append(part)
    for name in base:
        if name not in data.names:
            raise DomainError(f"formula column {name!r} not in dataset")

    keep = ~np.any([data.missing_mask(name) for name in base], axis=0)
    row_index = np.flatnonzero(keep)
    if row_index.size == 0:
        raise DomainError("no rows left after dropping missing formula cells")

    encoded = {name: _encode_column(data, name, keep, references) for name in base}
    reference_levels = {n: ref for n, (_, _, ref) in encoded.items() if ref is not None}

    names, cols = [], []
    for term in terms:
        parts = term.split(":")
        combo_names, combo_cols = [""], [np.ones(row_index.size)]
        for part in parts:
            part_names, part_cols, _ = encoded[part]
            combo_names = [f"{a}:{b}" if a else b
                           for a in combo_names for b in part_names]
            combo_cols = [a * b for a in combo_cols for b in part_cols]
        for cname, col in zip(combo_names, combo_cols):
            names.append(cname)
            cols.append(col)

    dropped = []
    matrix = np.column_stack(cols) if cols else np.empty((row_index.size, 0))
    zero = [n for n, c in zip(names, matrix.T) if not np.any(c)]
    if zero:
        keep_j = [j for j, n in enumerate(names) if n not in zero]
        dropped += [(n, "all zeros") for n in zero]
        names = [names[j] for j in keep_j]
        matrix = matrix[:, keep_j]
    aliased = _aliased(matrix, names)
    if aliased:
        keep_j = [j for j, n in enumerate(names) if n not in aliased]
        dropped += [(n, "aliased with earlier columns") for n in names
                    if n in aliased]
        names = [names[j] for j in keep_j]
        matrix = matrix[:, keep_j]
    if not names:
        raise DomainError("empty design after removing aliased columns")
    return DesignMatrix(column_names=tuple(names), reference_levels=reference_levels,
                        matrix=matrix, row_index=row_index, dropped_columns=tuple(dropped))


# -- partial likelihood --------------------------------------------------------

class _Prepared(NamedTuple):
    """The beta-free parts of the partial likelihood, rows in `_prepare`'s order."""

    x: np.ndarray           # design rows
    starts: np.ndarray      # first row at risk at each event time
    death_rows: np.ndarray  # rows with an event
    d_starts: np.ndarray    # first death of each event time, within death_rows
    gidx: np.ndarray        # each death's event time
    frac: np.ndarray        # each death's share k/d of its tied group (0: Breslow)
    x_death: np.ndarray     # x[death_rows]


def _prepare(matrix, durations, events, ties):
    """The fit's rows ordered by duration, then event, then design row, with
    their tie groups.  Rows equal in all of these add identical terms, so
    the order the rows come in moves no sum."""
    durations, events = _check_samples(durations, events)
    if matrix.shape[0] != durations.size:
        raise DomainError("design rows must align with the survival sample")
    if events.sum() == 0:
        raise DomainError("Cox regression needs at least one event")
    order = np.lexsort((*matrix.T[::-1], events, durations))
    t, e, x = durations[order], events[order], matrix[order]
    death_rows = np.flatnonzero(e == 1)
    event_times, d_starts, d_counts = np.unique(t[death_rows], return_index=True,
                                                return_counts=True)
    starts = np.searchsorted(t, event_times, side="left")
    gidx = np.repeat(np.arange(d_counts.size), d_counts)
    within = np.arange(death_rows.size) - np.repeat(d_starts, d_counts)
    frac = within / np.repeat(d_counts, d_counts) * (ties == "efron")  # Breslow: 0
    return _Prepared(x, starts, death_rows, d_starts, gidx, frac, x[death_rows])


def _suffix_sums(values, starts):
    """Sums over rows >= start, for each start (values indexed along axis 0)."""
    rev = np.cumsum(values[::-1], axis=0)[::-1]
    return rev[starts]


def _loglik(prep, beta):
    """(log-likelihood, score vector, observed information) at beta.

    Death r's risk-set sums run over the rows at risk, less its Efron share
    frac_r of its tied deaths' sums; denom_r is the weight sum of that kind
    and mean_r the weighted mean of x.  The information is Σ_r S2_r/denom_r -
    mean_r mean_rᵀ, with S2_r the Σ w x xᵀ of that kind.  Row i is at risk at
    every event time g with starts[g] <= i, so Σ_r S2_r/denom_r is
    Xᵀ diag(c w) X - X_Dᵀ diag(b w) X_D over all rows and the death rows:
    c_i sums A_g = Σ_{r in g} 1/denom_r over those times, and a death of
    time g has b_g = Σ_{r in g} frac_r/denom_r, 0 for Breslow.  So three
    matrix products give it, and no temporary is larger than n×p.
    """
    x, starts, death_rows, d_starts, gidx, frac, x_death = prep
    with np.errstate(over="ignore", invalid="ignore"):
        eta = x @ beta
        w = np.exp(eta)
        xw = x * w[:, None]
        xw_death = xw[death_rows]
        s0 = _suffix_sums(w, starts)
        s1 = _suffix_sums(xw, starts)
        s0d = np.add.reduceat(w[death_rows], d_starts)
        s1d = np.add.reduceat(xw_death, d_starts, axis=0)
        denom = s0[gidx] - frac * s0d[gidx]
        loglik = float(eta[death_rows].sum() - np.log(denom).sum())
        mean = (s1[gidx] - frac[:, None] * s1d[gidx]) / denom[:, None]
        score = x_death.sum(axis=0) - mean.sum(axis=0)
        a = np.add.reduceat(1.0 / denom, d_starts)
        c = np.cumsum(np.bincount(starts, a, x.shape[0]))
        b = np.add.reduceat(frac / denom, d_starts)
        info = (over_rows(xw * c[:, None], x)
                - over_rows(xw_death * b[gidx, None], x_death)
                - over_rows(mean, mean))
    return loglik, score, info


# -- fitting -------------------------------------------------------------------

@dataclass(frozen=True)
class CoxFit:
    """A fitted model, with the observed information at beta and the score
    and information at 0, which `cox_tests` reads."""

    names: tuple
    beta: np.ndarray
    se: np.ndarray
    loglik_null: float
    loglik_fit: float
    iterations: int
    converged: bool
    information: np.ndarray
    score_null: np.ndarray
    information_null: np.ndarray


def _aliased(matrix, names) -> list:
    """Names of `matrix`'s columns that depend on an intercept and the
    columns before them.  The intercept counts because the partial
    likelihood only sees within-risk-set differences, so a constant column
    is inestimable."""
    design = np.column_stack([np.ones(matrix.shape[0]), matrix])
    return [n for n in check_aliased(design, ["(const)", *names]) if n != "(const)"]


def _raise_singular(matrix, names):
    aliased = _aliased(matrix, names)
    if aliased:
        raise DomainError(f"singular information matrix; dependent columns: "
                          f"{', '.join(aliased)}")
    raise DomainError("singular information matrix")


def cox_fit(design: DesignMatrix, durations, events, ties: str = DEFAULT_TIES) -> CoxFit:
    """Maximum partial likelihood by `newton_ascent`."""
    if ties not in TIES_METHODS:
        raise DomainError(f"unknown ties method {ties!r}")
    matrix = design.matrix
    names = design.column_names
    prep = _prepare(matrix, durations, events, ties)
    try:
        fit = newton_ascent(lambda beta: _loglik(prep, beta), names, _MAX_ITER,
                            _SCORE_TOL, _LOGLIK_TOL)
        covariance = np.linalg.inv(fit.information)
    except np.linalg.LinAlgError:
        _raise_singular(matrix, names)
    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.diag(covariance))
    loglik_null, score_null, info_null = fit.start
    return CoxFit(names=names, beta=fit.beta, se=se, loglik_null=loglik_null,
                  loglik_fit=fit.loglik, iterations=fit.iterations,
                  converged=fit.converged, information=fit.information,
                  score_null=score_null, information_null=info_null)


# -- inference -----------------------------------------------------------------

def _chi_square(statistic: float, df: int) -> dict:
    return {"statistic": statistic, "df": df, "p_value": chi_square_sf(statistic, df)}


def cox_tests(fit: CoxFit) -> dict:
    """Wald, likelihood-ratio, and score chi-square tests for the fitted
    model, from the information and null score that `cox_fit` kept, as
    cox.json holds them: {wald, lr, score}, each {statistic, df, p_value},
    and score None when the information at 0 is singular."""
    if not fit.converged:
        raise DomainError("tests require a converged fit")
    p = len(fit.names)
    if p == 0:
        raise DomainError("no coefficients to test")
    tests = {"wald": _chi_square(float(fit.beta @ fit.information @ fit.beta), p),
             "lr": _chi_square(max(0.0, 2.0 * (fit.loglik_fit - fit.loglik_null)), p)}
    try:
        solved = np.linalg.solve(fit.information_null, fit.score_null)
        tests["score"] = _chi_square(float(fit.score_null @ solved), p)
    except np.linalg.LinAlgError:
        tests["score"] = None
    return tests


def hazard_ratios(fit: CoxFit) -> list:
    """exp(beta) with 95% bounds exp(beta +- z se), one {hazard_ratio,
    ci_lower, ci_upper} record per coefficient."""
    if not fit.converged:
        raise DomainError("hazard ratios require a converged fit")
    z = NormalDist().inv_cdf(1.0 - (1.0 - 0.95) / 2.0)
    return [{"hazard_ratio": float(np.exp(b)), "ci_lower": float(np.exp(b - z * s)),
             "ci_upper": float(np.exp(b + z * s))} for b, s in zip(fit.beta, fit.se)]


# -- separation screen ---------------------------------------------------------

def detect_separation(design: DesignMatrix, durations, events) -> list:
    """Flag dummy columns whose event pattern implies a monotone likelihood,
    one {column, reason} record per flagged column.

    A screen, not a proof: flagged columns are the ones worth dropping before
    a fit that would otherwise chase an infinite coefficient.
    """
    durations, events = _check_samples(durations, events)
    if design.matrix.shape[0] != durations.size:
        raise DomainError("design rows must align with the survival sample")
    flags = []
    for j, name in enumerate(design.column_names):
        col = design.matrix[:, j]
        if not np.isin(col, (0.0, 1.0)).all():
            continue
        carriers = col == 1.0
        carrier_events = durations[carriers & (events == 1)]
        other_events = durations[~carriers & (events == 1)]
        if carrier_events.size == 0:
            reason = "carriers have no events"
        elif other_events.size == 0:
            reason = "no events outside carriers"
        elif carrier_events.max() < other_events.min():
            reason = "carriers' events all precede the others'"
        elif carrier_events.min() > other_events.max():
            reason = "carriers' events all follow the others'"
        else:
            continue
        flags.append({"column": name, "reason": reason})
    return flags
