"""Cox proportional-hazards regression on right-censored durations.

Dummy-encoded design matrices with interaction terms, Newton maximization of
the partial likelihood (Efron or Breslow tie handling), Wald/LR/score tests,
hazard ratios, and a screen for complete separation.  The baseline hazard is
never estimated; everything here lives in the partial likelihood.

Efron and Breslow share one code path: each death in a tied group of size d
subtracts a fraction k/d (Efron) or 0 (Breslow) of the group's weight from
the risk-set sums, so with no ties the two methods coincide exactly.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .classifiers.logistic import check_aliased
from .dataset import Dataset
from .distributions import chi_square_sf, normal_quantile
from .errors import DomainError, SeparationError
from .survival import _check_samples

TIES_METHODS = ("efron", "breslow")

_SCORE_TOL = 1e-9
_LOGLIK_TOL = 1e-9
_MAX_ITER = 25
_MAX_HALVINGS = 30
_COEF_LIMIT = 15.0


# -- design matrices -----------------------------------------------------------

@dataclass(frozen=True)
class DesignMatrix:
    """Dummy/product design aligned with `row_index` of the source dataset."""

    column_names: tuple
    reference_levels: dict
    matrix: np.ndarray
    term_map: dict          # column name -> originating formula term
    row_index: np.ndarray   # dataset rows kept (no missing formula cells)
    dropped_columns: tuple  # (column name, reason) removed during assembly

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def without_columns(self, names, reason: str) -> "DesignMatrix":
        names = set(names)
        unknown = names - set(self.column_names)
        if unknown:
            raise DomainError(f"cannot drop unknown design columns: {sorted(unknown)}")
        keep = [j for j, n in enumerate(self.column_names) if n not in names]
        return dataclasses.replace(
            self,
            column_names=tuple(self.column_names[j] for j in keep),
            matrix=self.matrix[:, keep],
            term_map={n: t for n, t in self.term_map.items() if n not in names},
            dropped_columns=self.dropped_columns
            + tuple((n, reason) for n in self.column_names if n in names))


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
    observed = np.flatnonzero(counts)
    if len(observed) < 2:
        raise DomainError(f"column {name!r} has fewer than two observed levels")
    if name in references:
        level = references[name]
        if level not in spec.vocabulary or counts[spec.vocabulary.index(level)] == 0:
            raise DomainError(
                f"reference level {level!r} not observed in column {name!r}")
        ref_code = spec.vocabulary.index(level)
    else:
        ref_code = int(observed[np.argmax(counts[observed])])
    names, cols = [], []
    for code in observed:
        if code == ref_code:
            continue
        names.append(f"{name}={spec.vocabulary[code]}")
        cols.append((codes == code).astype(float))
    return names, cols, spec.vocabulary[ref_code]


def build_design(data: Dataset, formula, references=None) -> DesignMatrix:
    """Assemble the design for the given terms, dropping rows with missing cells.

    Categorical columns are dummy-coded against the reference level (supplied
    per column, else the most frequent); interactions are elementwise products
    of their parents' columns.  All-zero columns and columns linearly dependent
    on an intercept plus their predecessors are removed and reported.
    """
    references = dict(references or {})
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
    for name in references:
        if name not in base:
            raise DomainError(f"reference given for column {name!r} not in formula")

    keep = ~np.any([data.missing_mask(name) for name in base], axis=0)
    row_index = np.flatnonzero(keep)
    if row_index.size == 0:
        raise DomainError("no rows left after dropping missing formula cells")

    encoded = {name: _encode_column(data, name, keep, references) for name in base}
    reference_levels = {n: ref for n, (_, _, ref) in encoded.items() if ref is not None}

    names, cols, term_map = [], [], {}
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
            term_map[cname] = term

    dropped = []
    matrix = np.column_stack(cols) if cols else np.empty((row_index.size, 0))
    zero = [n for n, c in zip(names, matrix.T) if not np.any(c)]
    if zero:
        keep_j = [j for j, n in enumerate(names) if n not in zero]
        dropped += [(n, "all zeros") for n in zero]
        names = [names[j] for j in keep_j]
        matrix = matrix[:, keep_j]
    # Check rank against an intercept too: the partial likelihood only sees
    # within-risk-set differences, so a constant column is inestimable.
    augmented = np.column_stack([np.ones(row_index.size), matrix])
    aliased = set(check_aliased(augmented, ["(const)"] + names)) - {"(const)"}
    if aliased:
        keep_j = [j for j, n in enumerate(names) if n not in aliased]
        dropped += [(n, "aliased with earlier columns") for n in names
                    if n in aliased]
        names = [names[j] for j in keep_j]
        matrix = matrix[:, keep_j]
    if not names:
        raise DomainError("empty design after removing aliased columns")
    term_map = {n: term_map[n] for n in names}
    return DesignMatrix(column_names=tuple(names), reference_levels=reference_levels,
                        matrix=matrix, term_map=term_map, row_index=row_index,
                        dropped_columns=tuple(dropped))


# -- partial likelihood --------------------------------------------------------

def _prepare(matrix, durations, events):
    durations, events = _check_samples(durations, events)
    if matrix.shape[0] != durations.size:
        raise DomainError("design rows must align with the survival sample")
    if events.sum() == 0:
        raise DomainError("Cox regression needs at least one event")
    order = np.argsort(durations, kind="stable")
    x = matrix[order]
    t = durations[order]
    e = events[order]
    event_times = np.unique(t[e == 1])
    starts = np.searchsorted(t, event_times, side="left")
    death_rows = np.flatnonzero(e == 1)
    d_starts = np.searchsorted(t[death_rows], event_times, side="left")
    d_counts = np.diff(np.append(d_starts, death_rows.size))
    return x, starts, death_rows, d_starts, d_counts


def _suffix_sums(values, starts):
    """Sums over rows >= start, for each start (values indexed along axis 0)."""
    rev = np.cumsum(values[::-1], axis=0)[::-1]
    return rev[starts]


def _loglik(prep, beta, ties):
    """(log-likelihood, score vector, observed information) at beta."""
    x, starts, death_rows, d_starts, d_counts = prep
    n, p = x.shape
    with np.errstate(over="ignore", invalid="ignore"):
        eta = x @ beta
        w = np.exp(eta)
        xw = x * w[:, None]
        outer = xw[:, :, None] * x[:, None, :]
        s0 = _suffix_sums(w, starts)
        s1 = _suffix_sums(xw, starts)
        s2 = _suffix_sums(outer, starts)
        s0d = np.add.reduceat(w[death_rows], d_starts)
        s1d = np.add.reduceat(xw[death_rows], d_starts, axis=0)
        s2d = np.add.reduceat(outer[death_rows], d_starts, axis=0)

        k = len(d_counts)
        gidx = np.repeat(np.arange(k), d_counts)
        m = death_rows.size
        within = np.arange(m) - np.repeat(np.cumsum(d_counts) - d_counts, d_counts)
        if ties == "efron":
            frac = within / np.repeat(d_counts, d_counts)
        else:
            frac = np.zeros(m)
        denom = s0[gidx] - frac * s0d[gidx]
        loglik = float(eta[death_rows].sum() - np.log(denom).sum())
        mean = (s1[gidx] - frac[:, None] * s1d[gidx]) / denom[:, None]
        score = x[death_rows].sum(axis=0) - mean.sum(axis=0)
        shaped = (s2[gidx] - frac[:, None, None] * s2d[gidx]) / denom[:, None, None]
        info = shaped.sum(axis=0) - np.einsum("mi,mj->ij", mean, mean)
    return loglik, score, info


def cox_loglik(matrix, durations, events, beta, ties: str = "efron"):
    """Partial log-likelihood, score, and observed information at `beta`."""
    if ties not in TIES_METHODS:
        raise DomainError(f"unknown ties method {ties!r}")
    matrix = np.asarray(matrix, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (matrix.shape[1],):
        raise DomainError("beta length must match the design column count")
    return _loglik(_prepare(matrix, durations, events), beta, ties)


# -- fitting -------------------------------------------------------------------

@dataclass(frozen=True)
class CoxFit:
    names: tuple
    beta: np.ndarray
    se: np.ndarray
    loglik_null: float
    loglik_fit: float
    iterations: int
    converged: bool
    ties_method: str


def _raise_singular(matrix, names):
    aliased = check_aliased(np.column_stack([np.ones(matrix.shape[0]), matrix]),
                            ["(const)"] + list(names))
    aliased = [n for n in aliased if n != "(const)"]
    if aliased:
        raise DomainError(f"singular information matrix; dependent columns: "
                          f"{', '.join(aliased)}")
    raise DomainError("singular information matrix")


def _check_separation_limit(beta, names):
    worst = int(np.argmax(np.abs(beta)))
    if abs(beta[worst]) > _COEF_LIMIT:
        raise SeparationError(
            f"complete separation suspected: coefficient for {names[worst]!r} "
            f"diverged past |{_COEF_LIMIT}| with the likelihood still improving")


def cox_fit(design: DesignMatrix, durations, events, ties: str = "efron") -> CoxFit:
    """Newton-Raphson maximum partial likelihood with step-halving."""
    if ties not in TIES_METHODS:
        raise DomainError(f"unknown ties method {ties!r}")
    matrix = design.matrix
    names = design.column_names
    prep = _prepare(matrix, durations, events)
    p = matrix.shape[1]
    beta = np.zeros(p)
    loglik, score, info = _loglik(prep, beta, ties)
    loglik_null = loglik
    if p == 0:
        return CoxFit(names=(), beta=beta, se=beta.copy(),
                      loglik_null=loglik_null, loglik_fit=loglik_null,
                      iterations=0, converged=True, ties_method=ties)

    iterations = 0
    converged = np.max(np.abs(score), initial=0.0) < _SCORE_TOL
    while not converged and iterations < _MAX_ITER:
        iterations += 1
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            _raise_singular(matrix, names)
        if not np.isfinite(step).all():
            _raise_singular(matrix, names)
        new = None
        for half in range(_MAX_HALVINGS + 1):
            candidate = beta + step / 2.0 ** half
            new = _loglik(prep, candidate, ties)
            if np.isfinite(new[0]) and new[0] >= loglik:
                break
        else:
            # Concavity: a point no step can improve is the maximum, and the
            # attainable log-likelihood change is zero (the relative rule).
            converged = True
            break
        if new[0] > loglik:
            _check_separation_limit(candidate, names)
        improvement = new[0] - loglik
        beta, (loglik, score, info) = candidate, new
        if np.max(np.abs(score)) < _SCORE_TOL:
            converged = True
        elif improvement <= _LOGLIK_TOL * max(1.0, abs(loglik)):
            converged = True

    try:
        covariance = np.linalg.inv(info)
    except np.linalg.LinAlgError:
        _raise_singular(matrix, names)
    with np.errstate(invalid="ignore"):
        se = np.sqrt(np.diag(covariance))
    return CoxFit(names=names, beta=beta, se=se, loglik_null=loglik_null,
                  loglik_fit=loglik, iterations=iterations, converged=bool(converged),
                  ties_method=ties)


# -- inference -----------------------------------------------------------------

@dataclass(frozen=True)
class ChiSquareTest:
    statistic: float
    df: int
    p_value: float

    def to_dict(self) -> dict:
        return {"statistic": self.statistic, "df": self.df, "p_value": self.p_value}


@dataclass(frozen=True)
class CoxTests:
    wald: ChiSquareTest
    lr: ChiSquareTest
    score: "ChiSquareTest | None"   # None when the information at 0 is singular

    def to_dict(self) -> dict:
        return {"wald": self.wald.to_dict(), "lr": self.lr.to_dict(),
                "score": None if self.score is None else self.score.to_dict()}


def cox_tests(fit: CoxFit, design: DesignMatrix, durations, events) -> CoxTests:
    """Wald, likelihood-ratio, and score chi-square tests for the fitted model."""
    if not fit.converged:
        raise DomainError("tests require a converged fit")
    p = len(fit.names)
    if p == 0:
        raise DomainError("no coefficients to test")
    prep = _prepare(design.matrix, durations, events)
    _, _, info_hat = _loglik(prep, fit.beta, fit.ties_method)
    wald_stat = float(fit.beta @ info_hat @ fit.beta)
    wald = ChiSquareTest(wald_stat, p, chi_square_sf(wald_stat, p))
    lr_stat = max(0.0, 2.0 * (fit.loglik_fit - fit.loglik_null))
    lr = ChiSquareTest(lr_stat, p, chi_square_sf(lr_stat, p))
    _, score0, info0 = _loglik(prep, np.zeros(p), fit.ties_method)
    try:
        solved = np.linalg.solve(info0, score0)
        score_stat = float(score0 @ solved)
        score = ChiSquareTest(score_stat, p, chi_square_sf(score_stat, p))
    except np.linalg.LinAlgError:
        score = None
    return CoxTests(wald=wald, lr=lr, score=score)


@dataclass(frozen=True)
class HazardRatio:
    name: str
    ratio: float
    ci_lower: float
    ci_upper: float

    def to_dict(self) -> dict:
        return {"name": self.name, "ratio": self.ratio,
                "ci_lower": self.ci_lower, "ci_upper": self.ci_upper}


def hazard_ratios(fit: CoxFit, level: float = 0.95) -> tuple:
    """exp(beta) with exp(beta +- z se) confidence bounds per coefficient."""
    if not fit.converged:
        raise DomainError("hazard ratios require a converged fit")
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie strictly between 0 and 1")
    z = normal_quantile(1.0 - (1.0 - level) / 2.0)
    out = []
    for name, b, s in zip(fit.names, fit.beta, fit.se):
        out.append(HazardRatio(name=name, ratio=float(np.exp(b)),
                               ci_lower=float(np.exp(b - z * s)),
                               ci_upper=float(np.exp(b + z * s))))
    return tuple(out)


# -- separation screen ---------------------------------------------------------

@dataclass(frozen=True)
class SeparationFlag:
    column: str
    reason: str


def detect_separation(design: DesignMatrix, durations, events) -> tuple:
    """Flag dummy columns whose event pattern implies a monotone likelihood.

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
            flags.append(SeparationFlag(name, "carriers have no events"))
        elif other_events.size == 0:
            flags.append(SeparationFlag(name, "no events outside carriers"))
        elif carrier_events.max() < other_events.min():
            flags.append(SeparationFlag(
                name, "carriers' events all precede the others'"))
        elif carrier_events.min() > other_events.max():
            flags.append(SeparationFlag(
                name, "carriers' events all follow the others'"))
    return tuple(flags)
