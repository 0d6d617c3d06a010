"""Kaplan-Meier estimation and the two-group log-rank test.  One `km_fit`
call gives the curve, its Greenwood variance and its log-minus-log
confidence bands.

Ties follow the standard convention: at equal times deaths are processed
before censorings, so a subject censored exactly at an event time is still
in the risk set at that time and leaves afterwards.  The survival curve
steps only at event times; censoring times shrink the risk set silently.

While no censoring has occurred before an event time, the product estimator
telescopes to (survivors / n) and is computed as one exact integer division,
so on fully-observed data the curve equals the empirical survivor fraction
bit for bit.
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .distributions import chi_square_sf
from .errors import DomainError

DEFAULT_CONFIDENCE = 0.95   # the level of the KM bands when a run names none


def _check_samples(durations, events):
    durations = np.asarray(durations, dtype=float)
    events = np.asarray(events)
    if durations.ndim != 1 or durations.shape != events.shape:
        raise DomainError("durations and events must be equal-length vectors")
    if durations.size == 0:
        raise DomainError("survival fit needs at least one subject")
    if not np.isfinite(durations).all() or (durations <= 0).any():
        raise DomainError("durations must be positive finite numbers")
    if not np.isin(events, (0, 1)).all():
        raise DomainError("events must be 0 (censored) or 1 (death)")
    return durations, events.astype(np.int64)


@dataclass(frozen=True)
class KMCurve:
    """Step-function survival estimate over the distinct event times, with
    Greenwood's variance and log-minus-log confidence bounds.

    A value that does not exist is NaN: the variance once a time exhausts
    its risk set, and the bounds wherever the variance is NaN or the curve
    sits at 0 (the transform is singular there).
    """

    times: np.ndarray
    at_risk: np.ndarray
    deaths: np.ndarray
    survival: np.ndarray
    variance: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray


def km_fit(durations, events, level: float) -> KMCurve:
    """Product-limit estimate over distinct event times, its Greenwood
    variance S(t)^2 * sum d / (r (r - d)), and log-minus-log bounds
    S^exp(+-z*sd/(S ln S)) at confidence `level`."""
    durations, events = _check_samples(durations, events)
    if not 0.0 < level < 1.0:
        raise DomainError("confidence level must lie strictly between 0 and 1")
    n = durations.size
    event_times, deaths = np.unique(durations[events == 1], return_counts=True)
    all_sorted = np.sort(durations)
    censored_sorted = np.sort(durations[events == 0])

    at_risk = n - np.searchsorted(all_sorted, event_times, side="left")
    censored_before = np.searchsorted(censored_sorted, event_times, side="left")

    survival = np.empty(len(event_times))
    running = 1.0
    for i in range(len(event_times)):
        r, d = int(at_risk[i]), int(deaths[i])
        if censored_before[i] == 0:
            running = (r - d) / n  # exact: the product telescopes
        else:
            running = running * (r - d) / r
        survival[i] = running

    r = at_risk.astype(float)
    d = deaths.astype(float)
    z = NormalDist().inv_cdf(1.0 - (1.0 - level) / 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # d == r makes a term, and every sum from there on, infinite
        greenwood = np.cumsum(d / (r * (r - d)))
        variance = np.where(np.isfinite(greenwood), survival ** 2 * greenwood, np.nan)
        theta = z * np.sqrt(variance) / (survival * np.log(survival))
        a = survival ** np.exp(theta)
        b = survival ** np.exp(-theta)
    return KMCurve(times=event_times, at_risk=at_risk.astype(np.int64), deaths=deaths,
                   survival=survival, variance=variance,
                   ci_lower=np.minimum(a, b), ci_upper=np.maximum(a, b))


def logrank_test(durations, events, groups) -> dict:
    """Two-group log-rank test with hypergeometric variance, as logrank.json
    holds it: {chi_square, df, p_value, observed, expected}, where observed
    and expected map each group label to its observed deaths and its
    expected deaths under the null."""
    durations, events = _check_samples(durations, events)
    groups = np.asarray(groups)
    if groups.shape != durations.shape:
        raise DomainError("groups must match durations in length")
    labels = np.unique(groups)
    if len(labels) != 2:
        raise DomainError(f"log-rank test needs exactly two groups, got {len(labels)}")
    if events.sum() == 0:
        raise DomainError("log-rank test needs at least one event")

    in_a = groups == labels[0]
    event_times, d = np.unique(durations[events == 1], return_counts=True)
    d = d.astype(float)
    d_a = np.zeros(len(event_times))
    times_a, counts_a = np.unique(durations[(events == 1) & in_a],
                                  return_counts=True)
    d_a[np.searchsorted(event_times, times_a)] = counts_a
    all_sorted = np.sort(durations)
    a_sorted = np.sort(durations[in_a])
    r = (durations.size - np.searchsorted(all_sorted, event_times, "left")).astype(float)
    r_a = (a_sorted.size - np.searchsorted(a_sorted, event_times, "left")).astype(float)

    observed_a = float(d_a.sum())
    expected_a = float((d * r_a / r).sum())
    safe = r > 1.0
    variance = float((d * (r_a / r) * (1.0 - r_a / r)
                      * np.where(safe, (r - d) / np.maximum(r - 1.0, 1.0), 0.0)).sum())
    total_deaths = float(d.sum())
    if variance > 0.0:
        chi_square = (observed_a - expected_a) ** 2 / variance
        p_value = chi_square_sf(chi_square, 1)
    else:
        chi_square, p_value = 0.0, 1.0
    a, b = str(labels[0]), str(labels[1])
    return {"chi_square": float(chi_square), "df": 1, "p_value": float(p_value),
            "observed": {a: observed_a, b: total_deaths - observed_a},
            "expected": {a: float(expected_a), b: float(total_deaths - expected_a)}}
