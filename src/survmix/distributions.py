"""Chi-square tail probabilities implemented from first principles.

The statistical modules (log-rank, Cox tests, ctree's splits) need chi-square
tail probabilities.  Rather than depending on a statistics library, they are
built on the regularized upper incomplete gamma Q(a, x) = 1 - P(a, x) (power
series for P / continued fraction for Q, Numerical Recipes 6.2, iterated to
relative machine tolerance: absolute error well below 1e-12).  The normal
quantile of the KM bands and the hazard-ratio intervals is the standard
library's `statistics.NormalDist().inv_cdf`, which implements Wichura's
AS 241 (PPND16) approximation; tests/test_distributions.py pins it to that
algorithm's bits.

Identity used:

    chi-square survival:   sf(x; k) = Q(k/2, x/2)

The continued fraction gives Q as a factor times an exponential, so its log
is a sum, and `chi_square_log_sf` stays finite where the survival function
itself underflows to 0.
"""

import math

from .errors import ConvergenceError

_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    # Power series for P(a, x); converges fast for x < a + 1.
    total = term = 1.0 / a
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ConvergenceError(f"incomplete gamma series failed for a={a}, x={x}")


def _gamma_q_contfrac(a: float, x: float) -> tuple:
    # Continued fraction for Q(a, x) = h · exp(e), as (h, e); converges fast
    # for x >= a + 1.  Its log, log h + e, stays finite where Q underflows.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h, -x + a * math.log(x) - math.lgamma(a)
    raise ConvergenceError(f"incomplete gamma fraction failed for a={a}, x={x}")


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0 or x < 0.0:
        raise ValueError(f"reg_upper_gamma requires a > 0 and x >= 0, got a={a}, x={x}")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    h, e = _gamma_q_contfrac(a, x)
    return h * math.exp(e)


def chi_square_sf(x: float, df: float) -> float:
    """Survival function P(X >= x) for chi-square with df > 0 degrees of freedom."""
    if df <= 0.0:
        raise ValueError(f"chi_square_sf requires df > 0, got df={df}")
    if x <= 0.0:
        return 1.0
    return reg_upper_gamma(df / 2.0, x / 2.0)


def chi_square_log_sf(x: float, df: float) -> float:
    """log P(X >= x) for chi-square with df > 0 degrees of freedom; finite
    where `chi_square_sf` underflows to 0 (from x ≈ 1,485 on one degree)."""
    if x / 2.0 < df / 2.0 + 1.0:   # the series branch never underflows
        return math.log(chi_square_sf(x, df))
    h, e = _gamma_q_contfrac(df / 2.0, x / 2.0)
    return math.log(h) + e
