"""Probability distribution functions implemented from first principles.

The statistical modules (log-rank, Cox tests, confidence bands) need tail
probabilities and quantiles for the normal and chi-square families.  Rather
than depending on a statistics library, they are built on the regularized
upper incomplete gamma Q(a, x) = 1 - P(a, x) (power series for P / continued
fraction for Q, Numerical Recipes 6.2, iterated to relative machine tolerance:
absolute error well below 1e-12), plus Wichura's AS 241 (PPND16) rational
approximation for the normal quantile (absolute error below 1e-9; in
practice ~1e-15).

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


def normal_quantile(p: float) -> float:
    """Standard normal quantile by Wichura's AS 241 (PPND16) approximation.

    Valid for 0 < p < 1; absolute error below 1e-9 over the whole range.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got p={p}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.5090809287301226727e+3 * r + 3.3430575583588128105e+4) * r
                    + 6.7265770927008700853e+4) * r + 4.5921953931549871457e+4) * r
                  + 1.3731693765509461125e+4) * r + 1.9715909503065514427e+3) * r
                + 1.3314166789178437745e+2) * r + 3.3871328727963666080e+0)
        den = (((((((5.2264952788528545610e+3 * r + 2.8729085735721942674e+4) * r
                    + 3.9307895800092710610e+4) * r + 2.1213794301586595867e+4) * r
                  + 5.3941960214247511077e+3) * r + 6.8718700749205790830e+2) * r
                + 4.2313330701600911252e+1) * r + 1.0)
        return q * num / den
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        num = (((((((7.74545014278341407640e-4 * r + 2.27238449892691845833e-2) * r
                    + 2.41780725177450611770e-1) * r + 1.27045825245236838258e+0) * r
                  + 3.64784832476320460504e+0) * r + 5.76949722146069140550e+0) * r
                + 4.63033784615654529590e+0) * r + 1.42343711074968357734e+0)
        den = (((((((1.05075007164441684324e-9 * r + 5.47593808499534494600e-4) * r
                    + 1.51986665636164571966e-2) * r + 1.48103976427480074590e-1) * r
                  + 6.89767334985100004550e-1) * r + 1.67638483018380384940e+0) * r
                + 2.05319162663775882187e+0) * r + 1.0)
    else:
        r -= 5.0
        num = (((((((2.01033439929228813265e-7 * r + 2.71155556874348757815e-5) * r
                    + 1.24266094738807843860e-3) * r + 2.65321895265761230930e-2) * r
                  + 2.96560571828504891230e-1) * r + 1.78482653991729133580e+0) * r
                + 5.46378491116411436990e+0) * r + 6.65790464350110377720e+0)
        den = (((((((2.04426310338993978564e-15 * r + 1.42151175831644588870e-7) * r
                    + 1.84631831751005468180e-5) * r + 7.86869131145613259100e-4) * r
                  + 1.48753612908506148525e-2) * r + 1.36929880922735805310e-1) * r
                + 5.99832206555887937690e-1) * r + 1.0)
    z = num / den
    return -z if q < 0.0 else z


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
