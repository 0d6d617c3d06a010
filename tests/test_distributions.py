"""Checks for the hand-rolled chi-square functions and for the standard
library's normal quantile, which survival and cox use.

Reference values were computed once with mpmath at 40 decimal digits and
frozen here as literals; the implementation must reproduce them to well
inside its advertised 1e-12 absolute tolerance (1e-9 for the quantile).
The quantile must also give, bit for bit, what Wichura's AS 241 gives:
`as241_quantile` below is that algorithm as survmix implemented it before
it used `statistics.NormalDist`, kept here as the oracle.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from survmix.distributions import (
    _gamma_p_series,
    chi_square_log_sf,
    chi_square_sf,
    reg_upper_gamma,
)

normal_quantile = NormalDist().inv_cdf


def as241_quantile(p):
    """Standard normal quantile by Wichura's AS 241 (PPND16), 0 < p < 1."""
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


def normal_cdf(x):
    """The standard normal cdf, Phi(x) = erfc(-x/sqrt(2)) / 2."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


REG_LOWER_GAMMA_CASES = [
    (0.5, 0.5, 0.6826894921370859),
    (0.5, 3.84145882069412, 0.99442540331921555),
    (1.5, 2.0, 0.73853587005088938),
    (2.5, 0.1, 0.00088613878881244261),
    (5.0, 5.0, 0.55950671493478759),
    (10.0, 3.0, 0.0011024881301154797),
    (0.5, 1e-08, 0.00011283791633342487),
    (25.0, 60.0, 0.99999989041192887),
    (3.0, 300.0, 1.0),
]

NORMAL_QUANTILE_CASES = [
    (0.5, 0.0),
    (0.975, 1.9599639845400539),
    (0.95, 1.6448536269514723),
    (0.99, 2.3263478740408408),
    (0.995, 2.5758293035489005),
    (0.025, -1.9599639845400542),
    (1e-06, -4.753424308822899),
    (0.3, -0.52440051270804082),
    (0.9999999, 5.1993375822906611),
]

CHI_SQUARE_SF_CASES = [
    (3.841458820694124, 1.0, 0.050000000000000057),
    (35.34, 1.0, 2.7688657130114906e-9),
    (40.756, 1.0, 1.7247306988725319e-10),
    (5.991464547107979, 2.0, 0.050000000000000074),
    (0.1, 3.0, 0.99183742373187648),
    (35.885, 1.0, 2.093139680726295e-9),
    (1.0, 1.0, 0.3173105078629141),
]


class TestIncompleteGamma:
    @pytest.mark.parametrize("a,x,expected", REG_LOWER_GAMMA_CASES)
    def test_lower_matches_reference(self, a, x, expected):
        lower = _gamma_p_series(a, x) if x < a + 1.0 else 1.0 - reg_upper_gamma(a, x)
        assert lower == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("a,x,expected", REG_LOWER_GAMMA_CASES)
    def test_upper_is_complement(self, a, x, expected):
        assert reg_upper_gamma(a, x) == pytest.approx(1.0 - expected, abs=1e-13)

    def test_boundaries(self):
        assert reg_upper_gamma(2.0, 0.0) == 1.0
        with pytest.raises(ValueError):
            reg_upper_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(1.0, -1.0)

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 30.0, 200)
        vals = [reg_upper_gamma(3.5, x) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestNormal:
    @pytest.mark.parametrize("p,expected", NORMAL_QUANTILE_CASES)
    def test_quantile_matches_reference(self, p, expected):
        assert normal_quantile(p) == pytest.approx(expected, abs=1e-9)

    def test_quantile_inverts_cdf(self):
        for p in np.linspace(0.001, 0.999, 97):
            assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)

    def test_quantile_is_as241_on_random_p(self):
        rng = np.random.default_rng(2024)
        uniform = rng.random(100_000)
        tails = 10.0 ** -rng.uniform(0.0, 300.0, 20_000)
        for p in np.concatenate((uniform, tails, 1.0 - tails)).tolist():
            if 0.0 < p < 1.0:
                assert normal_quantile(p) == as241_quantile(p), p

    def test_quantile_is_as241_in_the_tails_and_at_the_branch_edge(self):
        lower = [float(f"1e-{k}") for k in range(1, 320)]
        upper = [1.0 - float(f"1e-{k}") for k in range(1, 17)]
        edges = [math.nextafter(p, d) for p in (0.075, 0.925)
                 for d in (0.0, 0.5, 1.0)] + [0.075, 0.925]
        for p in lower + upper + edges:
            assert normal_quantile(p) == as241_quantile(p), p


class TestChiSquare:
    @pytest.mark.parametrize("x,df,expected", CHI_SQUARE_SF_CASES)
    def test_matches_reference(self, x, df, expected):
        assert chi_square_sf(x, df) == pytest.approx(expected, rel=1e-12, abs=1e-13)

    def test_edge_cases(self):
        assert chi_square_sf(0.0, 1.0) == 1.0
        assert chi_square_sf(-1.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            chi_square_sf(1.0, 0.0)

    def test_chi2_df1_matches_normal_tail(self):
        # P(X >= z^2) = 2 P(Z >= z) for df 1
        for z in (0.5, 1.0, 1.96, 3.0):
            assert chi_square_sf(z * z, 1.0) == pytest.approx(
                2.0 * normal_cdf(-z), rel=1e-12)

    @pytest.mark.parametrize("df", [1.0, 2.0, 3.0, 7.0])
    def test_log_sf_is_the_log_of_sf(self, df):
        for x in (0.0, 0.3, 1.0, 4.0, 30.0, 300.0, 1200.0):
            assert chi_square_log_sf(x, df) == pytest.approx(
                math.log(chi_square_sf(x, df)), rel=1e-12, abs=1e-15)

    def test_log_sf_stays_finite_where_sf_underflows(self):
        # df 2: sf(x) = exp(-x/2) exactly.  df 1: sf(x) = erfc(z) with z² =
        # x/2, whose log is -z² - log(z √π) + log(1 - 1/(2z²) + 3/(4z⁴) -
        # 15/(8z⁶)) to within 105/(16z⁸).
        for x in (1500.0, 2000.0, 1e5):
            assert chi_square_sf(x, 1.0) == chi_square_sf(x, 2.0) == 0.0
            assert chi_square_log_sf(x, 2.0) == pytest.approx(-x / 2.0, rel=1e-13)
            z2 = x / 2.0
            asymptotic = (-z2 - math.log(math.sqrt(z2 * math.pi))
                          + math.log(1.0 - 1.0 / (2.0 * z2) + 3.0 / (4.0 * z2 ** 2)
                                     - 15.0 / (8.0 * z2 ** 3)))
            assert chi_square_log_sf(x, 1.0) == pytest.approx(asymptotic, rel=1e-12)
        assert chi_square_log_sf(1485.0, 1.0) < chi_square_log_sf(1485.0, 3.0)
        assert chi_square_log_sf(1490.0, 1.0) < chi_square_log_sf(1485.0, 1.0)
