"""Checks for the hand-rolled distribution functions.

Reference values were computed once with mpmath at 40 decimal digits and
frozen here as literals; the implementation must reproduce them to well
inside its advertised 1e-12 absolute tolerance (1e-9 for the quantile).
"""

import math

import numpy as np
import pytest

from survmix.distributions import (
    _gamma_p_series,
    chi_square_log_sf,
    chi_square_sf,
    normal_quantile,
    reg_upper_gamma,
)


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

    def test_quantile_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)


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
