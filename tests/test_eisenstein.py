"""Eisenstein series and the weight-2 level combination."""

import pytest

from conftest import naive_sigma, series_coeffs
from cuspbase.eisenstein import (
    _divisor_power_sums, eisenstein_series, sigma_power_sum, weight2_level_combo,
)
from cuspbase.series import first_mismatch
from cuspbase.weierstrass import TorsionPoint, wpa_expand


def test_sigma_against_full_enumeration():
    for n in range(1, 300):
        for k in (0, 1, 2, 3, 5):
            assert sigma_power_sum(n, k) == naive_sigma(n, k)


def test_sigma_from_the_factorization():
    # n = 2^9 * 5^9 and the prime 10^9 + 7: no sieve of n entries
    assert sigma_power_sum(10 ** 9, 0) == 100
    assert sigma_power_sum(10 ** 9, 1) == (2 ** 10 - 1) * (5 ** 10 - 1) // 4
    assert sigma_power_sum(10 ** 9 + 7, 3) == 1 + (10 ** 9 + 7) ** 3
    for k in (-1, 1.0):
        with pytest.raises(ValueError):
            sigma_power_sum(6, k)
    with pytest.raises(ValueError):
        sigma_power_sum(0, 1)


def _sieve(prec, k):
    # one Python step per (d, multiple) pair
    s = [0] * max(prec, 1)
    for d in range(1, prec):
        for n in range(d, prec, d):
            s[n] += d ** k
    return s


def test_divisor_sums_match_the_per_divisor_sieve():
    # the divisors up to isqrt(prec - 1) go by their strides, the larger ones
    # by their cofactors: every prec <= 400 puts each square r^2 and r^2 +- 1
    # on both sides of that split
    for k in (0, 1, 3, 5):
        reference = _sieve(401, k)
        for prec in range(0, 401):
            assert _divisor_power_sums(prec, k) == (reference[:prec] or [0])


def test_e4_e6_leading_terms():
    e4 = eisenstein_series(4, 4)
    assert series_coeffs(e4, 4) == [1, 240, 2160, 6720]
    e6 = eisenstein_series(6, 3)
    assert series_coeffs(e6, 3) == [1, -504, -16632]
    assert e4.coeff(0) == 1 and e6.coeff(0) == 1
    with pytest.raises(ValueError):
        eisenstein_series(8, 4)


def test_weight2_combo_level2():
    combo = weight2_level_combo(2, 8)
    assert series_coeffs(combo, 8) == [1, 24, 24, 96, 24, 144, 96, 192]


def test_weight2_combo_level3_scaled():
    lifted = weight2_level_combo(3, 6).substitute_q_power(3)
    assert series_coeffs(lifted, 18) == [
        1, 0, 0, 12, 0, 0, 36, 0, 0, 12, 0, 0, 84, 0, 0, 72, 0, 0,
    ]


def test_weight2_combo_constant_term():
    for n in range(2, 11):
        assert weight2_level_combo(n, 4).coeff(0) == 1


def test_weight2_combo_matches_weierstrass():
    combo = weight2_level_combo(2, 20)
    wp = wpa_expand(TorsionPoint(2, 0, 2), 20).scale(-3)
    assert first_mismatch(combo, wp) is None


def test_integrality():
    # the (N-1) division leaves integers at these levels
    for n in (2, 3, 4, 5, 7):
        combo = weight2_level_combo(n, 30)
        assert all(isinstance(c, int) for _, c in combo.items())
