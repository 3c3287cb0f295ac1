"""Weierstrass torsion values against published series and eta ground truth."""

from fractions import Fraction

import pytest

from conftest import series_coeffs
from cuspbase.errors import LatticePoint
from cuspbase.eta import EtaQuotient, eta_expand
from cuspbase.series import QSeries, first_mismatch
from cuspbase.weierstrass import TorsionPoint, wpa_expand


def test_published_normalization():
    wp = wpa_expand(TorsionPoint(2, 0, 2), 8)
    assert series_coeffs(wp.scale(-3), 8) == [1, 24, 24, 96, 24, 144, 96, 192]


def test_difference_form():
    diff = wpa_expand(TorsionPoint(2, 0, 2), 8) - wpa_expand(TorsionPoint(2, 0, 3), 8)
    assert series_coeffs(diff.scale(Fraction(-1, 4)), 8) == [0, 1, -1, 7, -5, 6, 5, 8]


def test_evenness():
    for n, k in ((5, 1), (5, 2), (7, 1), (7, 3), (6, 2)):
        a = wpa_expand(TorsionPoint(2 * k, 0, n), 12)
        b = wpa_expand(TorsionPoint(2 * (n - k), 0, n), 12)
        assert first_mismatch(a, b) is None


def test_square_difference_matches_eta():
    # the eta quotient is the ground truth for the level-5 square identity
    diff = wpa_expand(TorsionPoint(2, 0, 5), 12) - wpa_expand(TorsionPoint(4, 0, 5), 12)
    squared = (diff * diff).scale(Fraction(1, 16))
    reference = eta_expand(EtaQuotient({5: 10, 1: -2}), 12)
    assert first_mismatch(squared, reference) is None
    assert series_coeffs(squared, 6) == [0, 0, 1, 2, 5, 10]


def test_half_period_values_on_half_grid():
    odd = wpa_expand(TorsionPoint(5, 0, 5), 6)
    assert odd.grid == 2
    assert odd.coeff(0) == Fraction(-1, 3)
    assert odd.coeff(Fraction(5, 2)) != 0


def test_half_grid_cancellation_in_weight4_combination():
    # the level-5 weight-4 generator mixes half-grid squares whose odd-half
    # coefficients must cancel exactly
    w1 = wpa_expand(TorsionPoint(2, 0, 5), 10)
    w2 = wpa_expand(TorsionPoint(4, 0, 5), 10)
    h = wpa_expand(TorsionPoint(0, 1, 5), 10)
    t = wpa_expand(TorsionPoint(5, 0, 5), 10)
    combo = (
        ((w1 + w2) ** 2).scale(9) - (h * h + t * t + h * t).scale(12)
    ).scale(Fraction(1, 48))
    assert combo.grid == 1
    assert combo.valuation() == 1
    assert combo.leading_coefficient() == 1


def _naive_wpa(a, b, N, idx):
    """-12 times the bracket on the first idx slots of the point's grid (wp
    is a third of it), by the per-(n, m) double loop over the Lambert terms
    m x^m, x = sign * q^(base/grid): n = 0 gives u, and every n >= 1 gives
    Q^n u, Q^n u^-1 and, twice subtracted, Q^n.  A base 0 (u = -1) adds the
    Abel sum of m (-1)^m, -1/4."""
    grid = 2 if a % 2 else 1
    sign = -1 if b else 1
    e_u, step = a * grid // 2, N * grid
    bracket = [0] * idx                 # 12 times the bracket
    bracket[0] = 1
    terms = [(e_u, sign, 12)]
    for n in range(1, idx // step + 2):
        terms += [(n * step + e_u, sign, 12), (n * step - e_u, sign, 12),
                  (n * step, 1, -24)]
    for base, x, weight in terms:
        if base == 0:
            bracket[0] -= weight // 4
            continue
        for m in range(1, idx):
            if m * base >= idx:
                break
            bracket[m * base] += weight * m * x ** m
    return grid, [-c for c in bracket]


def _torsion_points(levels):
    return [(a, b, N) for N in levels for a in range(2 * N + 1) for b in (0, 1)
            if a % (2 * N) or b]


@pytest.mark.parametrize("N", range(1, 13))
def test_lambert_slices_match_the_double_loop(N):
    # every torsion point of the level: a = 0 with b = 1 and a = 2N with
    # b = 1 put a base at 0 (the Abel term), odd a the half grid; the
    # frontiers 1..40 and 719..721 sit on both sides of the split between
    # bases taken one at a time and multipliers taken one at a time
    for a, b, _ in _torsion_points([N]):
        grid, oracle = _naive_wpa(a, b, N, 721 * (2 if a % 2 else 1))
        for prec in [*range(1, 41), 719, 720, 721]:
            s = wpa_expand(TorsionPoint(a, b, N), prec)
            assert s.prec_exponent == prec
            assert s == QSeries(grid, 0, oracle[:prec * grid], prec * grid, 3)
    # a fractional frontier rounds up to the next slot of the point's grid
    s = wpa_expand(TorsionPoint(1, 0, N), Fraction(7, 3))
    assert s == wpa_expand(TorsionPoint(1, 0, N), Fraction(5, 2))


def test_lattice_point_rejected():
    with pytest.raises(LatticePoint):
        wpa_expand(TorsionPoint(4, 0, 2), 6)  # z = 2*tau on (1, 2*tau)
    with pytest.raises(ValueError):
        TorsionPoint(0, 0, 3)
    with pytest.raises(ValueError):
        TorsionPoint(7, 0, 3)  # a out of range


def test_constant_terms():
    # u = -1 gives the half-period branch with constant 2/3
    h = wpa_expand(TorsionPoint(0, 1, 5), 6)
    assert h.coeff(0) == Fraction(2, 3)
    assert h.coeff(1) == 0
    w = wpa_expand(TorsionPoint(2, 0, 7), 6)
    assert w.coeff(0) == Fraction(-1, 3)
