"""q-expansions of the normalized Weierstrass function at torsion points.

The torsion point (a, b, N) denotes z = (a*tau + b)/2 on the lattice
spanned by (1, N*tau), so u = e^{2 pi i z} = (-1)^b q^{a/2} and Q = q^N.
The normalized expansion used throughout is

    wp = -4 * [ 1/12 + u/(1-u)^2
                + sum_{n>=1} ( Q^n u/(1-Q^n u)^2 + Q^n u^{-1}/(1-Q^n u^{-1})^2
                               - 2 Q^n/(1-Q^n)^2 ) ]

with every x/(1-x)^2 expanded as the Lambert-type sum sum_{m>=1} m x^m.
The -4 normalization makes -3*wp(tau, 2tau) = 1 + 24q + 24q^2 + 96q^3 + ...
Odd a puts the expansion on the half-exponent grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LatticePoint
from .series import QSeries


@dataclass(frozen=True)
class TorsionPoint:
    """z = (a*tau + b)/2 on the lattice (1, N*tau), not a lattice point."""

    a: int
    b: int
    level: int

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        if self.b not in (0, 1):
            raise ValueError("b must be 0 or 1")
        if not 0 <= self.a <= 2 * self.level:
            raise ValueError(f"a must lie in [0, {2 * self.level}]")
        if self.a % (2 * self.level) == 0 and self.b == 0:
            raise LatticePoint(f"z = {self.a // 2}*tau is a lattice point "
                               f"for (1, {self.level}*tau)")


def _add_lambert(acc, sign, e, scale):
    # accumulate scale * sum_{m>=1} m (sign q^{e/g})^m onto acc (scaled slots);
    # e = 0 only with sign -1 (a TorsionPoint is no lattice point), where the
    # Abel sum of m (-1)^m is -1/4
    if e == 0:
        acc[0] -= scale // 4
        return
    limit = len(acc)
    m = 1
    pos = e
    while pos < limit:
        acc[pos] += scale * m * (sign if m % 2 else 1)
        m += 1
        pos += e


def wpa_expand(point, prec):
    """Expansion of the normalized Weierstrass value at a torsion point."""
    N = point.level
    a, b = point.a, point.b
    grid = 2 if a % 2 else 1
    frontier = Fraction(prec) * grid
    idx = frontier.numerator if frontier.denominator == 1 else int(frontier) + 1
    if idx < 1:
        raise ValueError("precision must be positive")
    sign = -1 if b else 1
    e_u = a * grid // 2
    # acc holds 12 times the bracket, so wp = -4 * acc / 12 = -acc / 3
    acc = [0] * idx
    acc[0] = 1
    _add_lambert(acc, sign, e_u, 12)
    step = N * grid
    n = 1
    while n * step - e_u < idx:
        _add_lambert(acc, sign, n * step + e_u, 12)
        _add_lambert(acc, sign, n * step - e_u, 12)
        _add_lambert(acc, 1, n * step, -24)
        n += 1
    return QSeries(grid, 0, [-c for c in acc], idx, 3)
