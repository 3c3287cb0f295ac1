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

The bases of the Lambert sums form three families n*step + c (c = e_u,
-e_u and 0, step = N*grid), and the term m x^m of base b sits at
slot m*b.  Each family is split at about sqrt(prec/step): the small bases
go one at a time, one strided slice adding the run of values m sign^m; the
large ones go one multiplier at a time, where every slot m*b, a stride
m*step apart, gets the same value.  So a family takes O(sqrt(prec/step))
slices and loops.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import ceil, isqrt

from ._record import Record
from .errors import LatticePoint
from .series import _series


class TorsionPoint(Record):
    """z = (a*tau + b)/2 on the lattice (1, N*tau), not a lattice point."""

    __slots__ = ("a", "b", "level")

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


def _add_lambert(acc, vals, c, step, n0):
    """Add vals[m-1] at slot m*b of acc (scaled slots) for every base
    b = n*step + c, n >= n0, and every multiplier m >= 1 with m*b < len(acc).

    A base 0 has u = -1 (a TorsionPoint is no lattice point) and adds the
    Abel sum of m (-1)^m, -1/4, to the bracket: +3 on acc, which holds -12
    times the bracket.

    The bases below about sqrt(len/step) go one at a time, one strided
    slice each; the larger bases go one multiplier m at a time, where the
    slots m*b step by m*step and all get the value vals[m-1].  That value
    is added by a plain loop, which measured faster than a slice of the
    same stride at every length tried, 1 to 720 slots.
    """
    limit = len(acc)
    if n0 * step + c == 0:
        acc[0] += 3
        n0 += 1
    end = -(-(limit - c) // step)           # first n whose base is >= limit
    split = min(max(n0, isqrt(limit // step) + 1), end)
    for n in range(n0, split):
        b = n * step + c
        acc[b::b] = map(operator.add, acc[b::b], vals)
    if split < end:
        b = split * step + c
        for m in range(1, (limit - 1) // b + 1):
            v = vals[m - 1]
            for i in range(m * b, limit, m * step):
                acc[i] += v


def wpa_expand(point, prec):
    """Expansion of the normalized Weierstrass value at a torsion point."""
    N = point.level
    a, b = point.a, point.b
    grid = 2 if a % 2 else 1
    idx = prec * grid if type(prec) is int else ceil(Fraction(prec) * grid)
    if idx < 1:
        raise ValueError("precision must be positive")
    e_u = a * grid // 2
    step = N * grid
    # acc holds -12 times the bracket, so wp = -4 * bracket = acc / 3; the
    # m-th term of -12 * sum_m m (sign x)^m is vals[m-1], and of the Q^n
    # sums, 24 m
    acc = [0] * idx
    acc[0] = -1
    vals = range(-12, -12 * idx, -12)
    if b:
        vals = list(vals)
        vals[::2] = map(operator.neg, vals[::2])
    # the bases of u, Q^n u, Q^n u^-1 (n >= 1) and Q^n (n >= 1)
    _add_lambert(acc, vals, e_u, step, 0)
    _add_lambert(acc, vals, -e_u, step, 1)
    _add_lambert(acc, range(24, 24 * idx, 24), 0, step, 1)
    return _series(grid, 0, acc, idx, 3)
