"""Dedekind eta quotients prod_m eta(m*tau)^{r_m} and their q-expansions.

An eta quotient expands to q^(sum m*r_m / 24) * prod_m prod_{k>=1}
(1 - q^{mk})^{r_m}.  The weight is (1/2) sum r_m and the valuation at
infinity is (1/24) sum m*r_m; both are plain arithmetic on the exponents.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FractionalValuation
from .series import QSeries


class EtaQuotient:
    """Finite multiset of (scale, exponent) pairs, scales distinct."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        if hasattr(terms, "items"):
            terms = terms.items()
        seen = {}
        for m, r in terms:
            if not isinstance(m, int) or m < 1:
                raise ValueError(f"eta scale must be a positive integer, got {m}")
            if not isinstance(r, int):
                raise ValueError(f"eta exponent must be an integer, got {r}")
            if m in seen:
                raise ValueError(f"duplicate eta scale {m}")
            if r != 0:
                seen[m] = r
        self.terms = tuple(sorted(seen.items()))

    @property
    def weight(self):
        w = Fraction(sum(r for _, r in self.terms), 2)
        return w.numerator if w.denominator == 1 else w

    @property
    def valuation(self):
        v = Fraction(sum(m * r for m, r in self.terms), 24)
        return v.numerator if v.denominator == 1 else v

    def __mul__(self, other):
        merged = dict(self.terms)
        for m, r in other.terms:
            merged[m] = merged.get(m, 0) + r
        return EtaQuotient(merged)

    def __eq__(self, other):
        return isinstance(other, EtaQuotient) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"EtaQuotient({self.render()!r})"

    def render(self):
        return ",".join(f"{m}:{r}" for m, r in self.terms)


def _euler_factor_list(m, rel):
    """Coefficients of prod_{k>=1} (1 - q^{mk}) below exponent rel.

    By Euler's pentagonal number theorem the product is
    sum_j (-1)^j q^{m j(3j-1)/2} over all integers j, so only the slots at
    m times a generalised pentagonal number are nonzero.
    """
    c = [0] * rel
    c[0] = 1
    j = 1
    while m * j * (3 * j - 1) // 2 < rel:
        sign = -1 if j % 2 else 1
        for e in (m * j * (3 * j - 1) // 2, m * j * (3 * j + 1) // 2):
            if e < rel:
                c[e] = sign
        j += 1
    return c


def eta_profile(e):
    """(weight, valuation) of an eta quotient, by exponent arithmetic."""
    return (e.weight, e.valuation)


def eta_expand(e, prec):
    """Expand an eta quotient to an exact QSeries below exponent prec.

    The product part is needed below rel = prec - valuation.  Scale m works
    on its own n = ceil(rel/m) slots: prod_k (1 - q^k) is written down there
    from the pentagonal number theorem, inverted while it is still sparse
    when r_m is negative, raised to |r_m| by repeated squaring, and only
    then read at q^m by substitution.  All of it stays in integer
    arithmetic.  At or below the valuation the expansion is 0 + O(q^prec).
    """
    v = Fraction(e.valuation)
    if v.denominator == 1:
        grid = 1
    elif v.denominator == 2:
        grid = 2
    else:
        raise FractionalValuation(
            f"sum m*r_m = {24 * v} is not divisible by 12; "
            "valuation not representable on the half grid"
        )
    if Fraction(prec) <= v:
        return QSeries.zero(prec, grid)
    # the product part has integer exponents; needed below prec - v
    rel_f = Fraction(prec) - v
    rel = int(rel_f) if rel_f.denominator == 1 else int(rel_f) + 1
    prod = QSeries.one(prec=rel)
    for m, r in e.terms:
        # prod_k (1 - q^k) below q^n, with n * m >= rel: read at q^m it
        # covers every exponent below rel
        n = -(-rel // m)
        f = QSeries(1, 0, _euler_factor_list(1, n), n)
        if r < 0:
            f = f.invert()
        prod = prod * (f ** abs(r)).substitute_q_power(m)
    return (QSeries.monomial(v) * prod).truncate(prec)
