"""Naive q-expansion oracles for the low-precision check of the expand workload.

A series here is a dict {exponent: coefficient} holding the nonzero terms
below a fixed frontier; exponents are Fractions so half-grid Weierstrass
values fit.  Products are schoolbook double loops, reciprocals of
(1 - q^e) are written out as geometric series, and every atom is expanded
from its textbook definition.  Nothing here imports cuspbase, so a defect
in its series engine cannot appear in both the program and its oracle.
"""

from fractions import Fraction


def _clean(terms, depth):
    return {e: c for e, c in terms.items() if c != 0 and e < depth}


def const(c):
    return {Fraction(0): Fraction(c)}


def add(*series):
    out = {}
    for s in series:
        for e, c in s.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def scale(r, s):
    return {e: Fraction(r) * c for e, c in s.items() if r != 0}


def mul(a, b, depth):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            if e < depth:
                out[e] = out.get(e, 0) + ca * cb
    return _clean(out, depth)


def power(s, n, depth):
    out = const(1)
    for _ in range(n):
        out = mul(out, s, depth)
    return out


def subst(s, d):
    """f(tau) -> f(d tau)."""
    return {e * d: c for e, c in s.items()}


def _one_minus(e, depth):
    return _clean({Fraction(0): 1, Fraction(e): -1}, depth)


def _geometric(e, depth):
    # 1 / (1 - q^e) = sum_j q^(e j)
    return {Fraction(e * j): 1 for j in range(int(depth // e) + 1) if e * j < depth}


def eta(terms, depth):
    """prod_m eta(m tau)^r_m = q^(sum m r_m / 24) prod_m prod_k (1 - q^(mk))^r_m."""
    v = Fraction(sum(m * r for m, r in terms), 24)
    rel = depth - v
    prod = const(1)
    for m, r in terms:
        k = 1
        while m * k < rel:
            factor = _one_minus(m * k, rel) if r > 0 else _geometric(m * k, rel)
            for _ in range(abs(r)):
                prod = mul(prod, factor, rel)
            k += 1
    return _clean({e + v: c for e, c in prod.items()}, depth)


def _sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(weight, d, depth):
    """E_4(d tau) or E_6(d tau)."""
    c, k = {4: (240, 3), 6: (-504, 5)}[weight]
    out = {Fraction(0): Fraction(1)}
    n = 1
    while n * d < depth:
        out[Fraction(n * d)] = Fraction(c * _sigma(n, k))
        n += 1
    return _clean(out, depth)


def _e2(d, depth):
    out = {Fraction(0): Fraction(1)}
    n = 1
    while n * d < depth:
        out[Fraction(n * d)] = Fraction(-24 * _sigma(n, 1))
        n += 1
    return _clean(out, depth)


def weight2_combo(N, depth):
    """(N E_2(N tau) - E_2(tau)) / (N - 1)."""
    return scale(Fraction(1, N - 1),
                 add(scale(N, _e2(N, depth)), scale(-1, _e2(1, depth))))


def _x_over_one_minus_x_squared(sign, e, depth):
    # x / (1 - x)^2 for x = sign * q^e, as x times the squared geometric series
    if e == 0:
        return const(Fraction(sign, (1 - sign) ** 2))
    x = {Fraction(e): Fraction(sign)}
    geo = {Fraction(e * j): Fraction(sign) ** j
           for j in range(int(depth // e) + 1) if e * j < depth}
    return mul(x, mul(geo, geo, depth), depth)


def wpa(a, b, N, depth):
    """-4 [1/12 + u/(1-u)^2 + sum_n (Q^n u/(1-Q^n u)^2 + Q^n/u/(1-Q^n/u)^2
    - 2 Q^n/(1-Q^n)^2)] with u = (-1)^b q^(a/2), Q = q^N."""
    sign = -1 if b else 1
    eu = Fraction(a, 2)
    terms = [const(Fraction(1, 12)), _x_over_one_minus_x_squared(sign, eu, depth)]
    n = 1
    while n * N - eu < depth:
        terms.append(_x_over_one_minus_x_squared(sign, n * N + eu, depth))
        terms.append(_x_over_one_minus_x_squared(sign, n * N - eu, depth))
        terms.append(scale(-2, _x_over_one_minus_x_squared(1, n * N, depth)))
        n += 1
    return _clean(scale(-4, add(*terms)), depth)
