"""Arithmetic invariants of Gamma0(N) and dimensions of M_w and S_w.

The full closed formulas are implemented (index product, elliptic point
counts via quadratic residues, cusp count, genus), with no genus-zero
shortcuts, so the module stays honest for levels beyond the catalogue.
Each invariant is a product over the prime powers of N, and a formula
reads all the invariants it needs off one trial-division pass
(``_factorization``), so a level near 10^9 costs milliseconds, and the pass
is made once per level (``_invariants`` keeps its result).

The ladder start k0 is derived, not recorded: ``ladder_start(N)`` is the
smallest k0 >= 1 at which the paper's condition (iii) holds, ``None`` when
there is none (N = 26).  k0 = 1 counts, so a genus-1 level with no
elliptic points (N = 11) starts at 1.  The runtime reads the catalogue's
k0 (half the seeds' weight); the structure checks certify it against
condition (iii) through ``ladder_dim_report``.

The structuring form is derived too: ``delta_profile(N)`` is the eta
quotient delta_N of least weight rho that vanishes only at infinity, and its
order nu there, read off Ligozat's cusp orders and one factorisation of N,
at every level.  The dims:shift law and the delta-power decompositions read
their (rho, nu) from it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import lcm

from ._record import Record
from .errors import OddWeight, UnsupportedLevel
from .eta import EtaQuotient


def _factorization(n):
    """[(p, e), ...]: the prime powers p^e of n, by one trial-division pass."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def _level_primes(N):
    """``_factorization(N)`` of a level, which must be a positive integer."""
    if not isinstance(N, int) or N < 1:
        raise UnsupportedLevel(f"level must be a positive integer, got {N}")
    return _factorization(N)


@lru_cache(maxsize=None, typed=True)
def _invariants(N):
    """(index, elliptic2, elliptic3, cusps, genus) of Gamma0(N), every one
    read off the same trial-division pass over N, which is made once per
    level: the tuple is kept.  The cache is typed, so a level of another
    type equal to a kept int (10.0) is still checked and refused."""
    primes = _level_primes(N)
    index = N
    for p, _ in primes:
        index = index // p * (p + 1)
    # elliptic points of order 2 and 3: prod over p | N of 1 + (-4/p),
    # resp. 1 + (-3/p), and none when 4 | N, resp. 9 | N
    e2 = 0 if N % 4 == 0 else 1
    e3 = 0 if N % 9 == 0 else 1
    # the cusp sum over d | N of phi(gcd(d, N/d)) is multiplicative: p^e
    # with t = e // 2 contributes 2 p^t when e is odd, p^t + p^(t-1) when even
    cusps = 1
    for p, e in primes:
        if p != 2:
            e2 *= 2 if p % 4 == 1 else 0
        if p != 3:
            e3 *= 2 if p % 3 == 1 else 0
        t = e // 2
        cusps *= 2 * p ** t if e % 2 else p ** t + p ** (t - 1)
    g12 = 12 + index - 3 * e2 - 4 * e3 - 6 * cusps
    assert g12 % 12 == 0
    return index, e2, e3, cusps, g12 // 12


def group_index(N):
    """Index of Gamma0(N) in the full modular group: N prod_{p|N} (1 + 1/p)."""
    return _invariants(N)[0]


def count_elliptic2(N):
    return _invariants(N)[1]


def count_elliptic3(N):
    return _invariants(N)[2]


def count_cusps(N):
    """Number of cusps of X0(N): sum over d|N of phi(gcd(d, N/d))."""
    return _invariants(N)[3]


def genus(N):
    return _invariants(N)[4]


@cache
def delta_profile(N):
    """(delta_N, rho, nu): the eta quotient of least weight rho that
    vanishes only at infinity, and its order nu there.

    By Ligozat's formula the order of prod_m eta(m tau)^r_m at a cusp c/d,
    d | N, is (N/24) sum_m gcd(d,m)^2 r_m / (gcd(d,N/d) d m), linear in r.
    Over the prime powers p^e || N the matrix is 1/24 times the Kronecker
    product of the (e+1)x(e+1) matrices p^(e - min(a,e-a)) p^-|a-b|: a
    diagonal times the matrix p^-|a-b|, whose inverse is tridiagonal.  So
    the exponents x with orders 0 at every cusp but infinity and 1 there
    are nonzero only at m = N/s for squarefree s, where
    x_{N/s} = mu(s)/s * (24/N) prod_{p|N} p^2/(p^2 - 1).
    delta_N is nu x for the least nu that makes the exponents integers
    passing Ligozat's conditions for trivial character: the weight
    sum r_m / 2 even, and prod m^r_m a square (sum r_m v_p(m) even for each
    p).  With D the least common denominator of x, nu is a multiple of D;
    at nu = 4D every exponent is a multiple of 4 and both conditions hold,
    so nu <= 4D and every level has its form.  rho is read off the valence
    count 12 nu = rho [SL2(Z):Gamma0(N)], not off the exponents, so the
    quotient's own weight stays a second route to it.
    """
    primes = _level_primes(N)
    index, scale = N, Fraction(24, N)
    for p, _ in primes:
        index = index // p * (p + 1)
        scale *= Fraction(p * p, p * p - 1)
    x = {N: scale}
    for p, _ in primes:
        x |= {m // p: -v / p for m, v in x.items()}
    base = lcm(*(v.denominator for v in x.values()))
    for nu in range(base, 5 * base, base):
        r = {m: int(v * nu) for m, v in x.items()}
        # v_p(N/s) is e, or e - 1 when p | s
        if sum(r.values()) % 4 == 0 and all(
                sum(rm * (e if m % p ** e == 0 else e - 1)
                    for m, rm in r.items()) % 2 == 0
                for p, e in primes):
            break
    rho, rest = divmod(12 * nu, index)
    assert rest == 0
    return EtaQuotient(r), rho, nu


class LevelProfile(Record):
    """Invariants of Gamma0(N), its ladder start, and the weight and
    valuation of its structuring form, derived by ``delta_profile``."""

    __slots__ = (
        "level", "index", "elliptic2", "elliptic3", "cusps", "genus",
        "delta_weight", "delta_valuation", "ladder_start",
    )


def level_profile(N):
    index, e2, e3, cusps, g = _invariants(N)
    _, rho, nu = delta_profile(N)
    return LevelProfile(
        level=N,
        index=index,
        elliptic2=e2,
        elliptic3=e3,
        cusps=cusps,
        genus=g,
        delta_weight=rho,
        delta_valuation=nu,
        ladder_start=ladder_start(N),
    )


def _check_weight(w):
    if not isinstance(w, int) or w < 0 or w % 2:
        raise OddWeight(f"weight must be a nonnegative even integer, got {w}")


def dimension_pairs(N, weights):
    """[(dim M_w, dim S_w) for w in weights] of Gamma0(N), every pair read
    off the same ``_invariants`` pass over N.  The weights must be even and
    at least 2; ``dim_modular`` and ``dim_cusp`` check theirs first."""
    _, e2, e3, cusps, g = _invariants(N)
    pairs = []
    for w in weights:
        if w == 2:
            pairs.append((g + cusps - 1, g))
        else:
            dim = ((w - 1) * (g - 1) + (w // 4) * e2 + (w // 3) * e3
                   + (w // 2) * cusps)
            pairs.append((dim, dim - cusps))
    return pairs


def dim_modular(N, w):
    """dim M_w(Gamma0(N)) for even w >= 0."""
    _check_weight(w)
    return 1 if w == 0 else dimension_pairs(N, (w,))[0][0]


def dim_cusp(N, w):
    """dim S_w(Gamma0(N)) for even w >= 0."""
    _check_weight(w)
    return 0 if w == 0 else dimension_pairs(N, (w,))[0][1]


def sturm_bound(N, w):
    """Number of leading coefficients certifying equality at weight w, level N."""
    _check_weight(w)
    return (w * group_index(N)) // 12 + 1


def default_prec(N, w):
    """House precision for catalogue evaluations: 2 * Sturm + 4 coefficients."""
    return 2 * sturm_bound(N, w) + 4


def dim_shift_report(N, k_max):
    """Check dim S_{2k+rho} - dim S_{2k} against the delta valuation.

    The difference must equal nu for k >= 2 and nu - 1 for k = 1.  Returns
    one (k, expected, actual, ok) row per k in 1..k_max, every dimension
    read off one ``dimension_pairs`` row of the 2 k_max weights compared,
    however large rho is.
    """
    _, rho, nu = delta_profile(N)
    weights = [w for k in range(1, k_max + 1) for w in (2 * k, 2 * k + rho)]
    pairs = dict(zip(weights, dimension_pairs(N, weights)))
    rows = []
    for k in range(1, k_max + 1):
        expected = nu if k >= 2 else nu - 1
        actual = pairs[2 * k + rho][1] - pairs[2 * k][1]
        rows.append((k, expected, actual, expected == actual))
    return rows


def _pairs_by_weight(N, k_max):
    """{w: (dim M_w, dim S_w)} for the even weights 2..2*k_max, one row."""
    weights = range(2, 2 * k_max + 1, 2)
    return dict(zip(weights, dimension_pairs(N, weights)))


def _ladder_condition(pairs, k0):
    """(rows, constant_ok, diffs) of condition (iii) at start k0 >= 1, read
    off ``_pairs_by_weight(N, k0 + 12)``."""
    target = pairs[2 * k0][1] - 1
    diffs = [pairs[2 * k][1] - pairs[2 * (k - k0)][0]
             for k in range(k0 + 1, k0 + 13)]
    rows = [(k, target, diff, diff == target)
            for k, diff in zip(range(k0 + 1, k0 + 7), diffs)]
    return rows, all(d == target for d in diffs), diffs


def ladder_dim_report(N, k0):
    """Per-k ladder dimension identity, plus constancy of the difference.

    Checks dim S_{2k} = dim M_{2(k-k0)} + dim S_{2k0} - 1 for k in
    k0+1..k0+6 and that k -> dim S_{2k} - dim M_{2(k-k0)} stays constant
    through k0+12 (the 6-periodic difference must be constant for the
    ladder to run forever).  k0 must be at least 1.  Returns
    (rows, constant_ok, diffs).
    """
    if k0 < 1:
        raise ValueError(f"ladder start must be at least 1, got {k0}")
    return _ladder_condition(_pairs_by_weight(N, k0 + 12), k0)


def ladder_start(N):
    """The smallest k0 with dim S_{2k0} > 0 that passes condition (iii)
    (``ladder_dim_report``), or None.

    k0 = 1 counts: at N = 11, with genus 1 and no elliptic points, it is 1.
    Searching 1..6, one period of phi(k) = dim S_{2k} - dim M_{2(k-k0)}, is
    enough.  For k0 >= 2 the dimension formulas give phi(k) minus its target
    dim S_{2k0} - 1 as the genus plus e2 and e3 terms that are never
    negative and vanish when 6 | k0.  So only the 15 genus-0 levels (1-10,
    12, 13, 16, 18, 25) qualify, and each passes by k0 = 6.  Every
    dimension is read off one ``dimension_pairs`` row.
    """
    pairs = _pairs_by_weight(N, 6 + 12)
    for k0 in range(1, 7):
        # constancy at the target covers the identity rows
        if pairs[2 * k0][1] > 0 and _ladder_condition(pairs, k0)[1]:
            return k0
    return None
