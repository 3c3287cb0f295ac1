"""Arithmetic invariants of Gamma0(N) and dimensions of M_w and S_w.

The full closed formulas are implemented (index product, elliptic point
counts via quadratic residues, cusp count, genus), with no genus-zero
shortcuts, so the module stays honest for levels beyond the catalogue.
Each invariant is a product over the prime powers of N, and a formula
reads all the invariants it needs off one trial-division pass
(``_factorization``), so a level near 10^9 costs milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OddWeight, UnsupportedLevel

# (delta weight, delta valuation, ladder start k0) for the catalogued levels
DELTA_DATA = {
    1: (12, 1, 6),
    2: (4, 1, 4),
    3: (6, 2, 3),
    4: (2, 1, 3),
    5: (4, 2, 2),
    6: (2, 2, 2),
    7: (6, 4, 3),
    8: (2, 2, 2),
    9: (2, 2, 2),
    10: (4, 6, 2),
}

SUPPORTED_LEVELS = tuple(sorted(DELTA_DATA))


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


def _invariants(N):
    """(index, elliptic2, elliptic3, cusps, genus) of Gamma0(N), every one
    read off the same trial-division pass over N."""
    if not isinstance(N, int) or N < 1:
        raise UnsupportedLevel(f"level must be a positive integer, got {N}")
    primes = _factorization(N)
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


@dataclass(frozen=True)
class LevelProfile:
    """Invariants of Gamma0(N), plus ladder data for catalogued levels."""

    level: int
    index: int
    elliptic2: int
    elliptic3: int
    cusps: int
    genus: int
    delta_weight: int | None
    delta_valuation: int | None
    ladder_start: int | None
    seed_names: tuple[str, ...]


def level_profile(N):
    index, e2, e3, cusps, g = _invariants(N)
    delta = DELTA_DATA.get(N)
    if delta is None:
        rho = nu = k0 = None
        seeds = ()
    else:
        rho, nu, k0 = delta
        seeds = tuple(f"F{2 * k0}_{N}_{s}"
                      for s in range(1, dim_cusp(N, 2 * k0) + 1))
    return LevelProfile(
        level=N,
        index=index,
        elliptic2=e2,
        elliptic3=e3,
        cusps=cusps,
        genus=g,
        delta_weight=rho,
        delta_valuation=nu,
        ladder_start=k0,
        seed_names=seeds,
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
    one (k, expected, actual, ok) row per k in 1..k_max.
    """
    if N not in DELTA_DATA:
        raise UnsupportedLevel(f"no delta profile for level {N}")
    rho, nu, _ = DELTA_DATA[N]
    rows = []
    for k in range(1, k_max + 1):
        expected = nu if k >= 2 else nu - 1
        actual = dim_cusp(N, 2 * k + rho) - dim_cusp(N, 2 * k)
        rows.append((k, expected, actual, expected == actual))
    return rows


def ladder_dim_report(N, k0):
    """Per-k ladder dimension identity, plus constancy of the difference.

    Checks dim S_{2k} = dim M_{2(k-k0)} + dim S_{2k0} - 1 for k in
    k0+1..k0+6 and that k -> dim S_{2k} - dim M_{2(k-k0)} stays constant
    through k0+12 (the 6-periodic difference must be constant for the
    ladder to run forever).  Returns (rows, constant_ok, diffs).
    """
    target = dim_cusp(N, 2 * k0) - 1
    rows = []
    diffs = []
    for k in range(k0 + 1, k0 + 13):
        diff = dim_cusp(N, 2 * k) - dim_modular(N, 2 * (k - k0))
        diffs.append(diff)
        if k <= k0 + 6:
            rows.append((k, target, diff, diff == target))
    constant_ok = all(d == target for d in diffs)
    return rows, constant_ok, diffs
