"""Arithmetic invariants of Gamma0(N) and dimensions of M_w and S_w.

The full closed formulas are implemented (index product, elliptic point
counts via quadratic residues, cusp count, genus), with no genus-zero
shortcuts, so the module stays honest for levels beyond the catalogue.
Each invariant is a product over the prime powers of N, read off one
trial-division pass (``_factorization``), so a level near 10^9 costs
milliseconds.
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


def group_index(N):
    """Index of Gamma0(N) in the full modular group: N prod_{p|N} (1 + 1/p)."""
    if not isinstance(N, int) or N < 1:
        raise UnsupportedLevel(f"level must be a positive integer, got {N}")
    num, den = N, 1
    for p, _ in _factorization(N):
        num *= p + 1
        den *= p
    assert num % den == 0
    return num // den


def count_elliptic2(N):
    if N % 4 == 0:
        return 0
    count = 1
    for p, _ in _factorization(N):
        if p == 2:
            continue
        if p % 4 == 1:
            count *= 2
        else:
            return 0
    return count


def count_elliptic3(N):
    if N % 9 == 0:
        return 0
    count = 1
    for p, _ in _factorization(N):
        if p == 3:
            continue
        if p % 3 == 1:
            count *= 2
        else:
            return 0
    return count


def count_cusps(N):
    """Number of cusps of X0(N): sum over d|N of phi(gcd(d, N/d)).

    The sum is multiplicative, so it is read off the factorization: a prime
    power p^e with t = e // 2 contributes 2 p^t when e is odd and
    p^t + p^(t-1) when e is even.
    """
    if not isinstance(N, int) or N < 1:
        raise UnsupportedLevel(f"level must be a positive integer, got {N}")
    total = 1
    for p, e in _factorization(N):
        t = e // 2
        total *= 2 * p ** t if e % 2 else p ** t + p ** (t - 1)
    return total


def genus(N):
    g12 = 12 + group_index(N) - 3 * count_elliptic2(N) - 4 * count_elliptic3(N) \
        - 6 * count_cusps(N)
    assert g12 % 12 == 0
    return g12 // 12


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
    index = group_index(N)
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
        elliptic2=count_elliptic2(N),
        elliptic3=count_elliptic3(N),
        cusps=count_cusps(N),
        genus=genus(N),
        delta_weight=rho,
        delta_valuation=nu,
        ladder_start=k0,
        seed_names=seeds,
    )


def _check_weight(w):
    if not isinstance(w, int) or w < 0 or w % 2:
        raise OddWeight(f"weight must be a nonnegative even integer, got {w}")


def dim_modular(N, w):
    """dim M_w(Gamma0(N)) for even w >= 0."""
    _check_weight(w)
    if w == 0:
        return 1
    g = genus(N)
    if w == 2:
        return g + count_cusps(N) - 1
    return (
        (w - 1) * (g - 1)
        + (w // 4) * count_elliptic2(N)
        + (w // 3) * count_elliptic3(N)
        + (w // 2) * count_cusps(N)
    )


def dim_cusp(N, w):
    """dim S_w(Gamma0(N)) for even w >= 0."""
    _check_weight(w)
    if w == 0:
        return 0
    if w == 2:
        return genus(N)
    return dim_modular(N, w) - count_cusps(N)


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
