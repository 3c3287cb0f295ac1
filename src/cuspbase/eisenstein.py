"""Classical Eisenstein series and the level-lifted weight-2 combination.

E_4 = 1 + 240 sum sigma_3(n) q^n and E_6 = 1 - 504 sum sigma_5(n) q^n are
the weight 4 and 6 generators at level 1.  The quasi-modular E_2 is kept
module-private: it only enters through the modular combination
(N*E_2(N*tau) - E_2(tau)) / (N-1), which is unitary of valuation 0 on
Gamma0(N).

The divisor sums below a precision p take O(sqrt(p)) slices, one per
divisor and one per cofactor up to isqrt(p - 1) (``_divisor_power_sums``);
a single sigma_k(n) is read off the factorization of n.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import repeat
from math import isqrt

from .dimensions import _factorization
from .series import _series


def _divisor_power_sums(prec, k):
    """[sigma_k(n) for n < prec] (0 at n = 0), in O(sqrt(prec)) slices.

    Every n = d*e < prec has d or e at most r = isqrt(prec - 1).  Each
    divisor d <= r adds d^k along the stride d, one slice; each divisor
    d > r of n is read off its cofactor e = n/d <= r, one slice per e along
    the stride e, fed by the powers (r+1)^k, (r+2)^k, ...
    """
    s = [0] * max(prec, 1)
    r = isqrt(max(prec - 1, 0))
    for d in range(1, r + 1):
        s[d::d] = map((d ** k).__add__, s[d::d])
    high = list(map(pow, range(r + 1, prec), repeat(k)))
    for e in range(1, r + 1):
        s[e * (r + 1)::e] = map(operator.add, s[e * (r + 1)::e], high)
    return s


def sigma_power_sum(n, k):
    """Sum of k-th powers of the divisors of n, for an integer k >= 0: the
    product over the prime powers p^e of n of (p^(k(e+1)) - 1)/(p^k - 1),
    or of e + 1 when k = 0."""
    if n < 1:
        raise ValueError("divisor sums need n >= 1")
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"divisor sums need an integer power k >= 0, got {k}")
    total = 1
    for p, e in _factorization(n):
        total *= (p ** (k * (e + 1)) - 1) // (p ** k - 1) if k else e + 1
    return total


def _sigma_series(scale, k, prec):
    # 1 + scale * sum sigma_k(n) q^n below q^prec
    coeffs = [scale * c for c in _divisor_power_sums(prec, k)]
    coeffs[0] = 1
    return _series(1, 0, coeffs, prec)


def eisenstein_series(weight, prec):
    """E_4 or E_6 truncated below exponent prec."""
    if weight == 4:
        return _sigma_series(240, 3, prec)
    if weight == 6:
        return _sigma_series(-504, 5, prec)
    raise ValueError(f"only weights 4 and 6 are provided, got {weight}")


def _e2(prec):
    # quasi-modular; never exposed as a basis atom
    return _sigma_series(-24, 1, prec)


def weight2_level_combo(N, prec):
    """(N*E_2(N tau) - E_2(tau)) / (N-1), unitary of weight 2 on Gamma0(N)."""
    if not isinstance(N, int) or N < 2:
        raise ValueError("the weight-2 combination needs an integer level N >= 2")
    inner = (prec + N - 1) // N
    lifted = _e2(inner).substitute_q_power(N)
    combo = (lifted.scale(N) - _e2(prec)).scale(Fraction(1, N - 1))
    return combo.truncate(prec)
