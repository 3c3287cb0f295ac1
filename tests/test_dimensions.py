"""Level invariants, dimension formulas, Sturm bounds, shift identities."""

from fractions import Fraction
from math import gcd

import pytest

from cuspbase import dimensions
from cuspbase.catalog import get_catalog
from cuspbase.dimensions import (
    count_cusps, default_prec, delta_profile, dim_cusp, dim_modular,
    dim_shift_report, group_index, ladder_dim_report, ladder_start,
    level_profile, sturm_bound,
)
from cuspbase.errors import OddWeight, UnsupportedLevel
from cuspbase.eta import EtaQuotient
from cuspbase.verify import PRINTED_TABLES

PROFILES = {
    # level: (index, eps2, eps3, cusps, genus)
    1: (1, 1, 1, 1, 0),
    2: (3, 1, 0, 2, 0),
    3: (4, 0, 1, 2, 0),
    4: (6, 0, 0, 3, 0),
    5: (6, 2, 0, 2, 0),
    6: (12, 0, 0, 4, 0),
    7: (8, 0, 2, 2, 0),
    8: (12, 0, 0, 4, 0),
    9: (12, 0, 0, 4, 0),
    10: (18, 2, 0, 4, 0),
}

# (eta exponents, rho, nu) of delta_N at the catalogued levels, written out
# by hand as reference data for delta_profile
DELTA_REFERENCE = {
    1: ({1: 24}, 12, 1),
    2: ({2: 16, 1: -8}, 4, 1),
    3: ({3: 18, 1: -6}, 6, 2),
    4: ({4: 8, 2: -4}, 2, 1),
    5: ({5: 10, 1: -2}, 4, 2),
    6: ({1: 2, 2: -4, 3: -6, 6: 12}, 2, 2),
    7: ({7: 14, 1: -2}, 6, 4),
    8: ({8: 8, 4: -4}, 2, 2),
    9: ({9: 6, 3: -2}, 2, 2),
    10: ({1: 2, 2: -4, 5: -10, 10: 20}, 4, 6),
}

# the ladder starts of the catalogued levels, as the acceptance suite pins them
LADDER_STARTS = {1: 6, 2: 4, 3: 3, 4: 3, 5: 2, 6: 2, 7: 3, 8: 2, 9: 2, 10: 2}


def test_profiles():
    for n, (mu, e2, e3, cusps, g) in PROFILES.items():
        p = level_profile(n)
        assert (p.index, p.elliptic2, p.elliptic3, p.cusps, p.genus) == \
            (mu, e2, e3, cusps, g)


def test_profile_examples():
    p = level_profile(6)
    assert (p.index, p.elliptic2, p.elliptic3, p.cusps, p.genus) == (12, 0, 0, 4, 0)
    p = level_profile(1)
    assert (p.index, p.elliptic2, p.elliptic3, p.cusps, p.genus) == (1, 1, 1, 1, 0)
    p = level_profile(7)
    assert (p.delta_weight, p.delta_valuation) == (6, 4)
    p = level_profile(26)
    assert p.genus == 2
    # delta_26 is derived like every other level's: weight 12, order 42
    assert (p.delta_weight, p.delta_valuation) == (12, 42)
    with pytest.raises(UnsupportedLevel):
        level_profile(0)


def test_tables():
    for n, values in PRINTED_TABLES.items():
        got = [dim_cusp(n, 2 * (i + 1)) for i in range(len(values))]
        assert got == values, f"level {n}"


def test_dim_examples():
    assert dim_cusp(2, 8) == 1
    assert dim_cusp(10, 4) == 3
    assert all(dim_cusp(n, 2) == 0 for n in range(1, 11))
    assert dim_cusp(1, 12) == 1
    assert dim_modular(3, 4) == 2
    with pytest.raises(OddWeight):
        dim_modular(5, 7)
    with pytest.raises(OddWeight):
        dim_cusp(5, -2)


def test_levels_below_one_are_unsupported():
    for N in (0, -4):
        for formula in (dim_cusp, dim_modular, sturm_bound):
            with pytest.raises(UnsupportedLevel):
                formula(N, 2)


def _phi(n):
    return sum(1 for j in range(1, n + 1) if gcd(j, n) == 1)


def test_cusp_count_matches_the_divisor_sum():
    phi = [0] + [_phi(n) for n in range(1, 60)]   # gcd(d, N/d)^2 <= N < 3000
    for N in range(1, 3000):
        expected = sum(phi[gcd(d, N // d)] for d in range(1, N + 1) if N % d == 0)
        assert count_cusps(N) == expected, N
    for N in (0, -4):
        with pytest.raises(UnsupportedLevel):
            count_cusps(N)


def test_each_formula_factorises_the_level_once(monkeypatch):
    passes = []
    factorization = dimensions._factorization

    def counting(n):
        passes.append(n)
        return factorization(n)

    monkeypatch.setattr(dimensions, "_factorization", counting)
    for N in (1, 4, 9, 10, 26, 10007):
        for w in (2, 4, 12):
            for formula in (dim_cusp, dim_modular, sturm_bound, default_prec):
                dimensions._invariants.cache_clear()
                passes.clear()
                formula(N, w)
                assert passes == [N], (formula.__name__, N, w)
        delta_profile.cache_clear()
        passes.clear()
        delta_profile(N)
        assert passes == [N], ("delta_profile", N)


def test_codimension_is_cusp_count():
    for n in range(1, 11):
        for w in range(4, 41, 2):
            assert dim_modular(n, w) - dim_cusp(n, w) == count_cusps(n)


def test_sturm_bound():
    assert sturm_bound(2, 8) == 3
    assert sturm_bound(1, 12) == 2
    assert sturm_bound(10, 4) == 7
    assert default_prec(10, 4) == 18


def test_dim_shift_identity():
    for n in range(1, 11):
        rows = dim_shift_report(n, 50)
        assert all(ok for _, _, _, ok in rows), f"level {n}"


def test_dim_shift_report_factorises_the_level_once(monkeypatch):
    # the rows are the per-k dim_cusp differences, read off one pass over N
    # once delta_profile, itself one pass, has kept the level's (rho, nu)
    differences = {
        N: [dim_cusp(N, 2 * k + rho) - dim_cusp(N, 2 * k) for k in range(1, 51)]
        for N, (_, rho, _) in DELTA_REFERENCE.items()
    }
    passes = []
    factorization = dimensions._factorization

    def counting(n):
        passes.append(n)
        return factorization(n)

    monkeypatch.setattr(dimensions, "_factorization", counting)
    for N in range(1, 11):
        delta_profile.cache_clear()
        passes.clear()
        delta_profile(N)
        assert passes == [N], N
        dimensions._invariants.cache_clear()
        passes.clear()
        rows = dim_shift_report(N, 50)
        assert passes == [N], N
        assert [actual for _, _, actual, _ in rows] == differences[N], N


def test_dim_shift_examples():
    # level 7: dim S_10 - dim S_4 = 4; level 1 at k=1 gives nu - 1 = 0
    assert dim_cusp(7, 10) - dim_cusp(7, 4) == 5 - 1 == 4
    assert dim_cusp(1, 14) - dim_cusp(1, 2) == 0
    assert dim_cusp(6, 6) - dim_cusp(6, 4) == 2


def test_ladder_reports():
    for n, k0 in LADDER_STARTS.items():
        rows, constant_ok, diffs = ladder_dim_report(n, k0)
        assert constant_ok, f"level {n}"
        assert all(ok for _, _, _, ok in rows)
        assert diffs[0] == dim_cusp(n, 2 * k0) - 1


def test_ladder_difference_values():
    assert ladder_dim_report(2, 4)[2][0] == 0
    assert ladder_dim_report(7, 3)[2][0] == 2
    assert ladder_dim_report(10, 2)[2][0] == 2


def test_level7_printed_offset_fails():
    # the k0=2 offset printed alongside the level-7 ladder is not constant
    _, constant_ok, diffs = ladder_dim_report(7, 2)
    assert not constant_ok
    assert len(set(diffs)) > 1


def test_level26_has_no_ladder_start():
    # the one level where no start works: every candidate offset fails
    for k0 in range(1, 11):
        _, constant_ok, _ = ladder_dim_report(26, k0)
        assert not constant_ok
    rows, _, _ = ladder_dim_report(26, 1)
    assert rows[5][0] == 7 and not rows[5][3]
    assert ladder_start(26) is None
    assert level_profile(26).ladder_start is None


def test_ladder_start_is_the_catalogue_start():
    for n, k0 in LADDER_STARTS.items():
        assert ladder_start(n) == get_catalog(n).k0 == k0, n
        assert level_profile(n).ladder_start == k0, n


def test_ladder_start_seed_count():
    # delta_{k0}(N) = dim S_{2k0}: 3 at levels 7 and 10, 1 elsewhere
    for n in range(1, 11):
        assert dim_cusp(n, 2 * ladder_start(n)) == (3 if n in (7, 10) else 1), n


def test_ladder_start_one_counts():
    # genus 1, no elliptic points: the weight-2 form starts the ladder
    assert ladder_start(11) == 1
    assert level_profile(11).ladder_start == 1
    p = level_profile(11)
    assert (p.delta_weight, p.delta_valuation) == (10, 10)


def test_ladder_start_search_through_one_period_is_enough():
    def search(n, k_max):
        for k0 in range(1, k_max + 1):
            rows, constant_ok, _ = ladder_dim_report(n, k0)
            if dim_cusp(n, 2 * k0) > 0 and constant_ok and \
                    all(ok for *_, ok in rows):
                return k0
        return None

    for n in range(1, 201):
        assert ladder_start(n) == search(n, 40), n


def test_ladder_start_factorises_the_level_once(monkeypatch):
    passes = []
    factorization = dimensions._factorization

    def counting(n):
        passes.append(n)
        return factorization(n)

    monkeypatch.setattr(dimensions, "_factorization", counting)
    for N in (1, 7, 11, 26, 10007):
        dimensions._invariants.cache_clear()
        passes.clear()
        ladder_start(N)
        assert passes == [N], N


def test_a_level_is_factorised_once_across_calls(monkeypatch):
    # the basis builders and verify_membership ask for the Sturm bound of
    # one level again and again: after the first call no formula of the
    # level makes a pass, and a float level equal to a kept one is refused
    passes = []
    factorization = dimensions._factorization

    def counting(n):
        passes.append(n)
        return factorization(n)

    monkeypatch.setattr(dimensions, "_factorization", counting)
    dimensions._invariants.cache_clear()
    assert sturm_bound(10, 4) == 7
    assert passes == [10]
    passes.clear()
    assert sturm_bound(10, 4) == 7
    for formula in (sturm_bound, dim_cusp, dim_modular, default_prec):
        formula(10, 8)
    assert group_index(10) == 18
    assert passes == []
    with pytest.raises(UnsupportedLevel):
        sturm_bound(10.0, 4)


def test_ladder_dim_report_needs_a_positive_start():
    for k0 in (0, -1):
        with pytest.raises(ValueError):
            ladder_dim_report(7, k0)


def test_delta_valuation_fills_its_weights_sturm_count():
    # rho * [SL2(Z):Gamma0(N)] = 12 nu, so lifting by delta^n adds n*nu to
    # both the Sturm bound and the valuation: structure_decompose relies on
    # default_prec(N, 2k) - n*nu >= default_prec(N, 2k - n*rho)
    for n in range(1, 11):
        _, rho, nu = delta_profile(n)
        assert rho * group_index(n) == 12 * nu, n


def test_delta_profile_matches_the_reference_data():
    for n, (terms, rho, nu) in DELTA_REFERENCE.items():
        assert delta_profile(n) == (EtaQuotient(terms), rho, nu), n


def _valuation(p, n):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _ligozat_order(N, d, terms):
    """Order at a cusp c/d of prod eta(m tau)^r_m, straight from Ligozat's
    formula (N/24) sum_m gcd(d,m)^2 r_m / (gcd(d,N/d) d m)."""
    return Fraction(N, 24) * sum(
        Fraction(gcd(d, m) ** 2 * r, gcd(d, N // d) * d * m) for m, r in terms)


def _passes_ligozat(N, terms):
    """Integer exponents on divisors of N, the two congruences mod 24, even
    weight, and prod m^r_m a square."""
    primes = [p for p in range(2, N + 1)
              if N % p == 0 and all(p % q for q in range(2, p))]
    return (all(N % m == 0 for m, _ in terms)
            and sum(m * r for m, r in terms) % 24 == 0
            and sum(N // m * r for m, r in terms) % 24 == 0
            and sum(r for _, r in terms) % 4 == 0
            and all(sum(r * _valuation(p, m) for m, r in terms) % 2 == 0
                    for p in primes))


def test_delta_profile_against_ligozat_at_every_cusp():
    # delta_N vanishes at infinity alone, to the whole valence count, and no
    # smaller order of vanishing gives an eta quotient passing Ligozat's
    # conditions; every such quotient is a rational multiple of delta_N's
    # exponents, as the orders are linear in them
    for N in range(1, 61):
        quotient, rho, nu = delta_profile(N)
        divisors = [d for d in range(1, N + 1) if N % d == 0]
        orders = [_ligozat_order(N, d, quotient.terms) for d in divisors]
        assert orders == [0] * (len(divisors) - 1) + [nu], N
        assert quotient.valuation == nu and quotient.weight == rho, N
        assert _passes_ligozat(N, quotient.terms), N
        assert 12 * nu == rho * group_index(N), N
        for smaller in range(1, nu):
            terms = [(m, Fraction(r * smaller, nu)) for m, r in quotient.terms]
            if all(r.denominator == 1 for _, r in terms):
                assert not _passes_ligozat(
                    N, [(m, int(r)) for m, r in terms]), (N, smaller)
        assert all(ok for *_, ok in dim_shift_report(N, 30)), N


def test_delta_profile_at_large_levels():
    # a prime p > 3 has delta_p = eta(p tau)^2p / eta(tau)^2, of weight
    # p - 1 and order (p^2 - 1)/12; each level is one factorisation
    p = 1000000007
    assert delta_profile(p) == (EtaQuotient({1: -2, p: 2 * p}), p - 1,
                                (p * p - 1) // 12)
    # the shift law reads 2 k_max weights however large rho is
    assert all(ok for *_, ok in dim_shift_report(p, 5))
    # 2^6 3^3 5^2 7 11 13 17: 1344 divisors, 2^7 of them carry an exponent
    N = 735134400
    quotient, rho, nu = delta_profile(N)
    assert len(quotient.terms) == 128
    assert quotient.valuation == nu and quotient.weight == rho
    assert 12 * nu == rho * group_index(N)


def test_delta_profile_needs_a_positive_level():
    for N in (0, -4):
        with pytest.raises(UnsupportedLevel):
            delta_profile(N)
