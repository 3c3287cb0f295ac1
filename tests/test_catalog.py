"""Catalogue integrity: generator and seed normalization, identities."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import series_coeffs
from cuspbase import catalog as catalog_mod
from cuspbase.catalog import (
    catalog_identities, eta_leaves, evaluate, get_catalog, named_forms,
)
from cuspbase.dimensions import (
    default_prec, delta_profile, dim_cusp, ladder_start,
)
from cuspbase.errors import UnsupportedLevel, WeightMismatch
from cuspbase.expr import Eis, Gen, add, expr_weight, mul
from cuspbase.parse import parse_expr
from cuspbase.series import first_mismatch
from cuspbase.verify import PRINTED_SERIES, check_printed_series


def test_unsupported_level():
    with pytest.raises(UnsupportedLevel):
        get_catalog(11)
    with pytest.raises(UnsupportedLevel):
        get_catalog(26)


def test_generators_unitary_with_valuation_index():
    for n in range(1, 11):
        cat = get_catalog(n)
        for (w, s), form in cat.generators.items():
            series = evaluate(form, default_prec(n, w))
            assert series.valuation() == s, (n, w, s)
            assert series.leading_coefficient() == 1, (n, w, s)
            assert series.grid == 1


def test_seeds_unitary_with_increasing_valuations():
    for n in range(1, 11):
        cat = get_catalog(n)
        for i, seed in enumerate(cat.seeds, start=1):
            series = evaluate(seed, default_prec(n, 2 * cat.k0))
            assert series.valuation() == i, (n, i)
            assert series.leading_coefficient() == 1, (n, i)


def test_generator_bodies_weigh_their_keys():
    # expr_weight(Gen) trusts the key, so the body is checked here
    for n in range(1, 11):
        for (w, s), form in get_catalog(n).generators.items():
            assert expr_weight(form) == w, (n, w, s)


def test_mixed_weights_raise_on_every_evaluation():
    # weight 4 plus weight 10: refused cold, and again once both summands
    # are memo entries, as the sum itself never becomes one
    catalog_mod.clear_caches()
    low, high = Eis(4, 1), mul(Eis(4, 1), Eis(6, 1))
    bad = add(low, high)
    with pytest.raises(WeightMismatch):
        evaluate(bad, 8)
    evaluate(low, 8)
    evaluate(high, 8)
    for _ in range(2):
        with pytest.raises(WeightMismatch):
            evaluate(bad, 8)


def test_catalogued_body_with_mixed_weights_raises(monkeypatch):
    # expr_weight(Gen) trusts the key, so the body is checked when the
    # reference is first evaluated, and the body itself stays refused
    body = add(Eis(4, 1), Eis(6, 1))
    doctored = get_catalog(2).replace(
        generators={**get_catalog(2).generators, (4, 9): body})
    monkeypatch.setitem(catalog_mod._CATALOGS, 2, doctored)
    ref = Gen(4, 2, 9)
    assert expr_weight(ref) == 4
    for form in (ref, body, ref):
        with pytest.raises(WeightMismatch):
            evaluate(form, 8)


def test_seeds_share_one_weight():
    for n in range(1, 11):
        cat = get_catalog(n)
        assert {expr_weight(seed) for seed in cat.seeds} == {2 * cat.k0}, n


def test_seed_counts():
    for n in range(1, 11):
        cat = get_catalog(n)
        assert len(cat.seeds) == (3 if n in (7, 10) else 1)
        assert len(cat.seeds) == dim_cusp(n, 2 * cat.k0)
        assert cat.k0 == ladder_start(n)
    assert get_catalog(7).base_seed is not None


def test_level7_base_seed():
    series = evaluate(get_catalog(7).base_seed, 6)
    assert series.valuation() == 1
    assert series.leading_coefficient() == 1


def test_printed_corpus_is_green():
    for check_id in PRINTED_SERIES:
        result = check_printed_series(check_id)
        assert result.ok, result.detail


def test_identities_hold():
    for n in range(1, 11):
        for check_id, lhs, rhs, _ in catalog_identities(n):
            a = evaluate(lhs, 20)
            b = evaluate(rhs, 20)
            assert first_mismatch(a, b) is None, check_id


def test_named_forms_cover_seeds_and_delta():
    names = named_forms(7)
    assert "delta_7" in names
    assert "E6_7_3" in names
    assert {"F6_7_1", "F6_7_2", "F6_7_3", "F4_7_1"} <= set(names)


def test_eta_leaves_inventory():
    leaves = dict(eta_leaves())
    quotients = set(q for _, q in eta_leaves())
    # every structuring form appears among the catalogue's eta leaves
    for n in range(1, 11):
        assert delta_profile(n)[0] in quotients
    assert len(leaves) == len(eta_leaves())


def test_reconstructed_seeds_are_multiplicative():
    # the two completed seeds are the classical eta-product newforms of
    # their spaces; Hecke multiplicativity is an independent witness that
    # the completion picked genuine cusp forms
    f = evaluate(get_catalog(6).seeds[0], 60)
    a = {n: f.coeff(n) for n in range(1, 60)}
    assert [a[n] for n in range(1, 9)] == [1, -2, -3, 4, 6, 6, -16, -8]
    for m, n in ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7)):
        assert a[m * n] == a[m] * a[n]
    assert a[4] == a[2] ** 2 and a[9] == a[3] ** 2      # primes dividing 6
    assert a[25] == a[5] ** 2 - 5 ** 3                  # good primes, weight 4
    assert a[49] == a[7] ** 2 - 7 ** 3

    f = evaluate(get_catalog(3).seeds[0], 60)
    a = {n: f.coeff(n) for n in range(1, 60)}
    assert [a[n] for n in range(1, 8)] == [1, -6, 9, 4, 6, -54, -40]
    for m, n in ((2, 3), (2, 5), (3, 5), (2, 7)):
        assert a[m * n] == a[m] * a[n]
    assert a[9] == a[3] ** 2                            # prime dividing 3
    assert a[4] == a[2] ** 2 - 2 ** 5                   # good primes, weight 6
    assert a[25] == a[5] ** 2 - 5 ** 5
    assert a[49] == a[7] ** 2 - 7 ** 5


def test_e2_9_0_sign_follows_expansion():
    # the half-lattice value at level 9 enters with the same sign as at
    # level 2; the published expansion pins it
    series = evaluate(named_forms(9)["E2_9_0"], 7)
    assert series_coeffs(series, 7) == [1, 0, 0, 12, 0, 0, 36]


def test_e2_4_0_cube_sign():
    # the two tabulations disagree at q^3; the eta product decides -32
    series = evaluate(named_forms(4)["E2_4_0"], 4)
    assert series_coeffs(series, 4) == [1, -8, 24, -32]


def test_truncated_expansion_matches_low_precision():
    # E[4,8,4] starts at q^4; at precision 3 nothing of it is known
    form = parse_expr("E[4,8,4]")
    assert evaluate(form, 60).truncate(3) == evaluate(form, 3)
    assert evaluate(form, 3).is_zero


NAMED = [(n, name) for n in range(1, 11) for name in sorted(named_forms(n))]


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from(NAMED),
       st.integers(1, 6) | st.integers(1, 40),   # the frontier sits low
       st.integers(1, 20))
def test_precision_monotonicity(entry, low, extra):
    # evaluate(f, hi).truncate(p) == evaluate(f, p), including precisions
    # at or below a form's valuation
    n, name = entry
    form = named_forms(n)[name]
    assert evaluate(form, low + extra).truncate(low) == evaluate(form, low)
