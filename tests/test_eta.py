"""Eta quotient expansion against the published series and a naive oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_eta_product_part, series_coeffs
from cuspbase.catalog import eta_leaves
from cuspbase.errors import ExprSyntaxError, FractionalValuation
from cuspbase.eta import EtaQuotient, eta_expand, eta_profile
from cuspbase.parse import parse_atom
from cuspbase.series import _KRONECKER_MIN


def test_published_expansions():
    cases = [
        ({2: 16, 1: -8}, 1, [1, 8, 28, 64]),
        ({3: 18, 1: -6}, 2, [1, 6, 27, 80, 207, 432, 863, 1512]),
        ({9: 6, 3: -2}, 2, [1, 0, 0, 2, 0, 0, 5, 0, 0, 4, 0, 0, 8]),
        ({4: 8, 2: -4}, 1, [1, 0, 4, 0, 6, 0, 8]),
        ({7: 14, 1: -2}, 4, [1, 2, 5, 10]),
    ]
    for terms, lead, coeffs in cases:
        s = eta_expand(EtaQuotient(terms), lead + len(coeffs))
        assert s.valuation() == lead
        assert series_coeffs(s, lead + len(coeffs))[lead:] == coeffs


def test_precision_at_or_below_valuation_is_zero():
    delta7 = EtaQuotient({7: 14, 1: -2})  # valuation 4
    for prec in (1, 3, 4):
        s = eta_expand(delta7, prec)
        assert s.is_zero
        assert s.prec_exponent == prec


def test_empty_quotient_is_one():
    s = eta_expand(EtaQuotient({}), 5)
    assert series_coeffs(s, 5) == [1, 0, 0, 0, 0]


def test_profiles():
    assert eta_profile(EtaQuotient({7: 14, 1: -2})) == (6, 4)
    assert eta_profile(EtaQuotient({1: 24})) == (12, 1)
    assert eta_profile(EtaQuotient({1: 2, 2: -4, 5: -10, 10: 20})) == (4, 6)
    assert eta_profile(EtaQuotient({2: 1})) == (Fraction(1, 2), Fraction(1, 12))


def test_expansion_valuation_matches_profile():
    for _, quotient in eta_leaves():
        _, v = eta_profile(quotient)
        s = eta_expand(quotient, v + 6)
        assert s.valuation() == v
        assert s.leading_coefficient() == 1


def test_fractional_valuation_rejected():
    with pytest.raises(FractionalValuation):
        eta_expand(EtaQuotient({1: 1}), 4)  # valuation 1/24
    # half-integer valuations ride the half grid
    s = eta_expand(EtaQuotient({3: 4}), 3)  # valuation 1/2
    assert s.grid == 2
    assert s.valuation() == Fraction(1, 2)


def test_homomorphism_on_random_quotients():
    rng = random.Random(3)
    depth = 12
    for _ in range(25):
        a = EtaQuotient({rng.randrange(1, 5): rng.choice([2, 4, -2]) * 12})
        b = EtaQuotient({rng.randrange(5, 9): rng.choice([1, 3, -1]) * 24})
        merged = a * b
        va, vb = a.valuation, b.valuation
        lhs = eta_expand(merged, va + vb + depth)
        rhs = eta_expand(a, va + depth) * eta_expand(b, vb + depth)
        assert lhs == rhs.truncate(va + vb + depth)


def test_integer_coefficients():
    for _, quotient in eta_leaves():
        _, v = eta_profile(quotient)
        s = eta_expand(quotient, v + 20)
        assert all(isinstance(c, int) for _, c in s.items())


def test_naive_oracle_agreement_small():
    # spot check at modest depth; the 200-coefficient sweep lives in the
    # acceptance suite
    for terms in ({2: 16, 1: -8}, {5: 10, 1: -2}, {1: 2, 2: -4, 5: -10, 10: 20}):
        quotient = EtaQuotient(terms)
        _, v = eta_profile(quotient)
        depth = 40
        s = eta_expand(quotient, v + depth)
        oracle = naive_eta_product_part(quotient.terms, depth)
        assert [s.coeff(v + i) for i in range(depth)] == oracle


def test_each_scale_at_its_slot_boundaries():
    # the primitive quotient is built on ceil(rel/g) slots, g the gcd of the
    # scales, and each of its scales expands prod (1 - q^k) on ceil(rel/m)
    # slots before reading it at q^m; a request rel = j*m - 1, j*m or
    # j*m + 1 past the valuation sits on either side of a slot boundary, and
    # so does one at j*g - 1, j*g or j*g + 1
    for _, quotient in eta_leaves():
        v = quotient.valuation
        scales = {m for m, _ in quotient.terms}
        for m in sorted(scales | {math.gcd(*scales)}):
            for j in range(1, 5):
                for rel in (j * m - 1, j * m, j * m + 1):
                    s = eta_expand(quotient, v + rel)
                    assert s.prec_exponent == v + rel
                    oracle = naive_eta_product_part(quotient.terms, rel) if rel else []
                    assert [s.coeff(v + i) for i in range(rel)] == oracle


def _assert_matches_naive(quotient, prec, oracle=None):
    # a truncation of the naive product is its own prefix, so one oracle
    # computed to the deepest precision serves every shallower one
    v = Fraction(quotient.valuation)
    s = eta_expand(quotient, prec)
    assert s.prec_exponent == prec
    depth = max(math.ceil(prec - v), 0)
    if oracle is None:
        oracle = naive_eta_product_part(quotient.terms, depth) if depth else []
    assert len(oracle) >= depth
    assert s.items() == [(v + i, c) for i, c in enumerate(oracle[:depth]) if c]
    assert all(type(c) is int for _, c in s.items())


def _quotient_of(text):
    return EtaQuotient(tuple(map(int, t.split(":"))) for t in text.split(","))


@pytest.mark.parametrize("text", [
    "2:16,1:-8",      # leading exponent -s with s = 1, at m' = 1
    "1:-16,2:8",      # s = 2
    "1:-18,3:6",      # s = 3
    "1:-3,3:1",       # s = 3 with exponent gcd 1
    "2:-3,3:2",       # m' = 2, s = 3
    "4:-3,6:2",       # m' = 2 over the scale gcd 2
    "2:-2,5:8",       # m' = 2, s = 1, on the half grid
    "1:-2,2:5,4:-2",  # s = 2, and a negative scale past the leading one
    "1:-24",          # only negative terms: P = 1/prod (1 - q^k)
    "1:-48",
    "3:-8",
    "1:-4,2:8",       # the half grid
])
def test_leading_negative_scale_is_divided_out(text):
    # a negative exponent at P's leading scale is divided out of the other
    # scales' product; the precisions start two below the valuation, pass
    # through the one that leaves P a single slot, and go 30 slots deep
    quotient = _quotient_of(text)
    assert quotient.terms[0][1] < 0
    low = math.floor(quotient.valuation)
    oracle = naive_eta_product_part(quotient.terms, 32)
    for prec in range(low - 2, low + 31):
        _assert_matches_naive(quotient, prec, oracle)
    # P of one slot: the leading monomial alone
    first = eta_expand(quotient, low + 1)
    assert first.items() == [(quotient.valuation, 1)]


def test_catalogue_leaves_with_a_negative_leading_scale_at_720():
    # the expand workload's depth and one slot either side of it
    leaves = [q for _, q in eta_leaves() if q.terms[0][1] < 0]
    assert len(leaves) == 7
    for quotient in leaves:
        oracle = naive_eta_product_part(quotient.terms, 721 - quotient.valuation)
        for prec in (719, 720, 721):
            _assert_matches_naive(quotient, prec, oracle)


@st.composite
def quotients(draw):
    """Scales 1..12, exponents -30..30; the scale-1 exponent puts sum m*r_m
    in the drawn class mod 24: integral, half-integral or 1/24 valuation."""
    terms = draw(st.dictionaries(st.integers(2, 12), st.integers(-30, 30),
                                 max_size=3))
    residue = draw(st.sampled_from([0, 12, 1]))
    weighted = sum(m * r for m, r in terms.items())
    terms[1] = (residue - weighted) % 24 - 24 * draw(st.booleans())
    return EtaQuotient(terms)


@settings(max_examples=150, deadline=None, database=None)
@given(quotients(), st.integers(-3, 60))
def test_expansion_matches_naive_product(quotient, offset):
    v = Fraction(quotient.valuation)
    prec = math.floor(v) + offset
    if v.denominator > 2:
        with pytest.raises(FractionalValuation):
            eta_expand(quotient, prec)
        return
    _assert_matches_naive(quotient, prec)


@st.composite
def scaled_quotients(draw):
    """A quotient on scales 1..4 with exponents -4..4, then its exponents
    times d and its scales times g: the expansion reads it as the primitive
    quotient raised to d (or a multiple of d) at q^g.  The scale-1 exponent
    puts 24 * valuation in the drawn class mod 24, integral or half-integral,
    when d*g lets it."""
    d = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 24]))
    g = draw(st.sampled_from([1, 2, 3]))
    base = draw(st.dictionaries(st.integers(2, 4), st.integers(-4, 4), max_size=2))
    residue = draw(st.sampled_from([0, 12]))
    weighted = sum(m * r for m, r in base.items())
    fits = sorted((r for r in range(-12, 12)
                   if d * g * (weighted + r) % 24 == residue), key=abs)
    if not fits:
        fits = sorted((r for r in range(-12, 12)
                       if d * g * (weighted + r) % 24 == 0), key=abs)
    base[1] = draw(st.sampled_from(fits[:2]))
    return EtaQuotient({g * m: d * r for m, r in base.items()})


@settings(max_examples=120, deadline=None, database=None)
@given(scaled_quotients(), st.integers(-2, 30))
def test_primitive_quotient_reduction_matches_naive_product(quotient, offset):
    _assert_matches_naive(quotient, math.floor(quotient.valuation) + offset)


@pytest.mark.parametrize("terms", [
    {3: 8},                            # a single term, valuation 1
    {2: 24},                           # a single term, d = 24 and g = 2
    {1: -24},                          # every exponent negative
    {1: -8, 2: -8},                    # every exponent negative, two scales
    {1: -8, 2: 16},                    # mixed signs, d = 8
    {1: -6, 3: 18},                    # mixed signs, d = 6
    {1: 2, 2: -4, 3: -6, 6: 12},       # mixed signs, d = 2
    {2: -4, 4: 8},                     # mixed signs, d = 4 and g = 2
    {3: 4},                            # d = 4 on the half grid
    {1: -6, 3: 6},                     # mixed signs, d = 6 on the half grid
    {2: 2, 4: 2},                      # d = 2 and g = 2 on the half grid
    {},                                # the empty quotient
])
def test_primitive_quotient_cases(terms):
    quotient = EtaQuotient(terms)
    v = quotient.valuation
    for prec in range(math.floor(v) - 1, math.floor(v) + 26):
        _assert_matches_naive(quotient, prec)


@pytest.mark.parametrize("terms", [
    {1: -8, 2: 16},                    # scale 2, d = 8
    {1: 10, 2: 1},                     # scale 2, d = 1, half grid
    {1: -6, 3: 18},                    # scale 3, d = 6
    {1: 6, 3: 2},                      # scale 3, d = 2, half grid
    {1: -2, 5: 10},                    # scale 5, d = 2
    {1: 7, 5: 1},                      # scale 5, d = 1, half grid
    {1: 2, 10: 1},                     # scale 10, d = 1, half grid
    {1: 2, 2: -4, 5: -10, 10: 20},     # scales 2, 5 and 10 in one product
])
def test_each_scale_split_by_residue_class(terms):
    # the product part meets a scale-m factor f through mul_substituted,
    # which splits it into m products on about rel/m slots each, and those
    # take the Kronecker kernel from _KRONECKER_MIN slots on: rel = c*m - 1,
    # c*m or c*m + 1 for c one below, at and one above that size puts the
    # class products on both sides of the kernel choice
    quotient = EtaQuotient(terms)
    v = Fraction(quotient.valuation)
    rels = sorted({c * m + j for m, _ in quotient.terms if m > 1
                   for c in (_KRONECKER_MIN - 1, _KRONECKER_MIN, _KRONECKER_MIN + 1)
                   for j in (-1, 0, 1)})
    # the naive product below rel is a prefix of the one below max(rels)
    oracle = naive_eta_product_part(quotient.terms, rels[-1])
    for rel in rels:
        s = eta_expand(quotient, v + rel)
        assert s.prec_exponent == v + rel
        assert s.items() == [(v + i, c) for i, c in enumerate(oracle[:rel]) if c]


def test_parse_and_render():
    q = parse_atom("eta", " 2:16 , 1:-8 ")
    assert q == EtaQuotient({2: 16, 1: -8})
    assert parse_atom("eta", q.render()) == q
    with pytest.raises(ExprSyntaxError):
        parse_atom("eta", "2:16,2:-8")
    with pytest.raises(ExprSyntaxError):
        parse_atom("eta", "2-16")
