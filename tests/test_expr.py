"""Expression grammar: parsing, rendering, weight checking, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import series_coeffs
from cuspbase.catalog import (
    MEMO, catalog_identities, clear_caches, evaluate, get_catalog, named_forms,
)
from cuspbase.dimensions import delta_profile
from cuspbase.errors import (
    ExprSyntaxError, UnknownAtom, UnsupportedLevel, WeightMismatch,
)
from cuspbase.eta import EtaQuotient
from cuspbase.expr import (
    Add, Const, Delta, Eis, Gen, Lit, Mul, Pow, Subst, W2,
    add, expr_weight, mul, neg, render, scaled, sub,
)
from cuspbase.parse import parse_expr
from cuspbase.weierstrass import TorsionPoint


def test_parse_atoms():
    assert parse_expr("eta(2:16,1:-8)") == EtaQuotient({2: 16, 1: -8})
    assert parse_expr("E[2,4,0]") == Gen(2, 4, 0)
    assert parse_expr("E4(3)") == Eis(4, 3)
    assert parse_expr("E6(1)") == Eis(6, 1)
    assert parse_expr("Ew2(6)") == W2(6)
    assert parse_expr("wpa(2,0,5)") == TorsionPoint(2, 0, 5)
    assert parse_expr("delta(7)") == Delta(7)
    assert parse_expr("qser(1: 1,-8,12)") == Lit(1, (Fraction(1), Fraction(-8),
                                                     Fraction(12)))
    assert parse_expr("3/4") == Const(Fraction(3, 4))


def test_parse_structure():
    tree = parse_expr("E[2,4,0]*E[2,4,1]*(E[2,4,0]+16*E[2,4,1])")
    e0, e1 = Gen(2, 4, 0), Gen(2, 4, 1)
    assert tree == Mul((e0, e1, Add((e0, Mul((Const(Fraction(16)), e1))))))
    diff = parse_expr("wpa(2,0,5)-wpa(4,0,5)")
    assert diff == Add((TorsionPoint(2, 0, 5),
                        Mul((Const(Fraction(-1)), TorsionPoint(4, 0, 5)))))
    assert parse_expr("delta(4)@2") == Subst(Delta(4), 2)
    assert parse_expr("E[2,7,0]^3") == Pow(Gen(2, 7, 0), 3)


def test_round_trip():
    for text in (
        "eta(1:-8,2:16)",
        "E[2,4,0]*E[2,4,1]*(E[2,4,0]+16*E[2,4,1])",
        "wpa(2,0,5)-wpa(4,0,5)",
        "delta(4)@2",
        "1/16*(wpa(2,0,5)-wpa(4,0,5))^2",
        "qser(0: 1,24,24)",
        "-3*wpa(2,0,2)",
    ):
        tree = parse_expr(text)
        rendered = render(tree)
        assert rendered.replace(" ", "") == text.replace(" ", "")
        assert parse_expr(rendered) == tree
    # an eta quotient is a multiset of factors: the typed order is not kept
    assert parse_expr("eta(2:16,1:-8)") == parse_expr("eta(1:-8,2:16)")


def catalogue_expressions():
    out = []
    for n in range(1, 11):
        cat = get_catalog(n)
        out += list(named_forms(n).values()) + list(cat.generators.values())
        out += [delta_profile(n)[0]] + [a.expr for a in cat.span_atoms]
        for _, lhs, rhs, _ in catalog_identities(n):
            out += [lhs, rhs]
    return out


def test_render_round_trips_every_catalogue_expression():
    for tree in catalogue_expressions():
        again = parse_expr(render(tree))
        assert again == tree, render(tree)
        assert hash(again) == hash(tree), render(tree)


def test_render_keeps_signs_and_nesting():
    x, y = TorsionPoint(2, 0, 5), TorsionPoint(4, 0, 5)
    assert render(Mul((Const(-1), x, y))) == "-wpa(2,0,5)*wpa(4,0,5)"
    assert render(scaled(-1, 128, mul(x, y))) == "-1/128*(wpa(2,0,5)*wpa(4,0,5))"
    assert render(add(x, add(x, y))) == "wpa(2,0,5)+(wpa(2,0,5)+wpa(4,0,5))"
    assert render(Pow(Const(-3), 2)) == "(-3)^2"
    assert render(mul(x, Const(-3))) == "wpa(2,0,5)*(-3)"
    for tree in (Mul((Const(-1), x, y)), scaled(-1, 128, mul(x, y)),
                 add(x, add(x, y)), Pow(Const(-3), 2), mul(x, Const(-3))):
        assert parse_expr(render(tree)) == tree


# leaves by weight: scalars, then cheap weight-2 and weight-4 atoms
LEAVES = {
    0: [Const(2), Const(-1), Const(Fraction(-3, 4)), Const(Fraction(5, 3))],
    2: [TorsionPoint(2, 0, 5), W2(3), Gen(2, 4, 1), TorsionPoint(1, 1, 4)],
    4: [Eis(4, 1), Eis(4, 2), Delta(2), Gen(4, 5, 1)],
}


# LEAVES and eta quotients of valuation -1: a product with one of these
# must raise its partners' precision to reach its own
BELOW_ZERO_LEAVES = {
    0: LEAVES[0] + [EtaQuotient({1: 24, 2: -24})],
    2: LEAVES[2] + [EtaQuotient({1: 8, 2: 8, 4: -12})],
    4: LEAVES[4],
}


@st.composite
def trees(draw, weight, depth=3, leaves=LEAVES):
    """Expression trees of the given weight built with the catalogue's
    builders, with negative and fractional scalars at every depth."""
    op = draw(st.sampled_from(["leaf", "add", "mul", "scaled", "sub", "neg"]))
    if depth == 0 or op == "leaf":
        return draw(st.sampled_from(leaves[weight]))
    child = trees(weight, depth - 1, leaves)
    if op == "add":
        return add(*draw(st.lists(child, min_size=2, max_size=3)))
    if op == "sub":
        return sub(draw(child), draw(child))
    if op == "neg":
        return neg(draw(child))
    if op == "scaled":
        p = draw(st.integers(-9, 9).filter(bool))
        return scaled(p, draw(st.integers(1, 5)), draw(child))
    left = draw(st.sampled_from(range(0, weight + 1, 2)))
    return mul(draw(trees(left, depth - 1, leaves)),
               draw(trees(weight - left, depth - 1, leaves)))


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from([0, 2, 4]).flatmap(trees), st.integers(1, 8))
def test_render_round_trip_keeps_the_value(tree, prec):
    assert evaluate(parse_expr(render(tree)), prec) == evaluate(tree, prec)


@st.composite
def wrapped_trees(draw):
    """trees() over BELOW_ZERO_LEAVES, bare or under a power 0..3 or a
    scaling by 1..4."""
    weight = draw(st.sampled_from([0, 2, 4]))
    tree = draw(trees(weight, leaves=BELOW_ZERO_LEAVES))
    wrap = draw(st.sampled_from(["bare", "pow", "subst"]))
    if wrap == "pow":
        return Pow(tree, draw(st.integers(0, 3)))
    if wrap == "subst":
        return Subst(tree, draw(st.integers(1, 4)))
    return tree


@settings(max_examples=200, deadline=None, database=None)
@given(wrapped_trees(), st.integers(1, 8), st.integers(1, 8), st.randoms())
def test_more_precision_only_adds_coefficients(tree, lo, extra, rnd):
    # factors of negative valuation included: every frontier reaches the
    # request, so cold, warm and partly warm answers are one series
    clear_caches()
    high = evaluate(tree, lo + extra)
    clear_caches()
    cold = evaluate(tree, lo)
    assert high.truncate(lo) == cold
    # warm: the memo holds every subtree at lo + extra and serves lo from it
    clear_caches()
    evaluate(tree, lo + extra)
    assert evaluate(tree, lo) == cold
    # partly warm: the dropped subtrees are rebuilt from truncated children
    clear_caches()
    evaluate(tree, lo + extra)
    for key in [k for k in MEMO if rnd.random() < 0.5]:
        del MEMO[key]
    assert evaluate(tree, lo) == cold


def test_a_factor_below_zero_gives_the_same_answer_warm_and_cold():
    # the Lit is evaluated at two precisions in one pass (bare and under @2)
    # and the eta quotient has valuation -1
    tree = parse_expr("eta(1:-24)*qser(0: 1,2,3,4,5,6,7,8,9)"
                      "*qser(0: 1,2,3,4,5,6,7,8,9)@2")
    want = ["q^-1 + 26", "377*q", "3976*q^2", "33876*q^3"]
    for prec in range(1, 5):
        expected = " + ".join(want[:prec]) + f" + O(q^{prec})"
        clear_caches()
        assert evaluate(tree, prec).to_str() == expected
        clear_caches()
        evaluate(tree, 13)
        assert evaluate(tree, prec).to_str() == expected


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from([0, 2, 4]).flatmap(trees), st.integers(0, 8),
       st.integers(1, 8), st.integers(1, 8), st.integers(0, 8))
def test_a_power_by_halving_equals_repeated_products(tree, e, prec, extra, top):
    clear_caches()
    base = evaluate(tree, prec)
    expected = (base ** e).truncate(prec)
    clear_caches()
    assert evaluate(Pow(tree, e), prec) == expected
    # warm: powers kept at a higher precision serve this one by truncation.
    # The trees drawn here have nonnegative valuation: below zero, `expected`,
    # a power of the base known to prec, would fall short of prec.
    assert base.is_zero or base.valuation() >= 0
    clear_caches()
    evaluate(Pow(tree, top), prec + extra)
    assert evaluate(Pow(tree, e), prec) == expected


@pytest.mark.parametrize("tree", [Eis(4, 0), Subst(Eis(4, 1), 0),
                                  Subst(Eis(4, 1), -1)])
def test_nonpositive_scaling_is_a_value_error(tree):
    # a zero scale fails as a negative one does, not by dividing by zero
    with pytest.raises(ValueError, match="positive integer"):
        evaluate(tree, 5)


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("E[2,4")
    assert isinstance(info.value.position, int)
    with pytest.raises(ExprSyntaxError):
        parse_expr("1 + ")
    with pytest.raises(ExprSyntaxError):
        parse_expr("eta(2:16,2:-8)")  # duplicate scale
    with pytest.raises(UnknownAtom):
        parse_expr("zeta(3)")


def test_weight_checking():
    assert expr_weight(parse_expr("E[2,4,0]^3")) == 6
    assert expr_weight(parse_expr("delta(7)")) == 6
    assert expr_weight(parse_expr("qser(0: 1,2)")) is None
    with pytest.raises(WeightMismatch):
        expr_weight(parse_expr("E4(1)+E6(1)"))
    # every level has a structuring form, catalogued or not
    assert expr_weight(Delta(11)) == 10
    with pytest.raises(UnsupportedLevel):
        evaluate(Delta(11), 4)
    with pytest.raises(UnsupportedLevel):
        expr_weight(Delta(0))
    with pytest.raises(WeightMismatch):
        evaluate(parse_expr("delta(2)+E[2,2,0]"), 6)


def test_evaluate_examples():
    f82 = evaluate(get_catalog(2).seeds[0], 8)
    assert series_coeffs(f82, 8) == [0, 1, -8, 12, 64, -210, -96, 1016]
    f64 = evaluate(get_catalog(4).seeds[0], 10)
    assert series_coeffs(f64, 10) == [0, 1, 0, -12, 0, 54, 0, -88, 0, -99]
    d1 = evaluate(Delta(1), 5)
    assert series_coeffs(d1, 5) == [0, 1, -24, 252, -1472]
    f45 = evaluate(sub(Gen(4, 5, 1), Mul((Const(Fraction(10)), Gen(4, 5, 2)))), 3)
    assert series_coeffs(f45, 3) == [0, 1, -4]


def test_evaluate_scalar_expression():
    one = evaluate(parse_expr("1"), 4)
    assert series_coeffs(one, 1) == [1]


def test_evaluate_qser_literal_precision():
    lit = evaluate(parse_expr("qser(1: 1,-8,12)"), 10)
    assert lit.prec_exponent == 4  # knowledge stops after the stored terms
    assert series_coeffs(lit, 4) == [0, 1, -8, 12]


def test_discriminant_from_eisenstein():
    # classical cross-check: 1728 delta = E4^3 - E6^2
    lhs = evaluate(parse_expr("delta(1)"), 12)
    rhs = evaluate(parse_expr("1/1728*(E4(1)^3-E6(1)^2)"), 12)
    assert lhs == rhs
