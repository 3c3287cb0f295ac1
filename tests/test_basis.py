"""Echelonization, full/cusp bases, ladder dispatch, membership, decomposition."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import series_coeffs
from cuspbase import basis as basis_mod
from cuspbase import catalog as catalog_mod
from cuspbase.basis import (
    EchelonBasis, echelonize, m_basis, s_basis, structure_decompose,
    verify_membership,
)
from cuspbase.catalog import SpanAtom, evaluate, get_catalog
from cuspbase.dimensions import (
    default_prec, delta_profile, dim_cusp, dim_modular,
)
from cuspbase.eisenstein import eisenstein_series
from cuspbase.errors import (
    IncompleteSpan, InsufficientPrecision, LadderConditionFailed, NotInSpan,
    RankDeficient, RankExcess, UnsupportedLevel,
)
from cuspbase.expr import Gen, Pow, expr_weight
from cuspbase.series import QSeries


def test_echelonize_two_eisenstein_lifts():
    # weight 4 at level 3 is spanned by E4(tau) and E4(3 tau)
    prec = 10
    e4 = eisenstein_series(4, prec)
    rows = [e4, e4.substitute_q_power(3).truncate(prec)]
    basis = echelonize(rows, 2, prec, level=3, weight=4)
    assert basis.valuations == (0, 1)
    assert all(e.leading_coefficient() == 1 for e in basis.elements)
    # reduced: the valuation-0 row has no q^1 term
    assert basis.elements[0].coeff(1) == 0


def test_echelonize_single_row_and_reduction():
    s = QSeries.make(1, [1, 5, 7], prec=6)
    basis = echelonize([s], 1, 6, level=2, weight=8)
    assert basis.elements == (s.truncate(6),)


def test_echelonize_rank_errors():
    prec = 8
    e4 = eisenstein_series(4, prec)
    with pytest.raises(RankDeficient):
        echelonize([e4, e4.scale(2)], 2, prec, level=1, weight=4)
    with pytest.raises(RankExcess):
        echelonize([e4, e4.substitute_q_power(2).truncate(prec)], 1, prec,
                   level=4, weight=4)
    with pytest.raises(InsufficientPrecision):
        echelonize([e4.truncate(2)], 1, None, level=1, weight=40)


def naive_rref(rows, width):
    """Nonzero rows of the reduced row echelon form of a dense rational
    matrix, by textbook Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(width):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        piv = m[rank][col]
        m[rank] = [x / piv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return m[:rank]


COEFF = st.sampled_from([0, 0, 0, 1, -1, 2]) | st.fractions(
    min_value=-9, max_value=9, max_denominator=12)


@st.composite
def row_sets(draw):
    """Dense rational rows with their own frontiers (None: exact), some
    with leading zeros, zero rows, duplicates and combinations of others."""
    width = draw(st.integers(2, 9))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combo"]))
        if kind == "fresh" or not rows:
            lead = draw(st.integers(0, width))
            dense = [0] * lead + draw(st.lists(COEFF, min_size=1, max_size=width + 3))
        elif kind == "zero":
            dense = []
        elif kind == "copy":
            dense = list(draw(st.sampled_from(rows))[0])
        else:
            picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3))
            dense = [0] * max(len(src) for src, _ in picks)
            for src, _ in picks:
                c = draw(COEFF)
                for i, x in enumerate(src):
                    dense[i] += c * x
        prec = draw(st.sampled_from([None, width, width + 1, width + 3]))
        if prec is not None:
            dense = dense[:prec]
        rows.append((dense, prec))
    arg = draw(st.sampled_from([None, width]))
    return rows, arg


@settings(max_examples=300, deadline=None, database=None)
@given(row_sets(), st.integers(0, 7))
def test_echelonize_matches_naive_gauss_jordan(case, expected_dim):
    rows, arg = case
    precs = [p for _, p in rows if p is not None] + ([arg] if arg else [])
    assume(precs)
    common = min(precs)
    forms = [QSeries(1, 0, dense, prec) for dense, prec in rows]
    truncated = [(dense + [0] * common)[:common] for dense, _ in rows]
    rref = naive_rref(truncated, common)
    if len(rref) > expected_dim:
        with pytest.raises(RankExcess):
            echelonize(forms, expected_dim, arg, level=1, weight=0)
    elif len(rref) < expected_dim:
        with pytest.raises(RankDeficient) as info:
            echelonize(forms, expected_dim, arg, level=1, weight=0)
        assert (info.value.rank, info.value.expected) == (len(rref), expected_dim)
    else:
        got = echelonize(forms, expected_dim, arg, level=1, weight=0)
        want = tuple(QSeries(1, 0, r, common) for r in rref)
        assert got == EchelonBasis(1, 0, "full", want, common)


def test_echelonize_back_substitutes_through_unit_and_non_unit_pivots(monkeypatch):
    # pivots led by 1, -1, 2 and 3, each with zeros at the later pivot
    # columns so that it keeps its lead, and a first row that meets all four:
    # it stays led by +-1 (content 1, no content pass) after the first two
    # and by a non-unit (a content pass) after the last two
    rows = [
        [1, 1, 1, 1, 1, 1, 1],
        [0, 1, 0, 0, 0, 2, 5],
        [0, 0, -1, 0, 0, 3, 1],
        [0, 0, 0, 2, 0, 1, 4],
        [0, 0, 0, 0, 3, 1, 2],
    ]
    combined = []
    combine = basis_mod._combine

    def recording(vals, holder, offset):
        out = combine(vals, holder, offset)
        combined.append((holder[0], out[0]))
        return out

    monkeypatch.setattr(basis_mod, "_combine", recording)
    got = echelonize([QSeries(1, 0, r, 7) for r in rows], 5, 7, level=1, weight=0)
    assert combined == [(1, 1), (-1, -1), (2, -2), (3, -6)]
    want = tuple(QSeries(1, 0, r, 7) for r in naive_rref(rows, 7))
    assert got == EchelonBasis(1, 0, "full", want, 7)


def test_span_atoms_are_unitary_of_declared_weight_and_valuation():
    for n in range(1, 11):
        for atom in get_catalog(n).span_atoms:
            f = evaluate(atom.expr, atom.valuation + 4)
            assert f.valuation() == atom.valuation, (n, atom.name)
            assert f.leading_coefficient() == 1, (n, atom.name)
            assert expr_weight(atom.expr) == atom.weight, (n, atom.name)


def test_staircase_covers_every_valuation_once():
    # combinatorics only: one exponent vector for each valuation 0..d-1 of
    # M_2k, and each of weight 2k with the valuation it is filed under
    for n in range(1, 11):
        atoms = get_catalog(n).span_atoms
        for k in range(61):
            chosen = basis_mod._staircase(atoms, k)
            assert sorted(chosen) == list(range(dim_modular(n, 2 * k))), (n, k)
            for val, vec in chosen.items():
                assert sum(e * a.weight for e, a in zip(vec, atoms)) == 2 * k
                assert sum(e * a.valuation for e, a in zip(vec, atoms)) == val


def incomplete_span_with_level3_atoms(monkeypatch, atoms, k):
    """The IncompleteSpan that m_basis(3, k) raises with level 3's span
    atoms replaced by ``atoms``."""
    doctored = get_catalog(3).replace(span_atoms=tuple(atoms))
    monkeypatch.setitem(catalog_mod._CATALOGS, 3, doctored)
    catalog_mod.clear_caches()
    try:
        with pytest.raises(IncompleteSpan) as info:
            m_basis(3, k)
    finally:
        catalog_mod.clear_caches()
    return info.value


@pytest.mark.parametrize("k, rank, expected", [(2, 1, 2), (3, 2, 3), (5, 2, 4)])
def test_incomplete_span_when_a_valuation_is_unreachable(monkeypatch, k, rank,
                                                         expected):
    # without its valuation-1 atom, level 3 reaches only even valuations
    atoms = [a for a in get_catalog(3).span_atoms if a.valuation != 1]
    err = incomplete_span_with_level3_atoms(monkeypatch, atoms, k)
    assert (err.level, err.weight, err.rank, err.expected) == (3, 2 * k, rank, expected)


def test_incomplete_span_when_an_atom_lies_about_its_valuation(monkeypatch):
    # an atom filed under valuation 1 that is really E2^2 duplicates the
    # valuation-0 row, so elimination falls a rank short
    fake = SpanAtom("fake", Pow(Gen(2, 3, 0), 2), 1)
    atoms = [fake if a.valuation == 1 else a for a in get_catalog(3).span_atoms]
    err = incomplete_span_with_level3_atoms(monkeypatch, atoms, 2)
    assert (err.rank, err.expected) == (1, 2)
    assert isinstance(err.__cause__, RankDeficient)


def test_level8_weight4_monomials():
    basis = m_basis(8, 2)
    assert len(basis) == 5
    assert basis.valuations == (0, 1, 2, 3, 4)


def test_m_basis_examples():
    b = m_basis(1, 6)
    assert len(b) == 2 and b.valuations == (0, 1)
    b = m_basis(4, 3)
    assert len(b) == 4 and b.valuations == (0, 1, 2, 3)
    b = m_basis(2, 2)
    assert len(b) == 2 and b.valuations == (0, 1)


def test_m_basis_counts_all_levels():
    for n in range(1, 11):
        for k in range(1, 13):
            b = m_basis(n, k)
            assert len(b) == dim_modular(n, 2 * k), (n, k)
            vals = b.valuations
            assert vals == tuple(range(len(vals))), (n, k)


def test_weight_zero_keeps_the_sturm_floor():
    # M_0 is the constants: the staircase yields the one row 1, and a
    # precision at or below the Sturm bound raises as at every other weight
    for n in (1, 3, 10):
        b = m_basis(n, 0, 2)
        assert b.elements == (QSeries.one(2),) and b.prec == 2
        for prec in (1, 0, -2):
            with pytest.raises(InsufficientPrecision):
                m_basis(n, 0, prec)


def test_s_basis_examples():
    c = s_basis(2, 4)
    assert len(c) == 1
    assert series_coeffs(c.elements[0], 8) == [0, 1, -8, 12, 64, -210, -96, 1016]
    for k in range(1, 6):
        assert len(s_basis(1, k)) == 0
    c = s_basis(7, 3)
    assert c.valuations == (1, 2, 3)
    c = s_basis(5, 5)
    assert len(c) == 3 == dim_cusp(5, 10)


def test_s_basis_counts_and_staircase():
    for n in range(1, 11):
        for k in range(1, 13):
            c = s_basis(n, k)
            assert len(c) == dim_cusp(n, 2 * k), (n, k)
            vals = c.valuations
            assert vals == tuple(range(1, len(vals) + 1)), (n, k)
            assert all(e.leading_coefficient() == 1 for e in c.elements)


def test_s_basis_idempotent():
    for n, k in ((2, 6), (6, 5), (7, 6), (7, 7), (10, 4), (9, 8)):
        c = s_basis(n, k)
        again = echelonize(c.elements, len(c), c.prec, level=n, weight=2 * k,
                           space="cusp")
        assert again.elements == c.elements


def test_s_basis_deterministic():
    first = s_basis(10, 5)
    catalog_mod.clear_caches()
    second = s_basis(10, 5)
    assert first.elements == second.elements
    assert first.prec == second.prec


def test_unsupported_level():
    with pytest.raises(UnsupportedLevel):
        s_basis(26, 4)
    with pytest.raises(UnsupportedLevel):
        m_basis(11, 2)


def test_ladder_condition_failure_raises(monkeypatch):
    # force a wrong ladder start on the level-7 catalogue: a single-seed
    # rung of the weight-4 base seed (so k0=2) must trip the dimension
    # guard at k=6
    cat = get_catalog(7)
    doctored = cat.replace(seeds=(cat.base_seed,), base_seed=None)
    assert doctored.k0 == 2
    monkeypatch.setitem(catalog_mod._CATALOGS, 7, doctored)
    catalog_mod.clear_caches()
    try:
        with pytest.raises(LadderConditionFailed):
            s_basis(7, 6)
    finally:
        catalog_mod.clear_caches()


def test_level7_single_rung_spans_the_base_seed_products():
    # for k not divisible by 3, S_{2k}(Gamma0(7)) = F_{4,7} * M_{2(k-2)};
    # the one rung from k0 = 3 must span exactly that space
    f47 = get_catalog(7).base_seed
    for k in range(4, 31):
        if k % 3 == 0:
            continue
        c = s_basis(7, k)
        low = m_basis(7, k - 2, c.prec)
        assert len(c) == len(low) == dim_modular(7, 2 * (k - 2)), k
        seed = evaluate(f47, int(c.prec))
        for m in low.elements:
            verify_membership(seed * m, c)


@pytest.mark.parametrize("n, k", [(1, 7), (7, 2), (1, 5), (3, 2)])
def test_basis_below_the_floor_names_the_requested_weight(n, k):
    # empty or not, a space asked for at or below its Sturm bound raises,
    # and the message names that space's weight, not a carrier's
    catalog_mod.clear_caches()
    with pytest.raises(InsufficientPrecision,
                       match=f"for weight {2 * k} level {n}$"):
        s_basis(n, k, 1)


@pytest.mark.parametrize("space", ["full", "cusp"])
def test_cached_basis_truncates_to_fresh_build(space):
    # a basis kept at a higher precision serves lower requests by
    # truncation; that must equal a build made at the lower precision
    build = m_basis if space == "full" else s_basis
    for n in range(1, 11):
        for k in range(1, 13):
            prec = default_prec(n, 2 * k)
            catalog_mod.clear_caches()
            build(n, k, prec + 12)
            served = build(n, k, prec)
            assert catalog_mod.MEMO[(space, n, k)].prec == prec + 12
            catalog_mod.clear_caches()
            fresh = build(n, k, prec)
            assert served.elements == fresh.elements, (n, k)
            assert served.prec == fresh.prec == prec, (n, k)


def test_verify_membership():
    c = s_basis(2, 4)
    f82 = evaluate(get_catalog(2).seeds[0], int(c.prec))
    assert verify_membership(f82, c) == (1,)
    with pytest.raises(NotInSpan) as info:
        verify_membership(QSeries.one(prec=int(c.prec)), c)
    assert info.value.exponent == 0
    with pytest.raises(InsufficientPrecision):
        verify_membership(f82.truncate(1), c)


def test_verify_membership_square():
    # F_{4,5}^2 sits in S_8(Gamma0(5)); solve and re-multiply to confirm
    c = s_basis(5, 4)
    prec = int(c.prec)
    f45 = evaluate(get_catalog(5).seeds[0], prec)
    square = (f45 * f45).truncate(prec)
    coords = verify_membership(square, c)
    recomposed = QSeries.zero(prec=prec)
    for x, e in zip(coords, c.elements):
        recomposed = recomposed + e.scale(x)
    assert recomposed == square


def test_structure_decompose_examples():
    r = structure_decompose(1, 12)
    assert (r.ladder_steps, r.base_half_weight) == (1, 6)
    assert r.piece_dims == (1, 1) and r.total == r.expected == 2
    assert r.basis_matches
    r = structure_decompose(3, 5)
    assert r.piece_dims == (0, 2) and r.total == 2
    assert r.basis_matches
    r = structure_decompose(6, 3)
    assert r.piece_dims == (1, 2) and r.total == 3
    assert r.basis_matches


def test_delta_multiplication_lands_above_valuation():
    # multiplying the cusp basis by the structuring form lands in the next
    # ladder space, above its valuation
    for n in (2, 5, 7):
        quotient, rho, nu = delta_profile(n)
        k0 = get_catalog(n).k0
        low = s_basis(n, k0)
        high = s_basis(n, k0 + rho // 2)
        delta = evaluate(quotient, int(high.prec))
        for e in low.elements:
            prod = delta * e
            assert prod.valuation() > nu
            verify_membership(prod, high)
