"""Acceptance suite: one test per criterion, every comparison exact.

Each criterion prints its own PASS line (visible with `pytest -s`, and the
test fails loudly otherwise), so a run of this module doubles as the
acceptance report.
"""

import io

from conftest import naive_eta_product_part
from cuspbase.basis import echelonize, m_basis, s_basis, structure_decompose
from cuspbase.catalog import (
    catalog_identities, eta_leaves, evaluate, get_catalog, named_forms,
)
from cuspbase.cli import main
from cuspbase.dimensions import (
    count_cusps, delta_profile, dim_cusp, dim_modular, dim_shift_report,
    ladder_dim_report,
)
from cuspbase.eisenstein import weight2_level_combo
from cuspbase.eta import eta_expand, eta_profile
from cuspbase.expr import Pow, scaled, sub
from cuspbase.series import first_mismatch
from cuspbase.verify import (
    PRINTED_SERIES, PRINTED_TABLES, check_printed_series,
)
from cuspbase.weierstrass import TorsionPoint, wpa_expand


def test_criterion_1_dimension_tables():
    checked = 0
    for n, values in PRINTED_TABLES.items():
        for i, expected in enumerate(values):
            assert dim_cusp(n, 2 * (i + 1)) == expected, (n, 2 * (i + 1))
            checked += 1
    for n in range(1, 11):
        for w in range(4, 31, 2):
            assert dim_modular(n, w) - dim_cusp(n, w) == count_cusps(n)
    print(f"PASS criterion 1: {checked} tabulated dimensions reproduced, "
          "cusp codimension equals the cusp count")


def test_criterion_2_printed_expansions():
    for check_id in sorted(PRINTED_SERIES):
        result = check_printed_series(check_id)
        assert result.ok, f"{check_id}: {result.detail}"
    print(f"PASS criterion 2: {len(PRINTED_SERIES)} published expansions "
          "match through their last printed term")


def test_criterion_3_cross_representation_identities():
    # eta form of the level-5 structuring form vs the squared difference
    depth = 12
    squared = evaluate(
        scaled(1, 16, Pow(sub(TorsionPoint(2, 0, 5), TorsionPoint(4, 0, 5)), 2)),
        depth)
    assert first_mismatch(squared, evaluate(delta_profile(5)[0], depth)) is None
    # the lambda-combination vs the torsion value at level 2
    combo = weight2_level_combo(2, 16)
    assert first_mismatch(
        combo, wpa_expand(TorsionPoint(2, 0, 2), 16).scale(-3)) is None
    # the level-6 valuation-1 generator equals its published expansion
    e261 = evaluate(named_forms(6)["E2_6_1"], 8)
    assert [e261.coeff(i) for i in range(8)] == [0, 1, -1, 7, -5, 6, 5, 8]
    # the level-2 seed in product form equals its eta form
    f82 = evaluate(get_catalog(2).seeds[0], 12)
    assert first_mismatch(f82, eta_expand(
        delta_profile(2)[0] * _eta8(), 12)) is None
    # plus the rest of the catalogued identity corpus
    count = 4
    for n in range(1, 11):
        for check_id, lhs, rhs, _ in catalog_identities(n):
            assert first_mismatch(evaluate(lhs, 18), evaluate(rhs, 18)) \
                is None, check_id
            count += 1
    print(f"PASS criterion 3: {count} cross-representation identities exact")


def _eta8():
    from cuspbase.eta import EtaQuotient

    # q prod (1-q^k)^8 (1-q^2k)^8 relative to the level-2 structuring form:
    # {1:8, 2:8} = {2:16, 1:-8} * {1:16, 2:-8}
    return EtaQuotient({1: 16, 2: -8})


def test_criterion_4_structure_suite():
    for n in range(1, 11):
        rows = dim_shift_report(n, 50)
        assert all(ok for *_, ok in rows), f"shift identity at level {n}"
    k0_table = {1: 6, 2: 4, 3: 3, 4: 3, 5: 2, 6: 2, 7: 3, 8: 2, 9: 2, 10: 2}
    for n, k0 in k0_table.items():
        assert get_catalog(n).k0 == k0
        rows, constant_ok, _ = ladder_dim_report(n, k0)
        assert constant_ok and all(ok for *_, ok in rows), f"ladder at level {n}"
    for n in range(1, 11):
        _, rho, nu = delta_profile(n)
        for k in range(rho // 2 + 2, rho // 2 + 9):
            vals = s_basis(n, k).valuations
            for s in range(1, nu + 1):
                assert vals[s - 1] == s, (n, k, s)
    for n in range(1, 11):
        for k in range(2, 13):
            report = structure_decompose(n, k)
            assert report.total == report.expected, (n, k)
            assert report.basis_matches, (n, k)
    print("PASS criterion 4: shift identities (k <= 50), ladder constancy, "
          "valuation law, and materialized decompositions (k <= 12) all hold")


def test_criterion_5_basis_validity():
    for n in range(1, 11):
        for k in range(1, 13):
            for build, dim, space in (
                (m_basis, dim_modular, "full"),
                (s_basis, dim_cusp, "cusp"),
            ):
                b = build(n, k)
                assert len(b) == dim(n, 2 * k), (space, n, k)
                vals = b.valuations
                assert list(vals) == sorted(set(vals)), (space, n, k)
                assert all(e.leading_coefficient() == 1 for e in b.elements)
                again = echelonize(b.elements, len(b), b.prec,
                                   level=n, weight=2 * k, space=space)
                assert again.elements == b.elements, (space, n, k)
    print("PASS criterion 5: basis counts, valuations, unitarity and "
          "re-echelonization idempotence for all levels, k <= 12")


def test_criterion_6_oracle_equivalence():
    depth = 200
    for name, quotient in eta_leaves():
        _, v = eta_profile(quotient)
        fast = eta_expand(quotient, v + depth)
        slow = naive_eta_product_part(quotient.terms, depth)
        got = [fast.coeff(v + i) for i in range(depth)]
        assert got == slow, f"oracle mismatch for {name}"
    print(f"PASS criterion 6: naive factor-by-factor expander agrees with "
          f"the fast path on {len(eta_leaves())} catalogue atoms "
          f"to {depth} coefficients")


def test_criterion_7_negative_control(monkeypatch):
    for check_id, slot in (("printed:delta_2", 2), ("printed:E2_9_1", 4)):
        corrupted = dict(PRINTED_SERIES)
        level, name, first, coeffs = corrupted[check_id]
        broken = list(coeffs)
        broken[slot] += 1
        corrupted[check_id] = (level, name, first, broken)
        monkeypatch.setattr("cuspbase.verify.PRINTED_SERIES", corrupted)
        out = io.StringIO()
        code = main(["verify", "--level", str(level), "--suite", "paper"],
                    out=out)
        assert code == 1
        fail_line = next(l for l in out.getvalue().split("\n")
                         if l.startswith("FAIL"))
        assert check_id in fail_line
        assert f"exponent {first + slot}" in fail_line
        monkeypatch.setattr("cuspbase.verify.PRINTED_SERIES", PRINTED_SERIES)
    print("PASS criterion 7: corrupted catalogue coefficients fail with the "
          "correct first-mismatch exponent")
