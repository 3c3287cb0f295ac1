"""Certification suite: tables, printed expansions, identities, structure.

Every check compares exact coefficients and yields one CheckResult with a
stable id.  The printed-series table below is the reference corpus; the
checks re-derive each series from its catalogued closed form and compare
through the last recorded term, reporting the first mismatching exponent
on failure (which is what makes single-coefficient corruption detectable).
"""

from __future__ import annotations

from fractions import Fraction

from . import catalog as _catalog
from ._record import Record
from .basis import (
    echelonize, m_basis, s_basis, structure_decompose, verify_membership,
)
# public entry points
from .catalog import SUPPORTED_LEVELS, clear_caches  # noqa: F401
from .dimensions import (
    count_cusps, default_prec, delta_profile, dim_cusp, dim_modular,
    dim_shift_report, ladder_dim_report, sturm_bound,
)
from .errors import NotInSpan
from .eta import eta_profile
from .expr import Gen, expr_weight, sub, scaled
from .series import first_mismatch


class CheckResult(Record):
    __slots__ = ("check_id", "ok", "detail")


# dim S_{2k} rows exactly as tabulated, starting at weight 2
PRINTED_TABLES = {
    1: [0, 0, 0, 0, 0, 1, 0, 1, 1],
    2: [0, 0, 0, 1, 1, 2, 2, 3, 3],
    3: [0, 0, 1, 1, 2, 3, 3, 4, 5, 5],
    4: [0, 0, 1, 2, 3, 4, 5, 6],
    5: [0, 1, 1, 3, 3, 5, 5, 7],
    6: [0, 1, 3, 5, 7, 9, 11, 13],
    7: [0, 1, 3, 3, 5, 7, 7, 9],
    8: [0, 1, 3, 5, 7, 9, 11, 13],
    9: [0, 1, 3, 5, 7, 9, 11, 13],
    10: [0, 3, 5, 9, 11, 15, 17, 21],
}

# (level, form name, first exponent, dense published coefficients)
PRINTED_SERIES = {
    "printed:delta_2": (2, "delta_2", 1, [1, 8, 28, 64]),
    "printed:E4_2_0": (2, "E4_2_0", 0, [1, 48, 624, 1344, 5232]),
    "printed:F8_2_1": (2, "F8_2_1", 1, [1, -8, 12, 64, -210, -96, 1016]),
    "printed:delta_3": (3, "delta_3", 2, [1, 6, 27, 80, 207, 432, 863, 1512]),
    "printed:E2_4_0": (4, "E2_4_0", 0, [1, -8, 24, -32, 24, -48, 96, -64, 24]),
    "printed:E2_4_1": (4, "E2_4_1", 1, [1, 0, 4, 0, 6, 0, 8, 0, 13]),
    "printed:F6_4_1": (4, "F6_4_1", 1, [1, 0, -12, 0, 54, 0, -88, 0, -99]),
    "printed:F4_5_1": (5, "F4_5_1", 1, [1, -4]),
    "printed:delta_6": (6, "delta_6", 2, [1, -2, 3, 0, -1, 0, 7, -8, 6]),
    "printed:E2_6_0": (6, "E2_6_0", 0, [1, 24, 24, 96, 24, 144, 96, 192]),
    "printed:E2_6_1": (6, "E2_6_1", 1, [1, -1, 7, -5, 6, 5, 8]),
    "printed:E6_7_0": (7, "E6_7_0", 0,
                       [1, 12, 84, 400, 1476, 4392, 11184, 24780, 49668]),
    "printed:E6_7_1": (7, "E6_7_1", 1, [1, 9, 48, 181, 546, 1392, 3067, 6081]),
    "printed:E6_7_2": (7, "E6_7_2", 2, [1, 7, 32, 95, 241, 503, 1017]),
    "printed:E2_8_0": (8, "E2_8_0", 0, [1, -8, 24, -32, 24, -48, 96, -64, 24]),
    "printed:E2_8_1": (8, "E2_8_1", 1, [1, 0, 4, 0, 6, 0, 8, 0, 13]),
    "printed:E2_8_2": (8, "E2_8_2", 2, [1, 0, 0, 0, 4, 0, 0, 0]),
    "printed:E2_9_0": (9, "E2_9_0", 0,
                       [1, 0, 0, 12, 0, 0, 36, 0, 0, 12, 0, 0, 84, 0, 0, 72, 0, 0]),
    "printed:E2_9_1": (9, "E2_9_1", 1, [1, 3, 0, 7, 6, 0, 8, 15, 0]),
    "printed:delta_9": (9, "delta_9", 2,
                        [1, 0, 0, 2, 0, 0, 5, 0, 0, 4, 0, 0, 8, 0, 0]),
}


# -- reference-corpus checks ---------------------------------------------------

def check_dimension_table(N):
    values = PRINTED_TABLES[N]
    bad = []
    for i, expected in enumerate(values):
        w = 2 * (i + 1)
        actual = dim_cusp(N, w)
        if actual != expected:
            bad.append((w, expected, actual))
    if bad:
        detail = "; ".join(f"weight {w}: table {e}, formula {a}" for w, e, a in bad)
        return CheckResult(f"dims:table:N={N}", False, detail)
    return CheckResult(f"dims:table:N={N}", True, f"{len(values)} entries match")


def check_cusp_codimension(N):
    eps = count_cusps(N)
    bad = [
        w for w in range(4, 31, 2)
        if dim_modular(N, w) - dim_cusp(N, w) != eps
    ]
    ok = not bad
    detail = f"dim M - dim S = {eps} for weights 4..30" if ok \
        else f"codimension breaks at weights {bad}"
    return CheckResult(f"dims:codim:N={N}", ok, detail)


def check_printed_series(check_id):
    N, name, first, coeffs = PRINTED_SERIES[check_id]
    form = _catalog.named_forms(N)[name]
    prec = max(default_prec(N, 2), first + len(coeffs) + 1)
    actual = _catalog.evaluate(form, prec)
    for i, c in enumerate(coeffs):
        e = first + i
        got = actual.coeff(e)
        if got != Fraction(c):
            return CheckResult(
                check_id, False,
                f"first mismatch at exponent {e}: published {c}, computed {got}",
            )
    return CheckResult(check_id, True,
                       f"{name} matches through q^{first + len(coeffs) - 1}")


def check_identity(check_id, N, lhs, rhs, weight):
    # Sturm depth certifies the identity; the extra headroom also guards the
    # expansion code itself at low weights, where the bound is only a couple
    # of coefficients
    depth = max(sturm_bound(N, weight), 16) + 1
    a = _catalog.evaluate(lhs, depth)
    b = _catalog.evaluate(rhs, depth)
    e = first_mismatch(a, b)
    if e is None:
        return CheckResult(check_id, True, f"equal through q^{depth - 1}")
    return CheckResult(
        check_id, False,
        f"first mismatch at exponent {e}: {a.coeff(e)} vs {b.coeff(e)}",
    )


def check_seed_alt_reading():
    """Level 9 seed under the literal cross-level subscripts vs the corrected read.

    The corrected reading (all atoms at level 9) is the catalogued seed; the
    literal one mixes level-8 atoms.  Both are expanded and the first
    divergence recorded -- informational, the corrected reading is in force.
    """
    prec = default_prec(9, 4)
    corrected = _catalog.evaluate(_catalog.get_catalog(9).seeds[0], prec)
    literal = _catalog.evaluate(
        sub(sub(Gen(4, 9, 1), scaled(3, 1, Gen(4, 8, 2))),
            scaled(27, 1, Gen(4, 8, 4))),
        prec,
    )
    e = first_mismatch(corrected, literal)
    return CheckResult(
        "seed:F4_9:readings", True,
        f"corrected level-9 reading in force; literal cross-level reading "
        f"diverges from it at exponent {e}",
    )


def check_ladder_offsets(N):
    """The catalogue's ladder start against its base seed's half-weight:
    the start gives a constant difference, the base seed's does not."""
    cat = _catalog.get_catalog(N)
    low = expr_weight(cat.base_seed) // 2
    _, ok_start, diffs_start = ladder_dim_report(N, cat.k0)
    _, ok_low, diffs_low = ladder_dim_report(N, low)
    return CheckResult(
        f"ladder:offset:N={N}", ok_start and not ok_low,
        f"start {cat.k0} gives constant difference {diffs_start[0]}; "
        f"start {low} gives nonconstant {sorted(set(diffs_low))}",
    )


# perfbench/tracing.py wraps this check under its earlier name
check_ladder_offsets_level7 = check_ladder_offsets


# -- structural checks -----------------------------------------------------------

def check_dim_shift(N):
    rows = dim_shift_report(N, 50)
    bad = [(k, e, a) for k, e, a, ok in rows if not ok]
    if bad:
        return CheckResult(f"dims:shift:N={N}", False, f"failures at {bad}")
    return CheckResult(f"dims:shift:N={N}", True, "holds for k <= 50")


def check_ladder_dims(N):
    k0 = _catalog.get_catalog(N).k0
    rows, constant_ok, diffs = ladder_dim_report(N, k0)
    row_ok = all(ok for _, _, _, ok in rows)
    ok = row_ok and constant_ok
    detail = f"start {k0}, difference constant at {diffs[0]}" if ok else \
        f"start {k0}, rows {rows}, diffs {diffs}"
    return CheckResult(f"ladder:dims:N={N}", ok, detail)


def check_seed_valuation_law(N):
    """Below-the-diagonal valuations: element s of the cusp basis has
    valuation s for s <= nu, once the weight passes the structuring form."""
    _, rho, nu = delta_profile(N)
    start = rho // 2 + 2
    bad = []
    for k in range(start, rho // 2 + 9):
        vals = s_basis(N, k).valuations
        for s in range(1, min(nu, len(vals)) + 1):
            if vals[s - 1] != s:
                bad.append((k, s, vals[s - 1]))
    if bad:
        return CheckResult(f"ladder:valuations:N={N}", False,
                           f"(k, s, valuation) failures: {bad}")
    return CheckResult(
        f"ladder:valuations:N={N}", True,
        f"valuation(element s) = s for s <= {nu}, k in {start}..{rho // 2 + 8}",
    )


def check_delta_multiplication(N, k_max=10):
    """delta * S_{2k} lands in the span of S_{2k+rho} above valuation nu."""
    quotient, rho, nu = delta_profile(N)
    cat = _catalog.get_catalog(N)
    bad = []
    for k in range(cat.k0, k_max + 1):
        low = s_basis(N, k)
        if not len(low):
            continue
        high = s_basis(N, k + rho // 2)
        delta = _catalog.evaluate(quotient, high.prec)
        for e in low.elements:
            prod = delta * e
            if prod.valuation() <= nu:
                bad.append((k, "valuation", prod.valuation()))
                continue
            try:
                verify_membership(prod, high)
            except NotInSpan as exc:
                bad.append((k, "unmatched exponent", exc.exponent))
    if bad:
        return CheckResult(f"ladder:delta_mul:N={N}", False, f"failures: {bad}")
    return CheckResult(f"ladder:delta_mul:N={N}", True,
                       f"membership holds for k in {cat.k0}..{k_max}")


def check_decompositions(N):
    # downward in k: a decomposition asks for the lower cusp bases at more
    # coefficients than their own checks do, so each is built at its
    # highest precision first
    bad = []
    for k in range(12, 1, -1):
        report = structure_decompose(N, k)
        if not report.basis_matches:
            bad.append((k, report.total, report.expected, report.basis_matches))
    if bad:
        bad.reverse()
        return CheckResult(f"structure:decompose:N={N}", False, f"failures: {bad}")
    return CheckResult(f"structure:decompose:N={N}", True,
                       "dimension sums match for k <= 12 "
                       "and materialized bases match")


def check_basis_validity(N):
    bad = []
    for k in range(1, 13):
        for space, build, dim in (
            ("full", m_basis, dim_modular),
            ("cusp", s_basis, dim_cusp),
        ):
            b = build(N, k)
            expected = dim(N, 2 * k)
            if len(b) != expected:
                bad.append((space, k, "count", len(b), expected))
                continue
            vals = b.valuations
            if list(vals) != sorted(set(vals)):
                bad.append((space, k, "valuations", vals))
            if any(e.leading_coefficient() != 1 for e in b.elements):
                bad.append((space, k, "leading coefficient"))
            again = echelonize(b.elements, expected, b.prec,
                               level=N, weight=2 * k, space=space)
            if again.elements != b.elements:
                bad.append((space, k, "idempotence"))
    if bad:
        return CheckResult(f"basis:validity:N={N}", False, f"failures: {bad}")
    return CheckResult(f"basis:validity:N={N}", True,
                       "counts, valuations, unitarity, idempotence for k <= 12")


def check_catalog_profile(N):
    """The structuring form's weight and valuation, read off its exponents,
    agree with the derived profile: nu from the cusp-order solve, rho from
    the valence count.  Its series starts at q^nu with coefficient 1.  The
    detail keeps the word "recorded" for the derived pair, so the
    certification output stays byte-identical."""
    quotient, rho, nu = delta_profile(N)
    w, v = eta_profile(quotient)
    series = _catalog.evaluate(quotient, v + 8)
    ok = (w, v) == (rho, nu) and series.valuation() == v \
        and series.leading_coefficient() == 1
    return CheckResult(
        f"catalog:profile:N={N}", ok,
        f"eta profile ({w}, {v}), recorded ({rho}, {nu}), "
        f"series valuation {series.valuation()}",
    )


def check_generators_unitary(N):
    cat = _catalog.get_catalog(N)
    bad = []
    for (w, s), form in sorted(cat.generators.items()):
        series = _catalog.evaluate(form, default_prec(N, w))
        if series.valuation() != s or series.leading_coefficient() != 1:
            bad.append((w, s, series.valuation(), series.leading_coefficient()))
    if bad:
        return CheckResult(f"catalog:generators:N={N}", False,
                           f"(weight, index, valuation, lead) failures: {bad}")
    return CheckResult(f"catalog:generators:N={N}", True,
                       f"{len(cat.generators)} generators unitary with valuation = index")


def check_seeds_unitary(N):
    cat = _catalog.get_catalog(N)
    bad = []
    for i, seed in enumerate(cat.seeds, start=1):
        series = _catalog.evaluate(seed, default_prec(N, 2 * cat.k0))
        if series.valuation() != i or series.leading_coefficient() != 1:
            bad.append((i, series.valuation(), series.leading_coefficient()))
    if cat.base_seed is not None:
        series = _catalog.evaluate(cat.base_seed,
                                   default_prec(N, expr_weight(cat.base_seed)))
        if series.valuation() != 1 or series.leading_coefficient() != 1:
            bad.append(("base", series.valuation(), series.leading_coefficient()))
    if bad:
        return CheckResult(f"catalog:seeds:N={N}", False,
                           f"(index, valuation, lead) failures: {bad}")
    return CheckResult(f"catalog:seeds:N={N}", True,
                       f"{len(cat.seeds)} seeds unitary with valuation = position")


# -- suite assembly ---------------------------------------------------------------

def reference_checks(N):
    out = [check_dimension_table(N), check_cusp_codimension(N),
           check_catalog_profile(N), check_generators_unitary(N),
           check_seeds_unitary(N)]
    for check_id in sorted(PRINTED_SERIES):
        if PRINTED_SERIES[check_id][0] == N:
            out.append(check_printed_series(check_id))
    for check_id, lhs, rhs, weight in _catalog.catalog_identities(N):
        out.append(check_identity(check_id, N, lhs, rhs, weight))
    if _catalog.get_catalog(N).base_seed is not None:
        out.append(check_ladder_offsets(N))
    if N == 9:
        out.append(check_seed_alt_reading())
    return out


def structure_checks(N):
    # decompositions first: they ask for the highest precisions
    decompositions = check_decompositions(N)
    return [
        check_dim_shift(N),
        check_ladder_dims(N),
        check_seed_valuation_law(N),
        check_basis_validity(N),
        decompositions,
        check_delta_multiplication(N),
    ]


def run_suite(levels=None, suite="all"):
    """Run the requested checks; returns (results, all_ok)."""
    if levels is None:
        levels = SUPPORTED_LEVELS
    results = []
    for N in levels:
        if suite in ("paper", "all"):
            results.extend(reference_checks(N))
        if suite in ("structure", "all"):
            results.extend(structure_checks(N))
    return results, all(r.ok for r in results)
