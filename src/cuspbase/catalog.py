"""Per-level data: one record per level, holding everything stated about it.

Levels 1..10 each carry the low-weight generator family expressed over
eta / Eisenstein / Weierstrass atoms, the cuspidal ladder seeds, the atom
list whose monomials span the full spaces, and the identity pairs checking
one form two ways.  The ladder start k0 and the atom weights are read off
the expressions, not restated, and the structuring form delta_N is derived
from the level (``dimensions.delta_profile``): a Delta reference resolves
to it at every catalogued level.  The evaluator turns any expression tree
into an exact QSeries.

Two seeds have no closed form stated over the available atoms (level 3 at
weight 6, level 6 at weight 4); they are completed with the classical
cuspidal eta products of those levels, as the comments on those entries say.
"""

from __future__ import annotations

import operator
from functools import reduce

from ._record import Record
from .dimensions import delta_profile
from .eisenstein import eisenstein_series, weight2_level_combo
from .errors import UnsupportedLevel
from .eta import EtaQuotient, eta_expand
from .expr import (
    Add, Const, Delta, Eis, Gen, Lit, Mul, Pow, Subst, W2,
    add, eta, expr_weight, mul, neg, power, scaled, sub,
)
from .series import QSeries
from .weierstrass import TorsionPoint, wpa_expand


class SpanAtom(Record):
    """A unitary form of the declared valuation; the full spaces are
    spanned by monomials in a level's atoms."""

    __slots__ = (
        "name",
        "expr",
        "valuation",    # declared: a sum may cancel its leading terms
        "weight",       # derived: expr_weight(expr)
    )
    _derived = ("weight",)

    def __post_init__(self):
        object.__setattr__(self, "weight", expr_weight(self.expr))


class LevelCatalog(Record):
    __slots__ = (
        "generators",   # (weight, index) -> expression
        "span_atoms",   # SpanAtom, ...
        "seeds",        # ladder seeds of one weight, valuations 1, 2, ...
        "base_seed",    # spans S below weight 2*k0 (level 7 only), else None
        "identities",   # (check id, lhs, rhs, weight), ...
        "k0",           # derived: half the seeds' weight; they build S_{2k}, k >= k0
    )
    _defaults = {"base_seed": None, "identities": ()}
    _derived = ("k0",)

    def __post_init__(self):
        object.__setattr__(self, "k0", expr_weight(self.seeds[0]) // 2)


def _products_of_weight2(level):
    """The weight-4 family (E0^2, E0*E1, E0*E2, E1*E2, E2^2)."""
    e0, e1, e2 = (Gen(2, level, s) for s in (0, 1, 2))
    return [mul(e0, e0), mul(e0, e1), mul(e0, e2), mul(e1, e2), mul(e2, e2)]


def _build_catalogs():
    cats = {}

    # -- level 1: Eisenstein monomials, no weight-2 form exists ----------
    cats[1] = LevelCatalog(
        generators={},
        span_atoms=(
            SpanAtom("E4_1", Eis(4, 1), 0),
            SpanAtom("E6_1", Eis(6, 1), 0),
            SpanAtom("delta_1", Delta(1), 1),
        ),
        seeds=(Delta(1),),
    )

    # -- level 2 ----------------------------------------------------------
    g2 = {
        (2, 0): scaled(-3, 1, TorsionPoint(2, 0, 2)),
        (4, 0): Pow(Gen(2, 2, 0), 2),
        (4, 1): Delta(2),
    }
    f82 = mul(sub(Gen(4, 2, 0), scaled(64, 1, Gen(4, 2, 1))), Gen(4, 2, 1))
    cats[2] = LevelCatalog(
        generators=g2,
        span_atoms=(
            SpanAtom("E2_2_0", Gen(2, 2, 0), 0),
            SpanAtom("delta_2", Delta(2), 1),
        ),
        seeds=(f82,),
        identities=(
            ("identity:E2_2_0:lambert_combo", Gen(2, 2, 0), W2(2), 2),
            ("identity:F8_2_1:eta_product", f82, eta((1, 8), (2, 8)), 8),
        ),
    )

    # -- level 3 ----------------------------------------------------------
    # reconstructed: the generator E2_3_0 (the weight-2 combination) and the
    # seed F6_3_1 (the cuspidal eta product of the level)
    cats[3] = LevelCatalog(
        generators={(2, 0): W2(3)},
        span_atoms=(
            SpanAtom("E2_3_0", Gen(2, 3, 0), 0),
            SpanAtom("E4_3_1", scaled(1, 240, sub(Eis(4, 1), Eis(4, 3))), 1),
            SpanAtom("delta_3", Delta(3), 2),
        ),
        seeds=(eta((1, 6), (3, 6)),),
    )

    # -- level 4 ----------------------------------------------------------
    g4 = {
        (2, 0): eta((1, 8), (2, -4)),
        (2, 1): Delta(4),
    }
    cats[4] = LevelCatalog(
        generators=g4,
        span_atoms=(
            SpanAtom("E2_4_0", Gen(2, 4, 0), 0),
            SpanAtom("E2_4_1", Gen(2, 4, 1), 1),
        ),
        seeds=(mul(Gen(2, 4, 0), Gen(2, 4, 1),
                   add(Gen(2, 4, 0), scaled(16, 1, Gen(2, 4, 1)))),),
    )

    # -- level 5 ----------------------------------------------------------
    w15, w25 = TorsionPoint(2, 0, 5), TorsionPoint(4, 0, 5)
    half5, tau5 = TorsionPoint(0, 1, 5), TorsionPoint(5, 0, 5)
    g5 = {
        (2, 0): scaled(-3, 2, add(w15, w25)),
        (4, 0): Pow(Gen(2, 5, 0), 2),
        (4, 1): scaled(1, 48, sub(
            scaled(9, 1, Pow(add(w15, w25), 2)),
            scaled(12, 1, add(Pow(half5, 2), Pow(tau5, 2), mul(half5, tau5))),
        )),
        (4, 2): Delta(5),
    }
    cats[5] = LevelCatalog(
        generators=g5,
        span_atoms=(
            SpanAtom("E2_5_0", Gen(2, 5, 0), 0),
            SpanAtom("E4_5_1", Gen(4, 5, 1), 1),
            SpanAtom("delta_5", Gen(4, 5, 2), 2),
        ),
        seeds=(sub(Gen(4, 5, 1), scaled(10, 1, Gen(4, 5, 2))),),
        identities=(
            ("identity:delta_5:weierstrass_square", Delta(5),
             scaled(1, 16, Pow(sub(w15, w25), 2)), 4),
            ("identity:E2_5_0:lambert_combo", Gen(2, 5, 0), W2(5), 2),
        ),
    )

    # -- level 6 ----------------------------------------------------------
    # reconstructed: the seed F4_6_1 (the cuspidal eta product of the level)
    g6 = {
        (2, 0): scaled(-3, 1, TorsionPoint(2, 0, 2)),
        (2, 1): scaled(-1, 4, sub(TorsionPoint(2, 0, 2), TorsionPoint(2, 0, 3))),
        (2, 2): Delta(6),
    }
    cats[6] = LevelCatalog(
        generators=g6,
        span_atoms=tuple(
            SpanAtom(f"E2_6_{s}", Gen(2, 6, s), s) for s in (0, 1, 2)
        ),
        seeds=(eta((1, 2), (2, 2), (3, 2), (6, 2)),),
        identities=(
            ("identity:delta_6:weierstrass_sum", Delta(6),
             scaled(1, 48, add(
                 scaled(3, 1, TorsionPoint(2, 0, 2)),
                 scaled(-8, 1, TorsionPoint(2, 0, 3)),
                 *[TorsionPoint(2 * j, 0, 6) for j in range(1, 6)],
             )), 2),
            ("identity:E2_6_0:lambert_combo", Gen(2, 6, 0), W2(2), 2),
        ),
    )

    # -- level 7 ----------------------------------------------------------
    w17, w27, w37 = (TorsionPoint(a, 0, 7) for a in (2, 4, 6))
    half7, tau7 = TorsionPoint(0, 1, 7), TorsionPoint(7, 0, 7)
    sum7 = add(w17, w27, w37)
    g7 = {
        (2, 0): neg(sum7),
        (4, 0): Pow(Gen(2, 7, 0), 2),
        (4, 1): scaled(1, 8, sub(
            Pow(sum7, 2),
            scaled(3, 1, add(Pow(half7, 2), Pow(tau7, 2), mul(half7, tau7))),
        )),
        (4, 2): scaled(1, 32, sub(
            scaled(3, 1, add(Pow(w17, 2), Pow(w27, 2), Pow(w37, 2))),
            Pow(sum7, 2),
        )),
        (6, 0): Pow(Gen(2, 7, 0), 3),
        (6, 1): mul(Gen(2, 7, 0), Gen(4, 7, 1)),
        (6, 2): mul(Gen(2, 7, 0), Gen(4, 7, 2)),
        (6, 3): scaled(-1, 128, mul(
            sub(scaled(2, 1, w17), add(w27, w37)),
            sub(scaled(2, 1, w27), add(w17, w37)),
            sub(scaled(2, 1, w37), add(w17, w27)),
        )),
        (6, 4): Delta(7),
    }
    f47 = sub(Gen(4, 7, 1), scaled(6, 1, Gen(4, 7, 2)))
    f67 = mul(f47, Gen(2, 7, 0))
    cats[7] = LevelCatalog(
        generators=g7,
        span_atoms=(
            SpanAtom("E2_7_0", Gen(2, 7, 0), 0),
            SpanAtom("E4_7_1", Gen(4, 7, 1), 1),
            SpanAtom("E4_7_2", Gen(4, 7, 2), 2),
            SpanAtom("E6_7_3", Gen(6, 7, 3), 3),
            SpanAtom("delta_7", Gen(6, 7, 4), 4),
        ),
        seeds=(
            f67,
            sub(Gen(6, 7, 2), scaled(49, 1, Gen(6, 7, 4))),
            sub(Gen(6, 7, 3), scaled(13, 2, Gen(6, 7, 4))),
        ),
        base_seed=f47,
        identities=(
            ("identity:F6_7_1:m_basis_coords", f67,
             sub(Gen(6, 7, 1), scaled(6, 1, Gen(6, 7, 2))), 6),
        ),
    )

    # -- level 8 ----------------------------------------------------------
    g8 = {
        (2, 0): eta((1, 8), (2, -4)),
        (2, 1): eta((4, 8), (2, -4)),
        (2, 2): eta((8, 8), (4, -4)),
    }
    for s, prod in enumerate(_products_of_weight2(8)):
        g8[(4, s)] = prod
    cats[8] = LevelCatalog(
        generators=g8,
        span_atoms=tuple(
            SpanAtom(f"E2_8_{s}", Gen(2, 8, s), s) for s in (0, 1, 2)
        ),
        seeds=(add(Gen(4, 8, 1),
                   scaled(8, 1, Gen(4, 8, 2)),
                   scaled(32, 1, Gen(4, 8, 3)),
                   scaled(-128, 1, Gen(4, 8, 4))),),
        identities=(
            ("identity:delta_8:scaled_delta_4", Delta(8), Subst(Delta(4), 2), 2),
        ),
    )

    # -- level 9 ----------------------------------------------------------
    g9 = {
        (2, 0): scaled(-3, 1, TorsionPoint(6, 0, 9)),
        (2, 1): scaled(-1, 4, sub(TorsionPoint(2, 0, 3), TorsionPoint(6, 0, 9))),
        (2, 2): Delta(9),
    }
    for s, prod in enumerate(_products_of_weight2(9)):
        g9[(4, s)] = prod
    cats[9] = LevelCatalog(
        generators=g9,
        span_atoms=tuple(
            SpanAtom(f"E2_9_{s}", Gen(2, 9, s), s) for s in (0, 1, 2)
        ),
        seeds=(add(Gen(4, 9, 1),
                   scaled(-3, 1, Gen(4, 9, 2)),
                   scaled(-27, 1, Gen(4, 9, 4))),),
        identities=(
            ("identity:E2_9_0:lambert_combo", Gen(2, 9, 0), Subst(W2(3), 3), 2),
        ),
    )

    # -- level 10 ---------------------------------------------------------
    w12, w5_10 = TorsionPoint(2, 0, 2), TorsionPoint(10, 0, 10)
    w1_5, w2_5 = TorsionPoint(2, 0, 5), TorsionPoint(4, 0, 5)
    g10 = {
        (2, 0): scaled(-3, 1, w5_10),
        (2, 1): scaled(-1, 8, sub(w12, w5_10)),
        (2, 2): scaled(1, 16, add(
            w12,
            scaled(-2, 1, w1_5),
            scaled(-2, 1, w2_5),
            scaled(3, 1, w5_10),
        )),
    }
    for s, prod in enumerate(_products_of_weight2(10)):
        g10[(4, s)] = prod
    g10[(4, 5)] = Subst(Delta(2), 5)
    g10[(4, 6)] = Delta(10)
    e = {s: Gen(4, 10, s) for s in range(1, 7)}
    cats[10] = LevelCatalog(
        generators=g10,
        span_atoms=(
            SpanAtom("E2_10_0", Gen(2, 10, 0), 0),
            SpanAtom("E2_10_1", Gen(2, 10, 1), 1),
            SpanAtom("E2_10_2", Gen(2, 10, 2), 2),
            SpanAtom("E4_10_5", Gen(4, 10, 5), 5),
            SpanAtom("E4_10_6", Gen(4, 10, 6), 6),
        ),
        seeds=(
            add(e[1], neg(e[2]), scaled(-4, 1, e[3]), scaled(2, 1, e[4]),
                scaled(16, 1, e[5]), scaled(-40, 1, e[6])),
            add(e[2], scaled(-7, 1, e[4]), scaled(4, 1, e[5]),
                scaled(40, 1, e[6])),
            add(e[3], scaled(-3, 1, e[4]), scaled(-8, 1, e[5]),
                scaled(20, 1, e[6])),
        ),
        identities=(
            ("identity:E2_10_0:lambert_combo", Gen(2, 10, 0),
             Subst(Gen(2, 2, 0), 5), 2),
        ),
    )

    return cats


_CATALOGS = _build_catalogs()

SUPPORTED_LEVELS = tuple(sorted(_CATALOGS))


def get_catalog(N):
    cat = _CATALOGS.get(N)
    if cat is None:
        raise UnsupportedLevel(f"level {N} is outside the catalogued range "
                               f"{SUPPORTED_LEVELS[0]}..{SUPPORTED_LEVELS[-1]}")
    return cat


# -- evaluation ---------------------------------------------------------------

# The package's one memo, with one rule: one entry per expression (evaluate)
# or per (space, N, k) (the basis builders), kept at the highest precision
# built; a lower request is served by truncating it.  A power Pow(f, e) is
# an expression with its own entry, evaluated by halving through the memo,
# so all the powers of one form share their products.
MEMO = {}


def clear_caches():
    MEMO.clear()


def evaluate(expr, prec):
    """Exact expansion of an expression tree below exponent prec.

    A tree's weights are checked (WeightMismatch) when it has no memo
    entry; every tree in the memo has passed that check, a catalogued body
    when its Gen or Delta reference was first evaluated.
    """
    if expr not in MEMO:
        expr_weight(expr)
    if prec < 1:
        raise ValueError("precision must be a positive exponent bound")
    out = _eval(expr, int(prec))
    # _eval cuts a series with a frontier to an integral prec already
    if out.prec is None or type(prec) is not int:
        out = out.truncate(prec)
    return out


def _eval(expr, prec):
    """expr below exponent prec, from its one memo entry (kept_prec, series).

    More precision only adds coefficients, so a lower request truncates the
    kept series (an exact one serves every precision) and a higher one
    re-evaluates and replaces it.  A cold evaluation is cut to the request
    the same way (a Lit keeps its length and a scaled atom rounds its
    frontier up, so either may pass it), which makes a warm and a cold
    answer agree.  The requested precision is kept beside the series: an
    exact series has no frontier, and a frontier may fall short of the
    request.
    A power f^e (e >= 2) is one product of memo entries, the square of
    f^(e/2) or f^(e-1) times f, so a run of powers 1..e costs one product
    each and a single cold power about log2(e).
    """
    hit = MEMO.get(expr)
    if hit is not None:
        kept, series = hit
        if prec == kept or series.prec is None:
            return series
        if prec < kept:
            return series.truncate(prec)
    out = _eval_uncached(expr, prec)
    if out.prec is not None:
        out = out.truncate(prec)
    MEMO[expr] = (prec, out)
    return out


def _eval_uncached(expr, prec):
    if isinstance(expr, Const):
        return QSeries.make(0, [expr.value])
    if isinstance(expr, EtaQuotient):
        return eta_expand(expr, prec)
    if isinstance(expr, Eis):
        inner = _inner_prec(prec, expr.scale)
        return eisenstein_series(expr.weight, inner).substitute_q_power(expr.scale)
    if isinstance(expr, W2):
        return weight2_level_combo(expr.level, prec)
    if isinstance(expr, TorsionPoint):
        return wpa_expand(expr, prec)
    if isinstance(expr, (Gen, Delta)):
        body = _catalogued(expr)
        if body not in MEMO:
            expr_weight(body)
        return _eval(body, prec)
    if isinstance(expr, Lit):
        return QSeries.make(expr.lead, list(expr.coeffs),
                            prec=expr.lead + len(expr.coeffs))
    if isinstance(expr, Add):
        out = QSeries.zero()
        for t in expr.terms:
            out = out + _eval(t, prec)
        return out
    if isinstance(expr, Mul):
        parts = _factors(expr.factors, prec)
        return reduce(operator.mul, parts) if parts else QSeries.one()
    if isinstance(expr, Pow):
        base, e = expr.base, expr.exponent
        if e < 2:
            return _eval(base, prec) ** e
        if e % 2:
            a, b = _factors((Pow(base, e - 1), base), prec)
            return a * b
        half = power(base, e // 2)
        a, b = _factors((half, half), prec)
        return a * b  # one series twice: a square
    if isinstance(expr, Subst):
        inner = _inner_prec(prec, expr.d)
        return _eval(expr.child, inner).substitute_q_power(expr.d)
    raise TypeError(f"not a form expression: {expr!r}")


def _factors(exprs, prec):
    """The series of a product's factors, each known far enough for the
    product to reach prec.

    A product's frontier is each factor's frontier shifted by the others'
    valuations, so a partner of negative valuation leaves a factor evaluated
    at prec short of it.  Such a factor is evaluated again at prec less its
    partners' valuations; then every product node reaches its request
    unless a Lit stops it, and a warm answer equals a cold one.
    """
    parts = [_eval(f, prec) for f in exprs]
    # valuations in half exponents; one zero within precision has its
    # frontier as lead
    leads = [s.lead * (2 // s.grid) for s in parts]
    total = sum(leads)
    for i, v in enumerate(leads):
        partners = total - v
        if partners < 0:
            parts[i] = _eval(exprs[i], prec + (1 - partners) // 2)
    return parts


def _catalogued(ref):
    """The catalogued expression a Gen or Delta reference stands for."""
    cat = get_catalog(ref.level)
    if isinstance(ref, Delta):
        return delta_profile(ref.level)[0]
    body = cat.generators.get((ref.weight, ref.index))
    if body is None:
        raise UnsupportedLevel(
            f"no generator of weight {ref.weight}, index {ref.index} "
            f"catalogued at level {ref.level}"
        )
    return body


def _inner_prec(prec, d):
    """The precision f needs for f(d*tau) to reach prec."""
    if d < 1:
        raise ValueError("substitution power must be a positive integer")
    return -(-prec // d)


# -- named access and identity corpus ----------------------------------------

def named_forms(N):
    """name -> expression for every catalogued form at level N."""
    cat = get_catalog(N)
    out = {f"delta_{N}": Delta(N)}
    for (w, s) in sorted(cat.generators):
        out[f"E{w}_{N}_{s}"] = Gen(w, N, s)
    for i, seed in enumerate(cat.seeds, start=1):
        out[f"F{2 * cat.k0}_{N}_{i}"] = seed
    if cat.base_seed is not None:
        out[f"F{expr_weight(cat.base_seed)}_{N}_1"] = cat.base_seed
    return out


def eta_leaves():
    """Every distinct eta quotient appearing in the catalogue, with a name."""
    seen = {}

    def walk(name, node):
        if isinstance(node, EtaQuotient):
            seen.setdefault(node, name)
        elif isinstance(node, Add):
            for t in node.terms:
                walk(name, t)
        elif isinstance(node, Mul):
            for f in node.factors:
                walk(name, f)
        elif isinstance(node, Pow):
            walk(name, node.base)
        elif isinstance(node, Subst):
            walk(name, node.child)

    for N in sorted(_CATALOGS):
        for name, form in named_forms(N).items():
            walk(name, _catalogued(form) if isinstance(form, (Gen, Delta)) else form)
    return sorted(((name, q) for q, name in seen.items()), key=lambda nq: nq[1].terms)


def catalog_identities(N):
    """Cross-representation identity pairs (check id, lhs, rhs, weight)."""
    return list(get_catalog(N).identities)
