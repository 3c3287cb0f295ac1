"""Echelon bases of M_{2k} and S_{2k}, ladder construction, decomposition.

Bases are canonical *reduced* echelon forms: elements are unitary, their
valuations strictly increase, and every element has coefficient zero at the
pivot exponent of every other element.  The reduced basis depends only on
the span, which makes the outputs deterministic and re-echelonization a
no-op.  Its pivots sit below the Sturm floor, so the package memo's one rule
applies: one basis per (space, N, k) is kept, at the highest precision built
so far, and lower precisions are served by truncating it.

Full spaces take one atom monomial per valuation 0..d-1, d = dim M_{2k}.
The catalogued atoms are unitary of declared valuation, so these d rows are
unitary with distinct valuations: triangular, hence independent, hence a
basis of M_{2k}.  Each monomial is a product of atom powers, and each power
is the evaluator's memo entry for it, shared by every weight at the level.

Cuspidal spaces are built by one ladder rung per level, read from the
catalogue: for every k >= k0, all seeds but the last are lifted by
E2^(k-k0), and the last multiplies the full basis of weight 2(k-k0).
Below the start k0, a space is zero or spanned by the base seed.  The lift
E2^(k-k0) and the delta powers of the structure decomposition are memo
entries too.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from math import gcd

from ._record import Record
from .catalog import MEMO, evaluate, get_catalog
from .dimensions import (
    default_prec, delta_profile, dim_cusp, dim_modular, sturm_bound,
)
from .errors import (
    DecompositionMismatch, IncompleteSpan, InsufficientPrecision,
    LadderConditionFailed, NotInSpan, OffGrid, PrecisionExceeded,
    RankDeficient, RankExcess,
)
from .expr import Gen, expr_weight, power
from .series import QSeries, _from_index, _min_prec, _ratio, _series


class EchelonBasis(Record):
    """Ordered unitary upper-triangular basis with a common precision."""

    __slots__ = (
        "level",
        "weight",
        "space",        # "full" or "cusp"
        "elements",
        "prec",         # exponent frontier shared by all elements
    )

    @property
    def valuations(self):
        return tuple(e.valuation() for e in self.elements)

    def __len__(self):
        return len(self.elements)


def echelonize(forms, expected_dim, prec=None, *, level, weight, space="full"):
    """Reduce a spanning list to the canonical unitary triangular basis.

    Rows are taken by increasing valuation (ties by input order), reduced
    against the pivots found so far, and finally fully back-substituted.
    Dependent rows are dropped; RankDeficient / RankExcess report a span of
    the wrong size.  The elimination is fraction-free: every row is an
    integer vector over the grid slots below the common frontier, and at
    the end each row becomes a series over its pivot entry.  Rows are kept
    primitive (a row led by +-1 skips the content pass), and a pivot led by
    1 clears an entry without scaling the row it clears it from.
    """
    common = None
    for f in forms:
        common = _min_prec(common, f.prec_exponent)
    if prec is not None:
        common = _min_prec(common, prec)
    if common is None:
        raise InsufficientPrecision("echelonization needs a finite precision")
    _check_floor(common, level, weight)
    grid, size = _slots(forms, common)
    rows = []
    for f in forms:
        row = _primitive(_int_row(f, grid, size)[0])
        if row:
            rows.append(row)
    pivots = {}
    for lead, vals in sorted(rows, key=lambda r: r[0]):
        while True:
            holder = pivots.get(lead)
            if holder is None:
                pivots[lead] = vals
                if len(pivots) > expected_dim:
                    raise RankExcess(expected_dim)
                break
            reduced = _primitive(_combine(vals, holder, 0), lead)
            if not reduced:
                break
            lead, vals = reduced
    if len(pivots) < expected_dim:
        raise RankDeficient(len(pivots), expected_dim)
    ordered = sorted(pivots.items())
    # full back-substitution: clear every pivot column above its row
    for i in range(len(ordered) - 2, -1, -1):
        lead, vals = ordered[i]
        for p, holder in ordered[i + 1:]:
            if vals[p - lead]:
                # the lead stays put, as every later pivot lies to its right
                vals = _primitive(_combine(vals, holder, p - lead))[1]
        ordered[i] = (lead, vals)
    elements = tuple(_series(grid, lead, vals, size, vals[0]) for lead, vals in ordered)
    return EchelonBasis(level, weight, space, elements, common)


def _check_floor(prec, level, weight):
    """Raise InsufficientPrecision unless prec passes the Sturm bound."""
    floor = sturm_bound(level, weight) + 1
    if prec < floor:
        raise InsufficientPrecision(
            f"precision {prec} below the certification floor {floor} "
            f"for weight {weight} level {level}"
        )


# -- integer rows ----------------------------------------------------------------

def _slots(forms, frontier):
    """The finest grid among the forms and the frontier, and the number of
    its slots below the frontier."""
    grid = max([f.grid for f in forms] + [Fraction(frontier).denominator])
    return grid, int(frontier * grid)


def _int_row(f, grid, size):
    """f's numerators on the first ``size`` slots of the 1/grid grid and its
    denominator: (dense integer list, d) where the list holds d times each
    coefficient."""
    step = grid // f.grid
    if size % step:
        raise OffGrid(f"frontier index {size} is not on the 1/{f.grid} grid")
    kept = f.nums[:max(size // step - f.lead, 0)]
    row = [0] * size
    start = f.lead * step
    row[start:start + len(kept) * step:step] = kept
    return row, f.den


def _primitive(vals, lead=0):
    """(lead, suffix) of an integer row divided by its content, with the
    suffix starting at the first nonzero entry; () for a zero row.  A row
    led by +-1 has content 1 and skips the gcd pass."""
    for t, x in enumerate(vals):
        if x:
            break
    else:
        return ()
    if t:
        vals = vals[t:]
    if x != 1 and x != -1:
        g = gcd(*vals)
        if g != 1:
            vals = [x // g for x in vals]
    return lead + t, vals


def _combine(vals, holder, offset):
    """a*vals - b*holder with holder aligned at vals[offset]; a and b are the
    two entries there divided by their gcd, so that entry cancels.  When a
    is 1, as it is for a pivot led by 1, vals is not scaled."""
    a, b = holder[0], vals[offset]
    if a != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
    if a == 1:
        return vals[:offset] + [x - b * y for x, y in zip(vals[offset:], holder)]
    return [a * x for x in vals[:offset]] + [
        a * x - b * y for x, y in zip(vals[offset:], holder)]


# -- basis memo -----------------------------------------------------------------

def _memo_basis(space, N, k, prec, build):
    """The basis under (space, N, k), kept at the highest precision built.

    A precision below the Sturm floor of weight 2k raises before any build.
    The reduced echelon basis is fixed by its span and its pivots sit below
    the floor, so at any precision between the floor and the kept one it is
    the kept basis truncated.  A higher precision rebuilds.
    """
    _check_floor(prec, N, 2 * k)
    key = (space, N, k)
    hit = MEMO.get(key)
    if hit is not None and prec <= hit.prec:
        if prec == hit.prec:
            return hit
        return EchelonBasis(N, 2 * k, space,
                            tuple(e.truncate(prec) for e in hit.elements), prec)
    MEMO[key] = basis = build(N, k, prec)
    return basis


# -- full spaces --------------------------------------------------------------

def m_basis(N, k, prec=None):
    """Canonical basis of M_{2k}(Gamma0(N)) from catalogued atom monomials."""
    if k < 0:
        raise ValueError("half-weight must be nonnegative")
    if prec is None:
        prec = default_prec(N, 2 * k)
    return _memo_basis("full", N, k, prec, _m_basis_build)


def _m_basis_build(N, k, prec):
    expected = dim_modular(N, 2 * k)
    atoms = get_catalog(N).span_atoms
    by_valuation = _staircase(atoms, k)
    chosen = [by_valuation[v] for v in range(expected) if v in by_valuation]
    if len(chosen) < expected:
        raise IncompleteSpan(N, 2 * k, len(chosen), expected)
    rows = []
    for vec in chosen:
        factors = [evaluate(power(atom.expr, e), prec)
                   for atom, e in zip(atoms, vec) if e]
        rows.append(reduce(operator.mul, factors) if factors else QSeries.one())
    try:
        return echelonize(rows, expected, prec, level=N, weight=2 * k)
    except RankDeficient as exc:
        raise IncompleteSpan(N, 2 * k, exc.rank, expected) from exc


def _staircase(atoms, k):
    """valuation -> exponent vector of an atom monomial of weight 2k with
    that valuation: the first one found, weight by weight, atom by atom."""
    reach = {0: {0: (0,) * len(atoms)}}
    for w in range(2, 2 * k + 1, 2):
        found = reach[w] = {}
        for i, atom in enumerate(atoms):
            for val, vec in reach.get(w - atom.weight, {}).items():
                found.setdefault(val + atom.valuation,
                                 vec[:i] + (vec[i] + 1,) + vec[i + 1:])
    return reach[2 * k]


# -- cuspidal spaces -----------------------------------------------------------

def s_basis(N, k, prec=None):
    """Canonical basis of S_{2k}(Gamma0(N)) via the seed ladder."""
    if k < 1:
        raise ValueError("half-weight must be at least 1")
    if prec is None:
        prec = default_prec(N, 2 * k)
    return _memo_basis("cusp", N, k, prec, _s_basis_build)


def _s_basis_build(N, k, prec):
    cat = get_catalog(N)
    expected = dim_cusp(N, 2 * k)
    k0, seeds = cat.k0, cat.seeds
    if k < k0:
        if not expected:
            return EchelonBasis(N, 2 * k, "cusp", (), prec)
        if cat.base_seed is None:
            raise LadderConditionFailed(
                f"level {N} has no catalogued cusp forms below weight {2 * k0}"
            )
        k0, seeds = expr_weight(cat.base_seed) // 2, (cat.base_seed,)
    lifted = seeds[:-1]
    if expected != len(lifted) + dim_modular(N, 2 * (k - k0)):
        raise LadderConditionFailed(
            f"dimension identity fails at level {N}, weight {2 * k}, start {k0}"
        )
    series = [evaluate(s, prec) for s in seeds]
    rows = [series[-1] * e for e in m_basis(N, k - k0, prec).elements]
    if lifted:
        lift = evaluate(power(Gen(2, N, 0), k - k0), prec)
        rows = [f * lift for f in series[:-1]] + rows
    return echelonize(rows, expected, prec, level=N, weight=2 * k, space="cusp")


# -- membership and decomposition ----------------------------------------------

def verify_membership(f, basis):
    """Exact coordinates of f in a triangular basis, by pivot substitution.

    f becomes a dense integer residual over the grid slots below the common
    frontier, d times f for a denominator d.  Each element with a nonzero
    entry at its pivot slot is subtracted from it, read from its stored
    numerator run, which starts at the pivot with the element's denominator
    (the element is unitary), at every residual slot of the element's grid.
    No dense row is built for an element, and the residual keeps its full
    length, as a stored run ends at its last nonzero coefficient.

    Raises NotInSpan (carrying the first unmatched exponent) when a nonzero
    residual survives, and InsufficientPrecision when f is not known at
    least to the basis Sturm bound.
    """
    need = sturm_bound(basis.level, basis.weight)
    avail = _min_prec(f.prec_exponent, basis.prec)
    if avail is None:
        avail = basis.prec
    if avail < need:
        raise InsufficientPrecision(
            f"membership needs {need} coefficients, only {avail} available"
        )
    grid, size = _slots((f,) + basis.elements, avail)
    residual, den = _int_row(f, grid, size)
    coords = []
    for el in basis.elements:
        # el's slots are every step-th residual slot from its pivot on
        step = grid // el.grid
        slot = el.lead * step
        if slot >= size:
            raise PrecisionExceeded(
                f"coefficient of q^{el.valuation()} is beyond the frontier q^{avail}"
            )
        c = residual[slot]
        if c == 0:
            coords.append(0)
            continue
        coords.append(_ratio(c, den))
        # residual <- a*residual - b*row, a/b = el.den/c in lowest terms,
        # cancels the pivot entry; den grows by a
        g = gcd(el.den, c)
        a, b = el.den // g, c // g
        if a != 1:
            residual = [a * x for x in residual]
            den *= a
        # the slice clips a run that reaches past the frontier
        cut = slice(slot, slot + step * len(el.nums), step)
        residual[cut] = [x - b * y for x, y in zip(residual[cut], el.nums)]
    if any(residual):
        slot = next(i for i, x in enumerate(residual) if x)
        raise NotInSpan(_from_index(slot, grid))
    return tuple(coords)


class DecompositionReport(Record):
    __slots__ = (
        "level",
        "half_weight",
        "ladder_steps",         # q in k = q*(rho/2) + r
        "base_half_weight",     # r
        "piece_dims",           # (base dim, then one entry per ladder step)
        "total",
        "expected",
        "basis_matches",
    )


def structure_decompose(N, k):
    """Split S_{2k} into delta-power pieces and check the dimension count.

    Writes k = q*(rho/2) + r with 2 <= r <= rho/2 + 1.  The pieces are the
    base space S_{2r} lifted by delta^q together with, for each step n < q,
    the first nu elements of the cusp basis at half-weight k - n*rho/2
    lifted by delta^n.  Piece dimensions must add up to dim S_{2k}, and
    ``basis_matches`` says whether the union echelonizes to the canonical
    cusp basis.
    """
    if k < 2:
        raise ValueError("decomposition starts at half-weight 2")
    delta, rho, nu = delta_profile(N)
    half = rho // 2
    r = (k - 2) % half + 2
    q = (k - r) // half
    expected = dim_cusp(N, 2 * k)
    base_dim = dim_cusp(N, 2 * r)
    piece_dims = (base_dim,) + (nu,) * q
    total = base_dim + q * nu
    if total != expected:
        raise DecompositionMismatch(
            f"decomposition of S_{2 * k}(Gamma0({N})) counts {total}, "
            f"dimension formula says {expected}"
        )
    target = default_prec(N, 2 * k)
    rows = []
    for n in range(q + 1):
        low = s_basis(N, k - n * half, target - n * nu)
        lift = evaluate(power(delta, n), target)
        rows.extend(lift * e for e in (low.elements[:nu] if n < q else low.elements))
    rebuilt = echelonize(rows, expected, target, level=N, weight=2 * k,
                         space="cusp")
    canonical = s_basis(N, k, target)
    common = _min_prec(rebuilt.prec, canonical.prec)
    matches = all(
        a.truncate(common) == b.truncate(common)
        for a, b in zip(rebuilt.elements, canonical.elements)
    )
    return DecompositionReport(N, k, q, r, piece_dims, total, expected, matches)
