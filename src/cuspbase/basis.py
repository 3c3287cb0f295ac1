"""Echelon bases of M_{2k} and S_{2k}, ladder construction, decomposition.

Bases are canonical *reduced* echelon forms: elements are unitary, their
valuations strictly increase, and every element has coefficient zero at the
pivot exponent of every other element.  The reduced basis depends only on
the span, which makes the outputs deterministic and re-echelonization a
no-op.  Its pivots sit below the Sturm floor, so one basis per (space, N, k)
is kept, at the highest precision built so far, and lower precisions are
served by truncating it.

Cuspidal spaces are built by one ladder rule, read from the catalogue: the
rung for S_{2k} has a start k0 and seeds; all seeds but the last are lifted
by E2^(k-k0), and the last multiplies the full basis of weight 2(k-k0).
Below the start the space must be zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .catalog import MEMO, evaluate, get_catalog, level1_eisenstein
from .dimensions import (
    DELTA_DATA, default_prec, dim_cusp, dim_modular, sturm_bound,
)
from .errors import (
    DecompositionMismatch, IncompleteSpan, InsufficientPrecision,
    LadderConditionFailed, NotInSpan, RankDeficient, RankExcess,
    UnsupportedLevel,
)
from .expr import Delta, Gen, Mul, Pow
from .series import QSeries, _min_prec


@dataclass(frozen=True)
class EchelonBasis:
    """Ordered unitary upper-triangular basis with a common precision."""

    level: int
    weight: int
    space: str                  # "full" or "cusp"
    elements: tuple
    prec: object                # exponent frontier shared by all elements

    @property
    def valuations(self):
        return tuple(e.valuation() for e in self.elements)

    def __len__(self):
        return len(self.elements)


def echelonize(forms, expected_dim, prec=None, *, level, weight, space="full"):
    """Reduce a spanning list to the canonical unitary triangular basis.

    Rows are taken by increasing valuation (ties by input order), reduced
    against the pivots found so far, normalized to leading coefficient 1,
    and finally fully back-substituted.  Dependent rows are dropped;
    RankDeficient / RankExcess report a span of the wrong size.
    """
    common = None
    for f in forms:
        common = _min_prec(common, f.prec_exponent)
    if prec is not None:
        common = _min_prec(common, prec)
    if common is None:
        raise InsufficientPrecision("echelonization needs a finite precision")
    floor = sturm_bound(level, weight) + 1
    if Fraction(common) < floor:
        raise InsufficientPrecision(
            f"precision {common} below the certification floor {floor} "
            f"for weight {weight} level {level}"
        )
    rows = [f.truncate(common) for f in forms]
    order = sorted(
        (i for i, r in enumerate(rows) if not r.is_zero),
        key=lambda i: (Fraction(rows[i].valuation()), i),
    )
    pivots = {}
    for i in order:
        r = rows[i]
        while not r.is_zero:
            v = r.valuation()
            holder = pivots.get(v)
            if holder is None:
                r = r.scale(Fraction(1, 1) / r.leading_coefficient())
                pivots[v] = r
                if len(pivots) > expected_dim:
                    raise RankExcess(expected_dim)
                break
            r = r - holder.scale(r.leading_coefficient())
    if len(pivots) < expected_dim:
        raise RankDeficient(len(pivots), expected_dim)
    ordered = [pivots[v] for v in sorted(pivots, key=Fraction)]
    # full back-substitution: clear every pivot column above its row
    for i in range(len(ordered) - 2, -1, -1):
        r = ordered[i]
        for j in range(i + 1, len(ordered)):
            c = r.coeff(ordered[j].valuation())
            if c != 0:
                r = r - ordered[j].scale(c)
        ordered[i] = r
    return EchelonBasis(level, weight, space, tuple(ordered), common)


# -- basis memo -----------------------------------------------------------------

def _memo_basis(space, N, k, prec, build):
    """The basis under (space, N, k), kept at the highest precision built.

    The reduced echelon basis is fixed by its span and its pivots sit below
    the Sturm floor, so at any precision between the floor and the kept one
    it is the kept basis truncated.  A higher precision rebuilds.
    """
    key = (space, N, k)
    hit = MEMO.get(key)
    if hit is not None and sturm_bound(N, 2 * k) < prec <= hit.prec:
        if prec == hit.prec:
            return hit
        return EchelonBasis(N, 2 * k, space,
                            tuple(e.truncate(prec) for e in hit.elements), prec)
    basis = build(N, k, prec)
    if hit is None or basis.prec > hit.prec:
        MEMO[key] = basis
    return basis


# -- full spaces --------------------------------------------------------------

def _monomial_exponents(weights, total):
    """All exponent vectors e with sum e_i * weights_i == total, lex order."""
    out = []

    def rec(i, remaining, head):
        if i == len(weights):
            if remaining == 0:
                out.append(tuple(head))
            return
        if remaining == 0:
            out.append(tuple(head + [0] * (len(weights) - i)))
            return
        step = weights[i]
        for e in range(remaining // step + 1):
            rec(i + 1, remaining - e * step, head + [e])

    rec(0, total, [])
    return out


def _level1_candidates(k):
    q, r = divmod(k - 1, 6)
    r += 1
    cands = []
    if r == 6:
        cands.append(Pow(Delta(1), q + 1))
    top = q - 1 if r == 1 else q
    for n in range(top + 1):
        e = level1_eisenstein(k - 6 * n)
        cands.append(Mul((Pow(Delta(1), n), e)) if n else e)
    return cands


def m_basis(N, k, prec=None):
    """Canonical basis of M_{2k}(Gamma0(N)) from catalogued atom monomials."""
    if k < 0:
        raise ValueError("half-weight must be nonnegative")
    if prec is None:
        prec = default_prec(N, 2 * k)
    return _memo_basis("full", N, k, prec, _m_basis_build)


def _m_basis_build(N, k, prec):
    expected = dim_modular(N, 2 * k)
    if k == 0:
        return EchelonBasis(N, 0, "full", (QSeries.one(prec),), prec)
    cat = get_catalog(N)
    if N == 1:
        series = [evaluate(c, prec) for c in _level1_candidates(k)]
    else:
        atoms = cat.span_atoms
        weights = [a.weight for a in atoms]
        vectors = _monomial_exponents(weights, 2 * k)
        # keep a few candidates per formal valuation so every pivot stays
        # reachable; valuations sit below the dimension, so the total stays
        # within the 3 * dim budget
        vectors.sort(key=lambda v: (sum(e * a.valuation for e, a in zip(v, atoms)), v))
        chosen = []
        per_val = {}
        for vec in vectors:
            val = sum(e * a.valuation for e, a in zip(vec, atoms))
            if per_val.get(val, 0) < 3:
                per_val[val] = per_val.get(val, 0) + 1
                chosen.append(vec)
        vectors = chosen
        atom_series = [evaluate(a.expr, prec) for a in atoms]
        power_memo = {}

        def power(i, e):
            got = power_memo.get((i, e))
            if got is None:
                got = atom_series[i] ** e
                power_memo[(i, e)] = got
            return got

        series = []
        for vec in vectors:
            prod = QSeries.one()
            for i, e in enumerate(vec):
                if e:
                    prod = prod * power(i, e)
            series.append(prod)
    try:
        return echelonize(series, expected, prec, level=N, weight=2 * k)
    except RankDeficient as exc:
        raise IncompleteSpan(N, 2 * k, exc.rank, expected) from exc


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
    k0, seeds = cat.rung(k)
    if k < k0:
        if expected:
            raise LadderConditionFailed(
                f"level {N} has no catalogued cusp forms below weight {2 * k0}"
            )
        return EchelonBasis(N, 2 * k, "cusp", (), prec)
    lifted = seeds[:-1]
    if expected != len(lifted) + dim_modular(N, 2 * (k - k0)):
        raise LadderConditionFailed(
            f"dimension identity fails at level {N}, weight {2 * k}, start {k0}"
        )
    series = [evaluate(s, prec) for s in seeds]
    rows = [series[-1] * e for e in m_basis(N, k - k0, prec).elements]
    if lifted:
        lift = evaluate(Gen(2, N, 0), prec) ** (k - k0)
        rows = [f * lift for f in series[:-1]] + rows
    return echelonize(rows, expected, prec, level=N, weight=2 * k, space="cusp")


# -- membership and decomposition ----------------------------------------------

def verify_membership(f, basis):
    """Exact coordinates of f in a triangular basis, by pivot substitution.

    Raises NotInSpan (carrying the first unmatched exponent) when a nonzero
    residual survives, and InsufficientPrecision when f is not known at
    least to the basis Sturm bound.
    """
    need = sturm_bound(basis.level, basis.weight)
    avail = _min_prec(f.prec_exponent, basis.prec)
    if avail is None:
        avail = basis.prec
    if Fraction(avail) < need:
        raise InsufficientPrecision(
            f"membership needs {need} coefficients, only {avail} available"
        )
    residual = f.truncate(avail)
    coords = []
    for el in basis.elements:
        c = residual.coeff(el.valuation())
        coords.append(c)
        if c != 0:
            residual = residual - el.truncate(avail).scale(c)
    if not residual.is_zero:
        raise NotInSpan(residual.valuation())
    return tuple(coords)


@dataclass(frozen=True)
class DecompositionReport:
    level: int
    half_weight: int
    ladder_steps: int           # q in k = q*(rho/2) + r
    base_half_weight: int       # r
    piece_dims: tuple           # (base dim, then one entry per ladder step)
    total: int
    expected: int
    basis_matches: object       # True/False when materialized, else None


def structure_decompose(N, k, materialize=True, prec=None):
    """Split S_{2k} into delta-power pieces and check the dimension count.

    Writes k = q*(rho/2) + r with 2 <= r <= rho/2 + 1.  The pieces are the
    base space S_{2r} lifted by delta^q together with, for each step n < q,
    the first nu elements of the cusp basis at half-weight k - n*rho/2
    lifted by delta^n.  Piece dimensions must add up to dim S_{2k}; when
    materialized, the union must echelonize to the canonical cusp basis.
    """
    if N not in DELTA_DATA:
        raise UnsupportedLevel(f"no structuring form catalogued for level {N}")
    if k < 2:
        raise ValueError("decomposition starts at half-weight 2")
    rho, nu, _ = DELTA_DATA[N]
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
    matches = None
    if materialize:
        target = prec if prec is not None else default_prec(N, 2 * k)
        delta = evaluate(get_catalog(N).delta, target)
        rows = []
        for n in range(q):
            low = s_basis(N, k - n * half, max(target - n * nu,
                                               default_prec(N, 2 * (k - n * half))))
            rows.extend((delta ** n) * e for e in low.elements[:nu])
        base = s_basis(N, r, max(target - q * nu, default_prec(N, 2 * r)))
        rows.extend((delta ** q) * e for e in base.elements)
        rebuilt = echelonize(rows, expected, target, level=N, weight=2 * k,
                             space="cusp")
        canonical = s_basis(N, k, target)
        common = _min_prec(rebuilt.prec, canonical.prec)
        matches = all(
            a.truncate(common) == b.truncate(common)
            for a, b in zip(rebuilt.elements, canonical.elements)
        )
    return DecompositionReport(N, k, q, r, piece_dims, total, expected, matches)
