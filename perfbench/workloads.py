"""The three workloads of the cuspbase benchmark and their correctness gate.

Each workload turns a seed into a fixed list of inputs, runs them as a closed
loop with one caller, and checks every output.  A pass starts from empty
caches (``verify.clear_caches()``); in basis and expand every task does, so
that a task's cost does not depend on the order the seed gives.  Only the
calls into cuspbase are timed; the checks run outside the timed region.

* certify -- ``verify.run_suite(levels, "all")``, the paper's 142-check
  certification corpus, in the suite's own level order.  Low weights,
  many rebuilds of one (N, k) at several precisions: the cache workload.
* expand -- single forms to EXPAND_PREC coefficients through the three
  ``cuspbase expand`` paths (eta quotient, Weierstrass value, expression):
  long dense products and inversions, no echelonization.
* basis -- cold ``m_basis`` / ``s_basis`` builds above the weights certify
  touches, each (N, k, space) once: the echelonization workload, no cache
  reuse.  BENCHMARK.json does not list it; it is run by hand.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# layer functions are looked up on their modules at call time, so that the
# traced run's wrappers see the benchmark's own calls too
from cuspbase import basis, catalog, eta, parse, verify, weierstrass
from cuspbase.dimensions import default_prec, dim_cusp, dim_modular

import oracle as O

# -- canonical bytes ------------------------------------------------------------


def series_text(s):
    """Canonical text of a series: its frontier and its nonzero terms."""
    lines = [f"prec {s.prec_exponent}"]
    lines.extend(f"{Fraction(e)} {Fraction(c)}" for e, c in s.items())
    return "\n".join(lines) + "\n"


def basis_text(b):
    head = f"basis {b.level} {b.weight} {b.space} prec {b.prec} rows {len(b)}\n"
    return head + "".join("row\n" + series_text(e) for e in b.elements)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- tasks and passes -----------------------------------------------------------


@dataclass
class Task:
    key: str                                # input label and reference key
    call: Callable[[], object]              # the timed call into cuspbase
    check: Callable[[object], str | None]   # error message, or None when right
    coeffs: Callable[[object], int]         # exact coefficients delivered


@dataclass
class Outcome:
    key: str
    seconds: float
    error: str | None
    coeffs: float                           # exact coefficients credited


def run_tasks(tasks, tracer=None):
    """One pass over the tasks, each from empty caches; returns (wall seconds,
    outcomes).  The wall time is the sum of the task times."""
    wall = 0.0
    outcomes = []
    for i, task in enumerate(tasks):
        verify.clear_caches()
        if tracer is not None:
            tracer.caches_cleared()
            tracer.task = i
        t0 = time.perf_counter()
        try:
            out = task.call()
            error = None
        except Exception as exc:  # a failed task is counted, the pass goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        wall += seconds
        if error is None:
            error = task.check(out)
        outcomes.append(Outcome(task.key, seconds, error,
                                task.coeffs(out) if error is None else 0))
    return wall, outcomes


def _against_digest(reference, key, text):
    want = reference.get(key)
    if want is None:
        return f"{key}: no reference digest"
    if digest(text) != want:
        return f"{key}: output differs from the reference digest"
    return None


# -- basis ------------------------------------------------------------------------

# (levels, half-weights, spaces) windows: every level, above certify's
# k <= 12, sized so that a pass stays near three seconds on one core at the
# seed commit; short passes let every build be timed many times in a run
BASIS_WINDOWS = (
    ((1, 2, 3), range(13, 25), ("full", "cusp")),
    ((4,), range(13, 21), ("full", "cusp")),
    ((5,), range(13, 17), ("full", "cusp")),
    ((6, 7, 8, 9, 10), range(13, 14), ("cusp",)),
)


def basis_builds():
    """Every (N, k, space) the basis workload builds."""
    return [(N, k, space) for levels, ks, spaces in BASIS_WINDOWS
            for N in levels for k in ks for space in spaces]


def basis_inputs(seed):
    """Each (N, k, space) once.  The set is the same for every seed, so the
    cost of a pass is too; the seed orders the builds."""
    out = basis_builds()
    random.Random(seed).shuffle(out)
    return out


def basis_key(N, k, space):
    return f"{space}:N={N}:k={k}"


def check_basis(b, N, k, space, reference):
    """Structural checks that need no reference, then the recorded digest."""
    key = basis_key(N, k, space)
    expected = (dim_modular if space == "full" else dim_cusp)(N, 2 * k)
    if len(b) != expected:
        return f"{key}: {len(b)} rows, dimension {expected}"
    vals = [e.valuation() for e in b.elements]
    if any(x >= y for x, y in zip(vals, vals[1:])):
        return f"{key}: valuations {vals} not strictly increasing"
    for i, e in enumerate(b.elements):
        if e.leading_coefficient() != 1:
            return f"{key}: row {i} is not unitary"
        for j, v in enumerate(vals):
            if j != i and v < b.prec and e.coeff(v) != 0:
                return f"{key}: row {i} is nonzero at pivot q^{v}"
    return _against_digest(reference, key, basis_text(b))


def basis_task(N, k, space, reference):
    name = "m_basis" if space == "full" else "s_basis"
    return Task(
        key=basis_key(N, k, space),
        call=lambda: getattr(basis, name)(N, k),
        check=lambda b: check_basis(b, N, k, space, reference),
        coeffs=lambda b: len(b) * int(b.prec),
    )


# -- expand -------------------------------------------------------------------------

EXPAND_PREC = 720   # coefficients per expansion
ORACLE_DEPTH = 24   # exponents checked against the naive oracle

_D4 = ((2, -4), (4, 8))
_E2_4_0 = ((1, 8), (2, -4))

# (expression text, naive oracle) -- every tree is built from atoms and
# catalogued generators whose closed forms the oracle spells out
EXPAND_TREES = (
    ("E[2,4,0]*E[2,4,1]*(E[2,4,0]+16*E[2,4,1])",
     lambda d: O.mul(O.mul(O.eta(_E2_4_0, d), O.eta(_D4, d), d),
                     O.add(O.eta(_E2_4_0, d), O.scale(16, O.eta(_D4, d))), d)),
    ("E4(1)^3-E6(1)^2",
     lambda d: O.add(O.power(O.eisenstein(4, 1, d), 3, d),
                     O.scale(-1, O.power(O.eisenstein(6, 1, d), 2, d)))),
    ("-3/2*(wpa(2,0,5)+wpa(4,0,5))",
     lambda d: O.scale(Fraction(-3, 2), O.add(O.wpa(2, 0, 5, d), O.wpa(4, 0, 5, d)))),
    ("1/16*(wpa(2,0,5)-wpa(4,0,5))^2",
     lambda d: O.scale(Fraction(1, 16), O.power(
         O.add(O.wpa(2, 0, 5, d), O.scale(-1, O.wpa(4, 0, 5, d))), 2, d))),
    ("wpa(1,0,5)*wpa(0,1,5)",
     lambda d: O.mul(O.wpa(1, 0, 5, d), O.wpa(0, 1, 5, d), d)),
    ("E6(2)*E4(1)-E4(2)*E6(1)",
     lambda d: O.add(O.mul(O.eisenstein(6, 2, d), O.eisenstein(4, 1, d), d),
                     O.scale(-1, O.mul(O.eisenstein(4, 2, d),
                                       O.eisenstein(6, 1, d), d)))),
    ("Ew2(7)^3", lambda d: O.power(O.weight2_combo(7, d), 3, d)),
    ("delta(2)@5*Ew2(10)",
     lambda d: O.mul(O.subst(O.eta(((1, -8), (2, 16)), -(-d // 5)), 5),
                     O.weight2_combo(10, d), d)),
    ("E[2,6,1]*E[2,6,0]",
     lambda d: O.mul(O.scale(Fraction(-1, 4), O.add(O.wpa(2, 0, 2, d),
                                                    O.scale(-1, O.wpa(2, 0, 3, d)))),
                     O.scale(-3, O.wpa(2, 0, 2, d)), d)),
    ("eta(1:6,3:6)*Ew2(3)",
     lambda d: O.mul(O.eta(((1, 6), (3, 6)), d), O.weight2_combo(3, d), d)),
)


def wpa_points(N):
    return [(a, b) for a in range(2 * N + 1) for b in (0, 1)
            if not (a % (2 * N) == 0 and b == 0)]


def expand_pool():
    """Every expansion the expand workload can draw: key -> (call, oracle).

    ``call(prec)`` runs the program; ``oracle(depth)`` is the naive expansion.
    """
    pool = {}
    for _, q in catalog.eta_leaves():
        pool[f"eta:{q.render()}"] = (
            lambda p, q=q: eta.eta_expand(q, p),
            lambda d, t=q.terms: O.eta(t, d))
    for N in range(2, 11):
        for a, b in wpa_points(N):
            pool[f"wpa:{a},{b},{N}"] = (
                lambda p, a=a, b=b, N=N: weierstrass.wpa_expand(
                    weierstrass.TorsionPoint(a, b, N), p),
                lambda d, a=a, b=b, N=N: O.wpa(a, b, N, d))
    atoms = [(f"E{w}({s})", lambda d, w=w, s=s: O.eisenstein(w, s, d))
             for w in (4, 6) for s in range(1, 11)]
    atoms += [(f"Ew2({N})", lambda d, N=N: O.weight2_combo(N, d)) for N in range(2, 11)]
    for text, orc in atoms + list(EXPAND_TREES):
        pool[f"expr:{text}"] = (
            lambda p, text=text: catalog.evaluate(parse.parse_expr(text), p), orc)
    return pool


def expand_wpa_points(N):
    """Three full-grid and three half-grid torsion points of level N, spread
    evenly over each grid."""
    out = []
    for parity in (0, 1):
        grid = [p for p in wpa_points(N) if p[0] % 2 == parity]
        out.extend(grid[i * len(grid) // 3] for i in range(3))
    return out


def expand_inputs(seed):
    """Every eta leaf, Eisenstein atom, weight-2 combination and expression
    tree, and the expand_wpa_points of levels 2..10.  The set is the same for
    every seed, so the cost of a pass and the spread of task times are too;
    the seed orders the tasks."""
    keys = [k for k in expand_pool() if not k.startswith("wpa:")]
    keys += [f"wpa:{a},{b},{N}" for N in range(2, 11) for a, b in expand_wpa_points(N)]
    random.Random(seed).shuffle(keys)
    return keys


def check_expansion(s, key, reference, expected_terms):
    if s.prec_exponent != EXPAND_PREC:
        return f"{key}: frontier q^{s.prec_exponent}, asked for q^{EXPAND_PREC}"
    low = {e: c for e, c in s.items() if e < ORACLE_DEPTH}
    if low != expected_terms:
        bad = min(e for e in set(low) | set(expected_terms)
                  if low.get(e, 0) != expected_terms.get(e, 0))
        return f"{key}: differs from the naive oracle at q^{bad}"
    return _against_digest(reference, key, series_text(s))


def expand_task(key, call, expected_terms, reference):
    return Task(
        key=key,
        call=lambda: call(EXPAND_PREC),
        check=lambda s: check_expansion(s, key, reference, expected_terms),
        coeffs=lambda s: int(s.prec_exponent * s.grid),
    )


# -- certify --------------------------------------------------------------------------


def certify_inputs(seed):
    """The levels in the order ``cuspbase verify`` runs them.  The levels
    share cached forms, so the order decides which check pays for a shared
    form; the corpus is fixed and the seed changes nothing."""
    return list(verify.SUPPORTED_LEVELS)


def certified_coeffs():
    """Coefficients of the bases the suite certifies (M and S, k <= 12, every
    level, at the default precision); constant, so that certify reports
    coefficients per second like the other workloads."""
    return sum((dim_modular(N, 2 * k) + dim_cusp(N, 2 * k)) * default_prec(N, 2 * k)
               for N in verify.SUPPORTED_LEVELS for k in range(1, 13))


def run_certify(levels, reference, tracer=None):
    """One pass of run_suite; each check is one task, timed from the moment
    its predecessor's result was made to the moment its own result is made."""
    stamps = []
    original = verify.CheckResult

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.task = len(stamps)
        return result

    verify.CheckResult = stamped
    if tracer is not None:
        tracer.task = 0
    crash = None
    try:
        t0 = time.perf_counter()
        verify.clear_caches()
        start = time.perf_counter()
        try:
            results, _ = verify.run_suite(levels, "all")
        except Exception as exc:  # every check it did not return counts as failed
            results, stamps = [], []
            crash = f"run_suite raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
    finally:
        verify.CheckResult = original
    if len(stamps) != len(results):
        raise RuntimeError(f"{len(stamps)} check results made, {len(results)} returned")
    per_check = certified_coeffs() / len(reference)
    outcomes = []
    seen = set()
    prev = start
    for r, stamp in zip(results, stamps):
        seen.add(r.check_id)
        if not r.ok:
            error = f"{r.check_id}: FAIL {r.detail}"
        else:
            error = _against_digest(reference, r.check_id, f"{r.ok} {r.detail}")
        outcomes.append(Outcome(r.check_id, stamp - prev, error,
                                0 if error else per_check))
        prev = stamp
    for check_id in sorted(set(reference) - seen):
        outcomes.append(Outcome(check_id, 0.0, f"{check_id}: {crash or 'check missing'}", 0))
    return end - t0, outcomes


# -- assembly ---------------------------------------------------------------------------

WORKLOADS = ("certify", "basis", "expand")


def make_workload(name, seed, reference):
    """(inputs, run_pass) for a workload; run_pass(tracer) -> (wall, outcomes)."""
    if name == "certify":
        levels = certify_inputs(seed)
        return levels, lambda tracer: run_certify(levels, reference["certify"], tracer)
    if name == "basis":
        inputs = basis_inputs(seed)
        tasks = [basis_task(N, k, space, reference["basis"]) for N, k, space in inputs]
    elif name == "expand":
        inputs = expand_inputs(seed)
        pool = expand_pool()
        tasks = [expand_task(key, pool[key][0], pool[key][1](ORACLE_DEPTH),
                             reference["expand"]) for key in inputs]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return inputs, lambda tracer: run_tasks(tasks, tracer)
