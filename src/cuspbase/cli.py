"""Command-line front end: dimension tables, basis dumps, expansion, verify.

Output is byte-deterministic for fixed inputs; every dump starts with a
format-version line.  Exit codes: 0 success, 1 verification failure,
2 usage error (any ValueError) or a request that ran out of memory,
3 internal invariant violation.  The environment variable CUSPBASE_PREC
overrides the default precision policy.

``expand --eta TEXT`` and ``expand --wpa TEXT`` take the argument text of an
``eta(...)`` or ``wpa(...)`` atom and read it with the expression parser, so
a malformed or out-of-range argument is echoed with a caret at its position,
as for ``--expr``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .basis import m_basis, s_basis
from .catalog import SUPPORTED_LEVELS, evaluate, get_catalog
from .dimensions import default_prec, dimension_pairs, sturm_bound
from .errors import CuspbaseError, ExprSyntaxError
from .eta import eta_expand
from .expr import _frac_str, render
from .parse import parse_atom, parse_expr
from .weierstrass import wpa_expand

FORMAT_VERSION = "cuspbase.v1"


def _series_row(series, upto):
    return " ".join(_frac_str(series.coeff(e)) for e in range(upto))


def _parse_levels(text):
    if text == "all":
        return list(SUPPORTED_LEVELS)
    try:
        level = int(text)
    except ValueError:
        raise ValueError(f"level must be an integer or 'all', got {text!r}") from None
    return [level]


def _parse_weights(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        hi = lo
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"weights must look like LO..HI, got {text!r}") from None
    if lo % 2 or hi % 2 or lo < 2 or hi < lo:
        raise ValueError("weight bounds must be even, >= 2 and ordered")
    return lo, hi


def _env_prec():
    raw = os.environ.get("CUSPBASE_PREC")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"CUSPBASE_PREC must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("CUSPBASE_PREC must be positive")
    return value


def _prec(args, default):
    """--prec, else CUSPBASE_PREC, else the default; only None is unset."""
    if args.prec is not None:
        return args.prec
    env = _env_prec()
    return default if env is None else env


# -- subcommands -----------------------------------------------------------------

def cmd_dims(args, out):
    levels = _parse_levels(args.level)
    lo, hi = _parse_weights(args.weights)
    weights = range(lo, hi + 1, 2)
    # every row first, so a bad level prints nothing; both rows of a level
    # come from one pass over its invariants
    rows = []
    for N in levels:
        pairs = dimension_pairs(N, weights)
        rows.append(f"level {N} dim_S: " + " ".join(str(s) for _, s in pairs))
        rows.append(f"level {N} dim_M: " + " ".join(str(m) for m, _ in pairs))
    print(f"# {FORMAT_VERSION} dims weights={lo}..{hi}", file=out)
    for row in rows:
        print(row, file=out)
    return 0


def cmd_basis(args, out):
    try:
        N = int(args.level)
    except ValueError:
        raise ValueError(f"level must be an integer, got {args.level!r}") from None
    w = args.weight
    if w % 2 or w < 2:
        raise ValueError("weight must be an even integer >= 2")
    k = w // 2
    prec = _prec(args, default_prec(N, w))
    floor = sturm_bound(N, w) + 1
    if prec < floor:
        raise ValueError(f"precision {prec} is below the floor {floor} "
                         f"for weight {w} at level {N}")
    basis = s_basis(N, k, prec) if args.space == "cusp" else m_basis(N, k, prec)
    upto = int(basis.prec)
    if args.format == "jsonl":
        import json  # only this writer uses it: the other paths start faster

        header = {
            "format": FORMAT_VERSION, "kind": "basis", "level": N,
            "weight": w, "space": args.space, "precision": upto,
            "rows": len(basis),
        }
        print(json.dumps(header, sort_keys=True), file=out)
        for i, el in enumerate(basis.elements, start=1):
            row = {
                "level": N, "weight": w, "space": args.space, "index": i,
                "valuation": int(el.valuation()),
                "coeffs": [_frac_str(el.coeff(e)) for e in range(upto)],
            }
            print(json.dumps(row, sort_keys=True), file=out)
    else:
        print(f"# {FORMAT_VERSION} basis level={N} weight={w} "
              f"space={args.space} prec={upto} rows={len(basis)}", file=out)
        for i, el in enumerate(basis.elements, start=1):
            print(f"{i} {int(el.valuation())}: {_series_row(el, upto)}", file=out)
    return 0


def cmd_expand(args, out):
    prec = _prec(args, 16)
    if prec < 1:
        raise ValueError("precision must be positive")
    if args.eta is not None:
        # eta_expand, not evaluate: a half-integral weight still expands
        series = eta_expand(parse_atom("eta", args.eta), prec)
        source = f"eta({''.join(args.eta.split())})"
    elif args.wpa is not None:
        point = parse_atom("wpa", args.wpa)
        series = wpa_expand(point, prec)
        source = render(point)
    else:
        series = evaluate(parse_expr(args.expr), prec)
        source = args.expr
    print(f"# {FORMAT_VERSION} series prec={prec}", file=out)
    print(f"{source} = {series.to_str()}", file=out)
    return 0


def cmd_verify(args, out):
    from .verify import run_suite  # only this command runs the suite

    levels = _parse_levels(args.level)
    for N in levels:
        get_catalog(N)   # raises UnsupportedLevel before the header
    print(f"# {FORMAT_VERSION} verify levels={args.level} suite={args.suite}",
          file=out)
    results, all_ok = run_suite(levels, args.suite)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.check_id} {r.detail}", file=out)
    counts = f"{sum(r.ok for r in results)}/{len(results)} checks passed"
    print(f"# {counts}", file=out)
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspbase",
        description="Exact bases and certification for modular form spaces "
                    "on Gamma0(N), N = 1..10.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="dimension tables for M and S")
    p.add_argument("--level", default="all", help="level 1..10 or 'all'")
    p.add_argument("--weights", default="2..16", help="even weight range LO..HI")

    p = sub.add_parser("basis", help="emit an echelon basis")
    p.add_argument("--level", required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--space", choices=("cusp", "full"), default="cusp")
    p.add_argument("--prec", type=int, default=None)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser(
        "expand", help="expand an eta quotient, expression, or Weierstrass value",
        description="--eta and --wpa take the argument text of an eta(...) or "
                    "wpa(...) atom.  All three inputs are read by the expression "
                    "parser: a malformed or out-of-range argument is echoed "
                    "with a caret at its position.")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta", help='eta quotient as "m:r,m:r"')
    group.add_argument("--expr", help="catalogue expression")
    group.add_argument("--wpa", help="torsion point as a,b,N")
    p.add_argument("--prec", type=int, default=None)

    p = sub.add_parser("verify", help="run the certification suite")
    p.add_argument("--level", default="all", help="level 1..10 or 'all'")
    p.add_argument("--suite", choices=("paper", "structure", "all"),
                   default="all")
    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "dims": cmd_dims,
        "basis": cmd_basis,
        "expand": cmd_expand,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args, out)
    except ValueError as exc:
        if isinstance(exc, ExprSyntaxError):
            # only expand parses text; echo whichever of its inputs was given
            text = next(t for t in (args.expr, args.eta, args.wpa) if t is not None)
            print(text, file=sys.stderr)
            print(" " * exc.position + "^", file=sys.stderr)
        print(f"cuspbase: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        from shlex import join

        print(f"cuspbase: error: out of memory for request: {join(argv)}",
              file=sys.stderr)
        return 2
    except CuspbaseError as exc:
        print(f"cuspbase: internal invariant violation: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
