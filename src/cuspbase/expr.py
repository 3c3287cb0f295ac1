"""Expression trees for catalogued modular forms.

Leaves are eta quotients (``EtaQuotient``), Eisenstein atoms, weight-2 level
combinations, Weierstrass values at torsion points (``TorsionPoint``),
explicit truncated q-expansions, and references to the catalogued
generators and to the structuring form delta_N, which
``dimensions.delta_profile`` derives from the level.
Internal nodes are sums, products, integer powers and the scaling map
f(tau) -> f(d*tau).  Rational scalars are Const leaves of weight 0.

Every tree has a well-defined weight, checked structurally: products add
weights, powers multiply them, and all summands must agree (explicit
q-expansion literals act as wildcards).

Nodes are immutable records (``_record.Record``): equal when type and
fields are, and hashed once, so a deep tree is a memo key of O(1) cost.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .dimensions import delta_profile
from .errors import WeightMismatch
from .eta import EtaQuotient
from .weierstrass import TorsionPoint


class Const(Record):
    __slots__ = ("value",)

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


class Eis(Record):
    __slots__ = ("weight", "scale")  # weight 4 or 6
    _defaults = {"scale": 1}


class W2(Record):
    """The weight-2 combination (N E_2(N tau) - E_2(tau)) / (N - 1)."""

    __slots__ = ("level",)


class Gen(Record):
    """Reference to the catalogued generator of given weight/level/index."""

    __slots__ = ("weight", "level", "index")


class Delta(Record):
    """Reference to the structuring form of the given level."""

    __slots__ = ("level",)


class Lit(Record):
    """Explicit truncated q-expansion; known through lead+len(coeffs) only."""

    __slots__ = ("lead", "coeffs")


class Add(Record):
    __slots__ = ("terms",)


class Mul(Record):
    __slots__ = ("factors",)


class Pow(Record):
    __slots__ = ("base", "exponent")


class Subst(Record):
    """f(tau) -> f(d tau)."""

    __slots__ = ("child", "d")


def expr_weight(expr):
    """Structural weight of an expression; None when undetermined.

    A Delta reference weighs the rho that ``delta_profile`` derives for its
    level (UnsupportedLevel when the level is not a positive integer).
    Raises WeightMismatch when summands disagree.
    """
    if isinstance(expr, Const):
        return 0 if expr.value != 0 else None
    if isinstance(expr, EtaQuotient):
        if not isinstance(expr.weight, int):
            raise WeightMismatch(
                f"eta quotient {render(expr)} has half-integer weight {expr.weight}")
        return expr.weight
    if isinstance(expr, Eis):
        return expr.weight
    if isinstance(expr, (W2, TorsionPoint)):
        return 2
    if isinstance(expr, Gen):
        return expr.weight
    if isinstance(expr, Delta):
        return delta_profile(expr.level)[1]
    if isinstance(expr, Lit):
        return None
    if isinstance(expr, Add):
        agreed = None
        for t in expr.terms:
            w = expr_weight(t)
            if w is None:
                continue
            if agreed is None:
                agreed = w
            elif agreed != w:
                raise WeightMismatch(f"sum mixes weights {agreed} and {w}")
        return agreed
    if isinstance(expr, Mul):
        # every factor is checked, also after a weightless one
        weights = [expr_weight(f) for f in expr.factors]
        return None if None in weights else sum(weights)
    if isinstance(expr, Pow):
        w = expr_weight(expr.base)
        return None if w is None else w * expr.exponent
    if isinstance(expr, Subst):
        return expr_weight(expr.child)
    raise TypeError(f"not a form expression: {expr!r}")


# -- builders used by the catalogue and tests --------------------------------

def eta(*pairs):
    return EtaQuotient(pairs)


def add(*terms):
    return Add(tuple(terms))


def mul(*factors):
    return Mul(tuple(factors))


def sub(a, b):
    return Add((a, Mul((Const(Fraction(-1)), b))))


def scaled(p, q, child):
    return Mul((Const(Fraction(p, q)), child))


def neg(child):
    return Mul((Const(Fraction(-1)), child))


def power(base, e):
    """base^e, and base itself when e == 1, so one form has one memo key."""
    return base if e == 1 else Pow(base, e)


# -- rendering ---------------------------------------------------------------

def _frac_str(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _precedence(expr):
    if isinstance(expr, Add):
        return 1
    if isinstance(expr, Mul) or isinstance(expr, Const) and expr.value < 0:
        return 2
    if isinstance(expr, (Pow, Subst)):
        return 3
    return 4


def _wrap(expr, floor):
    """render(expr), in parentheses when it binds looser than ``floor``."""
    s = render(expr)
    return f"({s})" if _precedence(expr) < floor else s


def render(expr):
    """Canonical text for an expression, in the grammar parse() accepts.

    Sums and products are flat in the grammar, so a nested sum or product
    is parenthesized, and a leading scalar carries the product's sign:
    parse_expr(render(e)) == e for the trees the catalogue builds.
    """
    if isinstance(expr, Const):
        return _frac_str(expr.value)
    if isinstance(expr, EtaQuotient):
        return f"eta({expr.render()})"
    if isinstance(expr, Eis):
        return f"E{expr.weight}({expr.scale})"
    if isinstance(expr, W2):
        return f"Ew2({expr.level})"
    if isinstance(expr, TorsionPoint):
        return f"wpa({expr.a},{expr.b},{expr.level})"
    if isinstance(expr, Gen):
        return f"E[{expr.weight},{expr.level},{expr.index}]"
    if isinstance(expr, Delta):
        return f"delta({expr.level})"
    if isinstance(expr, Lit):
        return f"qser({expr.lead}: " + ",".join(_frac_str(c) for c in expr.coeffs) + ")"
    if isinstance(expr, Add):
        parts = [_wrap(t, 2) for t in expr.terms]
        return "".join(s if i == 0 or s.startswith("-") else "+" + s
                       for i, s in enumerate(parts))
    if isinstance(expr, Mul):
        factors = list(expr.factors)
        head = ""
        if len(factors) > 1 and isinstance(factors[0], Const):
            c = factors.pop(0).value
            head = "-" if c == -1 else _frac_str(c) + "*"
        return head + "*".join(_wrap(f, 3) for f in factors)
    if isinstance(expr, Pow):
        return f"{_wrap(expr.base, 4)}^{expr.exponent}"
    if isinstance(expr, Subst):
        return f"{_wrap(expr.child, 4)}@{expr.d}"
    raise TypeError(f"not a form expression: {expr!r}")
