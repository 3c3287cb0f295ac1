"""Parser for the small catalogue-expression grammar.

Atoms:  eta(m:r[,m:r]*)   E[w,N,s]   E4(d)  E6(d)  Ew2(N)
        wpa(a,b,N)        delta(N)   qser(v: c0,c1,...)
Operators: + - * ^ with the usual precedences, parentheses, rational
scalars p/q, and the postfix scaling f@d for f(d*tau).

An eta atom parses to its EtaQuotient and a wpa atom to its TorsionPoint;
E[w,N,s] must name a catalogued generator.  An atom whose arguments are
rejected is reported at its first character.  parse_atom reads the argument
text of one atom on its own, as the command line's --eta and --wpa do.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import _catalogued, get_catalog
from .errors import ExprSyntaxError, UnknownAtom
from .eta import EtaQuotient
from .expr import Add, Const, Delta, Eis, Gen, Lit, Mul, Pow, Subst, W2
from .weierstrass import TorsionPoint

_ATOM_NAMES = ("eta", "E4", "E6", "Ew2", "wpa", "delta", "qser")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    # -- lexical helpers --------------------------------------------------

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def _int(self):
        self._skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start:self.pos])

    def _checked_int(self, ok, message):
        """An integer that passes ``ok``; else an error at its first character."""
        self._skip_ws()
        start = self.pos
        n = self._int()
        if not ok(n):
            raise ExprSyntaxError(message, start)
        return n

    def _valid_at(self, start, check, *args):
        """check(*args), with its ValueError raised as an error at start."""
        try:
            return check(*args)
        except ValueError as exc:
            raise ExprSyntaxError(str(exc), start) from None

    def _rational(self):
        num = self._int()
        if self.peek() == "/":
            self.pos += 1
            return Fraction(num, self._checked_int(bool, "zero denominator"))
        return Fraction(num)

    def _name(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos], start

    # -- grammar -----------------------------------------------------------

    def parse(self, rule):
        """rule(), which must consume the whole text."""
        node = rule()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError("unexpected trailing input", self.pos)
        return node

    def expression(self):
        negate = self.peek() == "-"
        if negate:
            self.pos += 1
        terms = [self.term(negate)]
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                terms.append(self.term(False))
            elif ch == "-":
                self.pos += 1
                terms.append(self.term(True))
            else:
                break
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def term(self, negate):
        """A product; a negated one takes the sign into a leading scalar
        (-3*f is Const(-3) times f), else as a leading factor -1."""
        factors = [self.factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.factor())
        if negate:
            if isinstance(factors[0], Const):
                factors[0] = Const(-factors[0].value)
            else:
                factors.insert(0, Const(Fraction(-1)))
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return Mul((Const(Fraction(-1)), self.factor()))
        node = self.primary()
        while True:
            ch = self.peek()
            if ch == "^":
                self.pos += 1
                n = self._checked_int(lambda x: x >= 0, "powers must be nonnegative")
                node = Pow(node, n)
            elif ch == "@":
                self.pos += 1
                d = self._checked_int(lambda x: x > 0,
                                      "scaling factor must be positive")
                node = Subst(node, d)
            else:
                return node

    def primary(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expression()
            self.expect(")")
            return node
        if ch.isdigit():
            return Const(self._rational())
        if ch == "E" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] == "[":
            start = self.pos
            self.pos += 2
            w = self._int()
            self.expect(",")
            n = self._int()
            self.expect(",")
            s = self._int()
            self.expect("]")
            gen = Gen(w, n, s)
            self._valid_at(start, _catalogued, gen)
            return gen
        name, start = self._name()
        if not name:
            raise ExprSyntaxError("expected an atom, number or parenthesis", self.pos)
        if name not in _ATOM_NAMES:
            raise UnknownAtom(f"unknown atom {name!r} at position {start}")
        self.expect("(")
        node = self._atom_body(name, start)
        self.expect(")")
        return node

    def _atom_body(self, name, start):
        if name == "eta":
            pairs = []
            # no factors: ")" ends them, or the end of parse_atom's text
            if self.peek() not in (")", ""):
                while True:
                    m = self._int()
                    self.expect(":")
                    r = self._int()
                    pairs.append((m, r))
                    if self.peek() != ",":
                        break
                    self.pos += 1
            return self._valid_at(start, EtaQuotient, pairs)
        if name in ("E4", "E6"):
            d = self._checked_int(lambda x: x > 0, "Eisenstein scale must be positive")
            return Eis(int(name[1]), d)
        if name == "Ew2":
            return W2(self._checked_int(lambda x: x >= 2, "Ew2 needs a level >= 2"))
        if name == "wpa":
            a = self._int()
            self.expect(",")
            b = self._int()
            self.expect(",")
            n = self._int()
            return self._valid_at(start, TorsionPoint, a, b, n)
        if name == "delta":
            # every level has its structuring form, but only a catalogued
            # one evaluates: get_catalog names the range at the number
            self._skip_ws()
            at = self.pos
            level = self._int()
            self._valid_at(at, get_catalog, level)
            return Delta(level)
        if name == "qser":
            lead = self._int()
            self.expect(":")
            coeffs = [self._rational()]
            while self.peek() == ",":
                self.pos += 1
                coeffs.append(self._rational())
            return Lit(lead, tuple(coeffs))


def parse_expr(text):
    """Parse expression text into a form-expression tree."""
    parser = _Parser(text)
    return parser.parse(parser.expression)


def parse_atom(name, text):
    """Parse the argument text of one atom: parse_atom("wpa", "2,0,5") is
    parse_expr("wpa(2,0,5)"), with positions counted in ``text``."""
    if name not in _ATOM_NAMES:
        raise UnknownAtom(f"unknown atom {name!r}")
    parser = _Parser(text)
    return parser.parse(lambda: parser._atom_body(name, 0))
