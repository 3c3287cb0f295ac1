"""Exact truncated power series in q over the rationals.

A series lives on an exponent grid of step 1 or 1/2 (half steps only arise
inside Weierstrass intermediates).  Internally exponents are scaled
integers: on grid g, slot i holds the coefficient of q^(i/g).  Every series
carries a precision frontier ``prec`` (scaled, exclusive): coefficients at
exponents >= prec/g are unknown, everything below is exact.  ``prec=None``
marks an exact polynomial, known to every order.

Values are immutable; all operations return new series.  Coefficients are
int numerators ``nums`` over one denominator ``den`` > 0, gcd(den, *nums) ==
1, so each value has one form and arithmetic is int work on ``nums``; read
out, a coefficient is an int when integral, else a ``fractions.Fraction``.

A product is computed only below its frontier, in one of three forms
that ``_convolve`` chooses by the shorter known run's length.  From
``_KS2_MIN`` slots it is a Kronecker product at two points (D. Harvey,
arXiv:0712.4046, "KS2"): the even-index and odd-index coefficients of each
run are packed apart into slots of exactly the bytes the width bound
needs, evaluated at plus and minus half a slot, and two products of half
the length replace one (``_kronecker2``).  From ``_KRONECKER_MIN`` slots it
is one big-integer product by Kronecker substitution at one point, with
slots rounded up to a word of 1, 2, 4 or 8 bytes (``_kronecker``).  Below
that it is a schoolbook convolution, and a run of one slot scales the
other run.  All
give the same numerators.  A square packs its one run once.  Every slot
holds its coefficient in two's complement: XOR with the integer T that has
the top bit of every slot set, then subtracting T, turns the slots into
the signed sum, and adding T, then XOR with T, turns the product back.  A
slot of at most 8 bytes comes from one ``struct`` call on little-endian
words of 1, 2, 4 or 8 bytes, cut down to its bytes by strided copies when
it is narrower than its word; a wider slot's bytes come from one
``to_bytes`` call per coefficient.  Every layout is fixed, so the packed
bytes are the same on every platform.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from struct import pack, unpack

from .errors import NotAUnit, OffGrid, PrecisionExceeded, ZeroWithinPrecision


def _to_index(e, grid):
    if type(e) is int:
        return e * grid
    f = Fraction(e) * grid
    if f.denominator != 1:
        raise OffGrid(f"exponent {e} is not on the 1/{grid} grid")
    return f.numerator


def _from_index(i, grid):
    if grid == 1:
        return i
    f = Fraction(i, grid)
    return f.numerator if f.denominator == 1 else f


def _ratio(n, d):
    # the value n/d as an int when integral
    if d == 1:
        return n
    return n // d if n % d == 0 else Fraction(n, d)


# shorter run length from which a product is a Kronecker product; replaying
# every product of one pass of the benchmark workloads through both kernels,
# the schoolbook loop is faster below 7 slots and the word-slot Kronecker
# product from 7 on
_KRONECKER_MIN = 8

# shorter run length from which a Kronecker product evaluates at two points
# (_kronecker2).  Replaying every product of one expand and one basis pass
# through both forms: the two-point form takes 0.7-0.85 of the one-point
# time at 200-720 slots, and 0.8-0.9 from 70 slots on when slots are 10
# bytes or wider, but 1.05-1.4 with slots of 1-3 bytes below 240 slots.
# The passes' total is least, and flat within 0.1 ms, for thresholds from
# 96 to 128 slots: a lower one moves basis products of 32-95 slots onto the
# two-point form, a higher one keeps expand's products of 144-255 slots off
# it
_KS2_MIN = 96

# a slot of w <= 8 bytes widens to the smallest word that holds it:
# _WORD_SLOTS[w] is that word's size in bytes and _WORD_CODES[size] its
# struct code in the standard sizes of a "<" format; a wider slot keeps
# its w bytes
_WORD_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}
_WORD_SLOTS = {w: min(s for s in _WORD_CODES if s >= w) for w in range(1, 9)}
# bytes.translate table from a slot's top byte to the byte that extends its
# sign: 0 below 0x80, 0xff from 0x80 on
_SIGN_FILL = bytes(128) + b"\xff" * 128


def _convolve(ac, bc, length):
    """First ``length`` coefficients of the product of two int runs of at
    most ``length`` slots each, both with a nonzero entry.  By the shorter
    run's length: a two-point Kronecker product from ``_KS2_MIN`` slots, a
    one-point one from ``_KRONECKER_MIN``, a scaled copy of the other run at
    one slot, else a schoolbook loop that skips zero slots.  ``bc is ac``
    marks a square."""
    short = min(len(ac), len(bc))
    if short >= _KS2_MIN:
        return _kronecker2(ac, bc, length)
    if short >= _KRONECKER_MIN:
        return _kronecker(ac, bc, length)
    if short == 1:
        c, run = (ac[0], bc) if len(ac) == 1 else (bc[0], ac)
        out = list(run[:length]) if c == 1 else [c * x for x in run[:length]]
        return out + [0] * (length - len(out))
    out = [0] * length
    for i, ca in enumerate(ac):
        if ca == 0:
            continue
        jmax = min(len(bc), length - i)
        for j in range(jmax):
            cb = bc[j]
            if cb != 0:
                out[i + j] += ca * cb
    return out


def _slot_bytes(a, b):
    """The bytes w of a signed slot that holds every coefficient of the int
    runs a and b and of their product."""
    # no product coefficient exceeds bound in size: a slot of w bytes holds
    # it with the sign bit to spare, 2^(8w - 1) > bound.  Every input
    # coefficient is at most bound too, as the other run has a nonzero
    # entry, so a slot of s >= w bytes holds every input and product
    # coefficient as a signed s-byte integer, and packing and read-back are
    # exact
    top_a = max(max(a), -min(a))
    top_b = top_a if b is a else max(max(b), -min(b))
    bound = top_a * top_b * min(len(a), len(b))
    return (bound.bit_length() + 8) // 8


def _top(w, n):
    """T, the integer with the top bit of each of n slots of w bytes set."""
    return int.from_bytes((b"\0" * (w - 1) + b"\x80") * n, "little")


def _pack(run, w, top):
    """sum c_i 2^(8 w i) over the int run, every c_i a signed w-byte
    integer; ``top`` is T for at least len(run) slots.

    The slots hold two's complement: XOR with T turns each into its value
    plus half a slot, and subtracting T leaves the signed sum.  A slot of at
    most 8 bytes comes from one ``struct.pack`` call on little-endian words,
    kept whole when w is a word size and cut to their low w bytes by w
    strided copies when not; a wider slot takes one ``to_bytes`` call per
    coefficient.
    """
    s = _WORD_SLOTS.get(w)
    if s is None:
        data = b"".join([c.to_bytes(w, "little", signed=True) for c in run])
    else:
        data = pack(f"<{len(run)}{_WORD_CODES[s]}", *run)
        if s != w:
            slots = bytearray(w * len(run))
            for j in range(w):
                slots[j::w] = data[j::s]
            data = slots
    return (int.from_bytes(data, "little") ^ top) - top


def _unpack(value, w, n, top):
    """The first n coefficients of value = sum c_i 2^(8 w i), every c_i a
    signed w-byte integer; ``top`` is T for exactly n slots.

    Adding T makes every slot nonnegative, so the first n slots are the low
    8wn bits, and XOR with T turns them into two's complement again.  Slots
    of a word size are read by one ``struct.unpack`` call on little-endian
    words; other slots of at most 8 bytes are first spread to words whose
    upper bytes copy the sign byte, which one ``bytes.translate`` call gives
    for every slot; a wider slot takes one ``from_bytes`` call.
    """
    data = (((value + top) & ((1 << (8 * w * n)) - 1)) ^ top).to_bytes(
        w * n, "little")
    s = _WORD_SLOTS.get(w)
    if s is None:
        from_bytes = int.from_bytes
        return [from_bytes(data[i:i + w], "little", signed=True)
                for i in range(0, len(data), w)]
    if s != w:
        words = bytearray(s * n)
        for j in range(w):
            words[j::s] = data[j::w]
        fill = data[w - 1::w].translate(_SIGN_FILL)
        for j in range(w, s):
            words[j::s] = fill
        data = words
    return list(unpack(f"<{n}{_WORD_CODES[s]}", data))


def _kronecker(a, b, length):
    """First ``length`` coefficients of the product of two int runs of at
    most ``length`` slots each.

    Kronecker substitution: each run becomes one integer with a fixed-width
    little-endian slot per coefficient (``_pack``), one big-integer product
    does the convolution, and the product's slots are read back
    (``_unpack``).  A slot of at most 8 bytes is widened to a word of 1, 2,
    4 or 8 bytes.
    A square (``b is a``) packs its one run once and squares the integer.
    """
    w = _slot_bytes(a, b)
    s = _WORD_SLOTS.get(w, w)
    top = _top(s, length)
    pa = _pack(a, s, top)
    pb = pa if b is a else _pack(b, s, top)
    return _unpack(pa * pb, s, length, top)


def _kronecker2(a, b, length):
    """First ``length`` coefficients of the product of two int runs of at
    most ``length`` slots each, by Kronecker substitution at two points
    (Harvey's KS2).

    With slots of exactly w bytes, X = 2^(4w) is half a slot.  A run
    A(q) = A_e(q^2) + q A_o(q^2) is packed as its even-index and its
    odd-index coefficients apart, e = A_e(X^2) and o = A_o(X^2), and
    evaluated at X and -X as e + (o << 4w) and e - (o << 4w).  The two
    products h+ = C(X) and h- = C(-X) of C = A B are each half as long as
    one product at X^2, and give C_e(X^2) = (h+ + h-) / 2 and
    C_o(X^2) = (h+ - h-) / 2X, whose slots are C's even-index and odd-index
    coefficients.  A square squares both values.
    """
    w = _slot_bytes(a, b)
    half = 4 * w
    # the product's even half has one slot more than its odd half when
    # length is odd, and the odd half's T drops that slot
    n_even, n_odd = (length + 1) // 2, length // 2
    top = _top(w, n_even)
    points = []
    for run in (a,) if b is a else (a, b):
        e = _pack(run[0::2], w, top)
        o = _pack(run[1::2], w, top) << half
        points.append((e + o, e - o))
    (ap, am), (bp, bm) = points[0], points[-1]
    hp, hm = ap * bp, am * bm
    out = [0] * length
    out[0::2] = _unpack((hp + hm) >> 1, w, n_even, top)
    out[1::2] = _unpack((hp - hm) >> (half + 1), w, n_odd,
                        top >> 8 * w * (n_even - n_odd))
    return out


def _min_prec(p, q):
    if p is None:
        return q
    if q is None:
        return p
    return min(p, q)


class QSeries:
    """Immutable truncated q-series with exact rational coefficients.

    The raw constructor takes *scaled* indices (``lead`` and ``prec`` in
    units of 1/grid) and a run of rationals over an int ``den``.  Use
    :meth:`make`, :meth:`one`, :meth:`zero` or :meth:`monomial` to build
    series from plain exponents.
    """

    __slots__ = ("grid", "lead", "nums", "den", "prec")

    def __init__(self, grid, lead, coeffs, prec, den=1):
        if grid not in (1, 2):
            raise ValueError(f"grid must be 1 or 2, got {grid}")
        if prec is not None:
            if int(prec) != prec:
                raise OffGrid(f"precision index {prec} is not integral")
            prec = int(prec)
        if not set(map(type, coeffs)) <= {int}:
            coeffs = [Fraction(c) for c in coeffs]
            d = lcm(*(c.denominator for c in coeffs))
            coeffs = [c.numerator * (d // c.denominator) for c in coeffs]
            den *= d
        self._settle(grid, lead, coeffs, prec, den)

    def _settle(self, grid, lead, nums, prec, den):
        """Store the int run ``nums`` over ``den`` in canonical form."""
        if prec is not None and len(nums) > prec - lead:
            nums = nums[:max(prec - lead, 0)]
        # strip leading zeros (advance the lead), then trailing zeros
        i, j = 0, len(nums)
        while i < j and not nums[i]:
            i += 1
        while j > i and not nums[j - 1]:
            j -= 1
        nums = nums[i:j]
        lead += i
        # collapse the half grid when no odd-index coefficient is known nonzero
        # and the frontier is a whole exponent, so no unknown becomes a zero
        if grid == 2 and not (prec or 0) % 2 and not any(nums[(lead + 1) % 2::2]):
            nums = nums[lead % 2::2]
            lead = (lead + 1) // 2
            grid = 1
            if prec is not None:
                prec //= 2
        if not nums:
            lead = prec if prec is not None else 0
            den = 1
        elif den != 1:
            g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
            if g != 1:
                den //= g
                nums = [c // g for c in nums]
        self.grid = grid
        self.lead = lead
        self.nums = tuple(nums)
        self.den = den
        self.prec = prec

    # -- constructors --------------------------------------------------

    @classmethod
    def make(cls, lead, coeffs, prec=None, grid=1):
        """Build a series from a lead *exponent* and a dense coefficient run."""
        lead_idx = _to_index(lead, grid)
        prec_idx = None if prec is None else _to_index(prec, grid)
        return cls(grid, lead_idx, coeffs, prec_idx)

    @classmethod
    def zero(cls, prec=None, grid=1):
        prec_idx = None if prec is None else _to_index(prec, grid)
        return cls(grid, 0, [], prec_idx)

    @classmethod
    def one(cls, prec=None):
        prec_idx = None if prec is None else _to_index(prec, 1)
        return cls(1, 0, [1], prec_idx)

    @classmethod
    def monomial(cls, exponent, coeff=1, prec=None):
        e = Fraction(exponent)
        grid = e.denominator
        if grid not in (1, 2):
            raise OffGrid(f"exponent {exponent} needs a grid finer than 1/2")
        prec_idx = None if prec is None else _to_index(prec, grid)
        return cls(grid, e.numerator * (grid // e.denominator), [coeff], prec_idx)

    # -- inspection ----------------------------------------------------

    @property
    def is_zero(self):
        """True when no nonzero coefficient is known (zero within precision)."""
        return not self.nums

    @property
    def prec_exponent(self):
        return None if self.prec is None else _from_index(self.prec, self.grid)

    def coeff(self, e):
        """Exact coefficient of q^e.  Raises beyond the precision frontier."""
        idx = _to_index(e, self.grid)
        if self.prec is not None and idx >= self.prec:
            raise PrecisionExceeded(
                f"coefficient of q^{e} is beyond the frontier q^{self.prec_exponent}"
            )
        if idx < self.lead or idx >= self.lead + len(self.nums):
            return 0
        return _ratio(self.nums[idx - self.lead], self.den)

    def valuation(self):
        """Exponent of the first nonzero coefficient."""
        if not self.nums:
            raise ZeroWithinPrecision("series is zero within its precision")
        return _from_index(self.lead, self.grid)

    def leading_coefficient(self):
        if not self.nums:
            raise ZeroWithinPrecision("series is zero within its precision")
        return _ratio(self.nums[0], self.den)

    def items(self):
        """Known nonzero (exponent, coefficient) pairs, ascending."""
        return [
            (_from_index(self.lead + j, self.grid), _ratio(c, self.den))
            for j, c in enumerate(self.nums)
            if c
        ]

    # -- grid handling ---------------------------------------------------

    def _upcast(self, grid):
        # not canonical: only for use inside one operation
        if grid == self.grid:
            return self
        assert grid == 2 and self.grid == 1
        nums = [0] * max(2 * len(self.nums) - 1, 0)
        nums[::2] = self.nums
        out = QSeries.__new__(QSeries)
        out.grid = 2
        out.lead = self.lead * 2
        out.nums = nums
        out.den = self.den
        out.prec = None if self.prec is None else self.prec * 2
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries(1, 0, [other], None)
        if not isinstance(other, QSeries):
            return NotImplemented
        g = max(self.grid, other.grid)
        a, b = self._upcast(g), other._upcast(g)
        prec = _min_prec(a.prec, b.prec)
        lo = min(a.lead, b.lead)
        hi = max(a.lead + len(a.nums), b.lead + len(b.nums))
        if prec is not None:
            hi = min(hi, prec)
        n = max(hi - lo, 0)
        den = a.den if a.den == b.den else lcm(a.den, b.den)
        out = [0] * n
        for s in (a, b):
            i = s.lead - lo
            run = s.nums[:max(n - i, 0)]
            if s.den != den:
                m = den // s.den
                run = [m * c for c in run]
            out[i:i + len(run)] = map(operator.add, out[i:i + len(run)], run)
        return _series(g, lo, out, prec, den)

    __radd__ = __add__

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, r):
        """Multiply every coefficient by the exact scalar r."""
        p, q = (r, 1) if type(r) is int else Fraction(r).as_integer_ratio()
        return _series(self.grid, self.lead, [p * c for c in self.nums], self.prec,
                       self.den * q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        g = max(self.grid, other.grid)
        a, b = self._upcast(g), other._upcast(g)
        # frontier: each factor's unknown tail is shifted by the other's lead
        pa = None if a.prec is None else a.prec + b.lead
        pb = None if b.prec is None else b.prec + a.lead
        prec = _min_prec(pa, pb)
        if not a.nums or not b.nums:
            return _series(g, 0, [], prec)
        lead = a.lead + b.lead
        den = a.den * b.den
        if prec is None:
            length = len(a.nums) + len(b.nums) - 1
        else:
            length = min(len(a.nums) + len(b.nums) - 1, prec - lead)
        # a square (self * self, on either grid: a factor on its own grid is
        # not upcast) hands the kernel one run, which it packs once
        ac = a.nums[:length]
        bc = ac if b is a else b.nums[:length]
        return _series(g, lead, _convolve(ac, bc, length), prec, den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        # the result starts at its first factor: a product by QSeries.one()
        # would be a schoolbook pass over that factor's whole run
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return QSeries.one() if result is None else result

    def invert(self, prec=None):
        """Reciprocal series; requires valuation zero.

        The result satisfies self * invert(self) == 1 up to the precision
        frontier.  A finite frontier is required: pass ``prec`` when the
        series is an exact polynomial.  For self = sum a_k q^k / den this is
        den * sum_n c_n q^n / a_0^(n+1), where sum_n c_n q^n is 1 divided
        by the unit 1 + sum_k a_k a_0^(k-1) q^k: the ints c_n come from
        ``_quotient``'s recurrence over the nonzero a_k only, so a sparse
        unit such as an Euler product, with O(sqrt(prec)) nonzero
        coefficients of +-1, costs O(prec^1.5) additions and no products.
        The scaling by den and the powers of a_0 is skipped when both are 1.
        """
        if not self.nums:
            raise NotAUnit("cannot invert a series that is zero within precision")
        if self.lead != 0:
            raise NotAUnit(
                f"cannot invert a series of valuation {self.valuation()}"
            )
        prec_idx = None if prec is None else _to_index(prec, self.grid)
        eff = _min_prec(self.prec, prec_idx)
        if eff is None:
            raise ValueError("invert needs a finite precision frontier")
        a0 = self.nums[0]
        powers = [a0 ** i for i in range(eff + 1)]
        # offsets k and values a_k a_0^(k-1) of the nonzero a_k, ascending
        ks = [k for k, c in enumerate(self.nums[1:eff], 1) if c]
        out = _quotient([1] + [0] * (eff - 1), ks,
                        [self.nums[k] * powers[k - 1] for k in ks])
        if a0 == 1 and self.den == 1:
            return _series(self.grid, 0, out, eff)
        nums = [c * p * self.den for c, p in zip(out, reversed(powers[:eff]))]
        return _series(self.grid, 0, nums, eff, powers[eff])

    def substitute_q_power(self, d):
        """The map f(tau) -> f(d*tau): every exponent is multiplied by d."""
        if not isinstance(d, int) or d < 1:
            raise ValueError("substitution power must be a positive integer")
        if d == 1:
            return self
        nums = [0] * max(d * (len(self.nums) - 1) + 1, 0)
        nums[::d] = self.nums
        prec = None if self.prec is None else self.prec * d
        return _series(self.grid, self.lead * d, nums, prec, self.den)

    def truncate(self, prec):
        """Lower the precision frontier to the given exponent."""
        prec_idx = _to_index(prec, self.grid)
        if self.prec is not None and self.prec <= prec_idx:
            return self
        return _series(self.grid, self.lead, self.nums, prec_idx, self.den)

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.lead == other.lead
            and self.nums == other.nums
            and self.den == other.den
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((self.grid, self.lead, self.nums, self.den, self.prec))

    def __repr__(self):
        return f"QSeries({self.to_str(max_terms=6)})"

    def to_str(self, var="q", max_terms=None):
        parts = []
        for e, c in self.items():
            if max_terms is not None and len(parts) >= max_terms:
                parts.append("...")
                break
            if e == 0:
                term = str(c)
            else:
                ev = str(e) if Fraction(e).denominator == 1 else f"({e})"
                if c == 1:
                    term = var if e == 1 else f"{var}^{ev}"
                elif c == -1:
                    term = f"-{var}" if e == 1 else f"-{var}^{ev}"
                else:
                    term = f"{c}*{var}" if e == 1 else f"{c}*{var}^{ev}"
            parts.append(term)
        if not parts:
            parts.append("0")
        s = " + ".join(parts).replace("+ -", "- ")
        if self.prec is not None:
            pe = self.prec_exponent
            pv = str(pe) if Fraction(pe).denominator == 1 else f"({pe})"
            s += f" + O({var}^{pv})"
        return s


def _series(grid, lead, nums, prec, den=1):
    # a series from an int run: no clearing pass, straight to canonical form
    out = QSeries.__new__(QSeries)
    out._settle(grid, lead, nums, prec, den)
    return out


def _quotient(run, offsets, values):
    """The first len(run) coefficients of run / (1 + sum_k values_k q^offsets_k).

    ``offsets`` ascend from 1 and each ``values_k`` is a nonzero int.  Then
    out_i = run_i - sum_k values_k out_(i - offsets_k) over the offsets <= i.
    The offsets whose value is +1 or -1 are summed by index alone, with no
    product; every other value makes one product per slot.  While out_i is
    due, ``out`` holds out_0 .. out_(i-1), so out[-k] is out_(i-k).
    """
    n = len(run)
    plus, minus, others, vals = [], [], [], []
    # (offset, counts of each group's offsets up to it): from slot offset
    # on, out_i reads that many of each group
    steps = []
    for k, c in zip(offsets, values):
        if k >= n:
            break
        if c == 1:
            plus.append(-k)
        elif c == -1:
            minus.append(-k)
        else:
            others.append(-k)
            vals.append(c)
        steps.append((k, len(plus), len(minus), len(others)))
    steps.append((n, 0, 0, 0))
    out = []
    at, mul = out.__getitem__, operator.mul
    lo, p, q, o, v = 0, [], [], [], []
    for hi, jp, jm, jo in steps:
        for x in run[lo:hi]:
            if p:
                x -= sum(map(at, p))
            if q:
                x += sum(map(at, q))
            if o:
                x -= sum(map(mul, v, map(at, o)))
            out.append(x)
        lo, p, q, o, v = hi, plus[:jp], minus[:jm], others[:jo], vals[:jo]
    return out


def mul_substituted(a, f, m):
    """The product a * f(q^m), where f(q^m) is ``f.substitute_q_power(m)``.

    f(q^m) has m - 1 zero slots out of every m, so the product's exponent
    class r mod m (counted from its lead) is a_r * f read at q^m, where a_r
    holds a's coefficients at the same class: one ``_convolve`` call per
    class on about 1/m of the slots, written back by slice assignment.  A
    class whose run of a is all zero is left zero, as the kernel needs a
    nonzero entry in each run.  An f off a's grid takes the product with
    f(q^m).
    """
    g = a.grid
    if f.grid != g or not a.nums or not f.nums:
        return a * f.substitute_q_power(m)
    pa = None if a.prec is None else a.prec + m * f.lead
    pb = None if f.prec is None else m * f.prec + a.lead
    prec = _min_prec(pa, pb)
    lead = a.lead + m * f.lead
    length = (len(a.nums) - 1) + m * (len(f.nums) - 1) + 1
    if prec is not None:
        length = min(length, prec - lead)
    out = [0] * length
    for r in range(m):
        ar = a.nums[r:length:m]
        if any(ar):
            n = len(range(r, length, m))
            out[r::m] = _convolve(ar, f.nums[:n], n)
    return _series(g, lead, out, prec, a.den * f.den)


def first_mismatch(a, b):
    """First exponent below the common frontier where two series differ: the
    valuation of a - b, or None when they agree on every commonly known
    coefficient."""
    diff = a - b
    return None if diff.is_zero else diff.valuation()
