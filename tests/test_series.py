"""Core series arithmetic: exactness, precision propagation, ring axioms."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_convolve, naive_eta_product_part, series_coeffs
from cuspbase import series
from cuspbase.errors import (
    NotAUnit, OffGrid, PrecisionExceeded, ZeroWithinPrecision,
)
from cuspbase.eta import EtaQuotient, _euler_factor_list, eta_expand
from cuspbase.series import (
    _KRONECKER_MIN, _KS2_MIN, QSeries, _convolve, _from_index, _kronecker,
    _kronecker2, _quotient, _slot_bytes, _to_index, first_mismatch,
    mul_substituted,
)


def rand_series(rng, grid=1, max_lead=3, length=6):
    lead = rng.randrange(max_lead + 1)
    coeffs = [rng.randrange(-9, 10) for _ in range(length)]
    prec = lead + length
    return QSeries.make(
        Fraction(lead, grid), coeffs, prec=Fraction(prec, grid), grid=grid
    )


def test_coeff_examples():
    d2 = eta_expand(EtaQuotient({2: 16, 1: -8}), 6)
    assert d2.coeff(3) == 28
    assert QSeries.one().coeff(0) == 1
    # brute-force expansion of q prod (1-q^k)^24 by repeated multiplication
    prec = 8
    poly = [0] * prec
    poly[0] = 1
    for k in range(1, prec):
        factor = [0] * prec
        factor[0] = 1
        factor[k] = -1
        for _ in range(24):
            poly = naive_convolve(poly, factor, prec)
    delta = eta_expand(EtaQuotient({1: 24}), prec)
    assert delta.coeff(2) == -24 == poly[1]
    assert series_coeffs(delta, prec) == [0] + poly[: prec - 1]


def test_coeff_errors():
    s = QSeries.make(0, [1, 2, 3], prec=3)
    with pytest.raises(PrecisionExceeded):
        s.coeff(3)
    with pytest.raises(OffGrid):
        s.coeff(Fraction(1, 2))
    with pytest.raises(OffGrid):
        s.coeff(Fraction(1, 3))


def test_index_conversions_keep_values_and_types():
    # exponent <-> slot on each grid: an index is always an int, an exponent
    # an int when whole and a Fraction otherwise, whichever path computes it
    for grid in (1, 2):
        for e in (0, 3, -2, Fraction(6, 2), Fraction(-4)):
            i = _to_index(e, grid)
            assert type(i) is int and i == e * grid
            back = _from_index(i, grid)
            assert type(back) is int and back == e
    for e in (Fraction(1, 2), Fraction(-7, 2)):
        i = _to_index(e, 2)
        assert type(i) is int and i == 2 * e
        back = _from_index(i, 2)
        assert type(back) is Fraction and back == e
        with pytest.raises(OffGrid):
            _to_index(e, 1)


def test_mul_published_example():
    d2 = eta_expand(EtaQuotient({2: 16, 1: -8}), 9)
    e420 = (-3 * _wpa(2, 0, 2, 9)) ** 2
    f82 = (e420 - d2.scale(64)) * d2
    assert series_coeffs(f82, 8) == [0, 1, -8, 12, 64, -210, -96, 1016]


def _wpa(a, b, n, prec):
    from cuspbase.weierstrass import TorsionPoint, wpa_expand

    return wpa_expand(TorsionPoint(a, b, n), prec)


def test_mul_identity_and_half_grid():
    s = QSeries.make(1, [1, -8, 12], prec=4)
    assert s * QSeries.one() == s
    half = QSeries.make(Fraction(1, 2), [1], prec=4, grid=2)
    sq = half * half
    # q + O(q^(9/2)): the unknown q^(9/2) coefficient keeps the half grid
    assert sq.grid == 2 and sq.prec_exponent == Fraction(9, 2)
    assert sq.valuation() == 1
    assert sq.truncate(4).grid == 1


def test_pow():
    e = QSeries.make(0, [1, -8, 24, -32], prec=4)
    assert (e ** 0) == QSeries.one()
    sq = e ** 2
    assert series_coeffs(sq, 4) == naive_convolve([1, -8, 24, -32], [1, -8, 24, -32], 4)
    assert series_coeffs(sq, 3) == [1, -16, 112]


def test_scale_published_example():
    diff = (_wpa(2, 0, 2, 8) - _wpa(2, 0, 3, 8)).scale(Fraction(-1, 4))
    assert series_coeffs(diff, 8) == [0, 1, -1, 7, -5, 6, 5, 8]


def _euler_power(r, prec):
    # prod (1-q^k)^r by plain repeated factor products
    out = QSeries.make(0, [1], prec=prec)
    for k in range(1, prec):
        factor = [0] * prec
        factor[0] = 1
        factor[k] = -1
        fq = QSeries.make(0, factor, prec=prec)
        for _ in range(r):
            out = out * fq
    return out


def test_invert():
    assert QSeries.one(prec=5).invert() == QSeries.one(prec=5)
    geom = QSeries.make(0, [1, -1], prec=8).invert()
    assert series_coeffs(geom, 8) == [1] * 8
    # 1 / prod (1-q^k)^8: invert, then cross-check by re-multiplication
    prod8 = _euler_power(8, 10)
    inv = prod8.invert()
    assert inv.coeff(1) == 8
    assert (prod8 * inv).truncate(10) == QSeries.one(prec=10)


def test_invert_errors():
    with pytest.raises(NotAUnit):
        QSeries.make(1, [1, 2], prec=4).invert()
    with pytest.raises(NotAUnit):
        QSeries.zero(prec=4).invert()


def test_substitute_q_power():
    d4 = eta_expand(EtaQuotient({4: 8, 2: -4}), 7)
    d8 = d4.substitute_q_power(2)
    assert series_coeffs(d8, 10) == [0, 0, 1, 0, 0, 0, 4, 0, 0, 0]
    assert d8.prec_exponent == 14
    s = QSeries.make(0, [3, 1], prec=5)
    assert s.substitute_q_power(1) == s
    # divisor-sum oracle for E_4, then the exponent map
    from conftest import naive_sigma
    from cuspbase.eisenstein import eisenstein_series

    e4 = eisenstein_series(4, 4).substitute_q_power(3)
    expected = [0] * 12
    expected[0] = 1
    for n in range(1, 4):
        expected[3 * n] = 240 * naive_sigma(n, 3)
    assert series_coeffs(e4, 12) == expected


def test_valuation():
    d7 = eta_expand(EtaQuotient({7: 14, 1: -2}), 6)
    assert d7.valuation() == 4
    assert QSeries.one().valuation() == 0
    # eta valuation formula for the level-10 form, confirmed by expansion
    terms = {1: 2, 2: -4, 5: -10, 10: 20}
    formula = Fraction(sum(m * r for m, r in terms.items()), 24)
    assert formula == 6
    d10 = eta_expand(EtaQuotient(terms), 8)
    assert d10.valuation() == 6
    with pytest.raises(ZeroWithinPrecision):
        QSeries.zero(prec=3).valuation()


def test_ring_axioms_random():
    rng = random.Random(20180901)
    for _ in range(60):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        # distributivity: frontiers may differ, all shared coefficients agree
        assert first_mismatch(a * (b + c), a * b + a * c) is None


@st.composite
def rational_series(draw):
    """A series on either grid, exact or with a frontier (which may sit at or
    below the lead), from a run of small ints and fractions with zeros, so
    that sums cancel, grids collapse and long factors take the Kronecker
    path."""
    grid = draw(st.sampled_from([1, 2]))
    lead = draw(st.integers(0, 4))
    coeff = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
    run = draw(st.lists(coeff, max_size=draw(st.sampled_from([8, 48]))))
    prec = draw(st.none() | st.integers(0, 60))
    return QSeries(grid, lead, run, prec)


def assert_canonical(s):
    assert s.den > 0 and gcd(s.den, *s.nums) == 1
    assert all(type(c) is int for c in s.nums)
    assert not s.nums or (s.nums[0] and s.nums[-1])
    # the half grid only for a known nonzero half exponent or a half frontier
    assert s.grid == 1 or (s.prec or 0) % 2 or any(s.nums[(s.lead + 1) % 2::2])
    for j, n in enumerate(s.nums):
        c = s.coeff(Fraction(s.lead + j, s.grid))
        assert c == Fraction(n, s.den)
        assert type(c) is (int if n % s.den == 0 else Fraction)
    assert [c for _, c in s.items()] == [s.coeff(e) for e, _ in s.items()]


def naive_first_mismatch(a, b):
    """first_mismatch by a scan: the lowest exponent below both frontiers
    where the known coefficients differ."""
    ca, cb = dict(a.items()), dict(b.items())
    fronts = [s.prec_exponent for s in (a, b) if s.prec is not None]
    return next((e for e in sorted(ca.keys() | cb.keys())
                 if ca.get(e, 0) != cb.get(e, 0)
                 and all(e < f for f in fronts)), None)


@settings(max_examples=200, deadline=None, database=None)
@given(rational_series(), rational_series(), rational_series(),
       st.fractions(-20, 20, max_denominator=12))
def test_ring_axioms_and_canonical_form(a, b, c, r):
    for s in (a, b, a + b, a - b, a * b, a.scale(r), -a, a + r, r - a):
        assert_canonical(s)
    # frontiers may differ between the sides; known coefficients agree
    assert first_mismatch(a * (b + c), a * b + a * c) is None
    assert first_mismatch((a * b) * c, a * (b * c)) is None
    for x, y in ((a, b), (a, a + c), (a * (b + c), a * b + c)):
        m, n = first_mismatch(x, y), naive_first_mismatch(x, y)
        assert m == n and type(m) is type(n)
    assert (a - a).is_zero and a - a == a.scale(0)
    assert a.scale(r) == a * QSeries.make(0, [r])
    # one value, one form: equal values built by different routes
    cleared = QSeries(a.grid, a.lead, [Fraction(n, a.den) for n in a.nums],
                      a.prec)
    for same in (a.scale(Fraction(1, 3)).scale(3), cleared, a * QSeries.one()):
        assert same == a and hash(same) == hash(a)


def test_valuation_additivity_random():
    rng = random.Random(42)
    for _ in range(60):
        a, b = rand_series(rng), rand_series(rng)
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()


def test_invert_roundtrip_random():
    rng = random.Random(7)
    for _ in range(40):
        coeffs = [rng.choice([1, -1, 2, 3])] + [rng.randrange(-5, 6) for _ in range(7)]
        s = QSeries.make(0, coeffs, prec=8)
        assert (s * s.invert()).truncate(8) == QSeries.one(prec=8)


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from([1, 2]),
       st.fractions(max_denominator=9).filter(bool),
       st.lists(st.integers(-9, 9) | st.fractions(max_denominator=9), max_size=12),
       st.integers(1, 14), st.booleans())
def test_invert_times_self_is_one(grid, unit, tail, prec, exact):
    # f.invert() * f == 1 + O(q^prec) for a unit on either grid, given
    # either with a frontier or as an exact polynomial
    f = QSeries(grid, 0, [unit] + tail, None if exact else prec * grid)
    inv = f.invert(prec) if exact else f.invert()
    assert inv * f == QSeries.one(prec)


@st.composite
def sparse_units(draw):
    """A unit on either grid that is mostly zero: up to 6 nonzero slots among
    the first 300, a constant term +-1 or another, over a denominator 1 or
    another, with a frontier of up to 300 slots."""
    grid = draw(st.sampled_from([1, 2]))
    unit = draw(st.sampled_from([1, -1]) | st.integers(-12, 12).filter(bool))
    tail = draw(st.dictionaries(st.integers(1, 299), st.integers(-99, 99),
                                max_size=6))
    nums = [0] * (max(tail, default=0) + 1)
    nums[0] = unit
    for i, c in tail.items():
        nums[i] = c
    den = draw(st.sampled_from([1, 1, 2, 6, 35]))
    prec = draw(st.integers(1, 300 // grid))
    return QSeries(grid, 0, nums, prec * grid, den), prec


@settings(max_examples=150, deadline=None, database=None)
@given(sparse_units())
def test_invert_of_a_sparse_unit(drawn):
    # the recurrence runs over the nonzero slots only: the reciprocal must
    # still be exact, and integral for an integral unit with constant +-1
    f, prec = drawn
    inv = f.invert()
    assert f * inv == QSeries.one(prec)
    if f.den == 1 and f.nums[0] in (1, -1):
        assert inv.den == 1


@st.composite
def quotient_cases(draw):
    """(run, offsets, values) for ``_quotient``: runs of 1, 2 or up to 40
    slots, and a divisor 1 + sum_k values_k q^offsets_k whose values are
    only +-1, +-1 mixed with others, or nonzero at every offset.  The
    offsets n - 1, n and n + 1 around the run's end n are always there."""
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 40))
    run = draw(st.lists(st.integers(-99, 99), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["units", "mixed", "dense"]))
    if kind == "dense":
        offsets = list(range(1, n + 2))
    else:
        offsets = draw(st.sets(st.integers(1, n + 1), max_size=8))
        offsets = sorted(offsets | {k for k in (n - 1, n, n + 1) if k >= 1})
    unit = st.sampled_from([1, -1])
    other = st.integers(-9, 9).filter(lambda c: c not in (-1, 0, 1))
    value = {"units": unit, "mixed": unit | other,
             "dense": st.integers(-9, 9).filter(bool)}[kind]
    values = draw(st.lists(value, min_size=len(offsets), max_size=len(offsets)))
    return run, offsets, values


@settings(max_examples=300, deadline=None, database=None)
@given(quotient_cases())
def test_quotient_times_divisor_is_the_run(case):
    # the +1 and -1 offsets are summed without products and the other values
    # with one product each; every offset joins the sum at its own slot
    run, offsets, values = case
    n = len(run)
    divisor = [1] + [0] * (n + 1)
    for k, c in zip(offsets, values):
        divisor[k] = c
    out = _quotient(run, offsets, values)
    assert len(out) == n and all(type(c) is int for c in out)
    assert naive_convolve(out, divisor, n) == run


@st.composite
def int_factors(draw):
    """(grid, lead, run, prec) of an integer series as drawn: 1..200 slots,
    dense or mostly zero, coefficients up to 4, 64 or 300 bits, a nonzero
    first slot (an odd lead on the half grid, so no grid collapse), and a
    frontier inside, just past or far past the run, or none at all."""
    grid = draw(st.sampled_from([1, 2]))
    lead = draw(st.integers(0, 3)) * grid + grid - 1
    n = draw(st.integers(1, 200))
    big = 2 ** draw(st.sampled_from([4, 64, 300]))
    coeff = st.integers(-big, big)
    if draw(st.booleans()):
        run = draw(st.lists(coeff, min_size=n, max_size=n))
    else:
        run = [0] * n
        for i, c in draw(st.dictionaries(st.integers(0, n - 1), coeff,
                                         max_size=8)).items():
            run[i] = c
    run[0] = draw(coeff.filter(bool))
    prec = draw(st.none() | st.integers(lead + 1, lead + n + 5))
    return grid, lead, run, prec


def _dense_on(grid, factor):
    # the drawn series on a grid at least as fine: (lead, run, prec)
    g, lead, run, prec = factor
    step = grid // g
    dense = [0] * (step * (len(run) - 1) + 1)
    dense[::step] = run
    return lead * step, dense, None if prec is None else prec * step


@settings(max_examples=150, deadline=None, database=None)
@given(int_factors(), int_factors())
def test_integer_product_matches_schoolbook(fa, fb):
    # long factors take the Kronecker path, short ones the schoolbook loop:
    # both must give the naive convolution's values, frontier and int type
    a, b = (QSeries(*f) for f in (fa, fb))
    g = max(fa[0], fb[0])
    (la, ra, pa), (lb, rb, pb) = _dense_on(g, fa), _dense_on(g, fb)
    fronts = [p + l for p, l in ((pa, lb), (pb, la)) if p is not None]
    prec = min(fronts) if fronts else None
    known_a = ra if pa is None else ra[:pa - la]
    known_b = rb if pb is None else rb[:pb - lb]
    upto = len(ra) + len(rb) - 1 if prec is None else prec - la - lb
    product = a * b
    assert product == QSeries(g, la + lb, naive_convolve(known_a, known_b, upto), prec)
    assert product.den == 1


@st.composite
def kernel_factors(draw, grid, n):
    """(lead, run, prec) of an integer factor of n slots on the grid: mixed
    signs, or every slot one extreme value M or -M, so that a product
    coefficient reaches the kernel's width bound M^2 * (shorter length);
    M is a power of two or one less, so the bound's bit length falls on
    every residue mod 8, a byte boundary among them.  The frontier is none, or lies at
    or past the run's end, so the run is kept whole but the product may be
    cut short."""
    lead = draw(st.integers(0, 3)) * grid + grid - 1  # odd on the half grid
    bits = draw(st.integers(1, 72) | st.just(200))
    m = 2 ** bits - draw(st.integers(0, 1))
    if draw(st.booleans()):
        run = [draw(st.sampled_from([m, -m]))] * n
    else:
        run = draw(st.lists(st.integers(-m, m), min_size=n, max_size=n))
        run[0], run[-1] = m, -m
    prec = draw(st.none() | st.integers(lead + n, lead + n + 40))
    return lead, run, prec


@settings(max_examples=200, deadline=None, database=None)
@given(st.data(), st.sampled_from([1, 2]),
       st.sampled_from([_KRONECKER_MIN - 1, _KRONECKER_MIN, _KRONECKER_MIN + 1,
                        _KS2_MIN - 1, _KS2_MIN]),
       st.integers(0, 40))
def test_product_kernels_match_naive_convolution(data, grid, short, extra):
    # shorter runs on both sides of each Kronecker threshold, the longer run
    # up to 40 slots more
    fa = data.draw(kernel_factors(grid, short))
    fb = data.draw(kernel_factors(grid, short + extra))
    if data.draw(st.booleans()):
        fa, fb = fb, fa
    a, b = QSeries(grid, *fa), QSeries(grid, *fb)
    (la, ra, pa), (lb, rb, pb) = fa, fb
    fronts = [p + l for p, l in ((pa, lb), (pb, la)) if p is not None]
    prec = min(fronts) if fronts else None
    upto = len(ra) + len(rb) - 1 if prec is None else prec - la - lb
    assert min(len(a.nums), len(b.nums)) == short
    assert a * b == QSeries(grid, la + lb, naive_convolve(ra, rb, upto), prec)
    # a square hands the kernel one run: equal to the product with a copy
    copy = QSeries(grid, *fa)
    assert copy is not a and copy == a
    upto = 2 * len(ra) - 1 if pa is None else pa - la
    square = QSeries(grid, 2 * la, naive_convolve(ra, ra, upto),
                     None if pa is None else pa + la)
    assert a * a == a * copy == square


@st.composite
def word_boundary_factors(draw):
    """(bits, a, b, prec) for a Kronecker product whose width bound
    max|a| * max|b| * (shorter length) has exactly ``bits`` bits: 8s - 1,
    the most a word of s bytes holds with its sign bit, or 8s, one more, for
    s = 1, 2, 4 and 8.  b is a for a square.  Each run holds only +M, only
    -M, or mixed values up to M with M at its start; both are whole, and
    the frontier is none or cuts the product short of its full length."""
    bits = draw(st.sampled_from([8 * s - 1 + over for s in (1, 2, 4, 8)
                                 for over in (0, 1)]))
    lo, hi = 1 << (bits - 1), (1 << bits) - 1     # bounds of that bit length
    n = draw(st.integers(_KRONECKER_MIN, 40))
    square = draw(st.booleans())
    if square:
        # M^2 * n in [lo, hi]: lengthen the run until such an M exists
        while isqrt(-(-lo // n) - 1) + 1 > isqrt(hi // n):
            n += 1
        ma = mb = draw(st.integers(isqrt(-(-lo // n) - 1) + 1, isqrt(hi // n)))
        na = nb = n
    else:
        mb = draw(st.integers(1, lo // n))
        ma = draw(st.integers(-(-lo // (mb * n)), hi // (mb * n)))
        na, nb = n, n + draw(st.integers(0, 20))
        if draw(st.booleans()):
            (ma, na), (mb, nb) = (mb, nb), (ma, na)
    assert (ma * mb * min(na, nb)).bit_length() == bits

    def run(m, size):
        kind = draw(st.sampled_from(["+M", "-M", "mixed"]))
        if kind != "mixed":
            return [m if kind == "+M" else -m] * size
        out = draw(st.lists(st.integers(-m, m), min_size=size, max_size=size))
        out[0] = draw(st.sampled_from([m, -m]))
        out[-1] = out[-1] or 1
        return out

    ra = run(ma, na)
    rb = ra if square else run(mb, nb)
    prec = draw(st.none() | st.integers(max(na, nb), na + nb - 2))
    return bits, ra, rb, prec


@settings(max_examples=300, deadline=None, database=None)
@given(word_boundary_factors(), st.integers(0, 3), st.integers(0, 3))
def test_kronecker_word_boundaries_match_naive_convolution(factors, la, lb):
    # a bound of 8s - 1 bits takes the word of s bytes, one of 8s bits the
    # next wider slot, the byte slots past 8 bytes
    bits, ra, rb, prec = factors
    a = QSeries(1, la, ra, None if prec is None else la + prec)
    b = a if rb is ra else QSeries(1, lb, rb, None)
    lead = la + (la if b is a else lb)
    upto = len(ra) + len(rb) - 1 if prec is None else prec
    assert a * b == QSeries(1, lead, naive_convolve(ra, rb, upto),
                            None if prec is None else lead + prec)


@st.composite
def two_point_runs(draw):
    """(w, a, b, length) for a product whose runs of 1..300 slots need
    slots of exactly w bytes, for every w from 1 to 17 the shorter length
    allows: max|a| * max|b| * (shorter length) has 8w - 8 to 8w - 1 bits.
    b is a for a square.  Each run holds +M, -M, alternating signs or mixed
    values up to M, at least one slot at +M or -M, and may start or end with
    up to three zeros; length runs from the longer run's up to the full
    product's, odd or even."""
    la = draw(st.integers(1, 300))
    square = draw(st.booleans())
    lb = la if square else draw(st.integers(1, 300))
    n = min(la, lb)
    w = draw(st.sampled_from(range((n.bit_length() + 8) // 8, 18)))
    low_bits = max(8 * w - 8, n.bit_length())
    if square:
        # M^2 * n in [2^(bits - 1), 2^bits): some bits of the width has an M
        scales = []
        for bits in range(low_bits, 8 * w):
            lo, hi = 1 << (bits - 1), (1 << bits) - 1
            m_lo, m_hi = isqrt(-(-lo // n) - 1) + 1, isqrt(hi // n)
            if m_lo <= m_hi:
                scales.append((m_lo, m_hi))
        ma = mb = draw(st.integers(*draw(st.sampled_from(scales))))
    else:
        bits = draw(st.integers(low_bits, 8 * w - 1))
        lo, hi = 1 << (bits - 1), (1 << bits) - 1
        mb = draw(st.integers(1, max(1, lo // n)))
        ma = draw(st.integers(-(-lo // (mb * n)), hi // (mb * n)))
        if draw(st.booleans()):
            ma, mb = mb, ma
    rng = draw(st.randoms(use_true_random=False))

    def run(m, size):
        kind = draw(st.sampled_from(["+M", "-M", "+-M", "mixed"]))
        if kind == "mixed":
            out = [rng.randint(-m, m) for _ in range(size)]
        else:
            out = [-m if kind == "-M" or kind == "+-M" and i % 2 else m
                   for i in range(size)]
        zeros = draw(st.integers(0, min(3, size - 1)))
        out[:zeros] = [0] * zeros
        if draw(st.booleans()):
            tail = draw(st.integers(0, min(3, size - 1 - zeros)))
            out[size - tail:] = [0] * tail
        out[zeros] = draw(st.sampled_from([m, -m]))
        return out

    a = run(ma, la)
    b = a if square else run(mb, lb)
    length = draw(st.integers(max(la, lb), la + lb - 1))
    return w, a, b, length


@settings(max_examples=300, deadline=None, database=None)
@given(two_point_runs())
def test_two_point_kronecker_matches_one_point_and_schoolbook(case):
    # called directly, below _KS2_MIN too: every slot width from 1 to 17
    # bytes, the compacted 3, 5, 6 and 7 among them, and both parities of
    # length, so that the odd half's read-back has one slot fewer
    w, a, b, length = case
    assert _slot_bytes(a, b) == w
    want = naive_convolve(a, b, length)
    assert _kronecker2(a, b, length) == want
    assert _kronecker(a, b, length) == want


def test_convolve_routes_by_the_shorter_run(monkeypatch):
    # _KS2_MIN - 1 slots take the one-point product, _KS2_MIN the two-point
    # one, whichever side is shorter and with the longer run much longer
    calls = []
    for name in ("_kronecker", "_kronecker2"):
        kernel = getattr(series, name)
        monkeypatch.setattr(series, name, lambda a, b, length, kernel=kernel,
                            name=name: calls.append(name) or kernel(a, b, length))
    rng = random.Random(5)
    for short, want in ((_KS2_MIN - 1, "_kronecker"), (_KS2_MIN, "_kronecker2")):
        for long in (short, 3 * short):
            a = [rng.randint(-99, 99) or 1 for _ in range(short)]
            b = [rng.randint(-99, 99) or 1 for _ in range(long)]
            for x, y in ((a, b), (b, a), (a, a)):
                calls.clear()
                length = len(x) + len(y) - 1
                assert _convolve(x, y, length) == naive_convolve(x, y, length)
                assert calls == [want], (short, long)


def test_unpack_reads_back_every_slot_width_on_both_sides_of_the_limb_threshold():
    # slots of 1 to 24 bytes, at runs one short of _LIMBS_MIN, at it and
    # past it: the extremes +-(2^(8w - 1) - 1), zeros, -1 and mixed values
    rng = random.Random(11)
    for w in range(1, 25):
        m = (1 << (8 * w - 1)) - 1
        for n in (series._LIMBS_MIN - 1, series._LIMBS_MIN, 3 * series._LIMBS_MIN):
            run = [rng.choice([m, -m, 0, -1, rng.randint(-m, m)]) for _ in range(n)]
            top = series._top(w, n)
            assert series._unpack(series._pack(run, w, top), w, n, top) == run, (w, n)


@pytest.mark.parametrize("c", [1, -1, 7, -(2 ** 70)])
def test_one_slot_run_scales_the_other_run(c):
    # on either side, with the length cut short of the other run, equal to
    # it, or past it (a class product of mul_substituted), and a square
    rng = random.Random(c)
    run = [rng.randint(-9, 9) for _ in range(300)]
    run[0] = run[-1] = 3
    for length in (1, 150, 300, 304):
        cut = run[:length]
        want = naive_convolve([c], cut, length)
        assert _convolve([c], cut, length) == want
        assert _convolve(cut, [c], length) == want
    square = [c]
    assert _convolve(square, square, 1) == [c * c]


@st.composite
def sized_series(draw, grid, sizes):
    """A series on the grid whose run takes one of the sizes: small ints and
    fractions with zeros, or a sparse run, with nonzero ends, any lead and a
    frontier inside, at or past the run, or none."""
    lead = draw(st.integers(0, 4))
    n = draw(st.sampled_from(sizes))
    coeff = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=12)
    if draw(st.booleans()):
        run = draw(st.lists(coeff, min_size=n, max_size=n))
    else:
        run = [0] * n
        for i, c in draw(st.dictionaries(st.integers(0, n - 1), coeff,
                                         max_size=6)).items():
            run[i] = c
    run[0], run[-1] = draw(coeff.filter(bool)), draw(coeff.filter(bool))
    prec = draw(st.none() | st.integers(lead + n, lead + n + 3 * grid)
                | st.integers(lead, lead + n))
    return QSeries(grid, lead, run, prec)


@settings(max_examples=120, deadline=None, database=None)
@given(st.data(), st.sampled_from([1, 2]), st.integers(1, 6),
       st.integers(-2, 2))
def test_mul_substituted_matches_the_substituted_product(data, grid, m, skew):
    # a's run gives each of the m exponent classes about 1, 2,
    # _KRONECKER_MIN - 1, _KRONECKER_MIN or _KRONECKER_MIN + 1 slots, give or
    # take skew, so class products take both kernels and some classes are
    # empty; f is on either grid, long or short
    per_class = [1, 2, _KRONECKER_MIN - 1, _KRONECKER_MIN, _KRONECKER_MIN + 1]
    a = data.draw(sized_series(grid, [c * m + skew for c in per_class
                                      if c * m + skew > 0]))
    f = data.draw(sized_series(data.draw(st.sampled_from([grid, grid, 1])),
                               [1, 3, _KRONECKER_MIN, 2 * _KRONECKER_MIN + 1]))
    product = mul_substituted(a, f, m)
    assert product == a * f.substitute_q_power(m)
    assert_canonical(product)


def test_mul_substituted_keeps_each_class_on_its_slots():
    # a half-grid factor whose even slots make one class: read on the half
    # grid, that class alone would collapse to the whole grid and halve its
    # slot indices
    run = [0] * 32
    run[0] = run[4] = run[31] = 1
    a = QSeries(2, 0, run, None)
    f = QSeries.monomial(Fraction(1, 2))
    assert 2 * _KRONECKER_MIN <= len(run)
    assert mul_substituted(a, f, 2) == a * f.substitute_q_power(2) == QSeries(
        2, 2, run, None)


@settings(max_examples=60, deadline=None, database=None)
@given(st.sampled_from([1, -1]),
       st.lists(st.integers(-9, 9), min_size=64, max_size=300),
       st.integers(64, 320))
def test_integer_unit_inverse_stays_integral(unit, tail, prec):
    f = QSeries(1, 0, [unit] + tail, prec)
    inv = f.invert()
    assert inv.den == 1
    assert f * inv == QSeries.one(prec)


@pytest.mark.parametrize("m", range(1, 13))
def test_euler_factor_list_matches_naive_product(m):
    # a truncation of the naive product is its own prefix, so one oracle at
    # 800 serves every rel <= 800
    oracle = naive_eta_product_part(((m, 1),), 800)
    for rel in range(1, 801):
        assert _euler_factor_list(m, rel) == oracle[:rel]


def test_precision_propagation():
    a = QSeries.make(0, [1, 2, 3, 4, 5], prec=5)
    b = QSeries.make(1, [1, 1], prec=9)
    assert (a + b).prec_exponent == 5
    assert (a - b).prec_exponent == 5
    # frontier of a product: each factor's unknown tail shifts by the
    # other's valuation
    assert (a * b).prec_exponent == min(5 + 1, 9 + 0)
    with pytest.raises(PrecisionExceeded):
        (a * b).coeff(6)
    assert a.truncate(3).prec_exponent == 3
    # exact polynomials stay exact under ring ops
    p = QSeries.make(0, [1, 1])
    assert (p * p).prec is None
    assert (p + p).prec is None


def test_grid_normalization():
    # a half-grid series whose odd-half coefficients vanish collapses to grid 1
    # when its frontier is a whole exponent
    s = QSeries.make(0, [1, 0, 2, 0, 3], prec=Fraction(7, 2), grid=2)
    assert s.grid == 2 and s.prec_exponent == Fraction(7, 2)  # q^(7/2) unknown
    assert series_coeffs(s, 3) == [1, 2, 3]
    assert s.truncate(3).grid == 1 and s.truncate(3).prec_exponent == 3
    # collapsing at a half frontier would claim q^(5/2) is zero on one side
    a = QSeries.make(Fraction(1, 2), [1], grid=2)
    b = QSeries.make(Fraction(3, 2), [1], prec=2, grid=2)
    c = QSeries.make(0, [1, 1], grid=2)
    assert first_mismatch((a * b) * c, a * (b * c)) is None
    t = QSeries.make(Fraction(1, 2), [1], prec=3, grid=2)
    assert t.grid == 2
    assert t.valuation() == Fraction(1, 2)


def test_lead_beyond_precision_is_zero():
    # every listed coefficient sits past the O(q^3) frontier
    s = QSeries(1, 4, [1, 0, 4], 3)
    assert s.is_zero
    assert s == QSeries.zero(prec=3)


def test_zero_handling():
    z = QSeries.zero(prec=4)
    s = QSeries.make(1, [5, 1], prec=6)
    assert (z * s).is_zero
    assert (z * s).prec_exponent == 5  # zero tail shifted by the valuation
    assert (z + s) == s.truncate(4)
    assert z.scale(7).is_zero
