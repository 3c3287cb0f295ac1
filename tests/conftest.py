"""Shared brute-force oracles, kept independent of the library's fast paths.

Everything here works on plain dense integer/Fraction lists indexed from
exponent 0, with schoolbook convolution only, so the oracles share no code
with the QSeries engine they are used to check.
"""

from fractions import Fraction


def naive_convolve(a, b, prec):
    """Schoolbook product of dense coefficient lists, truncated below prec."""
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        if x:
            top = min(len(b), prec - i)
            for j in range(top):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


def _mul_one_minus(coeffs, e):
    # multiply by the two-term factor (1 - q^e)
    out = list(coeffs)
    for i in range(len(coeffs) - 1, e - 1, -1):
        out[i] -= coeffs[i - e]
    return out


def _mul_geometric(coeffs, e):
    # multiply by 1/(1 - q^e) = sum_j q^{e j}: out_i = c_i + c_{i-e} + ...,
    # kept as the running sum out_i = c_i + out_{i-e}
    out = list(coeffs)
    for i in range(e, len(out)):
        out[i] += out[i - e]
    return out


def naive_eta_product_part(terms, prec):
    """Integer coefficients of prod_m prod_k (1 - q^{mk})^{r_m} below prec.

    Factors are multiplied in one at a time; negative exponents use the
    geometric series of each factor.  No binary powering, no Newton steps.
    """
    out = [0] * prec
    out[0] = 1
    for m, r in sorted(terms):
        for k in range(1, (prec - 1) // m + 1):
            e = m * k
            for _ in range(abs(r)):
                out = _mul_one_minus(out, e) if r > 0 else _mul_geometric(out, e)
    return out


def naive_sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def series_coeffs(s, upto):
    """Dense integer-exponent coefficients [q^0 .. q^(upto-1)] of a QSeries."""
    return [s.coeff(e) for e in range(upto)]


def frac(p, q=1):
    return Fraction(p, q)
