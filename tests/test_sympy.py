"""Exact arithmetic checked against sympy, an independent computer algebra
system: mixed-radicand comparisons, the square-free split, and sums,
differences, products and equality of sparse elements of Q(t) under the
composite valuation."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmsval import ExactReal, Value
from pmsval.exact import RADICAND_BOUND, split_square
from pmsval.oracle import CompositeField, QtElement

sympy = pytest.importorskip("sympy")

seeded = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 21, 30, 35, 105, 65537)
fractions = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(1, 10 ** 4))


def as_sympy(x: ExactReal):
    return (sympy.Rational(x.a.numerator, x.a.denominator)
            + sympy.Rational(x.b.numerator, x.b.denominator)
            * sympy.sqrt(x.d))


def sympy_sign(expr) -> int:
    sign = sympy.sign(expr)
    assert sign.is_number and sign in (-1, 0, 1), expr
    return int(sign)


def near_sqrt(d: int, digits: int) -> Fraction:
    """A rational within 10^-digits below sqrt(d)."""
    return Fraction(isqrt(d * 10 ** (2 * digits)), 10 ** digits)


@seeded
@given(fractions, fractions, st.sampled_from(RADICANDS), fractions,
       st.sampled_from(RADICANDS), st.integers(0, 12))
def test_mixed_radicand_compare_matches_sympy(a, b, d1, b2, d2, digits):
    assume(d1 != d2 and b and b2)
    x = ExactReal.surd(a, b, d1)
    # A rational part that brings y within about 10^-digits of x, so near
    # ties are checked as well as far-apart pairs.
    a2 = a + b * near_sqrt(d1, digits) - b2 * near_sqrt(d2, digits)
    y = ExactReal.surd(a2, b2, d2)
    assert x.compare(y) == sympy_sign(as_sympy(x) - as_sympy(y))
    assert y.compare(x) == -x.compare(y)


@seeded
@given(st.one_of(st.integers(1, 10 ** 6), st.integers(1, RADICAND_BOUND - 1),
                 st.lists(st.sampled_from((2, 3, 5, 7, 11, 13, 65521)),
                          min_size=1, max_size=8).map(prod)
                 .filter(lambda n: n < RADICAND_BOUND)))
def test_split_square_matches_factorint(n):
    s, d = split_square(n)
    factors = sympy.factorint(n)
    assert s == prod(p ** (e // 2) for p, e in factors.items())
    assert d == prod(p for p, e in factors.items() if e % 2)


# ---------------------------------------------------------------------------
# Sparse Q(t) elements against sympy's cancelled fractions

t = sympy.Symbol("t")
coefficients = st.builds(Fraction, st.integers(-300, 300).filter(bool),
                         st.integers(1, 60))
# Degree up to 12 with a few nonzero terms: power -> coefficient.
sparse = st.dictionaries(st.integers(0, 12), coefficients, min_size=1,
                         max_size=4)


def element(num: dict, den: dict) -> QtElement:
    """The element num/den, given to QtElement.of as dense lists."""
    return QtElement.of(*([poly.get(e, 0) for e in range(max(poly) + 1)]
                          for poly in (num, den)))


def sympy_poly(poly: dict):
    return sympy.Poly.from_dict(
        {(e,): sympy.Rational(c.numerator, c.denominator)
         for e, c in poly.items()}, t, domain="QQ")


def sympy_value(num, den, p: int) -> Value:
    """(ord_t, v_p of the lowest coefficient) of num/den, read from the
    numerator and denominator sympy leaves after cancelling their gcd (and
    the constant factors it splits off)."""
    if num.is_zero:
        return Value(None)
    c, num, den = num.cancel(den)
    (on, cn), (od, cd) = (min(part.terms()) for part in (num, den))
    return Value.of(on[0] - od[0], sympy.multiplicity(p, c * cn)
                    - sympy.multiplicity(p, cd))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sparse, sparse, sparse, sparse,
       st.sampled_from(["distinct", "shared", "cancel"]),
       st.sampled_from((2, 3, 5)))
def test_composite_valuation_of_sums_and_products_matches_sympy(
        xn, xd, yn, yd, shape, p):
    if shape != "distinct":  # the equal-denominator path of addition
        yd = xd
    if shape == "cancel":  # the terms at x's lowest power cancel in x + y
        low = min(xn)
        yn = {**yn, low: -xn[low]}
    x, y = element(xn, xd), element(yn, yd)
    (a, b), (c, d) = ((sympy_poly(n), sympy_poly(d))
                      for n, d in ((xn, xd), (yn, yd)))
    field = CompositeField(p)
    for got, num, den in ((x + y, a * d + c * b, b * d),
                          (x - y, a * d - c * b, b * d),
                          (x * y, a * c, b * d)):
        assert field.valuate(got) == sympy_value(num, den, p), (num, den)
    assert (x == y) == (a * d - c * b).is_zero
    assert x == element({e: 2 * c for e, c in xn.items()},
                        {e: 2 * c for e, c in xd.items()})
