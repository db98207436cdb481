"""Exact arithmetic checked against sympy, an independent computer algebra
system: mixed-radicand comparisons and the square-free split."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from pmsval import ExactReal
from pmsval.exact import RADICAND_BOUND, split_square

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
