"""Exact real arithmetic and ordering, checked against 50-digit decimals.

The decimal interval evaluation is the test oracle only; the implementation
under test never leaves exact rational arithmetic.
"""

from __future__ import annotations

import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pmsval import ExactReal, exact
from pmsval.errors import InvariantError, SchemaError
from pmsval.exact import RADICAND_BOUND, _split_square_product, split_square
from pmsval.jsonio import decode_exact

getcontext().prec = 50


def to_decimal(x: ExactReal) -> Decimal:
    a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
    if x.is_rational:
        return a
    b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
    return a + b * Decimal(x.d).sqrt()


def random_surd(rng: random.Random) -> ExactReal:
    a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    if rng.random() < 0.25:
        return ExactReal.rational(a)
    b = Fraction(rng.choice([k for k in range(-30, 31) if k]), rng.randint(1, 20))
    d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 15])
    return ExactReal.surd(a, b, d)


def test_split_square():
    assert split_square(12) == (2, 3)
    assert split_square(49) == (7, 1)
    assert split_square(30) == (1, 30)
    with pytest.raises(InvariantError):
        split_square(0)


def test_square_part_of_distinct_squarefree_product():
    squarefree = [d for d in range(2, 200) if split_square(d)[0] == 1]
    for i, d1 in enumerate(squarefree):
        for d2 in squarefree[i + 1:]:
            assert _split_square_product(d1, d2) == split_square(d1 * d2)
            assert _split_square_product(d2, d1) == split_square(d1 * d2)


def test_surd_normalization():
    x = ExactReal.surd(1, 1, 12)
    assert (x.a, x.b, x.d) == (Fraction(1), Fraction(2), 3)
    assert ExactReal.surd(3, 2, 9) == ExactReal.rational(9)
    assert ExactReal.surd(0, 0, 7) == ExactReal.rational(0)


def test_rational_vs_surd_squaring():
    # 1 + sqrt(2) vs 5/2 decided by exact squaring: (3/2)^2 = 9/4 > 2.
    x = ExactReal.surd(1, 1, 2)
    assert x < ExactReal.rational(Fraction(5, 2))
    assert ExactReal.rational(Fraction(7, 5)) < ExactReal.surd(0, 1, 2)


def test_equality_is_structural_on_canonical_form():
    assert ExactReal.surd(1, 2, 3) == ExactReal.surd(1, 1, 12)
    assert ExactReal.surd(0, 1, 2) != ExactReal.surd(0, 1, 3)


def test_addition_and_scaling():
    x = ExactReal.surd(1, 1, 2)
    y = ExactReal.surd(-1, 2, 2)
    assert x + y == ExactReal.surd(0, 3, 2)
    assert x - x == ExactReal.rational(0)
    assert x.scaled(2) == ExactReal.surd(2, 2, 2)
    assert x.scaled(0) == ExactReal.rational(0)
    assert (-x) + x == ExactReal.rational(0)


def test_add_distinct_radicands_rejected():
    with pytest.raises(InvariantError):
        ExactReal.surd(0, 1, 2) + ExactReal.surd(0, 1, 3)


def test_comparison_against_decimal_oracle():
    rng = random.Random(20260810)
    for _ in range(600):
        x, y = random_surd(rng), random_surd(rng)
        got = x.compare(y)
        diff = to_decimal(x) - to_decimal(y)
        if got == 0:
            assert abs(diff) < Decimal("1e-35")
        elif got < 0:
            assert diff < Decimal("-1e-35")
        else:
            assert diff > Decimal("1e-35")


def test_mixed_radicand_comparison_never_equal():
    # sqrt(2) + sqrt(3) vs sqrt(5)-ish combinations stay decidable.
    rng = random.Random(7)
    for _ in range(200):
        x, y = random_surd(rng), random_surd(rng)
        if x.is_rational or y.is_rational or x.d == y.d:
            continue
        assert x.compare(y) != 0


@given(st.integers(-60, 60), st.integers(1, 12),
       st.integers(-30, 30), st.integers(1, 12),
       st.sampled_from([2, 3, 5, 7, 10]))
def test_sign_matches_decimal(a_num, a_den, b_num, b_den, d):
    x = ExactReal.surd(Fraction(a_num, a_den), Fraction(b_num, b_den), d)
    dec = to_decimal(x)
    sign = x.compare(ExactReal.rational(0))
    if sign == 0:
        assert abs(dec) < Decimal("1e-35")
    else:
        assert (dec > 0) == (sign > 0)


@given(st.integers(-600, 600), st.integers(1, 12),
       st.integers(-300, 300), st.integers(1, 12),
       st.sampled_from([2, 3, 5, 7, 10]))
def test_floor_matches_decimal(a_num, a_den, b_num, b_den, d):
    x = ExactReal.surd(Fraction(a_num, a_den), Fraction(b_num, b_den), d)
    m = x.floor()
    assert m <= to_decimal(x) < m + 1
    assert ExactReal.rational(m) <= x < ExactReal.rational(m + 1)


def test_radicand_near_the_bound_decodes_quickly():
    start = time.perf_counter()
    x = decode_exact({"surd": {"a": "0", "b": "1", "d": 4294967291}})
    assert time.perf_counter() - start < 0.05
    assert x.d == 4294967291 and x.b == 1


@pytest.mark.parametrize("d", [2 ** 32 + 15, 10 ** 18])
def test_radicand_at_or_above_the_bound_is_refused(d):
    assert d >= RADICAND_BOUND
    start = time.perf_counter()
    with pytest.raises(InvariantError):
        ExactReal.surd(0, 1, d)
    with pytest.raises(SchemaError):
        decode_exact({"surd": {"a": "0", "b": "1", "d": d}})
    assert time.perf_counter() - start < 0.05


def test_surd_sum_does_not_refactor_the_radicand(monkeypatch):
    x, y = ExactReal.surd(1, 2, 1000000007), ExactReal.surd(-3, 5, 1000000007)
    calls = []
    monkeypatch.setattr(exact, "split_square",
                        lambda n: calls.append(n) or split_square(n))
    total = x
    for _ in range(20):
        total = total + y
    assert total == ExactReal(Fraction(-59), Fraction(102), 1000000007)
    assert x + (-x) == ExactReal.rational(0)
    assert x + ExactReal.rational(Fraction(1, 2)) == \
        ExactReal(Fraction(3, 2), Fraction(2), 1000000007)
    assert calls == []
