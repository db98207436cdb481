"""Exact real arithmetic and ordering, checked against 50-digit decimals.

The decimal interval evaluation is the test oracle only; the implementation
under test never leaves exact rational arithmetic.
"""

from __future__ import annotations

import copy
import pickle
import random
import time
from collections import namedtuple
from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from pmsval import ExactReal, exact
from pmsval.errors import InvariantError, SchemaError
from pmsval.exact import (RADICAND_BOUND, _isign, _split_square_product,
                          split_square)
from pmsval.jsonio import decode_exact

getcontext().prec = 50

seeded = settings(max_examples=400, deadline=None, derandomize=True,
                  database=None)


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
    assert hash(ExactReal.surd(1, 2, 3)) == hash(ExactReal.surd(1, 1, 12))
    assert ExactReal.surd(0, 1, 2) != ExactReal.surd(0, 1, 3)
    half = ExactReal.rational(Fraction(2, 4))
    assert half == ExactReal.rational(Fraction(1, 2))
    assert hash(half) == hash(ExactReal.rational(Fraction(1, 2)))


@pytest.mark.parametrize("x, text", [
    (ExactReal.rational(Fraction(-3, 4)), "-3/4"),
    (ExactReal.surd(0, 1, 2), "√2"),
    (ExactReal.surd(1, -1, 3), "1-√3"),
    (ExactReal.surd(0, 2, 5), "2*√5"),
    (ExactReal.surd(Fraction(1, 2), -3, 2), "1/2-3*√2")])
def test_repr(x, text):
    assert repr(x) == text


def test_rational_value_only_of_a_rational():
    assert ExactReal.rational(Fraction(5, 3)).rational_value == Fraction(5, 3)
    with pytest.raises(InvariantError):
        ExactReal.surd(0, 1, 2).rational_value


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


@pytest.mark.parametrize("b, d", [(10 ** 12, 2), (-10 ** 12, 2),
                                  (1, 4294967291), (-1, 4294967291)])
def test_floor_guess_is_at_most_one_off(monkeypatch, b, d):
    # floor corrects its guess one comparison per step, so a guess that is
    # off by about |b|*sqrt(d) would take that many comparisons.
    x = ExactReal.surd(0, b, d)
    inner, calls = ExactReal.compare, []

    def counting(self, other):
        calls.append(other)
        assert len(calls) <= 3, "floor's guess is more than one off"
        return inner(self, other)

    monkeypatch.setattr(ExactReal, "compare", counting)
    m = x.floor()
    monkeypatch.undo()
    root = isqrt(b * b * d)
    assert m == (root if b > 0 else -root - 1)


def test_radicand_near_the_bound_decodes_quickly():
    start = time.perf_counter()
    x = decode_exact({"surd": {"a": "0", "b": "1", "d": 4294967291}},
                     "value", {})
    assert time.perf_counter() - start < 0.05
    assert x.d == 4294967291 and x.b == 1


@pytest.mark.parametrize("d", [2 ** 32, 2 ** 32 + 15, 10 ** 18])
def test_radicand_at_or_above_the_bound_is_refused(d):
    assert d >= RADICAND_BOUND
    start = time.perf_counter()
    with pytest.raises(InvariantError):
        ExactReal.surd(0, 1, d)
    with pytest.raises(SchemaError):
        decode_exact({"surd": {"a": "0", "b": "1", "d": d}}, "value", {})
    assert time.perf_counter() - start < 0.05


def test_surd_sum_does_not_refactor_the_radicand(monkeypatch):
    x, y = ExactReal.surd(1, 2, 1000000007), ExactReal.surd(-3, 5, 1000000007)
    calls = []
    monkeypatch.setattr(exact, "split_square",
                        lambda n: calls.append(n) or split_square(n))
    total = x
    for _ in range(20):
        total = total + y
    zero, shifted = x + (-x), x + ExactReal.rational(Fraction(1, 2))
    # The checked constructor below splits its radicand; the sums did not.
    assert calls == []
    assert total == ExactReal(Fraction(-59), Fraction(102), 1000000007)
    assert zero == ExactReal.rational(0)
    assert shifted == ExactReal(Fraction(3, 2), Fraction(2), 1000000007)


# ---------------------------------------------------------------------------
# The integer fast paths against the Fraction formulas they replace


BIG = 10 ** 30
SQUAREFREE = [2, 3, 5, 6, 7, 10, 11]
# Small rationals make ties and shared surd parts common; big ones reach
# 10^30 in numerator and denominator.
rationals = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
exact_reals = st.one_of(
    st.builds(ExactReal.rational, rationals),
    st.builds(ExactReal.surd, rationals, rationals, st.sampled_from(SQUAREFREE)))


@st.composite
def exact_pairs(draw) -> tuple[ExactReal, ExactReal]:
    """Two exact reals of one of the shapes compare distinguishes: any two,
    one radicand, one surd part, one value built twice, or one side
    rational, on either side."""
    x = draw(exact_reals)
    shape = draw(st.sampled_from(["any", "radicand", "surd part", "equal",
                                  "rational right", "rational left"]))
    if shape == "any":
        return x, draw(exact_reals)
    if shape == "rational right":
        return x, ExactReal.rational(draw(rationals))
    if shape == "rational left":
        return ExactReal.rational(draw(rationals)), x
    if shape == "radicand":
        return x, ExactReal.surd(draw(rationals), draw(rationals), x.d)
    if shape == "surd part":
        return x, ExactReal(draw(rationals), x.b, x.d)
    return x, ExactReal.surd(Fraction(x.a.numerator, x.a.denominator),
                             Fraction(x.b.numerator, x.b.denominator), x.d)


def ref_sign(q: Fraction) -> int:
    return (q > 0) - (q < 0)


def ref_sign_surd(a: Fraction, b: Fraction, d: int) -> int:
    if b == 0 or d == 1:
        return ref_sign(a + b)
    if a == 0:
        return ref_sign(b)
    sa, sb = ref_sign(a), ref_sign(b)
    if sa == sb:
        return sa
    return sa if a * a - b * b * d > 0 else sb


def ref_sign_sqrt_diff(b1: Fraction, d1: int, b2: Fraction, d2: int) -> int:
    s1, s2 = ref_sign(b1), ref_sign(b2)
    if s1 != s2:
        return s1 if s1 != 0 else -s2
    if s1 == 0:
        return 0
    return s1 if b1 * b1 * d1 - b2 * b2 * d2 > 0 else -s1


def ref_compare(x: ExactReal, y: ExactReal) -> int:
    """Three-way comparison written with Fraction operators only."""
    if x.d == y.d and x.b == y.b:
        return ref_sign(x.a - y.a)
    if x.d == y.d:
        return ref_sign_surd(x.a - y.a, x.b - y.b, x.d)
    if x.b == 0 or y.b == 0:
        diff_b, d = (x.b, x.d) if x.b != 0 else (-y.b, y.d)
        return ref_sign_surd(x.a - y.a, diff_b, d)
    r = y.a - x.a
    su = ref_sign_sqrt_diff(x.b, x.d, y.b, y.d)
    if r == 0 or su != ref_sign(r):
        return su
    s, dprod = split_square(x.d * y.d)
    usq_a = x.b * x.b * x.d + y.b * y.b * y.d
    usq_b = Fraction(-2) * x.b * y.b * s
    cmp_sq = ref_sign_surd(usq_a - r * r, usq_b, dprod)
    return cmp_sq if su > 0 else -cmp_sq


@seeded
@given(exact_pairs())
def test_compare_agrees_with_the_fraction_formula(pair):
    x, y = pair
    assert x.compare(y) == ref_compare(x, y)
    assert y.compare(x) == -x.compare(y)


def test_integer_sign_agrees_with_the_fraction_formula():
    # Small integers reach a + b = 0 and 1 over radicand 1, and
    # 3^2 - 2^2 * 2 = 1 over radicand 2.
    for d in (1, 2, 3, 5, 6, 7):
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert _isign(a, b, d) == \
                    ref_sign_surd(Fraction(a), Fraction(b), d), (a, b, d)


FRACTION_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__truediv__", "__rtruediv__", "__pow__",
                      "__neg__", "__abs__", "__eq__", "__lt__", "__le__",
                      "__gt__", "__ge__", "__bool__")


def test_surd_comparison_calls_no_fraction_operator(monkeypatch):
    # Distinct radicands, one radicand with different surd parts, and a
    # rational against a surd: each sign is taken on integer numerators
    # and denominators.
    s, q = ExactReal.surd, Fraction
    pairs = [
        # rational and surd parts of one sign
        (s(q(1, 3), q(-2, 7), 2), s(q(5, 4), q(3, 5), 3)),
        # equal rational parts
        (s(q(-7, 2), q(3, 4), 6), s(q(-7, 2), q(2, 3), 10)),
        # opposite signs: the squares decide
        (s(q(3, 2), q(1, 3), 2), s(q(1, 2), q(2, 5), 3)),
        # rational parts one apart, and 0 < sqrt(3) - sqrt(2) < 1
        (s(1, 1, 3), s(0, 1, 2)),
        # one radicand
        (s(q(1, 3), q(-2, 7), 6), s(q(-5, 4), q(3, 5), 6)),
        (s(q(9, 8), q(1, 6), 5), s(q(4, 3), q(1, 7), 5)),
        # one side rational
        (s(q(2, 3), q(-1, 2), 7), ExactReal.rational(q(-1, 5)))]
    expected = [ref_compare(x, y) for x, y in pairs]
    calls = []
    for name in FRACTION_OPERATORS:
        method = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda *args, _m=method, _n=name:
                            calls.append(_n) or _m(*args))
    got = [x.compare(y) for x, y in pairs] + [y.compare(x) for x, y in pairs]
    assert calls == []
    assert got == expected + [-e for e in expected]
    q(1, 2) < q(1, 3)  # the patch is live: this one is counted
    assert calls == ["__lt__"]


@seeded
@given(exact_pairs())
def test_equality_is_compare_zero_and_equal_values_hash_equal(pair):
    x, y = pair
    assert (x == y) == (x.compare(y) == 0) == (x.a == y.a and x.b == y.b
                                                and x.d == y.d)
    if x == y:
        assert hash(x) == hash(y)
    assert (x < y) == (x.compare(y) < 0)
    assert x != (x.a, x.b, x.d) and x != x.a
    assert x != tuple(x) and tuple(x) != x and not x == tuple(x)


@seeded
@given(rationals, rationals, st.sampled_from(SQUAREFREE), st.integers(1, 50),
       st.integers(1, BIG))
def test_unnormalised_inputs_of_one_value_are_equal(a, b, d, s, k):
    scaled_a = Fraction(a.numerator * k, a.denominator * k)
    assert ExactReal.rational(scaled_a) == ExactReal.rational(a)
    assert hash(ExactReal.rational(scaled_a)) == hash(ExactReal.rational(a))
    for x, y in ((ExactReal.surd(a, b, 4 * d), ExactReal.surd(a, 2 * b, d)),
                 (ExactReal.surd(a, b, s * s * d), ExactReal.surd(a, s * b, d))):
        assert x == y and hash(x) == hash(y) and x.compare(y) == 0


# Integer rational parts are common (oracle values are integer tuples):
# + and scaled take an integer path for them.
integral = st.builds(Fraction, st.integers(-BIG, BIG))
parts = st.one_of(integral, rationals)


@st.composite
def summands(draw) -> tuple[ExactReal, ExactReal]:
    """Two exact reals that can be added: rational parts often integers,
    and the second rational, over the first one's radicand, or cancelling
    the first one's surd part."""
    x = draw(st.one_of(
        st.builds(ExactReal.rational, parts),
        st.builds(ExactReal.surd, parts, rationals,
                  st.sampled_from(SQUAREFREE))))
    shape = draw(st.sampled_from(["rational", "radicand", "cancel"]))
    if shape == "rational" or x.is_rational:
        return x, ExactReal.rational(draw(parts))
    b = -x.b if shape == "cancel" else draw(rationals)
    return x, ExactReal.surd(draw(parts), b, x.d)


def fraction_sum(x: ExactReal, y: ExactReal) -> tuple:
    b = x.b + y.b
    return (x.a + y.a, b, max(x.d, y.d) if b else 1)


def assert_exact_real(x: ExactReal, expected: tuple) -> None:
    assert (x.a, x.b, x.d) == expected
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert_canonical(x)


@seeded
@given(summands(), st.one_of(st.just(0), st.integers(-BIG, BIG), rationals))
def test_sum_and_scaled_agree_with_the_fraction_route(pair, n):
    x, y = pair
    assert_exact_real(x + y, fraction_sum(x, y))
    assert_exact_real(y + x, fraction_sum(x, y))
    assert_exact_real(x - y, fraction_sum(x, -y))
    q = Fraction(n)
    for z in (x, y):
        assert_exact_real(z.scaled(n),
                          (z.a * q, z.b * q, z.d) if q else (0, 0, 1))


# ---------------------------------------------------------------------------
# Canonical form: b == 0 exactly when d == 1


def assert_canonical(x: ExactReal) -> None:
    assert (x.b == 0) == (x.d == 1) == x.is_rational
    assert x.d == 1 or split_square(x.d)[0] == 1


@seeded
@given(rationals, rationals, st.sampled_from(SQUAREFREE), st.integers(1, 40),
       rationals)
def test_every_way_of_making_an_exact_real_is_canonical(a, b, d, s, q):
    surd = ExactReal.surd(a, b, d)
    made = [
        ExactReal.rational(a),
        surd,
        ExactReal.surd(a, b, s * s),  # a square radicand
        ExactReal.surd(a, b, s * s * d),
        surd + ExactReal.surd(0, -b, d),  # the surd part cancels
        surd + ExactReal.rational(q),
        ExactReal.rational(q) + surd,
        surd - surd,
        surd.scaled(0),
        surd.scaled(q),
        -surd,
        -ExactReal.rational(a),
        decode_exact({"rat": str(a)}, "value", {}),
        decode_exact({"surd": {"a": str(a), "b": str(b), "d": d}},
                     "value", {}),
        decode_exact({"surd": {"a": str(a), "b": str(b), "d": s * s}},
                     "value", {}),
        decode_exact({"surd": {"a": str(a), "b": "0", "d": d}}, "value", {}),
    ]
    for x in made:
        assert_canonical(x)
    assert made[2].is_rational and made[4].is_rational
    assert made[7] == made[8] == ExactReal.rational(0)


def test_copies_keep_the_value_and_tuple_repetition_is_refused():
    x = ExactReal.surd(Fraction(1, 2), -3, 12)
    assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) \
        == x
    with pytest.raises(TypeError):
        x * 2
    with pytest.raises(TypeError):
        2 * x


@pytest.mark.parametrize("a, b, d", [(1, 0, 2), (0, 0, 6), (1, 1, 1), (0, 2, 0),
                                     (1, -1, -3), (0, 1, 4), (0, 1, 8),
                                     (1, 2, 12), (0, 1, 2 ** 32 + 15)])
def test_direct_construction_outside_the_canonical_form_is_refused(a, b, d):
    with pytest.raises(InvariantError):
        ExactReal(Fraction(a), Fraction(b), d)


# ---------------------------------------------------------------------------
# The integer kernel against a Fraction reference
#
# ExactReal holds the five integers (d, an, ad, bn, bd).  The reference
# keeps a and b as Fractions and takes every step with Fraction operators,
# from the inputs a value was built from, never from the integers under
# test.

Ref = namedtuple("Ref", "a b d")
ZERO = Fraction(0)


def ref_surd(a: Fraction, b: Fraction, d: int) -> Ref:
    """Canonical a + b*sqrt(d) for d > 0: the largest square dividing d
    moves into b, and b == 0 or a square d leaves radicand 1."""
    if b == 0:
        return Ref(a, ZERO, 1)
    s = max(k for k in range(1, isqrt(d) + 1) if d % (k * k) == 0)
    b, d = b * s, d // (s * s)
    return Ref(a + b, ZERO, 1) if d == 1 else Ref(a, b, d)


def ref_sum(x: Ref, y: Ref) -> Ref | None:
    """x + y, or None over two distinct radicands."""
    if x.d != 1 and y.d != 1 and x.d != y.d:
        return None
    b = x.b + y.b
    return Ref(x.a + y.a, b, max(x.d, y.d) if b else 1)


def ref_floor(x: Ref) -> int:
    """With x = (A + B*sqrt(d))/D on integers, D > 0: B*sqrt(d) is
    irrational unless B == 0, so its floor n is isqrt(B^2*d), or
    -isqrt(B^2*d) - 1 for B < 0, and floor(x) = floor((A + n)/D)."""
    D = x.a.denominator * x.b.denominator
    A, B = x.a.numerator * x.b.denominator, x.b.numerator * x.a.denominator
    root = isqrt(B * B * x.d)
    return (A + (root if B >= 0 else -root - 1)) // D


def assert_held_as(x: ExactReal, ref: Ref) -> None:
    """x holds ref's value as the canonical five integers, and hashes as
    their tuple."""
    d, an, ad, bn, bd = x
    assert (x.d, x.an, x.ad, x.bn, x.bd) == (d, an, ad, bn, bd)
    assert (Fraction(an, ad), Fraction(bn, bd), d) == ref
    assert ad > 0 and bd > 0 and gcd(an, ad) == 1 == gcd(bn, bd)
    assert (d == 1) == (bn == 0)
    assert d == 1 or split_square(d)[0] == 1
    assert hash(x) == hash((ref.d, ref.a.numerator, ref.a.denominator,
                            ref.b.numerator, ref.b.denominator))


# Inputs are drawn from pools, which keeps 200,000 pairs quick to make.
RADICANDS = range(1, 49)
SMALL_QS = [Fraction(n, m) for n in range(-9, 10) for m in range(1, 7)]
BIG_QS = [Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
          for rng in [random.Random(11)] for _ in range(500)]


def random_inputs(rng: random.Random) -> tuple[tuple, tuple]:
    """Inputs of surd() for two values: mostly small rationals, so that
    ties and shared surd parts are common, at times 30-digit ones, a b of 0
    at times, and radicands up to 48, squares and square multiples
    included; in a third of the pairs one radicand, and in a tenth one value
    written twice."""
    r, choice = rng.random, rng.choice

    def q() -> Fraction:
        return choice(BIG_QS if r() < 0.1 else SMALL_QS)

    (a, b, d), (c, e, f) = [(q(), ZERO if r() < 0.2 else q(),
                             choice(RADICANDS)) for _ in "xy"]
    if r() < 0.3:
        e, f = (b if r() < 0.5 else e), d
    if r() < 0.1:
        k = choice(RADICANDS[:6])
        c, e, f = a, b * k, d * k * k
    return (a, b, d), (c, e, f)


def test_compare_and_surd_agree_with_the_fraction_reference():
    rng = random.Random(2026)
    for _ in range(200_000):
        p, q = random_inputs(rng)
        x, y = ExactReal.surd(*p), ExactReal.surd(*q)
        rx, ry = ref_surd(*p), ref_surd(*q)
        assert x.compare(y) == ref_compare(rx, ry), (p, q)
        assert (x.a, x.b, x.d) == rx, p


def test_arithmetic_agrees_with_the_fraction_reference():
    rng = random.Random(2027)
    for _ in range(20_000):
        p, q = random_inputs(rng)
        x, y = ExactReal.surd(*p), ExactReal.surd(*q)
        rx, ry = ref_surd(*p), ref_surd(*q)
        assert_held_as(x, rx)
        assert_held_as(y, ry)
        assert_held_as(-x, Ref(-rx.a, -rx.b, rx.d))
        assert_held_as(ExactReal.rational(p[0]), Ref(p[0], ZERO, 1))
        # The decoder hands surd() its numerals as rational ExactReals.
        a, b = map(ExactReal.rational, p[:2])
        assert_held_as(ExactReal.surd(a, b, p[2]), rx)
        assert_held_as(ExactReal.rational(a), Ref(p[0], ZERO, 1))
        c = ref_compare(rx, ry)
        assert (x == y, x != y) == (rx == ry, rx != ry)
        assert (x < y, x <= y, x > y, x >= y) == (c < 0, c <= 0, c > 0, c >= 0)
        assert y.compare(x) == -c
        total = ref_sum(rx, ry)
        if total is None:
            with pytest.raises(InvariantError):
                x + y
        else:
            assert_held_as(x + y, total)
            assert_held_as(y + x, total)
            assert_held_as(x - y, ref_sum(rx, Ref(-ry.a, -ry.b, ry.d)))
        for k in (rng.randint(-3, 3), q[0]):  # an int, and a Fraction
            assert_held_as(x.scaled(k),
                           Ref(rx.a * k, rx.b * k, rx.d) if k else
                           Ref(ZERO, ZERO, 1))
        assert x.floor() == ref_floor(rx)
