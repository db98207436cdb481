"""Group descriptors, membership, extensions and the lex order laws."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pmsval import (AdjoinedSurd, Cyclic, ExactReal, FormalInteger,
                    FullRational, GroupDescriptor, INFINITY, PPowerDivisible,
                    Value, groups)
from pmsval.errors import (DescriptorMismatch, InvalidAdjoin, InvariantError,
                           SchemaError)
from pmsval.groups import (PRIME_BOUND, _WITNESSES, Component, _bezout,
                           component_adjoin, component_contains,
                           component_generator, component_label, insert_zero,
                           is_prime)
from pmsval.jsonio import decode_component

from gen import random_value

SQRT2 = ExactReal.surd(0, 1, 2)


# ---------------------------------------------------------------------------
# Membership


def test_p_power_divisible_membership():
    comp = PPowerDivisible(5, Fraction(1))
    assert component_contains(comp, ExactReal.rational(Fraction(1, 125)))
    assert component_contains(comp, ExactReal.rational(Fraction(7, 25)))
    assert not component_contains(comp, ExactReal.rational(Fraction(1, 10)))
    assert not component_contains(comp, SQRT2)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(-2, 10**4 + 1) if is_prime(n)] \
        == [n for n in range(-2, 10**4 + 1) if sympy.isprime(n)]
    assert is_prime(100000007) and sympy.isprime(100000007)
    assert not is_prime(10007 * 10009)
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161)
    assert not any(is_prime(n) or sympy.isprime(n) for n in carmichael)
    # Strong pseudoprime to the bases 2, 3, 5 and 7 at once.
    assert not is_prime(3215031751) and not sympy.isprime(3215031751)
    # Strong pseudoprime to every prime base up to 37: base 41 is needed.
    assert not is_prime(318665857834031151167461)
    rng = random.Random(97)
    for n in [rng.randrange(10**17, 10**24) for _ in range(300)]:
        assert is_prime(n) == sympy.isprime(n)
    for n in (10**18 + 3, 999999999999999989, PRIME_BOUND - 2):
        assert is_prime(n) == sympy.isprime(n)
    with pytest.raises(InvariantError, match="only decided below"):
        is_prime(PRIME_BOUND)


def test_huge_prime_component_decodes_quickly_and_beyond_bound_is_refused():
    p = 10**18 + 3  # the least prime above 10^18
    start = time.perf_counter()
    comp = decode_component({"kind": "p_divisible", "p": p}, "c", {})
    assert time.perf_counter() - start < 0.05
    assert comp == PPowerDivisible(p, Fraction(1))
    with pytest.raises(InvariantError):
        PPowerDivisible(PRIME_BOUND, Fraction(1))
    with pytest.raises(SchemaError):
        decode_component({"kind": "p_divisible", "p": PRIME_BOUND}, "c",
                         {})


def test_large_prime_component_builds():
    comp = PPowerDivisible(100000007, Fraction(1))
    assert component_contains(comp, ExactReal.rational(Fraction(1, 100000007)))
    with pytest.raises(InvariantError):
        PPowerDivisible(10007 * 10009, Fraction(1))


@pytest.mark.parametrize("p", [2, 3, 7, 100000007,
                               3317044064679887385961813])  # < PRIME_BOUND
def test_p_power_membership_strips_every_factor_p(p):
    comp = PPowerDivisible(p, Fraction(1))
    for k in (1, 2, 50, 400):
        assert component_contains(comp, ExactReal.rational(Fraction(2, p ** k)))
        outside = ExactReal.rational(Fraction(1, 11 * p ** k))
        assert not component_contains(comp, outside)
        assert component_adjoin(comp, outside) \
            == PPowerDivisible(p, Fraction(1, 11))


def test_cyclic_membership():
    comp = Cyclic(Fraction(1))
    assert component_contains(comp, ExactReal.rational(3))
    assert not component_contains(comp, ExactReal.rational(Fraction(1, 2)))
    half = Cyclic(Fraction(1, 2))
    assert component_contains(half, ExactReal.rational(Fraction(3, 2)))


def test_full_rational_membership_excludes_surds():
    assert component_contains(FullRational(), ExactReal.rational(Fraction(22, 7)))
    assert not component_contains(FullRational(), SQRT2)


def test_adjoined_surd_membership_needs_matching_coset():
    comp = AdjoinedSurd(FullRational(), SQRT2)
    assert component_contains(comp, ExactReal.surd(Fraction(1, 3), 2, 2))
    assert not component_contains(comp, ExactReal.surd(0, Fraction(1, 2), 2))
    assert not component_contains(comp, ExactReal.surd(0, 1, 3))
    assert component_contains(comp, ExactReal.rational(Fraction(9, 4)))


def test_formal_integer_membership():
    assert component_contains(FormalInteger(), ExactReal.rational(-4))
    assert not component_contains(FormalInteger(), ExactReal.rational(Fraction(1, 3)))


def ref_contains(comp: Component, x: ExactReal) -> bool:
    """Membership by Fraction division: the quotient by the generator (or
    by tau's coefficient) must have the right denominator."""
    if isinstance(comp, AdjoinedSurd):
        if x.b == 0:
            return ref_contains(comp.base, x)
        if x.d != comp.tau.d:
            return False
        n = x.b / comp.tau.b
        if n.denominator != 1:
            return False
        return ref_contains(comp.base, ExactReal.rational(x.a - n * comp.tau.a))
    if x.b != 0:
        return False
    if isinstance(comp, FullRational):
        return True
    if isinstance(comp, FormalInteger):
        return x.a.denominator == 1
    if isinstance(comp, Cyclic):
        return (x.a / comp.gen).denominator == 1
    den = (x.a / comp.scale).denominator
    while den % comp.p == 0:
        den //= comp.p
    return den == 1


BIG = 10 ** 30
positive = st.one_of(st.builds(Fraction, st.integers(1, 12), st.integers(1, 12)),
                     st.builds(Fraction, st.integers(1, BIG), st.integers(1, BIG)))
rationals = st.one_of(
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
bases = st.one_of(st.builds(Cyclic, positive),
                  st.builds(PPowerDivisible, st.sampled_from([2, 3, 5, 7]),
                            positive),
                  st.just(FullRational()), st.just(FormalInteger()))
# tau may carry a negative rational part or a negative surd coefficient.
taus = st.builds(ExactReal.surd, rationals,
                 rationals.filter(bool), st.sampled_from([2, 3, 5, 6]))
components = st.booleans().flatmap(
    lambda adjoined: st.builds(AdjoinedSurd, bases, taus) if adjoined else bases)


@st.composite
def near_members(draw, comp: Component) -> ExactReal:
    """A member of comp built from its generators, shifted by a small
    rational or surd half of the time so that both answers occur."""
    base = comp.base if isinstance(comp, AdjoinedSurd) else comp
    k = draw(st.integers(-10 ** 6, 10 ** 6))
    if isinstance(base, Cyclic):
        q = base.gen * k
    elif isinstance(base, PPowerDivisible):
        q = base.scale * Fraction(k, base.p ** draw(st.integers(0, 12)))
    elif isinstance(base, FormalInteger):
        q = Fraction(k)
    else:
        q = draw(rationals)
    x = ExactReal.rational(q)
    d = 2
    if isinstance(comp, AdjoinedSurd):
        x = x + comp.tau.scaled(draw(st.integers(-50, 50)))
        d = comp.tau.d
    shift = draw(st.one_of(st.just(ExactReal.rational(0)),
                           st.builds(ExactReal.rational, rationals),
                           st.builds(ExactReal.surd, rationals, rationals,
                                     st.sampled_from([d, 2, 3, 5, 6]))))
    return x + shift if (x.d == 1 or shift.d in (1, x.d)) else shift


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_membership_agrees_with_fraction_division(data):
    comp = data.draw(components)
    x = data.draw(near_members(comp))
    assert component_contains(comp, x) == ref_contains(comp, x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_group_membership_is_membership_in_every_component(data):
    comps = data.draw(st.lists(components, min_size=1, max_size=6))
    coords = tuple(data.draw(near_members(c)) for c in comps)
    group, value = GroupDescriptor(tuple(comps)), Value(coords)
    assert group.contains(value) == all(
        component_contains(c, x) for c, x in zip(comps, coords))
    assert not group.contains(INFINITY)
    for wrong in (coords[1:], coords + coords[:1]):
        if wrong:
            with pytest.raises(DescriptorMismatch) as err:
                group.contains(Value(wrong))
            assert str(err.value) == (f"element arity {len(wrong)} vs "
                                      f"descriptor rank {len(comps)}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_column_membership_is_membership_of_every_value(data):
    comps = data.draw(st.lists(components, min_size=1, max_size=4))
    group = GroupDescriptor(tuple(comps))
    # Each level draws from a few coordinate objects, so values share some,
    # as the entries of a decoded prefix and the auto probes do.
    pools = [data.draw(st.lists(near_members(c), min_size=1, max_size=3))
             for c in comps]
    values = [Value(row) for row in data.draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in pools)), max_size=6))]
    first = tuple(pool[0] for pool in pools)
    for odd in data.draw(st.lists(st.sampled_from(
            [INFINITY, Value(first[1:]), Value(first + first[:1])]),
            max_size=2)):
        values.insert(data.draw(st.integers(0, len(values))), odd)
    assert group.contains_all(values) == all(
        not v.is_infinity and v.arity == len(comps) and group.contains(v)
        for v in values)


def test_column_membership_tests_each_coordinate_object_once(monkeypatch):
    half = ExactReal.rational(Fraction(1, 2))
    column = [ExactReal.rational(k) for k in range(3)]
    values = [Value((half, column[k % 3])) for k in range(6)]
    # An equal coordinate that is another object is tested on its own.
    values.append(Value((ExactReal.rational(Fraction(1, 2)), column[0])))
    tested = []
    monkeypatch.setattr(groups, "component_contains",
                        lambda comp, x: tested.append(x) or True)
    group = GroupDescriptor.of(FullRational(), FullRational())
    assert group.contains_all(values) and group.contains_all([])
    assert len(tested) == 2 + 3
    assert not group.contains_all(values + [Value((half,))])
    assert len(tested) == 5


@pytest.mark.parametrize("comp, x, inside", [
    # A surd over a p-divisible base: 3*tau + 1/8 is in, 3*tau + 1/3 is not.
    (AdjoinedSurd(PPowerDivisible(2, Fraction(1)), ExactReal.surd(-1, -2, 3)),
     ExactReal.surd(Fraction(-3 * 8 + 1, 8), -6, 3), True),
    (AdjoinedSurd(PPowerDivisible(2, Fraction(1)), ExactReal.surd(-1, -2, 3)),
     ExactReal.surd(Fraction(-3 * 3 + 1, 3), -6, 3), False),
    # The coefficient of sqrt(3) must be an integer multiple of tau's.
    (AdjoinedSurd(FullRational(), ExactReal.surd(0, Fraction(-2, 3), 3)),
     ExactReal.surd(7, Fraction(4, 3), 3), True),
    (AdjoinedSurd(FullRational(), ExactReal.surd(0, Fraction(-2, 3), 3)),
     ExactReal.surd(7, Fraction(1, 3), 3), False),
    (Cyclic(Fraction(2, 3)), ExactReal.rational(Fraction(-10, 3)), True),
    (Cyclic(Fraction(2, 3)), ExactReal.rational(Fraction(-1, 3)), False),
    (PPowerDivisible(5, Fraction(3, 7)), ExactReal.rational(Fraction(6, 175)),
     True),
    (PPowerDivisible(5, Fraction(3, 7)), ExactReal.rational(Fraction(1, 7)),
     False),
])
def test_membership_examples_with_negative_and_p_divisible_parts(comp, x, inside):
    assert component_contains(comp, x) == ref_contains(comp, x) == inside


# ---------------------------------------------------------------------------
# Rank, insertion, adjunction


def test_rank_counts_components():
    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), FormalInteger(), FullRational())
    assert g.rank() == 3
    assert GroupDescriptor.of(PPowerDivisible(2, Fraction(1))).rank() == 1
    with pytest.raises(InvariantError):
        GroupDescriptor(())


def test_insert_formal_integer_and_embedding():
    g = GroupDescriptor.of(FullRational(), Cyclic(Fraction(1)))
    ext = g.insert_formal_integer(1)
    assert ext.rank() == 3
    assert isinstance(ext.components[1], FormalInteger)
    v = Value.of(Fraction(1, 2), 3)
    assert insert_zero(v, 1) == Value.of(Fraction(1, 2), 0, 3)
    assert ext.contains(insert_zero(v, 1))
    assert not ext.contains(Value.of(Fraction(1, 2), Fraction(1, 2), 3))
    ext0 = g.insert_formal_integer(0)
    assert insert_zero(v, 0) == Value.of(0, Fraction(1, 2), 3)
    assert ext0.contains(insert_zero(v, 0))


def test_embedding_preserves_order():
    rng = random.Random(3)
    for _ in range(200):
        x, y = random_value(rng, 2), random_value(rng, 2)
        assert (x < y) == (insert_zero(x, 1) < insert_zero(y, 1))


def test_adjoin_surd_to_rationals_keeps_rank():
    g = GroupDescriptor.of(FullRational())
    ext = g.adjoin_at(0, SQRT2)
    assert ext.rank() == 1
    assert isinstance(ext.components[0], AdjoinedSurd)
    assert ext.contains(Value.of(ExactReal.surd(1, 3, 2)))


def test_adjoin_half_to_integers_refines_cyclic():
    comp = component_adjoin(Cyclic(Fraction(1)), ExactReal.rational(Fraction(1, 2)))
    assert comp == Cyclic(Fraction(1, 2))
    comp = component_adjoin(Cyclic(Fraction(2, 3)), ExactReal.rational(Fraction(1, 2)))
    # gcd(2/3, 1/2) = 1/6
    assert comp == Cyclic(Fraction(1, 6))


def test_adjoin_rational_to_p_divisible():
    comp = component_adjoin(PPowerDivisible(2, Fraction(1)),
                            ExactReal.rational(Fraction(1, 3)))
    assert comp == PPowerDivisible(2, Fraction(1, 3))
    assert component_contains(comp, ExactReal.rational(Fraction(5, 6)))


def test_adjoin_member_rejected():
    with pytest.raises(InvalidAdjoin):
        component_adjoin(FullRational(), ExactReal.rational(1))
    with pytest.raises(InvalidAdjoin):
        component_adjoin(Cyclic(Fraction(1)), ExactReal.rational(7))


def test_adjoin_second_surd_same_radicand():
    comp = AdjoinedSurd(Cyclic(Fraction(1)), SQRT2)
    ext = component_adjoin(comp, ExactReal.surd(0, Fraction(1, 2), 2))
    assert component_contains(ext, ExactReal.surd(0, Fraction(1, 2), 2))
    assert component_contains(ext, SQRT2)
    ext2 = component_adjoin(comp, ExactReal.surd(Fraction(1, 2), 1, 2))
    assert component_contains(ext2, ExactReal.surd(Fraction(1, 2), 1, 2))
    assert component_contains(ext2, SQRT2)
    with pytest.raises(InvalidAdjoin):
        component_adjoin(comp, ExactReal.surd(0, 1, 3))


def test_generators_are_members():
    for comp in (Cyclic(Fraction(3, 4)), PPowerDivisible(3, Fraction(2)),
                 FullRational(), FormalInteger(),
                 AdjoinedSurd(FullRational(), SQRT2)):
        assert component_contains(comp, component_generator(comp))


# ---------------------------------------------------------------------------
# Lex order and arithmetic laws


def test_compare_lex_and_the_value_of_zero():
    assert Value.of(0, -1) < Value.of(0, 0)
    assert INFINITY > Value.of(Fraction(1, 2), 10 ** 9)


def test_compare_arity_mismatch():
    with pytest.raises(DescriptorMismatch):
        Value.of(1, 2).compare(Value.of(1))


def test_group_laws_examples():
    assert Value.of(1, 2) + Value.of(0, -2) == Value.of(1, 0)
    assert -Value.of(0, ExactReal.surd(1, 1, 2)) == \
        Value.of(0, ExactReal.surd(-1, -1, 2))
    assert Value.of(Fraction(1, 2), 0).scale(2) == Value.of(1, 0)


def test_infinity_arithmetic():
    v = Value.of(1)
    assert (INFINITY + v).is_infinity
    with pytest.raises(InvariantError):
        -INFINITY


def test_arity_counts_coordinates_and_infinity_has_none():
    assert Value.of(1, 2).arity == 2
    with pytest.raises(InvariantError):
        INFINITY.arity


@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_total_order_trichotomy_and_transitivity(i, j, k):
    rng = random.Random(i * 7 + j * 3 + k)
    x, y, z = (random_value(rng, 2) for _ in range(3))
    assert (x < y) + (x == y) + (x > y) == 1
    if x <= y and y <= z:
        assert x <= z


def test_order_compatible_with_addition():
    rng = random.Random(11)
    for _ in range(300):
        x, y = random_value(rng, 2, surds=False), random_value(rng, 2, surds=False)
        z = random_value(rng, 2, surds=False)
        if x < y:
            assert x + z < y + z


# ---------------------------------------------------------------------------
# Edges the mutation sampler found untested


def test_witnesses_are_the_primes_up_to_41():
    # PRIME_BOUND is proved for exactly this base set.
    assert _WITNESSES == tuple(q for q in range(2, 42)
                               if all(q % k for k in range(2, q)))


@pytest.mark.parametrize("make", [lambda: Cyclic(Fraction(0)),
                                  lambda: PPowerDivisible(2, Fraction(0))])
def test_zero_generator_or_scale_is_refused(make):
    with pytest.raises(InvariantError):
        make()


def test_generator_of_q_and_z_is_one():
    for comp in (FullRational(), FormalInteger()):
        assert component_generator(comp) == ExactReal.rational(1)


def test_adjoin_rational_to_a_formal_integer():
    # Z + (2/3)Z = (1/3)Z
    assert component_adjoin(FormalInteger(), ExactReal.rational(
        Fraction(2, 3))) == Cyclic(Fraction(1, 3))


@pytest.mark.parametrize("b", [Fraction(1, 2), Fraction(-1, 2)])
def test_adjoined_surd_is_taken_positive(b):
    comp = component_adjoin(FullRational(), ExactReal.surd(0, b, 2))
    assert comp == AdjoinedSurd(FullRational(),
                                ExactReal.surd(0, Fraction(1, 2), 2))


def test_second_surd_leaves_a_rational_rest_inside_q():
    # Z*sqrt2 + Z*(1/3 + sqrt2/2): tau becomes 1/3 + sqrt2/2, and sqrt2
    # leaves the rest -2/3, already in Q.
    tau = ExactReal.surd(Fraction(1, 3), Fraction(1, 2), 2)
    assert component_adjoin(AdjoinedSurd(FullRational(), SQRT2), tau) == \
        AdjoinedSurd(FullRational(), tau)


@pytest.mark.parametrize("a, b", [(4, 6), (-4, 6), (4, -6), (-4, -6),
                                  (6, 4), (-6, 4), (3, 0), (0, -5)])
def test_bezout_gives_the_gcd_for_any_signs(a, b):
    x, y = _bezout(a, b)
    assert a * x + b * y == gcd(abs(a), abs(b))


def test_labels_of_p_divisible_components():
    assert component_label(PPowerDivisible(2, Fraction(1))) == "Z[1/2^inf]"
    assert component_label(PPowerDivisible(3, Fraction(1, 2))) == \
        "1/2*Z[1/3^inf]"


def test_order_of_values_against_the_value_of_zero_and_equal_values():
    lo, hi = Value.of(1, 2), Value.of(1, 3)
    cases = [(lo, hi, -1), (hi, lo, 1), (lo, Value.of(1, 2), 0),
             (INFINITY, INFINITY, 0), (lo, INFINITY, -1), (INFINITY, lo, 1)]
    for x, y, c in cases:
        assert x.compare(y) == c
        assert (x < y, x <= y, x > y, x >= y) == \
            (c < 0, c <= 0, c > 0, c >= 0)


def test_difference_and_scaled_value_of_zero():
    assert Value.of(3, 1) - Value.of(1, 2) == Value.of(2, -1)
    assert INFINITY.scale(1) is INFINITY
    with pytest.raises(InvariantError):
        INFINITY.scale(0)


def test_positions_at_either_end():
    g = GroupDescriptor.of(FullRational(), Cyclic(Fraction(1)))
    assert isinstance(g.insert_formal_integer(2).components[2], FormalInteger)
    with pytest.raises(InvariantError):
        g.insert_formal_integer(3)
    assert g.adjoin_at(1, ExactReal.rational(Fraction(1, 2))).components[1] \
        == Cyclic(Fraction(1, 2))
    with pytest.raises(InvariantError):
        g.adjoin_at(2, ExactReal.rational(Fraction(1, 2)))
    assert insert_zero(Value.of(1, 2), 2) == Value.of(1, 2, 0)
    with pytest.raises(InvariantError):
        insert_zero(Value.of(1, 2), 3)
