"""The semantics of pmsval's records that the golden reports alone would
not show: truth, equality across types, hashing and immutability.  Records
are named tuples, except where tuple semantics would change an answer."""

from __future__ import annotations

from fractions import Fraction

import pytest

from pmsval import (AdjoinedSurd, Algebraic, ConstantFrom, Cut, Cyclic,
                    DominatingForm, ExactReal, FormalInteger, FullRational,
                    GroupDescriptor, INFINITY, Leaf, PPowerDivisible,
                    PmsDescriptor, PmsKind, QtElement, StageChain, TaggedRoot,
                    Transcendental, Value)
from pmsval.ranktree import Branch

SQRT2 = ExactReal.surd(0, 1, 2)
FIELDLESS = [FullRational, FormalInteger, Transcendental]


@pytest.mark.parametrize("cls", FIELDLESS, ids=lambda c: c.__name__)
def test_a_record_without_fields_is_true_and_equals_only_itself(cls):
    x = cls()
    assert x and x == cls() and not x != cls()
    assert hash(x) == hash(cls()) == hash(())
    assert repr(x) == f"{cls.__name__}()"
    for other in FIELDLESS:
        assert (x == other()) is (other is cls)
    assert x != () and x != Cyclic(Fraction(1)) and x is not None


# Each maker builds a fresh record, equal to the last one it built; the
# hash of a record is the hash of the tuple of its fields, as for a frozen
# dataclass, so the values are those of earlier releases.
RECORDS = {
    "value": (lambda: Value.of(1, SQRT2), lambda v: (v.coords,)),
    "infinity": (lambda: Value(None), lambda v: (None,)),
    "cyclic": (lambda: Cyclic(Fraction(1, 2)), lambda c: (Fraction(1, 2),)),
    "p_divisible": (lambda: PPowerDivisible(3, Fraction(2)),
                    lambda c: (3, Fraction(2))),
    "adjoined_surd": (lambda: AdjoinedSurd(FullRational(), SQRT2),
                      lambda c: (FullRational(), SQRT2)),
    "group": (lambda: GroupDescriptor.of(Cyclic(Fraction(1)), FullRational()),
              lambda g: (g.components,)),
    "leaf": (lambda: Leaf(2, Branch.SUP_INFINITE),
             lambda leaf: (2, Branch.SUP_INFINITE)),
    "tagged_root": (lambda: TaggedRoot.at_distance(Value.of(1), 2),
                    lambda r: (Value.of(1), 2)),
    "form": (lambda: DominatingForm(1, Value.of(0)), lambda f: (1, Value.of(0))),
    "chain": (lambda: StageChain((ConstantFrom(ExactReal.rational(1), 2),),
                                 SQRT2, False),
              lambda c: (c.constants, SQRT2, False)),
    "algebraic": (lambda: Algebraic(2), lambda a: (2,)),
    "descriptor": (lambda: PmsDescriptor(
        PmsKind.PCTS, GroupDescriptor.of(FullRational()),
        pcts_delta=Value.of(1)),
        lambda E: (PmsKind.PCTS, E.group, None, Value.of(1), None, None)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_of_one_type_are_equal_and_hash_alike(name):
    make, fields = RECORDS[name]
    x, y = make(), make()
    assert x is not y and x == y and not x != y
    assert hash(x) == hash(y) == hash(fields(x))


def test_value_equality_and_order():
    assert Value.of(1) != Value.of(2) and Value.of(1) < Value.of(2)
    assert Value.of(1) != ExactReal.rational(1) and Value.of(1) != (1,)
    assert INFINITY == Value(None) and INFINITY != Value.of(0)
    assert Cut((), None, 1) != Cut((), None, -1)


def test_qt_element_is_unhashable_and_false_when_zero():
    zero, one = QtElement.of([0]), QtElement.of([1])
    assert not zero and one and not QtElement.of([0], [5])
    assert QtElement.of([2], [2]) == one and one != zero
    for x in (zero, one):
        with pytest.raises(TypeError, match="not hashable"):
            hash(x)


@pytest.mark.parametrize("record, attr", [
    (Value.of(1), "coords"), (INFINITY, "coords"),
    (ExactReal.rational(1), "d"), (SQRT2, "an"),
    (Cyclic(Fraction(1)), "gen"), (PPowerDivisible(2, Fraction(1)), "scale"),
    (AdjoinedSurd(FullRational(), SQRT2), "tau"), (FullRational(), "label"),
    (FormalInteger(), "gen"), (GroupDescriptor.of(FullRational()), "components"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_assigning_an_attribute_raises(record, attr):
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, attr, 0)
    with pytest.raises(AttributeError):
        setattr(record, "extra", 0)
    assert repr(record) == before
