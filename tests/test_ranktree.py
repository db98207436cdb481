"""The rank walk, leaf enumeration, rank theorem and DOT rendering."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pmsval import (Algebraic, ConstantFrom, Cyclic, ExactReal, FullRational,
                    GroupDescriptor, PPowerDivisible, PmsDescriptor, PmsKind,
                    StageChain, Transcendental, Value)
from pmsval.cli import _supinf_dict
from pmsval.errors import InvariantError, KindError
from pmsval.groups import AdjoinedSurd, FormalInteger
from pmsval.ranktree import (Branch, auto_probes, check_alpha,
                             enumerate_leaves, rank_of_vE, theorem_rank_check,
                             tree_dot)

from gen import make_descriptor, random_descriptor, random_group
from oracles import mirror

SQRT2 = ExactReal.surd(0, 1, 2)


def test_rank_example_gamma_plus_z():
    # vK = (1/2)Z (+) Z, constant then unbounded: rank 2 -> 3.
    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    chain = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 0),))
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1),
                      prefix=tuple(Value.of(Fraction(1, 2), i) for i in range(6)))
    r = rank_of_vE(E)
    assert (r.input_rank, r.output_rank) == (2, 3)
    assert r.alpha == Value.of(Fraction(1, 2), 1, 0)
    assert isinstance(r.extended_group.components[1], FormalInteger)
    assert not _supinf_dict(E)["in_group"]
    assert r.trace.rank_delta == 1


def test_rank_example_p_divisible_bound_zero():
    g = GroupDescriptor.of(PPowerDivisible(2, Fraction(1)))
    chain = StageChain((), ExactReal.rational(0), True)
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(2),
                      prefix=tuple(Value.of(Fraction(-1, 2 ** k))
                                   for k in range(6)))
    r = rank_of_vE(E)
    assert (r.input_rank, r.output_rank) == (1, 2)
    assert r.alpha == Value.of(0, -1)
    assert _supinf_dict(E) == {"value": [{"rat": "0"}], "in_group": True}


def test_rank_example_surd_bound_keeps_rank():
    g = GroupDescriptor.of(FullRational())
    chain = StageChain((), SQRT2, False)
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(2),
                      prefix=(Value.of(1), Value.of(Fraction(5, 4)),
                              Value.of(Fraction(11, 8))))
    r = rank_of_vE(E)
    assert (r.input_rank, r.output_rank) == (1, 1)
    assert r.alpha == Value((SQRT2,))
    comp = r.extended_group.components[0]
    assert isinstance(comp, AdjoinedSurd) and comp.tau == SQRT2
    assert r.trace.rank_delta == 0


def test_rank_pds_mirror_of_bound_zero():
    g = GroupDescriptor.of(PPowerDivisible(2, Fraction(1)))
    chain = StageChain((), ExactReal.rational(0), True)
    E = PmsDescriptor(PmsKind.PDS, g, chain=chain,
                      prefix=tuple(Value.of(Fraction(1, 2 ** k))
                                   for k in range(6)))
    r = rank_of_vE(E)
    assert (r.input_rank, r.output_rank) == (1, 2)
    assert r.alpha == Value.of(0, 1)


def test_rank_short_circuits():
    g = GroupDescriptor.of(Cyclic(Fraction(1)))
    chain = StageChain(())
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Transcendental())
    r = rank_of_vE(E)
    assert r.output_rank == r.input_rank == 1
    assert r.alpha is None and r.trace is None
    pcts = PmsDescriptor(PmsKind.PCTS, g, pcts_delta=Value.of(0))
    r2 = rank_of_vE(pcts)
    assert r2.output_rank == 1 and r2.extended_group == g


def test_alpha_exceeds_every_prefix_entry():
    rng = random.Random(77)
    for _ in range(60):
        E = random_descriptor(rng, rng.randint(1, 3))
        r = rank_of_vE(E)
        for delta in E.prefix:
            if E.kind is PmsKind.PCS:
                assert r.embed(delta) < r.alpha
            else:
                assert r.embed(delta) > r.alpha


def test_output_rank_matches_recount():
    rng = random.Random(78)
    for _ in range(60):
        E = random_descriptor(rng, rng.randint(1, 3))
        r = rank_of_vE(E)
        assert r.output_rank == r.extended_group.rank()
        assert r.delta in (0, 1)


def test_enumerate_leaves_counts():
    for n in range(1, 7):
        assert len(enumerate_leaves(n)) == 3 * n
    deltas = [s.rank_delta for s in enumerate_leaves(1)]
    assert deltas == [1, 0, 1]
    for n in (0, 7):
        with pytest.raises(InvariantError):
            enumerate_leaves(n)


def test_every_leaf_realizes_its_delta():
    rng = random.Random(5)
    for n in (1, 2, 3):
        for shape in enumerate_leaves(n):
            for kind in (PmsKind.PCS, PmsKind.PDS):
                dense = (shape.terminal_level - 1
                         if shape.branch is not Branch.SUP_INFINITE else None)
                group = random_group(rng, n, dense_at=dense)
                E = make_descriptor(rng, group, kind, shape.terminal_level,
                                    shape.branch)
                r = rank_of_vE(E)
                assert r.delta == shape.rank_delta
                assert r.output_rank == r.extended_group.rank()
                assert r.trace.steps[-1] == (shape.terminal_level, shape.branch)


def test_theorem_rank_check_examples():
    # Rank-1 Cauchy: predicate holds, rank goes up.
    g = GroupDescriptor.of(Cyclic(Fraction(1)))
    chain = StageChain(())
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1),
                      prefix=tuple(Value.of(k) for k in range(4)))
    out = theorem_rank_check(E)
    assert out.conditions["cauchy"] and out.predicate and out.rank_delta == 1
    assert out.holds

    # Rank-1 surd bound: predicate false, rank unchanged.
    g2 = GroupDescriptor.of(FullRational())
    chain2 = StageChain((), SQRT2, False)
    E2 = PmsDescriptor(PmsKind.PCS, g2, chain=chain2, pcs_type=Algebraic(2))
    out2 = theorem_rank_check(E2)
    assert not out2.predicate and out2.rank_delta == 0 and out2.holds

    # Rank 2 with sup outside the group yet rank+1: sufficiency only.
    g3 = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    chain3 = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 0),))
    E3 = PmsDescriptor(PmsKind.PCS, g3, chain=chain3, pcs_type=Algebraic(1))
    out3 = theorem_rank_check(E3)
    assert not out3.predicate and out3.rank_delta == 1 and out3.holds

    with pytest.raises(KindError):
        theorem_rank_check(PmsDescriptor(PmsKind.PCTS, g, pcts_delta=Value.of(0)))
    with pytest.raises(KindError):
        theorem_rank_check(PmsDescriptor(PmsKind.PCS, g, chain=chain,
                                         pcs_type=Transcendental()))


@pytest.mark.parametrize("bound, met", [
    (None, "diverges_to_infinity"), (ExactReal.rational(0), "inf_in_group")])
def test_theorem_rank_check_names_each_pds_condition(bound, met):
    g = GroupDescriptor.of(FullRational())
    chain = StageChain((), bound, bound is not None)
    out = theorem_rank_check(PmsDescriptor(PmsKind.PDS, g, chain=chain))
    assert out.conditions == {"cauchy": False, "sup_in_group": False,
                              "diverges_to_infinity": False,
                              "inf_in_group": False, met: True}
    assert out.predicate and out.rank_delta == 1 and out.holds


def test_theorem_rank_check_randomized():
    rng = random.Random(99)
    for n in (1, 2, 3):
        for _ in range(40):
            E = random_descriptor(rng, n)
            assert theorem_rank_check(E).holds


def test_mirror_duality_alpha_and_delta():
    rng = random.Random(13)
    for _ in range(50):
        E = random_descriptor(rng, rng.randint(1, 3), kind=PmsKind.PCS)
        M = mirror(E)
        r, rm = rank_of_vE(E), rank_of_vE(M)
        assert r.delta == rm.delta
        assert rm.alpha == -r.alpha
        assert rm.extended_group == r.extended_group


def test_auto_probes_are_group_members():
    rng = random.Random(21)
    for _ in range(30):
        E = random_descriptor(rng, rng.randint(1, 3))
        for beta in auto_probes(E):
            assert E.group.contains(beta)


def test_auto_probes_are_two_generator_steps_either_side_of_each_level():
    # (1/2)Z (+) Z, constant 1/2 then unbounded: level 1 steps by 1/2 about
    # the constant, level 2 by 1 about 0; (1/2, 0) is kept once.
    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    chain = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 0),))
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1))
    half = Fraction(1, 2)
    assert auto_probes(E) == [
        Value.of(-half, 0), Value.of(0, 0), Value.of(half, 0), Value.of(1, 0),
        Value.of(3 * half, 0), Value.of(half, -2), Value.of(half, -1),
        Value.of(half, 1), Value.of(half, 2)]


def test_auto_probes_catch_alpha_moved_past_a_bound_outside_the_group():
    # The probes of a bound outside the group straddle it, so an alpha moved
    # 100 units past the bound fails the chain check.
    rng = random.Random(1729)
    for _ in range(300):
        E = random_descriptor(rng, 1, branch=Branch.BOUND_NOT_IN_GROUP)
        r = rank_of_vE(E)
        moved = r.alpha + Value.of(100 * E.sign)
        assert r.alpha_check.holds
        assert not check_alpha(E, r._replace(alpha=moved), auto_probes(E)).holds


def test_tree_dot_structure():
    dot = tree_dot(PmsKind.PCS, 2)
    assert dot.startswith("digraph")
    assert dot.count("shape=box") == 2  # level-2 entry square + contradiction
    assert "(*) rank+1" in dot and "(#) rank same" in dot
    assert "color=red" not in dot

    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    chain = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 0),))
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1))
    r = rank_of_vE(E)
    hot = tree_dot(PmsKind.PCS, 2, r.trace)
    assert "color=red" in hot
    assert "inf2 [" in hot and "root2 [" in hot

    pds = tree_dot(PmsKind.PDS, 1)
    assert "inf" in pds and "-∞" in pds
    with pytest.raises(KindError):
        tree_dot(PmsKind.PCTS, 1)


def test_tree_dot_syntax_well_formed():
    import re
    for kind in (PmsKind.PCS, PmsKind.PDS):
        for n in (1, 2, 3):
            dot = tree_dot(kind, n)
            lines = dot.strip().splitlines()
            assert lines[0] == "digraph rank_walk {" and lines[-1] == "}"
            declared = set()
            endpoints = set()
            for line in lines[1:-1]:
                line = line.strip()
                assert line.endswith(";")
                m = re.match(r"^(\w+) \[", line)
                if m:
                    declared.add(m.group(1))
                m = re.match(r"^(\w+) -> (\w+)", line)
                if m:
                    endpoints.update(m.groups())
                assert line.count('"') % 2 == 0
            assert endpoints <= declared


def test_rank_result_keeps_its_alpha_check():
    rng = random.Random(808)
    for _ in range(30):
        E = random_descriptor(rng, rng.randint(1, 4))
        r = rank_of_vE(E)
        assert r.alpha_check.holds and r.alpha_check.counterexample is None
        assert r.alpha_check.checked == len(auto_probes(E))
    g = GroupDescriptor.of(Cyclic(Fraction(1)))
    chain = StageChain(())
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Transcendental())
    assert rank_of_vE(E).alpha is None and rank_of_vE(E).alpha_check is None
