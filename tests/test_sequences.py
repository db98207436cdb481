"""Classification, limits, Cauchy/divergence flags, sup/inf, mirroring."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from pmsval import (INFINITY, AdjoinedSurd, Algebraic, ConstantFrom, Cut,
                    Cyclic, ExactReal, FormalInteger, FullRational,
                    GroupDescriptor, PPowerDivisible, PmsDescriptor, PmsKind,
                    StageChain, Transcendental, Tri, UltrametricConfiguration,
                    Value,
                    beyond_all_deltas, classify_from_prefix, cofinal,
                    is_limit, limit_dichotomy_check)
from pmsval.cli import _supinf_dict
from pmsval.errors import (IndeterminateError, InvalidConfiguration,
                           InvariantError, KindError, NotAPms)
from pmsval.oracle import PadicRationals, sequence_configuration

from gen import (make_descriptor, random_descriptor, random_member, rows_of,
                 table, unchecked)
from oracles import induced_configuration, mirror
from pmsval.ranktree import Branch, auto_probes
from pmsval.sequences import delta_shift

Z = GroupDescriptor.of(Cyclic(Fraction(1)))
ZZ = GroupDescriptor.of(Cyclic(Fraction(1)), Cyclic(Fraction(1)))


def simple_pcs(prefix, bound=None, group=Z, deg=1) -> PmsDescriptor:
    """A rank-1 pcs; a bound given here is a member of the group."""
    chain = StageChain((), bound, bound is not None)
    return PmsDescriptor(PmsKind.PCS, group, chain=chain,
                         pcs_type=Algebraic(deg),
                         prefix=tuple(Value.of(p) for p in prefix))


def config_from(deltas, kind: PmsKind, extra=None) -> UltrametricConfiguration:
    """Build the configuration a genuine sequence with these consecutive
    distances would produce."""
    m = len(deltas) + 1
    names = [f"z{i}" for i in range(m)]
    dist = {}
    for i in range(m):
        for j in range(i + 1, m):
            if kind is PmsKind.PCS:
                v = deltas[i]
            elif kind is PmsKind.PDS:
                v = deltas[j - 1]
            else:
                v = deltas[0]
            dist[(names[i], names[j])] = v
    points = []
    if extra:
        for name, dists in extra.items():
            points.append(name)
            for i, v in enumerate(dists):
                if v is not None:
                    a, b = sorted((names[i], name))
                    dist[(a, b)] = v
    return UltrametricConfiguration.build(names, points,
                                          rows_of(names + points, dist))


# ---------------------------------------------------------------------------
# Classification


def test_classify_increasing_prefix_is_pcs():
    cfg = config_from([Value.of(1), Value.of(2), Value.of(3)], PmsKind.PCS)
    kind, prefix = classify_from_prefix(cfg)
    assert kind is PmsKind.PCS
    assert prefix == [Value.of(1), Value.of(2), Value.of(3)]


def test_classify_constant_is_pcts():
    cfg = config_from([Value.of(0)] * 3, PmsKind.PCTS)
    kind, prefix = classify_from_prefix(cfg)
    assert kind is PmsKind.PCTS
    assert prefix == [Value.of(0)] * 3


def test_classify_decreasing_is_pds():
    cfg = config_from([Value.of(3), Value.of(1)], PmsKind.PDS)
    kind, _ = classify_from_prefix(cfg)
    assert kind is PmsKind.PDS


def test_classify_5adic_oracle_sequence():
    # z_nu = (5^(nu+1) - 1)/4 gives delta_nu = nu + 1 under v_5.
    field = PadicRationals(5)
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(8)]
    cfg = sequence_configuration(field, terms)
    kind, prefix = classify_from_prefix(cfg)
    assert kind is PmsKind.PCS
    assert prefix == [Value.of(nu + 1) for nu in range(7)]


def test_classify_mixed_pattern_rejected():
    names = ["z0", "z1", "z2", "z3"]
    # Distances consistent with the isosceles law but neither monotone
    # pattern: 1, 2, then back to 1.
    dist = {
        ("z0", "z1"): Value.of(1), ("z1", "z2"): Value.of(2),
        ("z2", "z3"): Value.of(1), ("z0", "z2"): Value.of(1),
        ("z0", "z3"): Value.of(1), ("z1", "z3"): Value.of(1),
    }
    cfg = UltrametricConfiguration.build(names, (), rows_of(names, dist))
    with pytest.raises(NotAPms):
        classify_from_prefix(cfg)


def test_classify_equal_consecutive_distances_need_equal_far_pairs():
    # Consecutive distances 1, 1 (only the pcts pattern can fit) while the
    # far pair is at 2; the triangle itself is isosceles.
    dist = {("z0", "z1"): Value.of(1), ("z1", "z2"): Value.of(1),
            ("z0", "z2"): Value.of(2)}
    z = ["z0", "z1", "z2"]
    cfg = UltrametricConfiguration.build(z, (), rows_of(z, dist))
    with pytest.raises(NotAPms, match="^consecutive distances are neither "
                       "strictly increasing, strictly decreasing, nor all "
                       "equal$"):
        classify_from_prefix(cfg)


def test_isosceles_violation_rejected():
    dist = {("z0", "z1"): Value.of(1), ("z0", "z2"): Value.of(2),
            ("z1", "z2"): Value.of(3)}
    z = ["z0", "z1", "z2"]
    with pytest.raises(InvalidConfiguration):
        UltrametricConfiguration.build(z, (), rows_of(z, dist))


def test_classify_needs_three_points():
    dist = {("z0", "z1"): Value.of(1)}
    z = ["z0", "z1"]
    cfg = UltrametricConfiguration.build(z, (), rows_of(z, dist))
    with pytest.raises(IndeterminateError):
        classify_from_prefix(cfg)


def test_classify_names_the_first_missing_consecutive_pair():
    dist = {("z0", "z1"): Value.of(1), ("z0", "z2"): Value.of(1),
            ("z0", "z3"): Value.of(1), ("z2", "z3"): Value.of(3)}
    z = ["z0", "z1", "z2", "z3"]
    cfg = UltrametricConfiguration.build(z, (), rows_of(z, dist))
    with pytest.raises(IndeterminateError,
                       match="^no distance recorded for z1, z2$"):
        classify_from_prefix(cfg)


# ---------------------------------------------------------------------------
# Descriptor validation


def test_bound_membership_validated():
    bad = StageChain((), ExactReal.rational(Fraction(1, 2)), True)
    with pytest.raises(InvariantError):
        PmsDescriptor(PmsKind.PCS, Z, chain=bad, pcs_type=Algebraic(1))
    bad2 = StageChain((), ExactReal.rational(3), False)
    with pytest.raises(InvariantError):
        PmsDescriptor(PmsKind.PCS, Z, chain=bad2, pcs_type=Algebraic(1))


def test_stage_labels_must_be_nondecreasing():
    zero = ExactReal.rational(0)
    with pytest.raises(InvariantError, match="nondecreasing"):
        StageChain((ConstantFrom(zero, 2), ConstantFrom(zero, 1)))


def test_prefix_entries_must_have_the_group_arity():
    with pytest.raises(InvariantError, match="finite group tuples"):
        simple_pcs([1, 2, 3], group=ZZ)


@pytest.mark.parametrize("prefix, first", [
    ((Value.of(Fraction(1, 2)), Value.of(1, 2)),
     "prefix entry (1/2) is not a group member"),
    ((Value.of(1, 2), Value.of(Fraction(1, 2))),
     "prefix entries must be finite group tuples"),
    ((Value.of(1), INFINITY, Value.of(Fraction(1, 2))),
     "prefix entries must be finite group tuples"),
])
def test_a_bad_prefix_is_refused_at_its_first_bad_entry(prefix, first):
    # The column test finds a bad entry; the entry loop names the first.
    with pytest.raises(InvariantError) as err:
        PmsDescriptor(PmsKind.PCS, Z, chain=StageChain(()),
                      pcs_type=Algebraic(1), prefix=prefix)
    assert str(err.value) == first


def test_a_pcts_prefix_may_have_one_entry():
    delta = Value.of(2)
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=delta, prefix=(delta,))
    assert E.prefix == (delta,)


def test_a_bounded_chain_names_its_discrete_component():
    chain = StageChain((ConstantFrom(ExactReal.rational(0), 0),),
                       ExactReal.rational(0), True)
    with pytest.raises(InvariantError, match="discrete component 1$"):
        PmsDescriptor(PmsKind.PCS, ZZ, chain=chain, pcs_type=Algebraic(1))


def test_is_transcendental_pcs():
    E = PmsDescriptor(PmsKind.PCS, Z, chain=StageChain(()),
                      pcs_type=Transcendental())
    assert E.is_transcendental_pcs()
    assert not simple_pcs([1, 2, 3]).is_transcendental_pcs()
    assert not mirror(E).is_transcendental_pcs()


def test_prefix_monotonicity_validated():
    with pytest.raises(InvariantError):
        simple_pcs([1, 3, 2])
    with pytest.raises(InvariantError):
        simple_pcs([Fraction(-1), Fraction(-1, 2), Fraction(1)],
                   bound=ExactReal.rational(0),
                   group=GroupDescriptor.of(PPowerDivisible(2, Fraction(1))))


def test_prefix_respects_declared_constants():
    chain = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 1),))
    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    ok = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1),
                       prefix=(Value.of(0, 0), Value.of(Fraction(1, 2), 1),
                               Value.of(Fraction(1, 2), 2)))
    assert ok.tail_start == 1
    with pytest.raises(InvariantError):
        PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1),
                      prefix=(Value.of(0, 0), Value.of(1, 1),
                              Value.of(Fraction(1, 2), 2)))


@pytest.mark.parametrize("kind, sign", [(PmsKind.PCS, 1), (PmsKind.PDS, -1)],
                         ids=["pcs", "pds"])
def test_prefix_before_the_last_stage_is_checked_against_the_cut(kind, sign):
    # Coordinate 0 settles at 2 from index 5 on, so no distance value of a
    # pcs passes (2, *) and none of a pds falls below (-2, *), even in a
    # prefix that ends before index 5.
    chain = StageChain((ConstantFrom(ExactReal.rational(2 * sign), 5),))

    def build(prefix):
        return PmsDescriptor(
            kind, ZZ, chain=chain,
            pcs_type=Algebraic(1) if kind is PmsKind.PCS else None,
            prefix=tuple(Value.of(sign * a, sign * b) for a, b in prefix))

    side = "below" if kind is PmsKind.PCS else "above"
    past = rf"^prefix entry \({3 * sign}, 0\) is not {side} the cut of the chain$"
    # The first entry past the cut is named, first, in the middle or last.
    for prefix in ([(3, 0), (3, 1), (3, 2)], [(1, 0), (3, 0), (3, 1)],
                   [(1, 0), (1, 1), (3, 0)]):
        with pytest.raises(InvariantError, match=past):
            build(prefix)
    E = build([(1, 0), (1, 5), (2, 0)])
    assert E.tail_start == 5
    assert not beyond_all_deltas(Value.of(sign, 5), E)


# ---------------------------------------------------------------------------
# Limits


def test_sequence_members_of_pds_are_limits():
    E = make_descriptor(random.Random(1), Z, PmsKind.PDS, 1,
                        Branch.SUP_INFINITE)
    cfg = config_from(list(E.prefix), PmsKind.PDS)
    for nu in range(1, len(E.prefix)):
        assert is_limit(f"z{nu}", E, cfg) is Tri.TRUE


def test_sequence_members_of_pcs_are_not_limits():
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS)
    for nu in range(len(E.prefix) - 1):
        assert is_limit(f"z{nu}", E, cfg) is Tri.FALSE


def test_matching_tail_is_limit():
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS,
                      extra={"y": [Value.of(k + 1) for k in range(4)] + [None]})
    assert is_limit("y", E, cfg) is Tri.TRUE


def test_is_limit_indeterminate_without_witnesses():
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS, extra={"y": [None] * 5})
    assert is_limit("y", E, cfg) is Tri.INDETERMINATE


def test_a_name_the_configuration_does_not_hold_has_no_witnesses():
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS)
    assert is_limit("w", E, cfg) is Tri.INDETERMINATE
    with pytest.raises(IndeterminateError, match="two tail witnesses"):
        limit_dichotomy_check("w", E, cfg)


def _first_tail_index_cases():
    pcs = simple_pcs([1, 2, 3, 4])
    # Coordinate 0 is constant from index 2 on, so the tail starts there.
    chain = StageChain((ConstantFrom(ExactReal.rational(2), 2),))
    late = PmsDescriptor(PmsKind.PCS, ZZ, chain=chain, pcs_type=Algebraic(1),
                         prefix=(Value.of(0, 0), Value.of(1, 0), Value.of(2, 0),
                                 Value.of(2, 1), Value.of(2, 2)))
    return {"pcs": (pcs, 0), "pds": (mirror(pcs), 1), "tail_start": (late, 2)}


@pytest.mark.parametrize("case", ["pcs", "pds", "tail_start"])
def test_is_limit_decides_on_the_first_tail_index_alone(case):
    # nu = max(tail_start, delta_shift) is the first tail index: 0 for a pcs,
    # 1 for a pds, whose delta_1 is the first consecutive distance, and the
    # stage of the last constant when that is later.
    E, nu = _first_tail_index_cases()[case]
    delta = E.prefix[nu - delta_shift(E.kind)]
    for dist, want in ((delta, Tri.TRUE), (delta + delta, Tri.FALSE)):
        only = [None] * nu + [dist] + [None] * (len(E.prefix) - nu)
        cfg = config_from(list(E.prefix), E.kind, extra={"y": only})
        assert is_limit("y", E, cfg) is want


def test_limit_dichotomy():
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS,
                      extra={"y": [Value.of(0)] * 5})
    out = limit_dichotomy_check("y", E, cfg)
    assert not out.is_limit and out.constant_value == Value.of(0)
    cfg2 = config_from(list(E.prefix), PmsKind.PCS,
                       extra={"y": [Value.of(k + 1) for k in range(4)] + [None]})
    assert limit_dichotomy_check("y", E, cfg2).is_limit


def test_dichotomy_of_a_pcs_member_is_its_own_distance_value():
    # v(z_mu - z_nu) = delta_mu for every later nu: z_mu is no limit, and
    # the distances settle at delta_mu.
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS)
    for mu in range(3):
        out = limit_dichotomy_check(f"z{mu}", E, cfg)
        assert (out.is_limit, out.constant_value) == (False, E.prefix[mu])
    # z3 and z4 have fewer than two later members to witness the pattern.
    for mu in (3, 4):
        with pytest.raises(IndeterminateError):
            limit_dichotomy_check(f"z{mu}", E, cfg)


def test_dichotomy_of_a_pds_member_is_a_limit():
    E = mirror(simple_pcs([1, 2, 3, 4]))
    cfg = config_from(list(E.prefix), PmsKind.PDS)
    for mu in range(3):
        out = limit_dichotomy_check(f"z{mu}", E, cfg)
        assert (out.is_limit, out.constant_value) == (True, None)
    for mu in (3, 4):
        with pytest.raises(IndeterminateError):
            limit_dichotomy_check(f"z{mu}", E, cfg)


def test_dichotomy_of_a_pcts_member_is_a_limit_at_delta():
    delta = Value.of(2)
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=delta)
    cfg = config_from([delta] * 4, PmsKind.PCTS)
    for mu in range(4):
        out = limit_dichotomy_check(f"z{mu}", E, cfg)
        assert (out.is_limit, out.constant_value) == (True, delta)
    with pytest.raises(IndeterminateError, match="no tail witnesses"):
        limit_dichotomy_check("z4", E, cfg)


def test_dichotomy_of_a_point_off_a_pcts():
    delta = Value.of(2)
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=delta)

    def check(dists):
        cfg = config_from([delta] * 4, PmsKind.PCTS, extra={"y": dists})
        return limit_dichotomy_check("y", E, cfg)

    out = check([Value.of(1)] * 5)
    assert (out.is_limit, out.constant_value) == (False, Value.of(1))
    out = check([delta] * 5)
    assert (out.is_limit, out.constant_value) == (True, delta)
    with pytest.raises(IndeterminateError, match="no tail witnesses"):
        check([None] * 5)
    # Distances that never settle; built without the isosceles check.
    garbage = unchecked(
        tuple(f"z{i}" for i in range(5)), ("y",),
        {**table(config_from([delta] * 4, PmsKind.PCTS)),
         **{("y", f"z{i}"): Value.of(i % 2) for i in range(5)}})
    with pytest.raises(InvalidConfiguration, match="witnessed tail is not"):
        limit_dichotomy_check("y", E, garbage)


@pytest.mark.parametrize("k, v", [(0, 3), (4, 5)], ids=["first", "last"])
def test_a_point_closer_than_delta_to_one_pcts_member_is_a_limit(k, v):
    # v(y - z_nu) >= delta at every index, the last one included.
    delta = Value.of(2)
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=delta)
    dists = [delta] * 5
    dists[k] = Value.of(v)
    cfg = config_from([delta] * 4, PmsKind.PCTS, extra={"y": dists})
    assert is_limit("y", E, cfg) is Tri.TRUE
    out = limit_dichotomy_check("y", E, cfg)
    assert (out.is_limit, out.constant_value) == (True, delta)


def test_a_pcts_configuration_off_the_declared_delta_is_refused():
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(2))
    cfg = config_from([Value.of(3)] * 4, PmsKind.PCTS,
                      extra={"y": [Value.of(3)] * 5})
    detail = ("configuration distance is (3) but the descriptor declares "
              "delta (2)")
    for check in (is_limit, limit_dichotomy_check):
        with pytest.raises(InvalidConfiguration, match=re.escape(detail)):
            check("y", E, cfg)


def test_a_prefix_longer_than_the_configuration():
    # delta_nu is a consecutive distance of the configuration, then an entry
    # of the prefix beyond them: delta_3 = 4 here.
    E = simple_pcs([1, 2, 3, 4, 5, 6])
    for last, want in ((4, Tri.TRUE), (5, Tri.FALSE)):
        y = [Value.of(v) for v in (1, 2, 3, last)]
        cfg = config_from(list(E.prefix[:3]), PmsKind.PCS, extra={"y": y})
        assert is_limit("y", E, cfg) is want
    # The configuration is checked against the descriptor even where the
    # prefix covers every index.
    pds = config_from([Value.of(3), Value.of(2), Value.of(1)], PmsKind.PDS,
                      extra={"y": [None, None, None, Value.of(4)]})
    for check in (is_limit, limit_dichotomy_check):
        with pytest.raises(InvalidConfiguration,
                           match="classifies as pds but the descriptor "
                                 "declares pcs"):
            check("y", E, pds)
    # Two members cannot be classified, so they cannot be read against it.
    short = config_from([Value.of(1)], PmsKind.PCS,
                        extra={"y": [Value.of(1), Value.of(2)]})
    for check in (is_limit, limit_dichotomy_check):
        with pytest.raises(IndeterminateError, match="three sequence points"):
            check("y", E, short)


def test_a_pds_limit_is_read_in_the_extended_group():
    # The induced configuration of a pds lives in the extended group, so
    # delta_nu comes from its distances, not from the base-group prefix.
    E = make_descriptor(random.Random(1), Z, PmsKind.PDS, 1,
                        Branch.SUP_INFINITE)
    cfg = induced_configuration(E)
    # y is closer to z0 than any other point is.
    dist = {**table(cfg), ("y", "z0"): Value.of(100, 0),
            **{("y", p): cfg.distance("z0", p) for p in cfg.names()
               if p != "z0"}}
    cfg = UltrametricConfiguration.build(
        cfg.sequence, ("X", "y"), rows_of(cfg.sequence + ("X", "y"), dist))
    assert is_limit("y", E, cfg) is Tri.TRUE
    out = limit_dichotomy_check("y", E, cfg)
    assert (out.is_limit, out.constant_value) == (True, None)
    assert is_limit("X", E, cfg) is Tri.FALSE


def test_a_pcs_point_closer_to_a_member_settles_after_it():
    # y is at 10 from z2, so v(y - z_nu) = min(10, delta_2) = 3 after z2.
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from(list(E.prefix), PmsKind.PCS,
                      extra={"y": [Value.of(v) for v in (1, 2, 10, 3, 3)]})
    assert is_limit("y", E, cfg) is Tri.FALSE
    out = limit_dichotomy_check("y", E, cfg)
    assert (out.is_limit, out.constant_value) == (False, Value.of(3))


@pytest.mark.parametrize("dists", [(-8, -8, -8, 10), (-5, -5, -6, -8)],
                         ids=["closer-to-the-last-member", "passes-below"])
def test_a_pds_point_comes_into_the_pattern_late(dists):
    # delta_nu = -2, -4, -6, -8 for nu = 1..4.  A point at least delta_nu
    # from z_nu is at exactly delta_mu from every later z_mu: y near z4,
    # or y at -5 from z0, which delta_nu passes below at nu = 3.
    E = mirror(simple_pcs([2, 4, 6, 8]))
    y = [Value.of(dists[0])] + [Value.of(v) for v in dists]
    cfg = config_from(list(E.prefix), PmsKind.PDS, extra={"y": y})
    assert is_limit("y", E, cfg) is Tri.TRUE
    out = limit_dichotomy_check("y", E, cfg)
    assert (out.is_limit, out.constant_value) == (True, None)


def test_a_configuration_off_the_prefix_is_read_by_its_own_distances():
    # The configuration's delta_3 is 5 where the prefix declares 4: the
    # limit checks read 5, and only classify compares the two.
    E = simple_pcs([1, 2, 3, 4])
    cfg = config_from([Value.of(v) for v in (1, 2, 3, 5)], PmsKind.PCS,
                      extra={"y": [Value.of(v) for v in (1, 2, 3, 5)]
                             + [None]})
    assert is_limit("y", E, cfg) is Tri.TRUE
    assert limit_dichotomy_check("y", E, cfg).is_limit


def test_the_tail_of_a_pcts_starts_at_z0():
    delta = Value.of(2)
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=delta)
    cfg = config_from([delta] * 4, PmsKind.PCTS,
                      extra={"y": [Value.of(1)] + [None] * 4})
    assert is_limit("y", E, cfg) is Tri.FALSE


def test_limit_dichotomy_rejects_garbage():
    E = simple_pcs([1, 2, 3, 4])
    # Neither the distance-value pattern nor ultimately constant.
    bad = {"y": [Value.of(1), Value.of(0), Value.of(1), Value.of(0), None]}
    cfg = unchecked(
        tuple(f"z{i}" for i in range(5)), ("y",),
        {**table(config_from(list(E.prefix), PmsKind.PCS)),
         **{tuple(sorted((f"z{i}", "y"))): v
            for i, v in enumerate(bad["y"]) if v is not None}})
    with pytest.raises(InvalidConfiguration):
        limit_dichotomy_check("y", E, cfg)


# ---------------------------------------------------------------------------
# Cauchy / divergence and the symbolic tail comparison


def test_cauchy_iff_leading_coordinate_unbounded():
    E = simple_pcs([1, 2, 3])
    assert cofinal(E)
    chain = StageChain((ConstantFrom(ExactReal.rational(2), 0),))
    E2 = PmsDescriptor(PmsKind.PCS, ZZ, chain=chain, pcs_type=Algebraic(1),
                       prefix=tuple(Value.of(2, k) for k in range(4)))
    assert not cofinal(E2)
    # Brute lex check: (g+1, 0) exceeds every witnessed distance value.
    above = Value.of(3, 0)
    assert all(above > v for v in E2.prefix)
    assert beyond_all_deltas(above, E2)


def test_diverges_to_infinity_mirror():
    E = mirror(simple_pcs([1, 2, 3]))
    assert cofinal(E)
    assert E.kind is PmsKind.PDS


def test_exceeds_and_below_all_deltas():
    g = GroupDescriptor.of(PPowerDivisible(2, Fraction(1)))
    E = simple_pcs([Fraction(-1), Fraction(-1, 2), Fraction(-1, 4)],
                   bound=ExactReal.rational(0), group=g, deg=2)
    assert beyond_all_deltas(Value.of(0), E)
    assert beyond_all_deltas(Value.of(1), E)
    assert not beyond_all_deltas(Value.of(Fraction(-1, 2)), E)
    M = mirror(E)
    assert beyond_all_deltas(Value.of(0), M)
    assert not beyond_all_deltas(Value.of(Fraction(1, 2)), M)
    with pytest.raises(InvariantError):
        beyond_all_deltas(Value.of(Fraction(1, 3)), E)  # not a group member


def test_beyond_all_deltas_at_the_value_of_zero():
    # v(0) lies above every group element: past all the distance values of
    # a pcs, and never below all those of its mirror pds.
    E = simple_pcs([1, 2, 3])
    assert beyond_all_deltas(INFINITY, E)
    assert not beyond_all_deltas(INFINITY, mirror(E))


# ---------------------------------------------------------------------------
# sup / inf


def test_sup_examples():
    chain = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 0),))
    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1))
    assert _supinf_dict(E) == {"value": [{"rat": "1/2"}, "inf"],
                               "in_group": False}

    g2 = GroupDescriptor.of(PPowerDivisible(2, Fraction(1)))
    E2 = simple_pcs([Fraction(-1), Fraction(-1, 2)],
                    bound=ExactReal.rational(0), group=g2, deg=2)
    assert _supinf_dict(E2) == {"value": [{"rat": "0"}], "in_group": True}

    sqrt2 = ExactReal.surd(0, 1, 2)
    g3 = GroupDescriptor.of(FullRational(), Cyclic(Fraction(1)),
                            Cyclic(Fraction(1)))
    chain3 = StageChain((), sqrt2, False)
    E3 = PmsDescriptor(PmsKind.PCS, g3, chain=chain3, pcs_type=Algebraic(2))
    assert _supinf_dict(E3) == {
        "value": [{"surd": {"a": "0", "b": "1", "d": 2}}, "-inf", "-inf"],
        "in_group": False}


def test_kind_errors():
    # A pcts has constant distance values: no side to pass them on.
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(0))
    for rule in (cofinal, lambda E: E.cut):
        with pytest.raises(KindError):
            rule(E)
    with pytest.raises(KindError):
        beyond_all_deltas(Value.of(1), E)


def test_mirror_sup_inf_duality():
    rng = random.Random(5)
    for _ in range(40):
        E = random_descriptor(rng, rng.randint(1, 3), kind=PmsKind.PCS)
        M = mirror(E)
        n, cut = E.group.rank(), E.cut
        assert M.cut == Cut(tuple(-c for c in cut.constants),
                            None if cut.r is None else -cut.r, -cut.side)
        assert M.cut.in_group(n) == cut.in_group(n)
        # Pointwise: negation carries each rule of E to its mirror twin.
        assert cofinal(E) == cofinal(M)
        members = [Value(tuple(random_member(rng, c)
                               for c in E.group.components))
                   for _ in range(4)]
        for beta in members + list(E.prefix) + auto_probes(E):
            assert beyond_all_deltas(beta, E) == beyond_all_deltas(-beta, M)


def test_mirror_of_a_pcts_negates_its_delta_and_prefix():
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(2),
                      prefix=(Value.of(2),) * 3)
    M = mirror(E)
    assert M == PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(-2),
                              prefix=(Value.of(-2),) * 3)
    assert mirror(M) == E
    bare = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(2))
    assert mirror(bare) == PmsDescriptor(PmsKind.PCTS, Z,
                                         pcts_delta=Value.of(-2))


def test_mirror_of_a_pds_is_an_algebraic_pcs_of_degree_one():
    pds = mirror(simple_pcs([1, 2, 3], deg=3))
    assert mirror(pds).pcs_type == Algebraic(1)


def test_mirror_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        E = random_descriptor(rng, 2, kind=PmsKind.PCS)
        back = mirror(mirror(E, pcs_type=None), pcs_type=E.pcs_type)
        assert back == E


def test_generated_prefixes_classify_as_declared():
    rng = random.Random(17)
    for _ in range(40):
        E = random_descriptor(rng, rng.randint(1, 3))
        cfg = config_from(list(E.prefix), E.kind)
        kind, prefix = classify_from_prefix(cfg)
        assert kind is E.kind
        assert tuple(prefix) == E.prefix


# ---------------------------------------------------------------------------
# Bounded chains need a dense terminal component

SQRT2 = ExactReal.surd(0, 1, 2)


def bounded(kind: PmsKind, comp, r=None, in_group=False) -> PmsDescriptor:
    return PmsDescriptor(
        kind, GroupDescriptor.of(comp), chain=StageChain((), r, in_group),
        pcs_type=Algebraic(2) if kind is PmsKind.PCS else None)


@pytest.mark.parametrize("kind", [PmsKind.PCS, PmsKind.PDS], ids=["pcs", "pds"])
@pytest.mark.parametrize("bound_kind, r", [
    ("in_group", ExactReal.rational(0)),
    ("not_in_group", ExactReal.rational(Fraction(1, 2)))],
    ids=["in_group", "not_in_group"])
@pytest.mark.parametrize("comp", [Cyclic(Fraction(1)), FormalInteger()],
                         ids=["cyclic", "formal_integer"])
def test_bounded_chain_on_discrete_component_is_rejected(kind, bound_kind, r,
                                                         comp):
    with pytest.raises(InvariantError, match="discrete component"):
        bounded(kind, comp, r, bound_kind == "in_group")
    # Unbounded chains on the same component stay valid.
    bounded(kind, comp)


@pytest.mark.parametrize("kind", [PmsKind.PCS, PmsKind.PDS], ids=["pcs", "pds"])
@pytest.mark.parametrize("comp, inside, outside", [
    (PPowerDivisible(2, Fraction(1)), ExactReal.rational(0),
     ExactReal.rational(Fraction(1, 3))),
    (FullRational(), ExactReal.rational(0), SQRT2),
    (AdjoinedSurd(Cyclic(Fraction(1)), SQRT2), SQRT2,
     ExactReal.rational(Fraction(1, 2)))],
    ids=["p_divisible", "rationals", "surd_over_cyclic"])
def test_bounded_chain_on_dense_component_is_accepted(kind, comp, inside,
                                                      outside):
    bounded(kind, comp, inside, True)
    bounded(kind, comp, outside, False)
