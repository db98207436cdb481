"""Dominating degrees, the induced valuation, monomial values and the
finite-witness theorem checkers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pmsval import (Algebraic, Cyclic, ExactReal, GroupDescriptor, INFINITY,
                    PPowerDivisible, PmsDescriptor, PmsKind, StageChain,
                    Transcendental, Tri, Value,
                    classify_from_prefix, is_limit)
from pmsval.engine import (FactoredRationalFunction, TaggedRoot,
                           check_pcs_equivalence_iii, check_pds_equivalence_iii,
                           dominating_degree, extension_report, v_e)
from pmsval.errors import IndeterminateError, InvariantError
from pmsval.ranktree import auto_probes, rank_of_vE
from pmsval.sequences import cofinal

from gen import random_descriptor, random_group, random_member
from oracles import induced_configuration, mirror, monomial_value

Z = GroupDescriptor.of(Cyclic(Fraction(1)))
Z2 = GroupDescriptor.of(PPowerDivisible(2, Fraction(1)))


def pcs_to_zero() -> PmsDescriptor:
    """Increasing negative distance values with strict in-group bound 0."""
    chain = StageChain((), ExactReal.rational(0), True)
    return PmsDescriptor(
        PmsKind.PCS, Z2, chain=chain, pcs_type=Algebraic(2),
        prefix=tuple(Value.of(Fraction(-1, 2 ** k)) for k in range(6)))


def cauchy_pcs(deg=1) -> PmsDescriptor:
    chain = StageChain(())
    return PmsDescriptor(PmsKind.PCS, Z, chain=chain, pcs_type=Algebraic(deg),
                         prefix=tuple(Value.of(k + 1) for k in range(6)))


# ---------------------------------------------------------------------------
# Dominating degree


def test_dominating_degree_counting():
    E = cauchy_pcs()
    phi = FactoredRationalFunction(
        Value.of(0),
        (TaggedRoot.limit(), TaggedRoot.at_distance(Value.of(3))),
        (TaggedRoot.at_distance(Value.of(1)),))
    form = dominating_degree(phi, E)
    assert form.degree == 1
    assert form.beta == Value.of(2)


def test_dominating_degree_constant_function():
    E = cauchy_pcs()
    phi = FactoredRationalFunction(Value.of(5))
    form = dominating_degree(phi, E)
    assert form.degree == 0 and form.beta == Value.of(5)


def test_dominating_degree_multiplicity():
    E = pcs_to_zero()
    phi = FactoredRationalFunction(Value.of(0), (TaggedRoot.limit(2),), ())
    assert dominating_degree(phi, E).degree == 2


def test_transcendental_type_admits_no_root_limits():
    chain = StageChain(())
    E = PmsDescriptor(PmsKind.PCS, Z, chain=chain, pcs_type=Transcendental())
    phi = FactoredRationalFunction(Value.of(0), (TaggedRoot.limit(),), ())
    with pytest.raises(InvariantError):
        dominating_degree(phi, E)
    ok = FactoredRationalFunction(Value.of(1),
                                  (TaggedRoot.at_distance(Value.of(0)),), ())
    assert dominating_degree(ok, E).degree == 0


@pytest.mark.parametrize("make", [
    TaggedRoot.limit, lambda m: TaggedRoot.at_distance(Value.of(1), m)],
    ids=["limit", "at-distance"])
@pytest.mark.parametrize("mult", [0, -1])
def test_a_root_needs_a_positive_multiplicity(make, mult):
    with pytest.raises(InvariantError, match="multiplicity must be positive"):
        make(mult)


def test_a_root_is_a_limit_exactly_when_it_has_no_distance():
    assert TaggedRoot.limit(2) == (None, 2) and TaggedRoot.limit().is_limit
    root = TaggedRoot.at_distance(Value.of(0), 3)
    assert root == (Value.of(0), 3) and not root.is_limit


def test_dominating_degree_additive_on_products():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(1, 2)
        E = random_descriptor(rng, n)

        def rand_phi():
            def roots():
                out = []
                for _ in range(rng.randint(0, 2)):
                    if rng.random() < 0.5 and not E.is_transcendental_pcs():
                        out.append(TaggedRoot.limit(rng.randint(1, 2)))
                    else:
                        beta = Value(tuple(random_member(rng, c)
                                           for c in E.group.components))
                        out.append(TaggedRoot.at_distance(beta, rng.randint(1, 2)))
                return tuple(out)
            lead = Value(tuple(random_member(rng, c) for c in E.group.components))
            return FactoredRationalFunction(lead, roots(), roots())

        f, g = rand_phi(), rand_phi()
        df, dg = dominating_degree(f, E), dominating_degree(g, E)
        dfg = dominating_degree(FactoredRationalFunction(
            f.lead_value + g.lead_value, f.num_roots + g.num_roots,
            f.den_roots + g.den_roots), E)
        assert dfg.degree == df.degree + dg.degree
        assert dfg.beta == df.beta + dg.beta


def test_degree_depends_only_on_tags():
    # Rescaling the non-limit distance values never moves d.
    E = cauchy_pcs()
    phi = FactoredRationalFunction(
        Value.of(0), (TaggedRoot.limit(), TaggedRoot.at_distance(Value.of(3))),
        (TaggedRoot.at_distance(Value.of(1)),))
    scaled = FactoredRationalFunction(
        Value.of(0), (TaggedRoot.limit(), TaggedRoot.at_distance(Value.of(30))),
        (TaggedRoot.at_distance(Value.of(10)),))
    assert dominating_degree(phi, E).degree == dominating_degree(scaled, E).degree


# ---------------------------------------------------------------------------
# The induced valuation


def test_ve_pcts_collapses_into_group():
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(1))
    phi = FactoredRationalFunction(Value.of(0), (TaggedRoot.limit(2),), ())
    iv = v_e(phi, E, rank_of_vE(E))
    assert iv.value == Value.of(2) and not iv.over_extended


def test_ve_degree_zero_lands_in_group():
    E = cauchy_pcs()
    phi = FactoredRationalFunction(Value.of(7))
    iv = v_e(phi, E, rank_of_vE(E))
    assert iv.value == Value.of(7) and not iv.over_extended


def test_ve_with_limits_leaves_rational_hull():
    E = pcs_to_zero()
    phi = FactoredRationalFunction(Value.of(0), (TaggedRoot.limit(2),), ())
    iv = v_e(phi, E, rank_of_vE(E))
    assert iv.over_extended
    assert iv.form.degree == 2
    assert iv.value == Value.of(0, -2)  # 2 * alpha with alpha = (0, -1)


def test_ve_matches_alpha_scaling():
    E = cauchy_pcs()
    result = rank_of_vE(E)
    phi = FactoredRationalFunction(
        Value.of(2), (TaggedRoot.limit(),), (TaggedRoot.at_distance(Value.of(1)),))
    iv = v_e(phi, E, result)
    assert iv.value == result.alpha + result.embed(Value.of(1))


# ---------------------------------------------------------------------------
# Monomial valuation


def test_monomial_value_lex_min():
    alpha = Value.of(0, -1)
    coeffs = [(0, Value.of(3, 0)), (1, Value.of(0, 0))]
    assert monomial_value(coeffs, alpha) == Value.of(0, -1)


def test_monomial_value_single_coefficient():
    assert monomial_value([(0, Value.of(2))], Value.of(0)) == Value.of(2)


def test_monomial_value_linear_fixed_point():
    rng = random.Random(8)
    for _ in range(50):
        alpha = Value(tuple(random_member(rng, c) for c in
                            random_group(rng, 2).components))
        coeffs = [(1, Value.of(0, 0)), (0, INFINITY)]
        assert monomial_value(coeffs, alpha) == alpha


def test_monomial_value_zero_polynomial():
    assert monomial_value([(0, INFINITY), (1, INFINITY)],
                          Value.of(0)).is_infinity
    with pytest.raises(InvariantError):
        monomial_value([], Value.of(0))


def test_monomial_value_against_oracle_evaluation():
    # Degree-2 polynomial over (Q, v_5) evaluated at tail members agrees
    # with the monomial valuation at a realized limit: phi = (X + 1/4)^2,
    # alpha realized as v(z_nu + 1/4) for large nu.
    from pmsval.oracle import PadicRationals
    field = PadicRationals(5)
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(10)]
    for nu in (6, 7, 8):
        alpha = field.valuate(terms[nu] + Fraction(1, 4))
        direct = field.valuate((terms[nu] + Fraction(1, 4)) ** 2)
        coeffs = [(2, Value.of(0)), (1, INFINITY), (0, INFINITY)]
        assert monomial_value(coeffs, alpha) == direct


# ---------------------------------------------------------------------------
# Distances from X, alpha position, v_E(X - root)


def x_minus(root: TaggedRoot, arity: int) -> FactoredRationalFunction:
    """(X - root)^multiplicity with lead value zero."""
    return FactoredRationalFunction(Value.of(*[0] * arity), (root,), ())


def test_max_distance_check_confirms_pds_plateau():
    # X sits at the constant distance alpha from every member of a pds, and
    # alpha lies outside the embedded group: the one distance from X off the
    # group is also the largest.
    E = mirror(pcs_to_zero())
    result = rank_of_vE(E)
    cfg = induced_configuration(E)
    assert [cfg.distance("X", z) for z in cfg.sequence] \
        == [result.alpha] * len(cfg.sequence)
    assert result.alpha.coords[result.insert_position] != ExactReal.rational(0)


def test_max_distance_check_not_applicable():
    # X is a limit of a pcs: its distances are the deltas, all group members,
    # so there is no distance off the group whose maximality could fail.
    E = pcs_to_zero()
    cfg = induced_configuration(E)
    from_x = [cfg.distance("X", z) for z in cfg.sequence[:len(E.prefix)]]
    assert from_x == list(E.prefix)
    assert all(E.group.contains(d) for d in from_x)


def test_classify_alpha_position():
    # alpha lies above every probe for a Cauchy pcs, below every probe for a
    # pds diverging to infinity, and between probes otherwise.
    for E in (cauchy_pcs(deg=2), pcs_to_zero(), mirror(cauchy_pcs()),
              mirror(pcs_to_zero())):
        result = rank_of_vE(E)
        sides = {result.embed(b).compare(result.alpha) for b in auto_probes(E)}
        assert sides == ({-E.sign} if cofinal(E) else {-1, 1})
    # A pcts or a pcs of transcendental type has no alpha to position.
    pcts = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(0))
    chain = StageChain(())
    trans = PmsDescriptor(PmsKind.PCS, Z, chain=chain, pcs_type=Transcendental())
    assert rank_of_vE(pcts).alpha is None and rank_of_vE(trans).alpha is None


def test_delta_of_linear_and_minimal_polynomials():
    # v_E(X - z_nu) = delta_nu; v_E(X - a) = alpha for a limit a exceeds
    # them all, and a double root doubles it.
    E = pcs_to_zero()
    result = rank_of_vE(E)
    assert v_e(x_minus(TaggedRoot.limit(), 1), E, result).value == result.alpha
    dq = v_e(x_minus(TaggedRoot.limit(2), 1), E, result).value
    assert dq == result.alpha.scale(2)
    for delta in E.prefix:
        dl = v_e(x_minus(TaggedRoot.at_distance(delta), 1), E, result).value
        assert dl == delta
        assert result.embed(dl) < result.alpha


def test_root_distances_same_with_or_without_walk():
    # v_E(X - root) is m*alpha for a limit root of multiplicity m and
    # m*beta otherwise, whether the walk is fresh or reused.
    E = pcs_to_zero()
    beta_only = x_minus(TaggedRoot.at_distance(Value.of(1)), 1)
    assert v_e(beta_only, E, rank_of_vE(E)).value == Value.of(1)
    rng = random.Random(404)
    for trial in range(60):
        E = random_descriptor(rng, rng.randint(1, 4))
        comps = E.group.components

        def beta() -> Value:
            return Value(tuple(random_member(rng, c) for c in comps))

        roots = [TaggedRoot.at_distance(beta(), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 3))]
        if trial % 2:
            roots.insert(rng.randint(0, len(roots)),
                         TaggedRoot.limit(rng.randint(1, 2)))
        walk = rank_of_vE(E)
        for root in roots:
            phi = x_minus(root, len(comps))
            walked = v_e(phi, E, walk)
            assert v_e(phi, E, rank_of_vE(E)) == walked
            m = root.multiplicity
            assert walked.value == (walk.alpha if root.is_limit
                                    else root.beta).scale(m)
        phi = FactoredRationalFunction(Value.of(*[0] * len(comps)),
                                       tuple(roots), ())
        assert v_e(phi, E, rank_of_vE(E)) == v_e(phi, E, walk)


# ---------------------------------------------------------------------------
# The (iii) checkers


def test_pcs_checker_holds_on_placed_alpha():
    E = pcs_to_zero()
    result = rank_of_vE(E)
    probes = [Value.of(Fraction(-1, 2)), Value.of(0), Value.of(1)]
    out = check_pcs_equivalence_iii(E, result, probes)
    assert out.holds and out.checked == 3


def test_pcs_checker_flags_misplaced_alpha():
    E = pcs_to_zero()
    result = rank_of_vE(E)
    # An alpha strictly below the bound with a probe between them.
    bad_alpha = result.embed(Value.of(Fraction(-1, 64)))
    out = check_pcs_equivalence_iii(E, result._replace(alpha=bad_alpha),
                                    [Value.of(Fraction(-1, 128))])
    assert not out.holds
    assert out.counterexample == Value.of(Fraction(-1, 128))


def test_pds_checker_mirrors_pcs():
    E = mirror(pcs_to_zero())
    result = rank_of_vE(E)
    out = check_pds_equivalence_iii(E, result, auto_probes(E))
    assert out.holds
    bad = result.embed(Value.of(Fraction(1, 64)))
    out2 = check_pds_equivalence_iii(E, result._replace(alpha=bad),
                                     [Value.of(Fraction(1, 128))])
    assert not out2.holds


def test_pds_checker_diverging_alpha_below_all_probes():
    E = mirror(cauchy_pcs())
    result = rank_of_vE(E)
    probes = [Value.of(k) for k in range(-3, 4)]
    assert all(result.embed(b) > result.alpha for b in probes)
    out = check_pds_equivalence_iii(E, result, probes)
    assert out.holds


def test_cauchy_checker_every_probe_below_alpha():
    E = cauchy_pcs(deg=2)
    result = rank_of_vE(E)
    probes = [Value.of(k) for k in range(-3, 4)]
    assert all(result.embed(b) < result.alpha for b in probes)
    out = check_pcs_equivalence_iii(E, result, probes)
    assert out.holds


def test_checker_rejects_foreign_probe():
    E = pcs_to_zero()
    result = rank_of_vE(E)
    with pytest.raises(InvariantError):
        check_pcs_equivalence_iii(E, result, [Value.of(Fraction(1, 3))])


# ---------------------------------------------------------------------------
# Extension reports


def test_extension_report_transcendental_pcs_is_immediate():
    chain = StageChain(())
    E = PmsDescriptor(PmsKind.PCS, Z, chain=chain, pcs_type=Transcendental())
    rep = extension_report(E)
    assert rep.extension_kind == "immediate" and rep.pure
    assert rep.ic_label == "K^h"


def test_extension_report_pcts_residue_transcendental():
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(0))
    rep = extension_report(E)
    assert rep.extension_kind == "residue-transcendental" and rep.pure
    assert rep.pair.alpha == Value.of(0)


def test_extension_report_algebraic_pcs_key_polynomials():
    E = pcs_to_zero()
    rep = extension_report(E)
    assert rep.extension_kind == "value-transcendental"
    assert not rep.pure  # degree two, no limit in the ground field
    assert "deg 2" in rep.key_poly_sketch
    assert rep.ic_label.startswith("K^h")


def test_extension_report_pds_is_pure():
    rep = extension_report(mirror(pcs_to_zero()))
    assert rep.extension_kind == "value-transcendental" and rep.pure
    assert rep.ic_label == "K^h"


def test_extension_report_linear_pcs_is_pure():
    rep = extension_report(cauchy_pcs(deg=1))
    assert rep.pure and rep.extension_kind == "value-transcendental"


# ---------------------------------------------------------------------------
# Induced configurations


def test_induced_configuration_x_limit_flags():
    E = pcs_to_zero()
    cfg = induced_configuration(E)
    assert cfg.isosceles_violation() is None
    assert is_limit("X", E, cfg) is Tri.TRUE
    M = mirror(E)
    cfgm = induced_configuration(M)
    assert cfgm.isosceles_violation() is None
    assert is_limit("X", M, cfgm) is Tri.FALSE


def test_induced_configuration_pcts():
    E = PmsDescriptor(PmsKind.PCTS, Z, pcts_delta=Value.of(0),
                      prefix=(Value.of(0), Value.of(0), Value.of(0)))
    cfg = induced_configuration(E)
    assert is_limit("X", E, cfg) is Tri.TRUE


@pytest.mark.parametrize("length", [None, 0, 1, 2])
def test_induced_configuration_needs_two_prefix_entries(length):
    E = cauchy_pcs()
    E = PmsDescriptor(E.kind, E.group, E.chain, E.pcts_delta, E.pcs_type,
                      None if length is None else E.prefix[:length])
    if length == 2:
        assert induced_configuration(E).names() == ("z0", "z1", "z2", "X")
    else:
        with pytest.raises(IndeterminateError, match="prefix of length >= 2"):
            induced_configuration(E)


def test_induced_configuration_classifies_as_its_descriptor():
    rng = random.Random(5150)
    delta = Value.of(Fraction(3, 2))
    pcts = PmsDescriptor(PmsKind.PCTS, Z2, pcts_delta=delta,
                         prefix=(delta,) * 4)
    descriptors = [pcts] + [random_descriptor(rng, rng.randint(1, 3))
                            for _ in range(300)]
    kinds = {kind: 0 for kind in PmsKind}
    for E in descriptors:
        kinds[E.kind] += 1
        kind, prefix = classify_from_prefix(induced_configuration(E))
        embed = (rank_of_vE(E).embed if E.kind is PmsKind.PDS
                 else lambda v: v)
        assert kind is E.kind
        assert prefix == [embed(v) for v in E.prefix]
    assert all(kinds.values())
