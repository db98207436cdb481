"""hypothesis properties of random descriptors up to rank 6: mirror
duality is an involution, JSON encoding round-trips, the rank theorem
holds, a pcs and a pds on one chain share their cut exactly when the
bound lies outside the group, is_limit agrees with the limit dichotomy
wherever the dichotomy answers, and each value a result record works out
matches a source it does not read."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from pmsval import (PmsDescriptor, PmsKind, Tri, extension_report, is_limit,
                    limit_dichotomy_check, rank_of_vE, theorem_rank_check)
from pmsval.errors import IndeterminateError
from pmsval.jsonio import decode_descriptor
from pmsval.ranktree import Branch

from gen import random_descriptor, random_pcts, with_candidates
from oracles import encode_descriptor, induced_configuration, mirror

descriptors = st.builds(lambda n, seed: random_descriptor(random.Random(seed), n),
                        st.integers(1, 6), st.integers(0, 2 ** 32))
pcs_descriptors = st.builds(
    lambda n, seed: random_descriptor(random.Random(seed), n, kind=PmsKind.PCS),
    st.integers(1, 6), st.integers(0, 2 ** 32))
seeded = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)


@seeded
@given(descriptors)
def test_mirror_is_an_involution(E):
    assert mirror(mirror(E), pcs_type=E.pcs_type) == E


@seeded
@given(descriptors)
def test_descriptor_json_round_trip(E):
    assert decode_descriptor(encode_descriptor(E), "sequence", {}) == E


@seeded
@given(descriptors)
def test_rank_theorem_holds(E):
    assert theorem_rank_check(E).holds


@seeded
@given(pcs_descriptors)
def test_pcs_and_pds_share_a_cut_iff_the_bound_is_outside_the_group(E):
    # The same chain read from its two sides: r- against r+ for a bound in
    # the group, +infinity against -infinity when unbounded, and r itself
    # for a bound outside the group.
    D = PmsDescriptor(PmsKind.PDS, E.group, E.chain, E.pcts_delta)
    r, rd = rank_of_vE(E), rank_of_vE(D)
    outside = r.trace.steps[-1][1] is Branch.BOUND_NOT_IN_GROUP
    assert rd.trace.steps[-1][1] is r.trace.steps[-1][1]
    assert (E.cut == D.cut) == outside
    assert (rd.alpha == r.alpha
            and rd.extended_group == r.extended_group) == outside


def _any_descriptor(kind: PmsKind, n: int, seed: int) -> PmsDescriptor:
    rng = random.Random(seed)
    return (random_pcts(rng, n) if kind is PmsKind.PCTS
            else random_descriptor(rng, n, kind=kind))


@seeded
@given(st.builds(_any_descriptor, st.sampled_from(list(PmsKind)),
                 st.integers(1, 6), st.integers(0, 2 ** 32)))
def test_derived_values_match_their_sources(E):
    r = rank_of_vE(E)
    assert r.input_rank == E.group.rank()
    if r.trace is not None:
        assert r.delta == r.trace.rank_delta
        assert r.output_rank == r.alpha.arity
    else:
        assert r.delta == 0 and r.extended_group == E.group
    keyed = E.kind is PmsKind.PCS and E.pcs_type.degree > 1
    assert extension_report(E).ic_label == (
        "K^h (via key polynomial sequence)" if keyed else "K^h")


def _limit_case(kind: PmsKind, n: int, seed: int):
    rng = random.Random(seed)
    E = (random_pcts(rng, n) if kind is PmsKind.PCTS
         else random_descriptor(rng, n, kind=kind))
    return E, with_candidates(rng, induced_configuration(E))


@seeded
@given(st.builds(_limit_case, st.sampled_from(list(PmsKind)),
                 st.integers(1, 3), st.integers(0, 2 ** 32)))
def test_is_limit_agrees_with_the_dichotomy(case):
    E, cfg = case
    for y in cfg.names():
        try:
            out = limit_dichotomy_check(y, E, cfg)
        except IndeterminateError:
            continue
        assert is_limit(y, E, cfg) is (Tri.TRUE if out.is_limit
                                       else Tri.FALSE), y
        if out.is_limit:
            assert out.constant_value == E.pcts_delta, y
