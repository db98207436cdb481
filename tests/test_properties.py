"""hypothesis properties of random descriptors up to rank 6: mirror
duality is an involution, JSON encoding round-trips, and the rank theorem
holds."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from pmsval import mirror, theorem_rank_check
from pmsval.jsonio import decode_descriptor, encode_descriptor

from gen import random_descriptor

descriptors = st.builds(lambda n, seed: random_descriptor(random.Random(seed), n),
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
    assert decode_descriptor(encode_descriptor(E)) == E


@seeded
@given(descriptors)
def test_rank_theorem_holds(E):
    assert theorem_rank_check(E).holds
