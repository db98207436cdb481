"""The ultrametric check on configurations: the spanning-tree certificate
agrees with a brute-force triple scan, and configuration build and the
limit checks stay quadratic."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import ceil, log2

import pytest

import pmsval.sequences
from pmsval import jsonio
from pmsval.exact import ExactReal
from pmsval.errors import InvalidConfiguration
from pmsval.groups import INFINITY, Cyclic, GroupDescriptor, Value
from pmsval.oracle import PadicRationals, sequence_configuration
from pmsval.sequences import (PmsDescriptor, PmsKind, StageChain, Tri,
                              UltrametricConfiguration,
                              classify_from_prefix, is_limit,
                              limit_dichotomy_check)

from gen import random_value, table, unchecked


def brute_force_violation(names, dist):
    """The first triple, in name order, whose two smallest distances differ,
    in a table keyed by sorted pairs."""
    def d(p, q):
        return dist.get((p, q) if p <= q else (q, p))
    for p, q, r in combinations(names, 3):
        ds = [d(p, q), d(p, r), d(q, r)]
        if None in ds:
            continue
        ds.sort()
        if ds[0] != ds[1]:
            return (p, q, r)
    return None


def random_table(rng):
    """A table over 0-9 points from a random ultrametric tree: each point
    gets a word over a small alphabet, and two points are at the level of
    their longest common prefix (INFINITY when the words agree).  Half the
    tables are then perturbed, and some lose pairs.  Returns the
    configuration, made without the isosceles check, and its table."""
    n, arity = rng.randint(0, 9), rng.randint(1, 3)
    depth = rng.randint(1, 3)
    levels = sorted({random_value(rng, arity) for _ in range(depth)})
    depth = len(levels)
    words = [tuple(rng.randrange(2) for _ in range(depth)) for _ in range(n)]
    names = [f"p{i}" for i in range(n)]
    rng.shuffle(names)
    dist = {}
    for (a, wa), (b, wb) in combinations(zip(names, words), 2):
        common = next((i for i in range(depth) if wa[i] != wb[i]), depth)
        v = INFINITY if common == depth else levels[common]
        dist[(a, b) if a <= b else (b, a)] = v
    keys = sorted(dist)
    if keys and rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            dist[rng.choice(keys)] = rng.choice(
                levels + [INFINITY, random_value(rng, arity)])
    if keys and rng.random() < 0.3:
        for key in rng.sample(keys, rng.randint(1, len(keys))):
            del dist[key]
    cut = rng.randint(0, n)
    return unchecked(names[:cut], names[cut:], dist), dist


def test_isosceles_violation_matches_triple_scan():
    rng = random.Random(20211)
    complete = partial = violating = 0
    for _ in range(1500):
        cfg, dist = random_table(rng)
        want = brute_force_violation(cfg.names(), dist)
        assert cfg.isosceles_violation() == want
        n = len(cfg.names())
        if len(table(cfg)) == n * (n - 1) // 2:
            complete += 1
        else:
            partial += 1
        violating += want is not None
    assert complete > 500 and partial > 300 and violating > 200


def test_isosceles_scan_follows_name_order_not_table_order():
    rng = random.Random(20212)
    for _ in range(400):
        cfg, dist = random_table(rng)
        items = list(dist.items())
        rng.shuffle(items)
        shuffled = unchecked(cfg.sequence, cfg.points, dict(items))
        assert shuffled.isosceles_violation() \
            == brute_force_violation(cfg.names(), dist)


def test_self_pairs_are_skipped():
    z = ["z0", "z1", "z2", "z3"]
    dist = {("z0", "z0"): INFINITY, ("z0", "z1"): Value.of(1),
            ("z1", "z2"): Value.of(2), ("z2", "z3"): Value.of(3)}
    cfg = UltrametricConfiguration.build(z, (), dist)
    assert classify_from_prefix(cfg) == (
        PmsKind.PCS, [Value.of(1), Value.of(2), Value.of(3)])


def test_classify_names_the_first_contradicting_pair():
    # Consecutive distances 1..5 and two far pairs off the pcs pattern that
    # share no triangle, the later one listed first.
    z = [f"z{i}" for i in range(6)]
    dist = {("z0", "z5"): Value.of(9)}
    dist.update({(z[i], z[i + 1]): Value.of(i + 1) for i in range(5)})
    dist[("z0", "z3")] = Value.of(9)
    cfg = UltrametricConfiguration.build(z, (), dist)
    with pytest.raises(InvalidConfiguration,
                       match="^distance z0,z3 contradicts the pcs pattern$"):
        classify_from_prefix(cfg)


def test_isosceles_violation_on_surd_levels_and_infinity():
    sqrt2 = ExactReal.surd(0, 1, 2)
    lo, hi = Value((sqrt2, ExactReal.rational(1))), Value.of(2, 0)
    good = {("a", "b"): INFINITY, ("a", "c"): lo, ("b", "c"): lo}
    assert unchecked(("a", "b", "c"), (), good) \
        .isosceles_violation() is None
    bad = {**good, ("a", "c"): hi}
    assert unchecked(("a", "b", "c"), (), bad) \
        .isosceles_violation() == ("a", "b", "c")
    for names in ((), ("a",), ("a", "b")):
        dist = {("a", "b"): lo} if len(names) == 2 else {}
        assert unchecked(names, (), dist).isosceles_violation() is None


def counting_compares(monkeypatch):
    calls = [0]
    compare = Value.compare

    def counting(self, other):
        calls[0] += 1
        return compare(self, other)

    monkeypatch.setattr(Value, "compare", counting)
    return calls


def sort_bound(values):
    """k * ceil(log2 k) for the k distinct values of a table: what one
    comparison sort of them may cost (0 when k = 1)."""
    k = len(set(values))
    return k * ceil(log2(k))


def test_complete_build_makes_quadratically_many_compares(monkeypatch):
    n = 80
    terms = [sum(Fraction(5) ** k for k in range(i + 1)) for i in range(n)]
    field = PadicRationals(5)
    z = [f"z{i}" for i in range(n)]
    dist = {(z[i], z[j]): field.valuate(terms[i] - terms[j])
            for i in range(n) for j in range(i + 1, n)}
    calls = counting_compares(monkeypatch)
    cfg = UltrametricConfiguration.build(z, (), dist)
    assert len(table(cfg)) == n * (n - 1) // 2
    assert calls[0] <= sort_bound(dist.values())


def test_monotone_oracle_sequence_is_built_in_linear_time(monkeypatch):
    n = 1000
    terms = [Fraction(5 ** (i + 1) - 1, 4) for i in range(n)]
    valuations = [0]
    valuate = PadicRationals.valuate

    def counting_valuate(self, x):
        valuations[0] += 1
        return valuate(self, x)

    monkeypatch.setattr(PadicRationals, "valuate", counting_valuate)
    calls = counting_compares(monkeypatch)
    cfg = sequence_configuration(PadicRationals(5), terms)
    assert valuations[0] == len(table(cfg)) == n - 1
    assert calls[0] <= 2 * n


@pytest.mark.parametrize("kind", ["pcs", "pds"])
def test_oracle_sequence_compares_no_more_than_before(monkeypatch, kind):
    # The consecutive-only table is refused by the certificate before any
    # ranking, so the compares are the classification's alone.
    n = 1000
    terms = [Fraction(5 ** (i + 1) - 1, 4) if kind == "pcs"
             else Fraction(1, 5 ** i) for i in range(n)]
    calls = counting_compares(monkeypatch)
    sequence_configuration(PadicRationals(5), terms)
    assert calls[0] <= {"pcs": n - 2, "pds": n - 1}[kind]


def test_build_refuses_a_pair_given_two_values():
    z = ["z0", "z1", "z2"]
    dist = {("z0", "z1"): Value.of(1), ("z1", "z2"): Value.of(2),
            ("z2", "z1"): Value.of(7)}
    with pytest.raises(InvalidConfiguration,
                       match="^pair z1,z2 is given two different values"):
        UltrametricConfiguration.build(z, (), dist)
    dist[("z2", "z1")] = Value.of(2)
    cfg = UltrametricConfiguration.build(z, (), dist)
    assert cfg.rows == ({1: Value.of(1)}, {2: Value.of(2)}, {})


def test_configuration_refuses_an_unknown_point_and_mixed_arities():
    z = ("z0", "z1", "z2")
    with pytest.raises(InvalidConfiguration, match="unknown point z0,zz"):
        UltrametricConfiguration.build(z, (), {("z0", "zz"): Value.of(1)})
    with pytest.raises(InvalidConfiguration, match="mixed arities"):
        UltrametricConfiguration.build(z, (), {("z0", "z1"): Value.of(1),
                                               ("z1", "z2"): Value.of(1, 0)})


# A partial pcs table over z0, z1, z2 and one point y, then one fault each.
GOOD = {("z0", "z1"): Value.of(1), ("z1", "z2"): Value.of(2),
        ("y", "z0"): Value.of(1)}


@pytest.mark.parametrize("points, extra, text", [
    (("y", "z1"), {}, "point names must be distinct"),
    (("y",), {("zz", "z0"): Value.of(1)},
     "distance references unknown point z0,zz"),
    (("y",), {("z1", "z1"): Value.of(3)},
     "self-distance of z1 must be plus-infinity, not (3)"),
    (("y",), {("z2", "z1"): Value.of(3)},
     "pair z1,z2 is given two different values, (2) and (3)"),
    (("y",), {("y", "z2"): Value.of(2, 0)},
     "distance values have mixed arities"),
], ids=["names", "unknown", "self", "repeat", "arity"])
def test_build_refuses_each_single_fault(points, extra, text):
    assert UltrametricConfiguration.build(("z0", "z1", "z2"), ("y",), GOOD)
    with pytest.raises(InvalidConfiguration) as caught:
        UltrametricConfiguration.build(("z0", "z1", "z2"), points,
                                       {**GOOD, **extra})
    assert type(caught.value) is InvalidConfiguration
    assert str(caught.value) == text


def test_rows_are_indexed_once_per_configuration(monkeypatch):
    # A partial table: build's checked walk indexes the rows, and its
    # triangle scan and the classification after it read them.
    walks = []
    walk = pmsval.sequences._checked_rows

    def counting(names, distances):
        walks.append(names)
        return walk(names, distances)

    monkeypatch.setattr(pmsval.sequences, "_checked_rows", counting)
    z = [f"z{i}" for i in range(5)]
    dist = {(z[i], z[i + 1]): Value.of(i + 1) for i in range(4)}
    dist.update({("y", z[i]): Value.of(i + 1) for i in range(4)})
    cfg = UltrametricConfiguration.build(z, ("y",), dist)
    assert cfg.classification[0] is PmsKind.PCS
    assert cfg.rows[0] == {1: Value.of(1), 5: Value.of(1)}
    assert walks == [cfg.names()]
    # A configuration made from the rows holds them and walks no table.
    plain = UltrametricConfiguration(cfg.sequence, cfg.points, cfg.rows)
    assert plain == cfg and plain.rows is cfg.rows
    assert plain.classification == cfg.classification
    assert walks == [cfg.names()]


def test_mixed_encodings_of_one_value_share_a_rank(monkeypatch):
    # A pcs over z0..z3 with delta = 1, 2, 3; the three pairs at 1 write
    # it three ways, so the table holds three distinct values.
    ones = ["1", ["1"], [{"rat": "1"}]]
    dist = [{"pair": ["z0", f"z{j}"], "v": ones[j - 1]} for j in (1, 2, 3)]
    dist += [{"pair": ["z1", "z2"], "v": ["2"]},
             {"pair": ["z1", "z3"], "v": ["2"]},
             {"pair": ["z2", "z3"], "v": ["3"]}]
    raw = {"sequence": ["z0", "z1", "z2", "z3"], "points": [],
           "distances": dist}
    calls = counting_compares(monkeypatch)
    cfg = jsonio.decode_configuration(raw, "configuration", {})
    # The triangle scan would compare every triangle's three distances.
    assert calls[0] <= sort_bound(table(cfg).values())
    assert len({id(v) for v in table(cfg).values()}) == 5
    assert cfg.classification == (
        PmsKind.PCS, (Value.of(1), Value.of(2), Value.of(3)))
    # All six pairs at one value, written three ways: no comparison at all.
    for i, entry in enumerate(dist):
        entry["v"] = ones[i % 3]
    calls[0] = 0
    cfg = jsonio.decode_configuration(raw, "configuration", {})
    assert calls[0] == 0
    assert cfg.classification[0] is PmsKind.PCTS


def test_large_table_with_one_wrong_entry_names_the_first_triple():
    # The pcs table d(z_i, z_j) = i over 120 points, with d(z10, z40)
    # raised to 11: (z10, z11, z40) is the first triple in name order
    # whose minimum is attained once.
    n = 120
    z = [f"z{i}" for i in range(n)]
    levels = [Value.of(i) for i in range(n)]
    dist = {(z[i], z[j]): levels[i] for i in range(n) for j in range(i + 1, n)}
    dist[("z10", "z40")] = levels[11]
    assert brute_force_violation(z, {
        (p, q) if p <= q else (q, p): v for (p, q), v in dist.items()}) \
        == ("z10", "z11", "z40")
    with pytest.raises(InvalidConfiguration,
                       match="^isosceles law fails on points z10, z11, z40$"):
        UltrametricConfiguration.build(z, (), dist)


def test_classify_consecutive_only_table_is_linear(monkeypatch):
    n = 400
    group = {"components": [{"kind": "cyclic", "gen": "1"}]}
    z = [f"z{i}" for i in range(n)]
    dist = [{"pair": [z[i], z[i + 1]], "v": [str(i)]} for i in range(n - 1)]
    text = json.dumps({"version": "1", "group": group, "configuration": {
        "sequence": z, "points": [], "distances": dist}})
    calls = counting_compares(monkeypatch)
    probes = [0]
    distance = UltrametricConfiguration.distance

    def counting_distance(self, p, q):
        probes[0] += 1
        return distance(self, p, q)

    monkeypatch.setattr(UltrametricConfiguration, "distance",
                        counting_distance)
    kind, prefix = jsonio.loads_problem(text).configuration.classification
    assert kind is PmsKind.PCS
    assert prefix == tuple(Value.of(i) for i in range(n - 1))
    assert calls[0] + probes[0] <= 4 * n


@pytest.mark.parametrize("pattern", ["pds", "pcts"])
def test_complete_pds_and_pcts_builds_stay_quadratic(monkeypatch, pattern):
    n = 80
    z = [f"z{i}" for i in range(n)]
    dist = {(z[i], z[j]): Value.of(-j if pattern == "pds" else 0)
            for i in range(n) for j in range(i + 1, n)}
    calls = counting_compares(monkeypatch)
    UltrametricConfiguration.build(z, (), dist)
    assert calls[0] <= sort_bound(dist.values())
    if pattern == "pcts":
        assert calls[0] == 0


def witness_problem(n):
    """A pcs over Z with distances delta_i = i and no declared prefix, a
    limit y and a non-limit w at distance 0 from every other point."""
    group = {"components": [{"kind": "cyclic", "gen": "1"}]}
    z = [f"z{i}" for i in range(n)]
    dist = [{"pair": [z[i], z[j]], "v": [str(i)]}
            for i in range(n) for j in range(i + 1, n)]
    dist += [{"pair": ["y", z[i]], "v": [str(i)]} for i in range(n)]
    dist += [{"pair": ["w", p], "v": ["0"]} for p in z + ["y"]]
    return json.dumps({
        "version": "1", "group": group,
        "sequence": {"kind": "pcs", "group": group,
                     "chain": [{"terminal": {"dir": "inc",
                                             "bound": "unbounded"}}],
                     "pcs_type": {"algebraic": {"deg": 1}}},
        "configuration": {"sequence": z, "points": ["y", "w"],
                          "distances": dist}})


def test_each_distinct_encoding_is_decoded_once(monkeypatch):
    n = 64
    raws = []
    parse = jsonio._numeral_value

    def counting(raw, path):
        raws.append(raw)
        return parse(raw, path)

    monkeypatch.setattr(jsonio, "_numeral_value", counting)
    cfg = jsonio.loads_problem(witness_problem(n)).configuration
    # The distances are ["0"] ... ["63"] over 2,145 pairs; "1" is parsed
    # once, first as the group's generator.
    assert sorted(raws, key=int) == [str(i) for i in range(n)]
    assert len(table(cfg)) == n * (n - 1) // 2 + n + n + 1
    # Equal encodings share one decoded Value.
    assert len({id(v) for v in table(cfg).values()}) == n


def test_limit_checks_classify_once(monkeypatch):
    problem = jsonio.loads_problem(witness_problem(16))
    E, cfg = problem.sequence, problem.configuration
    assert E.prefix is None
    calls = []
    classify = pmsval.sequences.classify_from_prefix

    def counting(c):
        calls.append(c)
        return classify(c)

    monkeypatch.setattr(pmsval.sequences, "classify_from_prefix", counting)
    assert is_limit("y", E, cfg) is Tri.TRUE
    assert limit_dichotomy_check("y", E, cfg).is_limit
    assert is_limit("w", E, cfg) is Tri.FALSE
    assert limit_dichotomy_check("w", E, cfg).constant_value == Value.of(0)
    assert len(calls) == 1 and calls[0] is cfg


def test_kind_mismatch_still_raises_per_call():
    problem = jsonio.loads_problem(witness_problem(6))
    cfg = problem.configuration
    Z = GroupDescriptor.of(Cyclic(Fraction(1)))
    pds = PmsDescriptor(PmsKind.PDS, Z, chain=StageChain(()))
    for _ in range(2):
        with pytest.raises(InvalidConfiguration,
                           match="classifies as pcs"):
            is_limit("y", pds, cfg)
