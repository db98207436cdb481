"""JSON round-trips and schema diagnostics."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from pmsval import (AdjoinedSurd, Cyclic, ExactReal, INFINITY, Value, cli,
                    groups, jsonio, oracle)
from pmsval.errors import InvalidConfiguration, InvariantError, SchemaError
from pmsval.jsonio import (decode_chain, decode_component,
                           decode_configuration, decode_descriptor,
                           decode_exact, decode_function, decode_group,
                           decode_problem, decode_value, dump_report,
                           encode_component, encode_exact, encode_group,
                           encode_value, loads_problem)

from gen import random_descriptor, random_value, table
from oracles import encode_chain, encode_descriptor, encode_function


def test_exact_round_trip():
    for x in (ExactReal.rational("3/7"), ExactReal.surd(1, -2, 3),
              ExactReal.rational(-4)):
        assert decode_exact(encode_exact(x), "value", {}) == x
    assert decode_exact("5/2", "value", {}) == ExactReal.rational("5/2")
    with pytest.raises(SchemaError):
        decode_exact({"surd": {"a": "1", "b": "1"}}, "value", {})
    with pytest.raises(SchemaError):
        decode_exact([1, 2], "value", {})


def test_value_round_trip():
    rng = random.Random(0)
    for _ in range(50):
        v = random_value(rng, rng.randint(1, 3))
        assert decode_value(encode_value(v), "value", {}) == v
    assert decode_value("inf", "value", {}).is_infinity
    assert decode_value(encode_value(INFINITY), "value", {}).is_infinity
    v = Value((ExactReal.rational(1),))
    assert decode_value(["1"], "value", {}) == v


def test_group_round_trip():
    rng = random.Random(1)
    for _ in range(30):
        E = random_descriptor(rng, rng.randint(1, 3))
        assert decode_group(encode_group(E.group), "group", {}) == E.group
    with pytest.raises(SchemaError):
        decode_group({"components": []}, "group", {})
    with pytest.raises(SchemaError):
        decode_group({"components": [{"kind": "galaxy"}]}, "group",
                     {})


def test_adjoined_surd_component_round_trip():
    comp = AdjoinedSurd(Cyclic(Fraction(1, 2)), ExactReal.surd(0, 1, 2))
    raw = encode_component(comp)
    assert raw == {"kind": "adjoined_surd",
                   "base": {"kind": "cyclic", "gen": "1/2"},
                   "tau": {"surd": {"a": "0", "b": "1", "d": 2}}}
    assert decode_component(raw, "c", {}) == comp
    with pytest.raises(SchemaError,
                       match=r"^c: adjoined_surd needs base and tau$"):
        decode_component({"kind": "adjoined_surd", "base": raw["base"]}, "c",
                         {})


def test_descriptor_round_trip():
    rng = random.Random(2)
    for _ in range(40):
        E = random_descriptor(rng, rng.randint(1, 3))
        assert decode_descriptor(encode_descriptor(E), "sequence", {}) == E


def test_chain_round_trip_and_wire_shape():
    raw = [{"const": {"v": "2", "from": 3}},
           {"terminal": {"dir": "inc", "bound": {"in_group": "0"}}}]
    chain, direction = decode_chain(raw, "chain", {})
    assert direction == "inc"
    assert chain.terminal_level == 2
    assert chain.tail_start == 3
    assert decode_chain(encode_chain(chain, 1), "chain", {}) == (chain, "inc")
    assert decode_chain(encode_chain(chain, -1), "chain", {}) == (chain, "dec")
    with pytest.raises(SchemaError,
                       match=r"^chain\[0\]: unknown direction 'sideways'$"):
        decode_chain([{"terminal": {"dir": "sideways", "bound": "unbounded"}}],
                     "chain", {})


def test_descriptor_requires_matching_direction():
    for kind, want, wrong, sign in (("pcs", "inc", "dec", 1),
                                    ("pds", "dec", "inc", -1)):
        raw = {"kind": kind,
               "group": {"components": [{"kind": "cyclic", "gen": "1"}]},
               "chain": [{"terminal": {"dir": wrong, "bound": "unbounded"}}]}
        if kind == "pcs":
            raw["pcs_type"] = {"algebraic": {"deg": 1}}
        with pytest.raises(InvariantError, match=(
                f"^a {kind} requires a {want} terminal coordinate$")):
            decode_descriptor(raw, "sequence", {})
        raw["chain"][0]["terminal"]["dir"] = want
        assert decode_descriptor(raw, "sequence", {}).sign == sign


def test_all_constant_chain_rejected():
    with pytest.raises(InvariantError,
                       match="^chain must end in a terminal entry: an "
                             "all-constant chain contradicts strict "
                             "monotonicity$"):
        decode_chain([{"const": {"v": "1"}}], "chain", {})


def test_only_the_last_chain_entry_may_be_terminal():
    with pytest.raises(InvariantError,
                       match="^only the last chain entry may be terminal$"):
        decode_chain([{"terminal": {"dir": "inc", "bound": "unbounded"}},
                      {"const": {"v": "1"}},
                      {"terminal": {"dir": "inc", "bound": "unbounded"}}],
                     "chain", {})


def test_function_round_trip_matches_wire_encoding():
    raw = {"lead": ["0"], "num": [{"limit": True, "mult": 1},
                                  {"beta": ["3"], "mult": 1}],
           "den": [{"beta": ["1"], "mult": 1}]}
    phi = decode_function(raw, "f", {})
    assert phi.num_roots[0].is_limit
    assert phi.den_roots[0].beta == Value.of(1)
    assert decode_function(encode_function(phi), "f", {}) == phi
    with pytest.raises(SchemaError):
        decode_function({"lead": ["0"], "num": [{"mult": 1}]}, "f", {})


def test_decode_problem_validates_mathematics():
    # Schema-valid JSON carrying an invalid chain must raise the invariant,
    # not pass through silently.
    raw = {
        "version": "1",
        "sequence": {
            "kind": "pcs",
            "group": {"components": [{"kind": "cyclic", "gen": "1"}]},
            "chain": [{"terminal": {"dir": "inc", "bound": {"in_group": "1/2"}}}],
            "pcs_type": {"algebraic": {"deg": 1}},
        },
    }
    with pytest.raises(InvariantError):
        decode_problem(raw)


def test_problem_version_and_json_errors():
    with pytest.raises(SchemaError):
        loads_problem("{not json")
    with pytest.raises(SchemaError):
        decode_problem({"version": "99"})
    with pytest.raises(SchemaError):
        decode_problem([])


def test_dump_report_deterministic():
    a = dump_report({"b": 1, "a": [3, 2]})
    b = dump_report({"a": [3, 2], "b": 1})
    assert a == b
    assert json.loads(a) == {"a": [3, 2], "b": 1}


def test_malformed_values_are_schema_errors():
    with pytest.raises(SchemaError):
        decode_exact({"surd": {"a": "1", "b": "1", "d": 0}}, "value", {})
    with pytest.raises(SchemaError):
        decode_group({"components": [{"kind": "cyclic", "gen": "0"}]},
                     "group", {})
    with pytest.raises(SchemaError):
        decode_group({"components": [{"kind": "p_divisible", "p": 4}]},
                     "group", {})
    with pytest.raises(SchemaError):
        decode_exact("1/0", "value", {})


def test_repeated_bad_distance_fails_at_its_first_path():
    bad = {"surd": {"a": "1", "b": "1", "d": 0}}
    dist = [{"pair": ["z0", "z1"], "v": ["1"]},
            {"pair": ["z0", "z2"], "v": ["1"]},
            {"pair": ["z1", "z2"], "v": [bad]},
            {"pair": ["z0", "z3"], "v": [bad]}]
    raw = {"sequence": ["z0", "z1", "z2", "z3"], "points": [],
           "distances": dist}
    with pytest.raises(SchemaError) as err:
        jsonio.decode_configuration(raw, "configuration", {})
    with pytest.raises(SchemaError) as alone:
        decode_value([bad], "configuration.distances[2].v", {})
    assert str(err.value) == str(alone.value)
    assert str(err.value).startswith("configuration.distances[2].v[0]: ")


BAD_SURD = {"surd": {"a": "1", "b": "1", "d": 0}}
BAD_V = "configuration.distances[{}].v[0]: radicand must be positive, got 0"


@pytest.mark.parametrize("seq, dist, error, text", [
    (["z0", "z1", "z2"],
     [(["z0", "zz"], ["1"]), (["z0", "z1"], [BAD_SURD])],
     SchemaError, BAD_V.format(1)),
    (["z0", "z0", "z2"], [(["z0", "z2"], [BAD_SURD])],
     SchemaError, BAD_V.format(0)),
    (["z0", "z1", "z2"],
     [(["z0", "z2"], ["2"]), (["z1", "z0"], ["1"]), (["z1", "z2"], ["1"]),
      (["z0", "z1"], ["3"])],
     SchemaError, "configuration.distances[3]: pair z0,z1 already has a "
                  "different value at configuration.distances[1]"),
    (["z0", "z1", "z2"],
     [(["z0", "z1"], ["1", "0"]), (["z1", "z2"], ["1"]),
      (["z2", "z2"], ["5"])],
     InvalidConfiguration, "self-distance of z2 must be plus-infinity, "
                           "not (5)"),
], ids=["value-before-unknown-point", "value-before-repeated-name",
        "conflict-names-first-index", "self-distance-before-arity"])
def test_distance_table_errors_keep_their_order(seq, dist, error, text):
    raw = {"sequence": seq, "points": [],
           "distances": [{"pair": pq, "v": v} for pq, v in dist]}
    with pytest.raises(error) as caught:
        jsonio.decode_configuration(raw, "configuration", {})
    assert type(caught.value) is error and str(caught.value) == text


@pytest.mark.parametrize("p", [0, 1, 4])
@pytest.mark.parametrize("kind", ["padic", "composite"])
def test_oracle_field_needs_a_prime(kind, p):
    raw = {"oracle": {"field": {"kind": kind, "p": p},
                      "sequence": ["1", "6", "31"]}}
    with pytest.raises(SchemaError, match="must be prime"):
        decode_problem(raw)


@pytest.mark.parametrize("kind", ["padic", "composite"])
def test_oracle_field_primality_is_decided_once(monkeypatch, kind):
    calls = []
    inner = groups.is_prime

    def counting(n):
        calls.append(n)
        return inner(n)
    # Every module binding of is_prime counts.
    for module in (groups, oracle, jsonio):
        if hasattr(module, "is_prime"):
            monkeypatch.setattr(module, "is_prime", counting)
    decode_problem({"oracle": {"field": {"kind": kind, "p": 5},
                               "sequence": ["1", "6", "31"]}})
    assert calls == [5]


def test_decoder_fuzz_only_package_errors():
    from pmsval.errors import PmsvalError
    rng = random.Random(0xFEED)

    def junk(depth=0):
        roll = rng.random()
        if depth > 3 or roll < 0.25:
            return rng.choice(["1/2", "x", "inf", 0, -3, True, None, "surd",
                               "1/0", {"rat": "q"}, []])
        if roll < 0.5:
            return [junk(depth + 1) for _ in range(rng.randint(0, 3))]
        keys = ["version", "group", "sequence", "kind", "chain", "components",
                "prefix", "functions", "oracle", "probes", "const",
                "terminal", "surd", "a", "b", "d", "v", "pair"]
        return {rng.choice(keys): junk(depth + 1)
                for _ in range(rng.randint(0, 4))}

    for _ in range(400):
        try:
            decode_problem(junk())
        except PmsvalError:
            pass


# ---------------------------------------------------------------------------
# The report writer is json.dumps(..., sort_keys=True, indent=2) + "\n"

strings = st.text() | st.text(alphabet='"\\/\x00\x08\x1f\x7f\n\t\r '
                              'a\u00e9\u2028\u20ac\U0001f600')
report_leaves = (st.none() | st.booleans() | strings
                 | st.integers(-10 ** 300, 10 ** 300))
reports = st.recursive(
    report_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(strings, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(reports)
def test_dump_report_is_the_indent_encoder(report):
    assert dump_report(report) == json.dumps(report, sort_keys=True,
                                             indent=2) + "\n"


def test_dump_report_empty_containers():
    report = {"a": {}, "b": [], "c": [{}, []]}
    assert dump_report(report) == json.dumps(report, sort_keys=True,
                                             indent=2) + "\n"
    assert dump_report({}) == "{}\n" and dump_report([]) == "[]\n"


def test_writers_take_integers_past_the_str_digit_limit():
    # str() of an int refuses past 4,300 digits; the digits are built as
    # text here, since int() has the same limit.
    big = 10 ** 5000
    assert dump_report({"d": -big}) == '{\n  "d": -1' + "0" * 5000 + "\n}\n"
    huge = ExactReal.rational(Fraction(big, 3))
    assert jsonio.encode_exact(huge) == {"rat": "1" + "0" * 5000 + "/3"}
    assert jsonio.encode_exact(huge + ExactReal.surd(0, 1, 2))["surd"]["a"] \
        == "1" + "0" * 5000 + "/3"


@pytest.mark.parametrize("bad", [0.5, 1.0, (1, 2), {1, 2}, {1: "x"},
                                 {"a": [1, {"b": float("nan")}]},
                                 {"a": "x", 2: "y"}, {None: 1}],
                         ids=["float", "whole-float", "tuple", "set",
                              "int-key", "nested-nan", "mixed-keys",
                              "none-key"])
def test_dump_report_refuses_other_types(bad):
    with pytest.raises(TypeError):
        dump_report(bad)


# ---------------------------------------------------------------------------
# Each numeral is decoded once per problem


def bundled(name: str) -> str:
    return resources.files("pmsval").joinpath("problems", name).read_text()


def symbolic_problems() -> list[str]:
    return sorted(p.name for p in resources.files("pmsval")
                  .joinpath("problems").iterdir()
                  if p.name.endswith(".json")
                  and "oracle" not in json.loads(p.read_text()))


@pytest.fixture
def numerals_seen(monkeypatch) -> list:
    seen = []
    inner = jsonio._numeral_value

    def counting(raw, path):
        seen.append((raw.__class__, raw))
        return inner(raw, path)

    monkeypatch.setattr(jsonio, "_numeral_value", counting)
    return seen


class Forgetful(dict):
    """A numeral table that keeps nothing, so each occurrence decodes."""

    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("name", symbolic_problems())
def test_each_numeral_is_decoded_once_per_problem(name, numerals_seen):
    raw = json.loads(bundled(name))
    # The public decoders, called on their own, decode every occurrence.
    decode_group(raw["group"], "group", Forgetful())
    decode_descriptor(raw["sequence"], "sequence", Forgetful())
    for i, f in enumerate(raw.get("functions", [])):
        decode_function(f, f"functions[{i}]", Forgetful())
    if "configuration" in raw:
        decode_configuration(raw["configuration"], "configuration",
                             Forgetful())
    every = list(numerals_seen)
    numerals_seen.clear()
    for _ in range(2):
        loads_problem(bundled(name))
        assert Counter(numerals_seen) == Counter(set(every))
        numerals_seen.clear()
    assert len(every) > len(set(every))  # the problem repeats numerals


def exact_reals(obj, found: dict) -> dict:
    """Every ExactReal reachable from obj through tuples (records among
    them), lists, dict values and the attributes of pmsval objects, by id."""
    if isinstance(obj, ExactReal):
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            exact_reals(x, found)
    elif isinstance(obj, dict):
        exact_reals(list(obj.values()), found)
    elif type(obj).__module__.startswith("pmsval."):
        for name in getattr(obj, "__dict__", None) or obj.__slots__:
            exact_reals(getattr(obj, name), found)
    return found


def test_no_decoded_numeral_outlives_its_problem():
    text = bundled("example-rank3.json")
    first, second = loads_problem(text), loads_problem(text)
    ids1, ids2 = exact_reals(first, {}), exact_reals(second, {})
    assert ids1 and not ids1.keys() & ids2.keys()
    # Inside one problem, the repeated "1/2" is one object.
    E = first.sequence
    halves = {id(v.coords[0]) for v in E.prefix}
    assert halves == {id(E.chain.constants[0].value)}


def test_repeated_bad_numeral_fails_at_its_first_path():
    raw = json.loads(bundled("example-rank3.json"))
    prefix = raw["sequence"]["prefix"]
    prefix[1][0] = prefix[3][0] = "1/0"
    with pytest.raises(SchemaError) as err:
        decode_problem(raw)
    assert str(err.value) == ("sequence.prefix[1][0]: not a rational "
                              "numeral n or n/d: '1/0'")


@pytest.mark.parametrize("name", ["example-cauchy-5adic.json",
                                  "example-composite-rank2.json"])
def test_oracle_numerals_are_decoded_once_per_problem(name, numerals_seen):
    loads_problem(bundled(name))
    assert numerals_seen and len(numerals_seen) == len(set(numerals_seen))


def oracle_problems_with(value) -> list[tuple[dict, str]]:
    """The bundled p-adic and Q(t) oracle problems with value at terms 2 and
    5 (for Q(t), as the t-coefficient), and the path of the first one."""
    padic = json.loads(bundled("example-cauchy-5adic.json"))
    padic["oracle"]["sequence"][2] = padic["oracle"]["sequence"][5] = value
    composite = json.loads(bundled("example-composite-rank2.json"))
    terms = composite["oracle"]["sequence"]
    terms[2]["num"][1] = terms[5]["num"][1] = value
    return [(padic, "oracle.sequence[2]"),
            (composite, "oracle.sequence[2].num[1]")]


def test_repeated_bad_coefficient_fails_at_its_first_path():
    for raw, path in oracle_problems_with("1/0"):
        with pytest.raises(SchemaError) as err:
            decode_problem(raw)
        assert str(err.value) == \
            f"{path}: not a rational numeral n or n/d: '1/0'"


def test_oracle_coefficient_true_is_refused():
    # true equals 1 in Python, and the Q(t) terms around it hold "1" there;
    # it must not pass as that numeral.
    for raw, path in oracle_problems_with(True):
        with pytest.raises(SchemaError) as err:
            decode_problem(raw)
        assert str(err.value).startswith(f"{path}: not a rational numeral")


numeral_leaves = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.integers(-20, 20).map(str),
    st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 40)).map(
        lambda nd: f"{nd[0]}/{nd[1]}"))
coordinates = st.one_of(
    numeral_leaves, numeral_leaves.map(lambda q: {"rat": q}),
    st.builds(lambda a, b, d: {"surd": {"a": a, "b": b, "d": d}},
              numeral_leaves, numeral_leaves, st.sampled_from([2, 3, 8, 12])))
raw_values = st.lists(coordinates, min_size=1, max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raw_values, st.lists(raw_values, max_size=3))
def test_decode_value_reads_the_same_through_a_filled_numerals_dict(raw,
                                                                    before):
    shared: dict = {}
    for other in before + [raw]:
        decode_value(other, "seen", shared)
    assert shared  # the second decode of raw reads its numerals from here
    assert decode_value(raw, "value", shared) \
        == decode_value(raw, "value", {})


@pytest.mark.parametrize("bad", [True, 1.0, "1.5", "1/0", {"rat": [1]},
                                 "1" * 5000],
                         ids=["true", "float", "decimal", "zero-denominator",
                              "rat-list", "past-the-digit-limit"])
def test_decode_value_refuses_a_bad_coordinate_alike_with_numerals(bad):
    def refusal(numerals):
        with pytest.raises(SchemaError) as err:
            decode_value(["1", "2", bad], "probes[4]", numerals)
        return str(err.value)

    shared: dict = {}
    decode_value(["1", "2", "1"], "seen", shared)
    alone = refusal({})
    assert alone.startswith("probes[4][2]: ")
    assert refusal(shared) == refusal({}) == alone


def test_numeral_spellings_decode_equal():
    probes = decode_problem(
        {"probes": [["1"], [1], [{"rat": "1"}], "1", 1, [{"rat": 1}]]}).probes
    assert set(probes) == {Value.of(1)}


def rank1_problem(top_gen, sequence_gen) -> dict:
    return {"group": {"components": [{"kind": "cyclic", "gen": top_gen}]},
            "sequence": {"kind": "pcs", "group": {"components": [
                {"kind": "cyclic", "gen": sequence_gen}]},
                "chain": [{"terminal": {"dir": "inc",
                                        "bound": "unbounded"}}],
                "pcs_type": {"algebraic": {"deg": 1}}}}


def test_distinct_top_level_group_is_decoded_and_checked():
    problem = decode_problem(rank1_problem("1/2", "1"))
    assert problem.group != problem.sequence.group
    with pytest.raises(SchemaError, match=r"^group\.components\[0\]: "):
        decode_problem(rank1_problem("0", "1"))


def test_an_identical_sequence_group_is_the_top_level_group():
    problem = decode_problem(rank1_problem("1/2", "1/2"))
    assert problem.sequence.group is problem.group
    # An equal group spelled another way is decoded on its own.
    other = decode_problem(rank1_problem("1/2", "2/4"))
    assert other.sequence.group == other.group
    assert other.sequence.group is not other.group


@pytest.mark.parametrize("spelling", [True, 1.0])
def test_group_sharing_tells_json_types_apart(spelling):
    # true and 1.0 equal 1 in Python; the sequence's group must still be
    # decoded, and refused, on its own.
    with pytest.raises(SchemaError, match=r"^sequence\.group\.components"
                                          r"\[0\]\.gen: "):
        decode_problem(rank1_problem(1, spelling))


def classify_configuration(capsys, tmp_path, values: list) -> tuple[int, dict]:
    """Exit code and report of classify on a problem whose configuration
    gives values to the pairs z0z1, z0z2, z1z2, ... in turn."""
    pairs = [["z0", "z1"], ["z0", "z2"], ["z1", "z2"], ["z0", "z3"]]
    config = {"sequence": ["z0", "z1", "z2", "z3"], "points": [],
              "distances": [{"pair": pq, "v": v}
                            for pq, v in zip(pairs, values)]}
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"version": "1", "configuration": config}))
    code = cli.main(["classify", "--in", str(file)])
    return code, json.loads(capsys.readouterr().out)


SURD = {"surd": {"a": "1", "b": "1", "d": 2}}


@pytest.mark.parametrize("first, later, detail", [
    ([{"rat": 1}], [{"rat": True}], "not a rational numeral n or n/d"),
    ([{"rat": 1}], [{"rat": 1.0}], "not a rational numeral n or n/d"),
    ([1], [True], "not a rational numeral n or n/d"),
    ([1], [1.0], "not an exact real: 1.0"),
    ([SURD], [{"surd": {**SURD["surd"], "d": 2.0}}],
     "surd radicand d must be an integer"),
    ([SURD], [{"surd": {**SURD["surd"], "d": True}}],
     "surd radicand d must be an integer"),
    ([{"surd": {**SURD["surd"], "a": 1}}],
     [{"surd": {**SURD["surd"], "a": True}}],
     "not a rational numeral n or n/d"),
    ([{"surd": {**SURD["surd"], "b": 1}}],
     [{"surd": {**SURD["surd"], "b": 1.0}}],
     "not a rational numeral n or n/d"),
    # The surd shares its value with a second coordinate, so the value's
    # encoding differs and only the surd's own key could confuse them.
    ([SURD, "0"], [{"surd": {**SURD["surd"], "d": True}}, "1"],
     "surd radicand d must be an integer"),
    ([SURD, "0"], [{"surd": {**SURD["surd"], "d": 2.0}}, "1"],
     "surd radicand d must be an integer"),
    ([{"surd": {**SURD["surd"], "d": 1}}, "0"],
     [{"surd": {**SURD["surd"], "d": True}}, "1"],
     "surd radicand d must be an integer"),
    ([{"surd": {"a": 1, "b": 1, "d": 2}}, "0"],
     [{"surd": {"a": True, "b": True, "d": 2}}, "1"],
     "not a rational numeral n or n/d")])
def test_distance_encodings_tell_json_types_apart(capsys, tmp_path, first,
                                                  later, detail):
    # true and 1.0 equal 1 in Python; a later distance spelled so is
    # decoded, and refused, at its own path.
    code, rep = classify_configuration(capsys, tmp_path,
                                       [first, first, later])
    assert code == 2 and rep == {
        "error": "schema",
        "detail": f"configuration.distances[2].v[0]: {detail}"}


@pytest.mark.parametrize("bad, detail", [
    ([{"rat": [1]}], "not a rational numeral n or n/d"),
    ([{"surd": {"a": "1", "b": "1", "d": [2]}}],
     "surd radicand d must be an integer")])
def test_unhashable_distance_leaf_fails_at_its_first_path(capsys, tmp_path,
                                                          bad, detail):
    code, rep = classify_configuration(capsys, tmp_path,
                                       [["1"], bad, ["2"], bad])
    assert code == 2 and rep == {
        "error": "schema",
        "detail": f"configuration.distances[1].v[0]: {detail}"}


def test_absent_generator_scale_and_stage_default():
    assert decode_component({"kind": "cyclic"}, "c", {}) \
        == Cyclic(Fraction(1))
    assert decode_component({"kind": "p_divisible", "p": 3}, "c", {}) \
        == groups.PPowerDivisible(3, Fraction(1))
    chain, _ = decode_chain([{"const": {"v": "2"}},
                             {"terminal": {"dir": "inc",
                                           "bound": "unbounded"}}],
                            "chain", {})
    assert chain.constants[0].stage == 0


def test_a_surd_beside_a_rat_is_keyed_by_its_whole_object():
    # "rat" wins over "surd", so these two decode to 1 and 2 although
    # their surds are spelled alike.
    cfg = decode_configuration(
        {"sequence": ["z0", "z1", "z2"], "points": [], "distances": [
            {"pair": ["z0", "z1"], "v": [{"rat": "1", "surd": SURD["surd"]}]},
            {"pair": ["z1", "z2"], "v": [{"rat": "2", "surd": SURD["surd"]}]},
            {"pair": ["z0", "z2"], "v": ["1"]}]}, "configuration", {})
    assert cfg.distance("z1", "z2") == Value.of(2)


def test_a_pair_listed_twice_with_one_value_spelled_two_ways():
    cfg = decode_configuration(
        {"sequence": ["z0", "z1", "z2"], "points": [], "distances": [
            {"pair": ["z0", "z1"], "v": ["1"]},
            {"pair": ["z1", "z0"], "v": [{"rat": 1}]},
            {"pair": ["z1", "z2"], "v": ["2"]},
            {"pair": ["z0", "z2"], "v": ["1"]}]}, "configuration", {})
    assert cfg.distance("z0", "z1") == Value.of(1)


@pytest.mark.parametrize("pair", ["ab", ["a", "b", "c"]])
def test_a_pair_must_be_a_list_of_two_names(pair):
    raw = {"sequence": ["a", "b", "c"], "points": [],
           "distances": [{"pair": pair, "v": ["1"]}]}
    with pytest.raises(SchemaError, match=r"^configuration\.distances\[0\]: "
                                          r"pair must name two points$"):
        decode_configuration(raw, "configuration", {})


@pytest.mark.parametrize("oracle, text", [
    ({"field": {"p": 5}, "sequence": ["1", "6", "31"]},
     "oracle.field: field must be an object with a kind"),
    ({"field": {"kind": "composite", "p": 5},
      "sequence": [{"den": ["1"]}, "1", "2"]},
     "oracle.sequence[0]: not a field element: {'den': ['1']}"),
    ({"field": {"kind": "composite", "p": 5},
      "sequence": [{"num": "1"}, "1", "2"]},
     "oracle.sequence[0]: t-polynomial coefficients must be lists"),
    ({"field": {"kind": "padic", "p": 5}, "sequence": ["1", "6"]},
     "oracle: oracle sequence needs at least three terms"),
], ids=["field-kind", "element-num", "num-list", "three-terms"])
def test_malformed_oracle_sections_are_schema_errors(oracle, text):
    with pytest.raises(SchemaError) as caught:
        decode_problem({"oracle": oracle})
    assert str(caught.value) == text


def test_a_surd_coordinate_is_decoded_once_per_problem():
    # One spelling of a surd, in values that differ elsewhere, in the
    # distances and in the group, is one ExactReal.
    chain_const = {"surd": {"a": "1", "b": "1", "d": 2}}
    group = {"components": [{"kind": "adjoined_surd",
                             "base": {"kind": "rationals"},
                             "tau": chain_const},
                            {"kind": "rationals"}]}
    problem = decode_problem({"group": group, "configuration": {
        "sequence": ["z0", "z1", "z2"], "points": [], "distances": [
            {"pair": ["z0", "z1"], "v": [chain_const, "1"]},
            {"pair": ["z1", "z2"], "v": [chain_const, "2"]},
            {"pair": ["z0", "z2"], "v": [dict(chain_const), "1"]}]}})
    cfg = problem.configuration
    tau = problem.group.components[0].tau
    assert cfg.distance("z0", "z1") != cfg.distance("z1", "z2")
    assert all(v.coords[0] is tau for v in table(cfg).values())
