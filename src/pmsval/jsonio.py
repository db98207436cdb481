"""JSON encoding and decoding of problem files and reports.

Reports are serialized deterministically (sorted keys) so identical inputs
produce byte-identical outputs.  A rational is a JSON integer or a string
"n" or "n/d"; exact reals travel as {"rat": ...} or {"surd": {"a", "b",
"d"}}; a value is a list of exact reals, or "inf" for the value of zero.
Only sup/inf reports write "inf" and "-inf" as coordinates.

Every decoder takes the path of its input, for error messages, and a
``numerals`` dict.  ``decode_problem`` makes one for the length of its call,
so that each distinct numeral of a problem, and each surd spelled with
string a and b and an integer d, is decoded once and its ExactReal shared.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from marshal import dumps
from typing import Any, NamedTuple, Optional

from .engine import FactoredRationalFunction, TaggedRoot
from .errors import InvalidConfiguration, InvariantError, SchemaError
from .exact import ExactReal
from .groups import (AdjoinedSurd, Component, Cyclic, FormalInteger,
                     FullRational, GroupDescriptor, INFINITY,
                     PPowerDivisible, Value)
from .oracle import (CompositeField, ConcreteField, ConcreteRationalFunction,
                     PadicRationals, QtElement)
from .sequences import (Algebraic, ConstantFrom, PmsDescriptor, PmsKind,
                        StageChain, Transcendental, UltrametricConfiguration)

SCHEMA_VERSION = "1"


def _fail(path: str, msg: str) -> SchemaError:
    return SchemaError(f"{path}: {msg}")


def _list(raw: dict, key: str, path: str) -> list:
    """The list under key, empty when absent."""
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise _fail(path, f"{key} must be a list")
    return value


def _int(raw: Any, path: str, msg: str, least: Optional[int] = None) -> int:
    """raw as an integer, at least least when given; a JSON boolean is not
    an integer."""
    if isinstance(raw, bool) or not isinstance(raw, int) or \
            (least is not None and raw < least):
        raise _fail(path, msg)
    return raw


def _numeral_value(raw: Any, path: str) -> ExactReal:
    """A JSON integer, or a string n or n/d of ASCII decimal digits, n with
    an optional minus and d nonzero, as a rational ExactReal built from the
    integers; decimals, exponents, whitespace and floats are refused."""
    if not isinstance(raw, str):
        return ExactReal.rational(
            _int(raw, path, "not a rational numeral n or n/d"))
    num, slash, den = raw.partition("/")
    if raw.isascii() and num.removeprefix("-").isdigit() and (
            den.isdigit() or not slash):
        try:
            n, m = int(num), int(den or 1)
        except ValueError:
            pass  # past Python's int digit limit
        else:
            if m:
                return ExactReal.ratio(n, m)
    raise _fail(path, f"not a rational numeral n or n/d: {raw!r}")


def _rational(raw: Any, path: str, numerals: dict) -> ExactReal:
    """The numeral raw as a rational ExactReal, looked up in and added to
    numerals.  Only a JSON string or integer is a key; a numeral that fails
    raises before it is stored, so it fails again at its next path."""
    if raw.__class__ not in (str, int):
        return _numeral_value(raw, path)
    key = (raw.__class__, raw)
    x = numerals.get(key)
    if x is None:
        x = numerals[key] = _numeral_value(raw, path)
    return x


def _numeral_fraction(raw: Any, path: str, numerals: dict) -> Fraction:
    """The numeral raw as a Fraction, for a component's generator and the
    oracle's field elements; held in numerals beside its ExactReal, so each
    distinct numeral is one Fraction too."""
    if raw.__class__ not in (str, int):
        return _rational(raw, path, numerals).a
    key = (Fraction, raw.__class__, raw)
    q = numerals.get(key)
    if q is None:
        q = numerals[key] = _rational(raw, path, numerals).a
    return q


# ---------------------------------------------------------------------------
# Exact reals and values


def _numeral(n: int, m: int = 1) -> str:
    """n/m, with m > 0 and the two coprime, as n or n/m, exact at any
    length: str of an int stops at the interpreter's digit limit, and past
    it decimal at exponent 0 writes the digits."""
    try:
        return str(n) if m == 1 else f"{n}/{m}"
    except ValueError:
        n = str(Decimal(n))
        return n if m == 1 else f"{n}/{Decimal(m)}"


def encode_exact(x: ExactReal) -> Any:
    d, an, ad, bn, bd = x
    if d == 1:
        return {"rat": _numeral(an, ad)}
    return {"surd": {"a": _numeral(an, ad), "b": _numeral(bn, bd), "d": d}}


def decode_exact(raw: Any, path: str, numerals: dict) -> ExactReal:
    if isinstance(raw, (str, int)):
        return _rational(raw, path, numerals)
    if isinstance(raw, dict):
        if "rat" in raw:
            return _rational(raw["rat"], path, numerals)
        if "surd" in raw:
            s = raw["surd"]
            if not isinstance(s, dict) or not {"a", "b", "d"} <= set(s):
                raise _fail(path, "surd needs fields a, b, d")
            # Keyed flat only when a and b are strings and d an integer:
            # true and 2.0 equal an integer radicand, but are refused.
            a, b, d = s["a"], s["b"], s["d"]
            key = ((a, b, d) if a.__class__ is b.__class__ is str
                   and d.__class__ is int else None)
            x = numerals.get(key)
            if x is None:
                d = _int(d, path, "surd radicand d must be an integer")
                try:
                    x = ExactReal.surd(_rational(a, path, numerals),
                                       _rational(b, path, numerals), d)
                except InvariantError as exc:
                    raise _fail(path, str(exc))
                if key is not None:
                    numerals[key] = x
            return x
    raise _fail(path, f"not an exact real: {raw!r}")


def encode_value(v: Value) -> Any:
    if v.is_infinity:
        return "inf"
    return [encode_exact(c) for c in v.coords]


def decode_value(raw: Any, path: str, numerals: dict) -> Value:
    if isinstance(raw, list):
        # A string numeral is looked up in numerals in place, and decoded
        # there when new; any other coordinate goes through decode_exact.
        coords = []
        for c in raw:
            if c.__class__ is not str:
                x = decode_exact(c, f"{path}[{len(coords)}]", numerals)
            elif (x := numerals.get(key := (str, c))) is None:
                x = numerals[key] = _numeral_value(c, f"{path}[{len(coords)}]")
            coords.append(x)
        return Value(tuple(coords))
    if raw == "inf":
        return INFINITY
    if isinstance(raw, (str, int)):
        return Value.of(decode_exact(raw, path, numerals))
    raise _fail(path, f"not a value tuple: {raw!r}")


# ---------------------------------------------------------------------------
# Components and group descriptors


def encode_component(c: Component) -> dict:
    if isinstance(c, Cyclic):
        q = c.gen
        return {"kind": "cyclic", "gen": _numeral(q.numerator, q.denominator)}
    if isinstance(c, PPowerDivisible):
        q = c.scale
        return {"kind": "p_divisible", "p": c.p,
                "scale": _numeral(q.numerator, q.denominator)}
    if isinstance(c, FullRational):
        return {"kind": "rationals"}
    if isinstance(c, FormalInteger):
        return {"kind": "formal_integer"}
    if isinstance(c, AdjoinedSurd):
        return {"kind": "adjoined_surd", "base": encode_component(c.base),
                "tau": encode_exact(c.tau)}
    raise SchemaError(f"unknown component {c!r}")


def decode_component(raw: Any, path: str, numerals: dict) -> Component:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise _fail(path, "component must be an object with a kind")
    kind = raw["kind"]
    try:
        if kind == "cyclic":
            return Cyclic(_numeral_fraction(raw.get("gen", 1), f"{path}.gen",
                                            numerals))
        if kind == "p_divisible":
            p = _int(raw.get("p"), path, "p_divisible needs an integer p")
            return PPowerDivisible(p, _numeral_fraction(
                raw.get("scale", 1), f"{path}.scale", numerals))
        if kind == "rationals":
            return FullRational()
        if kind == "formal_integer":
            return FormalInteger()
        if kind == "adjoined_surd":
            if "base" not in raw or "tau" not in raw:
                raise _fail(path, "adjoined_surd needs base and tau")
            return AdjoinedSurd(
                decode_component(raw["base"], f"{path}.base", numerals),
                decode_exact(raw["tau"], f"{path}.tau", numerals))
    except InvariantError as exc:
        raise _fail(path, str(exc))
    raise _fail(path, f"unknown component kind {kind!r}")


def encode_group(g: GroupDescriptor) -> dict:
    return {"components": [encode_component(c) for c in g.components]}


def decode_group(raw: Any, path: str, numerals: dict) -> GroupDescriptor:
    if not isinstance(raw, dict) or "components" not in raw:
        raise _fail(path, "group must be an object with components")
    comps = raw["components"]
    if not isinstance(comps, list) or not comps:
        raise _fail(path, "components must be a nonempty list")
    group = numerals.get(key := dumps(comps))  # 1, true, 1.0 stay apart
    if group is None:
        group = numerals[key] = GroupDescriptor(tuple(
            decode_component(c, f"{path}.components[{i}]", numerals)
            for i, c in enumerate(comps)))
    return group


# ---------------------------------------------------------------------------
# Sequence descriptors


def decode_chain(raw: Any, path: str, numerals: dict
                 ) -> tuple[StageChain, str]:
    """The chain and its terminal's dir, which the kind must match."""
    if not isinstance(raw, list) or not raw:
        raise _fail(path, "chain must be a nonempty list")
    entries: list = []
    for i, e in enumerate(raw):
        p = f"{path}[{i}]"
        if not isinstance(e, dict):
            raise _fail(p, "chain entry must be an object")
        if "const" in e:
            c = e["const"]
            if not isinstance(c, dict) or "v" not in c:
                raise _fail(p, "const entry needs a value v")
            stage = _int(c.get("from", 0), p,
                         "const stage must be a nonnegative integer", 0)
            entries.append(ConstantFrom(decode_exact(c["v"], f"{p}.v",
                                                     numerals), stage))
        elif "terminal" in e:
            t = e["terminal"]
            if not isinstance(t, dict) or "dir" not in t or "bound" not in t:
                raise _fail(p, "terminal entry needs dir and bound")
            if t["dir"] not in ("inc", "dec"):
                raise _fail(p, f"unknown direction {t['dir']!r}")
            b = t["bound"]
            if b == "unbounded":
                bound: Any = (None, False)
            elif isinstance(b, dict) and ("in_group" in b
                                          or "not_in_group" in b):
                key = "in_group" if "in_group" in b else "not_in_group"
                bound = (decode_exact(b[key], f"{p}.bound", numerals),
                         key == "in_group")
            else:
                raise _fail(p, f"unknown bound {b!r}")
            entries.append((t["dir"], bound))
        else:
            raise _fail(p, "chain entry must be const or terminal")
    *front, last = entries
    if isinstance(last, ConstantFrom):
        raise InvariantError(
            "chain must end in a terminal entry: an all-constant chain "
            "contradicts strict monotonicity")
    if not all(isinstance(e, ConstantFrom) for e in front):
        raise InvariantError("only the last chain entry may be terminal")
    direction, (r, in_group) = last
    return StageChain(tuple(front), r, in_group), direction


def decode_descriptor(raw: Any, path: str, numerals: dict) -> PmsDescriptor:
    if not isinstance(raw, dict):
        raise _fail(path, "sequence must be an object")
    try:
        kind = PmsKind(raw.get("kind"))
    except ValueError:
        raise _fail(path, f"unknown kind {raw.get('kind')!r}")
    if "group" not in raw:
        raise _fail(path, "sequence needs its group")
    group = decode_group(raw["group"], f"{path}.group", numerals)
    chain, direction = (decode_chain(raw["chain"], f"{path}.chain", numerals)
                        if "chain" in raw else (None, None))
    pcts_delta = (decode_value(raw["pcts_delta"], f"{path}.pcts_delta",
                               numerals)
                  if "pcts_delta" in raw else None)
    pcs_type, pt = None, raw.get("pcs_type")
    if pt == "transcendental":
        pcs_type = Transcendental()
    elif isinstance(pt, dict) and "algebraic" in pt:
        alg = pt["algebraic"]
        deg = alg.get("deg") if isinstance(alg, dict) else None
        pcs_type = Algebraic(_int(deg, path,
                                  "algebraic pcs_type needs an integer deg"))
    elif "pcs_type" in raw:
        raise _fail(path, f"unknown pcs_type {pt!r}")
    prefix = (tuple(decode_value(v, f"{path}.prefix[{i}]", numerals)
                    for i, v in enumerate(_list(raw, "prefix", path)))
              if "prefix" in raw else None)
    want = "inc" if kind is PmsKind.PCS else "dec"
    if chain is not None and kind is not PmsKind.PCTS and direction != want:
        raise InvariantError(
            f"a {kind.value} requires a {want} terminal coordinate")
    return PmsDescriptor(kind, group, chain=chain, pcts_delta=pcts_delta,
                         pcs_type=pcs_type, prefix=prefix)


# ---------------------------------------------------------------------------
# Configurations


def decode_configuration(raw: Any, path: str, numerals: dict
                         ) -> UltrametricConfiguration:
    if not isinstance(raw, dict):
        raise _fail(path, "configuration must be an object")
    seq, pts = _list(raw, "sequence", path), _list(raw, "points", path)
    entries, at = _list(raw, "distances", path), f"{path}.distances"
    seq, pts = tuple(map(str, seq)), tuple(map(str, pts))
    # One walk fills rows[j][k], k >= j, by position and refuses a schema
    # fault at once.  Equal encodings decode once and share one Value:
    # marshal writes the type of every leaf, so 1, true, 1.0 and "1" stay
    # apart.  A bad encoding is never stored, so it still fails at its own
    # path.  An unknown name gets a row of its own, so a pair given two
    # values is refused whatever it names; the first unknown point or
    # finite self-distance is raised after the walk, behind repeated names.
    index = {p: j for j, p in enumerate(seq + pts)}
    rows = [{} for _ in seq + pts]
    decoded, bad = {}, None
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "pair" not in entry or "v" not in entry:
            raise _fail(f"{at}[{i}]", "distance entry needs pair and v")
        pair = entry["pair"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise _fail(f"{at}[{i}]", "pair must name two points")
        a, b = str(pair[0]), str(pair[1])
        raw_v = entry["v"]
        enc = dumps(raw_v)
        v = decoded.get(enc)
        if v is None:
            v = decoded[enc] = decode_value(raw_v, f"{at}[{i}].v", numerals)
        j, k = index.get(a), index.get(b)
        if j is None or k is None:
            bad = bad or ("distance references unknown point "
                          f"{min(a, b)},{max(a, b)}")
            for p in (a, b):
                if p not in index:
                    index[p] = len(rows)
                    rows.append({})
            j, k = index[a], index[b]
        if k < j:
            j, k = k, j
        elif j == k and v.coords is not None:
            bad = bad or f"self-distance of {a} must be plus-infinity, not {v}"
        old = rows[j].setdefault(k, v)
        if old is not v and old != v:
            key = sorted((a, b))
            first = next(k for k, e in enumerate(entries)
                         if sorted(map(str, e["pair"])) == key)
            raise _fail(f"{at}[{i}]", f"pair {key[0]},{key[1]} already has a "
                        f"different value at {at}[{first}]")
    if len(index) != len(rows):  # each unknown name added one to each
        raise InvalidConfiguration("point names must be distinct")
    if bad is not None:
        raise InvalidConfiguration(bad)
    if len({len(v.coords) for v in decoded.values()
            if v.coords is not None}) > 1:
        raise InvalidConfiguration("distance values have mixed arities")
    for j, row in enumerate(rows):
        row.pop(j, None)  # a self-pair at plus-infinity
    return UltrametricConfiguration.build(seq, pts, tuple(rows))


# ---------------------------------------------------------------------------
# Tagged rational functions


def decode_function(raw: Any, path: str, numerals: dict
                    ) -> FactoredRationalFunction:
    if not isinstance(raw, dict) or "lead" not in raw:
        raise _fail(path, "function needs a lead value")

    def dec(key: str) -> tuple[TaggedRoot, ...]:
        out = []
        for i, r in enumerate(_list(raw, key, path)):
            p = f"{path}.{key}[{i}]"
            if not isinstance(r, dict):
                raise _fail(p, "root must be an object")
            mult = _int(r.get("mult", 1), p, "mult must be a positive integer", 1)
            if r.get("limit"):
                out.append(TaggedRoot.limit(mult))
            elif "beta" in r:
                out.append(TaggedRoot.at_distance(
                    decode_value(r["beta"], f"{p}.beta", numerals), mult))
            else:
                raise _fail(p, "root must be tagged limit or carry beta")
        return tuple(out)

    return FactoredRationalFunction(
        decode_value(raw["lead"], f"{path}.lead", numerals),
        dec("num"), dec("den"))


# ---------------------------------------------------------------------------
# Oracle sections


def decode_field(raw: Any, path: str) -> ConcreteField:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise _fail(path, "field must be an object with a kind")
    p = _int(raw.get("p"), path, "field needs an integer prime p")
    try:
        if raw["kind"] == "padic":
            return PadicRationals(p)
        if raw["kind"] == "composite":
            return CompositeField(p)
    except InvariantError as exc:
        raise _fail(path, str(exc))
    raise _fail(path, f"unknown field kind {raw['kind']!r}")


def decode_field_element(field: ConcreteField, raw: Any, path: str,
                         numerals: dict):
    if isinstance(field, PadicRationals):
        return _numeral_fraction(raw, path, numerals)
    if isinstance(raw, (str, int)):
        return QtElement.constant(_numeral_fraction(raw, path, numerals))
    if isinstance(raw, dict) and "num" in raw:
        num, den = raw["num"], raw.get("den", ["1"])
        if not isinstance(num, list) or not isinstance(den, list):
            raise _fail(path, "t-polynomial coefficients must be lists")
        num, den = ([_numeral_fraction(c, f"{path}.{key}[{k}]", numerals)
                     for k, c in enumerate(coeffs)]
                    for key, coeffs in (("num", num), ("den", den)))
        if not any(den):
            raise _fail(f"{path}.den", "denominator must be nonzero")
        return QtElement.of(num, den)
    raise _fail(path, f"not a field element: {raw!r}")


class OracleSection(NamedTuple):
    field: ConcreteField
    terms: tuple
    functions: tuple[tuple[ConcreteRationalFunction, FactoredRationalFunction], ...]


def decode_oracle(raw: Any, path: str, numerals: dict) -> OracleSection:
    if not isinstance(raw, dict):
        raise _fail(path, "oracle must be an object")
    if "field" not in raw or "sequence" not in raw:
        raise _fail(path, "oracle needs field and sequence")
    field = decode_field(raw["field"], f"{path}.field")
    seq = raw["sequence"]
    if not isinstance(seq, list) or len(seq) < 3:
        raise _fail(path, "oracle sequence needs at least three terms")
    element = lambda x, p: decode_field_element(field, x, p, numerals)
    terms = tuple(element(t, f"{path}.sequence[{i}]")
                  for i, t in enumerate(seq))
    functions = []
    for i, f in enumerate(_list(raw, "functions", path)):
        p = f"{path}.functions[{i}]"
        if not isinstance(f, dict) or "tagged" not in f:
            raise _fail(p, "oracle function needs its tagged counterpart")
        lead = element(f.get("lead", "1"), f"{p}.lead")
        num, den = (tuple(element(r, f"{p}.{key}[{k}]")
                          for k, r in enumerate(_list(f, key, p)))
                    for key in ("num_roots", "den_roots"))
        tagged = decode_function(f["tagged"], f"{p}.tagged", numerals)
        if not lead:
            raise InvariantError(f"{p}.lead: a zero lead makes the function "
                                 "zero, which has no tail pattern")
        functions.append((ConcreteRationalFunction(lead, num, den), tagged))
    return OracleSection(field, terms, tuple(functions))


# ---------------------------------------------------------------------------
# Problem files


class Problem(NamedTuple):
    group: Optional[GroupDescriptor]
    sequence: Optional[PmsDescriptor]
    functions: tuple[FactoredRationalFunction, ...]
    configuration: Optional[UltrametricConfiguration]
    oracle: Optional[OracleSection]
    probes: Optional[tuple[Value, ...]]


def decode_problem(raw: Any) -> Problem:
    if not isinstance(raw, dict):
        raise SchemaError("problem file must be a JSON object")
    version = raw.get("version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema version {version!r}")
    numerals: dict = {}  # numeral leaf -> ExactReal, for this call only
    group = (decode_group(raw["group"], "group", numerals) if "group" in raw
             else None)
    sequence = (decode_descriptor(raw["sequence"], "sequence", numerals)
                if "sequence" in raw else None)
    functions = tuple(
        decode_function(f, f"functions[{i}]", numerals)
        for i, f in enumerate(_list(raw, "functions", "problem")))
    configuration = (decode_configuration(raw["configuration"],
                                          "configuration", numerals)
                     if "configuration" in raw else None)
    oracle = (decode_oracle(raw["oracle"], "oracle", numerals)
              if "oracle" in raw else None)
    probes = (tuple(decode_value(v, f"probes[{i}]", numerals)
                    for i, v in enumerate(_list(raw, "probes", "problem")))
              if "probes" in raw else None)
    return Problem(group, sequence, functions, configuration, oracle, probes)


def loads_problem(text: str) -> Problem:
    try:
        raw = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal past Python's digit limit
        raise SchemaError(f"invalid JSON: {exc}")
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    return decode_problem(raw)


def dump_report(report: Any) -> str:
    """Canonical serialization: sorted keys, two-space indent, ASCII only,
    and a final newline; the text of json.dumps(report, sort_keys=True,
    indent=2) + "\n".  A report holds dicts with str keys, lists, str, int,
    bool and None; anything else, a float included, is a TypeError."""
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(o: Any, newline: str, out: list[str]) -> None:
    """Append the text of o to out; newline is a line break followed by
    the indent of o's own line.  Containers are tested first: they are
    most of the calls, as a dict writes its str values in place."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(o):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not "
                                f"{type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            value = o[key]
            if value.__class__ is str:
                out.append(encode_basestring_ascii(value))
            else:
                _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, list):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(_numeral(o))
    else:
        raise TypeError(f"a report cannot hold a {type(o).__name__}")
