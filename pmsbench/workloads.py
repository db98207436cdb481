"""The three benchmark workloads: seeded problem generators with closed-form
expected answers, the client that drives pmsval, and the answer checks.

Every workload runs a closed loop with one client: the next problem is sent
only after the previous verdict returns.  A problem reaches pmsval only as
JSON text in a file, read through ``pmsval.cli.main``; the library calls
the CLI does not expose run on the problem decoded by ``pmsval.jsonio``.
Expected answers come from the constructions below, never from pmsval.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pmsval
from pmsval import cli, jsonio

from values import (RADICANDS, Surd, bounds, decode_report_value,
                    encode_coord, encode_value, floor_surd,
                    from_library_value, lower_approximations, neg,
                    surd_between, vadd, vscale)

UNBOUNDED, NOT_IN_GROUP, IN_GROUP = ("sup-infinite", "bound-not-in-group",
                                     "bound-in-group-strict")
BRANCHES = (UNBOUNDED, NOT_IN_GROUP, IN_GROUP)
ZERO = Fraction(0)


@dataclass
class Problem:
    pid: int
    size: int
    text: str
    expected: dict
    path: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple[int, ...]
    rounds: int  # rounds in the pool; a run visits each problem a few times
    make: Callable[[random.Random, int, int], tuple[dict, dict]]
    drive: Callable[[Problem], dict]
    check: Callable[[Problem, dict], list[str]]

    def pool(self, seed: int, rounds: int | None = None) -> list[Problem]:
        """Problems in rounds; each round holds one problem of every size,
        so every seed runs the same size mix."""
        rng = random.Random(seed)
        out = []
        for _ in range(rounds or self.rounds):
            for size in self.sizes:
                pid = len(out)
                raw, expected = self.make(rng, size, pid)
                out.append(Problem(pid, size, json.dumps(raw), expected))
        return out


def call_cli(args: list[str]) -> tuple[int, dict]:
    """One CLI invocation; returns the exit code and the parsed report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(args)
    return code, json.loads(out.getvalue())


def _diff(where: str, got, want, errors: list[str]) -> None:
    if got != want:
        errors.append(f"{where}: got {got!r}, expected {want!r}")


def _values(raw: list) -> list:
    return [decode_report_value(v) for v in raw]


# ---------------------------------------------------------------------------
# Components and the rank construction (shared by two workloads)


def _member(rng: random.Random, comp: dict) -> Fraction:
    """A random rational member of a cyclic, p-divisible or rational
    component."""
    if comp["kind"] == "cyclic":
        return comp["g"] * rng.randint(-6, 6)
    if comp["kind"] == "p_divisible":
        return comp["g"] * Fraction(rng.randint(-40, 40),
                                    comp["p"] ** rng.randint(0, 3))
    return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3, 4, 5, 8)))


def _component(rng: random.Random, dense: bool, shape: int) -> dict:
    kinds = (("p_divisible", "rationals") if dense
             else ("cyclic", "p_divisible", "rationals"))
    kind = kinds[shape % len(kinds)]
    if kind == "cyclic":
        return {"kind": kind, "g": Fraction(rng.randint(1, 4),
                                            rng.choice((1, 2, 3)))}
    if kind == "p_divisible":
        return {"kind": kind, "p": rng.choice((2, 3, 5)),
                "g": Fraction(rng.choice((1, 1, 2)), rng.choice((1, 2)))}
    return {"kind": kind, "g": Fraction(1)}


def _encode_component(comp: dict) -> dict:
    if comp["kind"] == "cyclic":
        return {"kind": "cyclic", "gen": str(comp["g"])}
    if comp["kind"] == "p_divisible":
        return {"kind": "p_divisible", "p": comp["p"],
                "scale": str(comp["g"])}
    if comp["kind"] == "rationals":
        return {"kind": "rationals"}
    return {"kind": "adjoined_surd", "base": _encode_component(comp["base"]),
            "tau": encode_coord(Surd(ZERO, Fraction(1), comp["d"]))}


def _chain(consts: list, stage: int, inc: bool, branch: str, r) -> list:
    out = [{"const": {"v": encode_coord(c), "from": stage}} for c in consts]
    if branch == UNBOUNDED:
        bound = "unbounded"
    elif branch == IN_GROUP:
        bound = {"in_group": encode_coord(r)}
    else:
        bound = {"not_in_group": encode_coord(r)}
    out.append({"terminal": {"dir": "inc" if inc else "dec", "bound": bound}})
    return out


def rank_answer(n: int, consts: list, inc: bool, branch: str, r) -> dict:
    """The extended value group of the rank walk, in closed form.

    The terminal coordinate j = len(consts) + 1 ends the walk: an unbounded
    coordinate inserts a Z factor before it, an in-group bound inserts one
    after it, a bound outside the group is adjoined.  alpha, the value of
    X minus a limit, follows the same shape.
    """
    j = len(consts) + 1
    unit = Fraction(1 if inc else -1)
    if branch == UNBOUNDED:
        alpha = tuple(consts) + (unit,) + (ZERO,) * (n - j + 1)
        insert = j - 1
    elif branch == IN_GROUP:
        alpha = tuple(consts) + (r, -unit) + (ZERO,) * (n - j)
        insert = j
    else:
        alpha = tuple(consts) + (r,) + (ZERO,) * (n - j)
        insert = None
    far, pad = ("inf", "-inf") if inc else ("-inf", "inf")
    extremum = tuple(consts) + (far if branch == UNBOUNDED else r,) \
        + (pad,) * (n - j)
    trace = [{"level": lvl, "branch": "bound-in-group-constant"}
             for lvl in range(1, j)] + [{"level": j, "branch": branch}]
    plus_one = branch != NOT_IN_GROUP
    return {"n": n, "alpha": alpha, "insert": insert, "trace": trace,
            "leaf": "rank+1" if plus_one else "rank-same",
            "output_rank": n + plus_one,
            "extremum": extremum,
            "extremum_in_group": j == n and branch == IN_GROUP}


def _embed(value: tuple, insert) -> tuple:
    if insert is None:
        return value
    return value[:insert] + (ZERO,) + value[insert:]


def _check_rank_report(rep: dict, ans: dict, inc: bool,
                       errors: list[str]) -> None:
    _diff("rank.input_rank", rep["input_rank"], ans["n"], errors)
    _diff("rank.output_rank", rep["output_rank"], ans["output_rank"], errors)
    _diff("rank.rank_delta", rep["rank_delta"], ans["output_rank"] - ans["n"],
          errors)
    _diff("rank.leaf", rep["leaf"], ans["leaf"], errors)
    _diff("rank.trace", rep["trace"], ans["trace"], errors)
    _diff("rank.alpha", decode_report_value(rep["alpha"]), ans["alpha"], errors)
    _diff("rank.extended_group rank",
          len(rep["extended_group"]["components"]), ans["output_rank"], errors)
    _check_extremum("rank", rep, ans, inc, errors)


def _check_extremum(where: str, rep: dict, ans: dict, inc: bool,
                    errors: list[str]) -> None:
    key = "sup" if inc else "inf"
    if key not in rep:
        errors.append(f"{where}: no {key} in the report")
        return
    _diff(f"{where}.{key}.value", decode_report_value(rep[key]["value"]),
          ans["extremum"], errors)
    _diff(f"{where}.{key}.in_group", rep[key]["in_group"],
          ans["extremum_in_group"], errors)


def _check_extension(rep: dict, ans: dict, pure: bool,
                     errors: list[str]) -> None:
    ext = rep["extension"]
    _diff("classify.extension_kind", ext["extension_kind"],
          "value-transcendental", errors)
    _diff("classify.pure", ext["pure"], pure, errors)
    _diff("classify.pair.alpha", decode_report_value(ext["pair"]["alpha"]),
          ans["alpha"], errors)


# ---------------------------------------------------------------------------
# symbolic-batch: small descriptor problems, five commands each


SYMBOLIC_WHY = (
    "Small rank 1-6 descriptors through classify, ve, rank, sup and probe: "
    "per-call fixed costs (argparse, JSON decode, validation) and rank_of_vE "
    "with its alpha verification")

PREFIX_LEN = 6


def _terminal_coords(rng: random.Random, comp: dict, branch: str):
    """Increasing terminal coordinates (members of comp) and the bound."""
    g = comp["g"]
    start = _member(rng, comp)
    if branch == UNBOUNDED:
        return [start + g * (k + 1) for k in range(PREFIX_LEN)], None
    p = comp.get("p", 2)
    if branch == IN_GROUP:
        r = start + g
        return [r - g / p ** (k + 1) for k in range(PREFIX_LEN)], r
    r = Surd(start + g, g / 2, rng.choice(RADICANDS))
    if comp["kind"] == "rationals":
        return lower_approximations(r, PREFIX_LEN), r
    # scale * Z[1/p^inf] members below r: (floor(x p^e) - 1) / p^e with
    # x = r / scale strictly increase in e and stay below x.
    coords = []
    for e in range(1, PREFIX_LEN + 1):
        x = Surd(r.a * p ** e / g, r.b * p ** e / g, r.d)
        coords.append(g * Fraction(floor_surd(x) - 1, p ** e))
    return coords, r


def _symbolic_function(rng: random.Random, comps: list,
                       shape: int) -> tuple[dict, int, tuple]:
    """One tagged function; returns its JSON, degree d and beta.  The root
    counts and which roots are limits cycle with shape."""
    def value():
        return tuple(_member(rng, c) for c in comps)

    lead = value()
    d, beta = 0, lead
    sides = {}
    for side, sign, count in (("num", 1, 1 + shape % 3),
                              ("den", -1, shape // 3 % 3)):
        roots = []
        for k in range(count):
            mult = rng.choice((1, 1, 2))
            if (shape + k) % 5 < 2:
                roots.append({"limit": True, "mult": mult})
                d += sign * mult
            else:
                b = value()
                roots.append({"beta": encode_value(b), "mult": mult})
                beta = vadd(beta, vscale(b, sign * mult))
        sides[side] = roots
    return {"lead": encode_value(lead), **sides}, d, beta


def make_symbolic(rng: random.Random, size: int, pid: int) -> tuple[dict, dict]:
    # size is the group rank; kind and leaf cycle so that each block of 36
    # problems covers every (rank, kind, leaf) triple once, and the rest of
    # the shape (terminal level, component kinds, roots) cycles with pid too,
    # so that every seed runs the same shapes and draws only the numbers.
    n = size
    inc = (pid // 6) % 2 == 0
    branch = BRANCHES[(pid // 12) % 3]
    j = 1 + pid // 36 % n
    comps = [_component(rng, lvl == j - 1 and branch != UNBOUNDED, pid + lvl)
             for lvl in range(n)]
    consts = [_member(rng, comps[lvl]) for lvl in range(j - 1)]
    coords, r = _terminal_coords(rng, comps[j - 1], branch)
    if not inc:
        coords, r = [-c for c in coords], (None if r is None else neg(r))
    prefix = [tuple(consts) + (c,) + (ZERO,) * (n - j) for c in coords]
    degree = rng.randint(1, 3)
    group = {"components": [_encode_component(c) for c in comps]}
    seq = {"kind": "pcs" if inc else "pds", "group": group,
           "chain": _chain(consts, 0, inc, branch, r),
           "prefix": [encode_value(v) for v in prefix]}
    if inc:
        seq["pcs_type"] = {"algebraic": {"deg": degree}}
    fn, d, beta = _symbolic_function(rng, comps, pid // 6)
    ans = rank_answer(n, consts, inc, branch, r)
    if d:
        value = vadd(vscale(ans["alpha"], d), _embed(beta, ans["insert"]))
    else:
        value = beta
    expected = {"inc": inc, "rank": ans, "prefix": prefix,
                "pure": (not inc) or degree == 1,
                "cauchy": j == 1 and branch == UNBOUNDED,
                "ve": {"d": d, "beta": beta, "value": value}}
    return {"version": "1", "group": group, "sequence": seq,
            "functions": [fn]}, expected


SYMBOLIC_COMMANDS = ("classify", "ve", "rank", "sup", "probe")


def drive_symbolic(problem: Problem) -> dict:
    return {cmd: call_cli([cmd, "--in", problem.path])
            for cmd in SYMBOLIC_COMMANDS}


def check_symbolic(problem: Problem, out: dict) -> list[str]:
    exp, errors = problem.expected, []
    inc, ans = exp["inc"], exp["rank"]
    for cmd, (code, _) in out.items():
        _diff(f"{cmd}: exit code", code, 0, errors)
    if errors:
        return errors
    rep = out["classify"][1]
    kind = "pcs" if inc else "pds"
    _diff("classify.kind", rep["kind"], kind, errors)
    _diff("classify.declared_kind", rep["declared_kind"], kind, errors)
    _diff("classify.delta_prefix", _values(rep["delta_prefix"]),
          exp["prefix"], errors)
    _diff("classify.is_cauchy", rep["is_cauchy"],
          exp["cauchy"] if inc else None, errors)
    _diff("classify.diverges_to_infinity", rep["diverges_to_infinity"],
          None if inc else exp["cauchy"], errors)
    _check_extension(rep, ans, exp["pure"], errors)
    fn = out["ve"][1]["functions"][0]
    ve = exp["ve"]
    _diff("ve.dominating_degree", fn["dominating_degree"], ve["d"], errors)
    _diff("ve.beta", decode_report_value(fn["beta"]), ve["beta"], errors)
    _diff("ve.value", decode_report_value(fn["value"]), ve["value"], errors)
    _diff("ve.in_vk", fn["in_vk"], ve["d"] == 0, errors)
    _diff("ve.over_extended_group", fn["over_extended_group"], ve["d"] != 0,
          errors)
    _check_rank_report(out["rank"][1], ans, inc, errors)
    _check_extremum("sup", out["sup"][1], ans, inc, errors)
    rep = out["probe"][1]
    _diff("probe.holds", rep["holds"], True, errors)
    _diff("probe.alpha", decode_report_value(rep["alpha"]), ans["alpha"],
          errors)
    _diff("probe.counterexample", rep["counterexample"], None, errors)
    _diff("probe.auto_probes", rep["auto_probes"], True, errors)
    return errors


# ---------------------------------------------------------------------------
# oracle-sweep: oracle-check on concrete p-adic and composite sequences


ORACLE_WHY = (
    "oracle-check on p-adic and Q(t) sequences, N = 8..40, one in six with a "
    "wrong tag: oracle valuation, QtElement arithmetic and the cubic "
    "isosceles scan on rational coordinates")

ORACLE_SIZES = (8, 16, 24, 32, 40)
WRONG_TAG_EVERY = 6  # coprime to the number of sizes: every size gets some


def _unit(rng: random.Random, p: int) -> Fraction:
    num = rng.choice([u for u in range(1, 13) if u % p])
    den = rng.choice([u for u in range(1, 7) if u % p])
    return Fraction(num, den) * rng.choice((1, -1))


def _tag(limit: bool, beta) -> dict:
    if limit:
        return {"limit": True, "mult": 1}
    return {"beta": encode_value(beta), "mult": 1}


def _padic_instance(rng: random.Random, n_terms: int, shape: int):
    """z_nu = L + c*p^(s*nu) over (Q, v_p), a pcs with limit L.

    v(z_i - z_j) = v(c) + s*i for i < j.  A root L + e with v(e) below
    v(c) + s*nu settles at the constant distance v(e); L itself is the
    limit.  Offsets are drawn so that every root has settled by the first
    index of the default fit window (the last half of the prefix).
    """
    p = (2, 3, 5, 7)[shape // 3 % 4]
    L = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 5)))
    s = (1, 1, 2)[shape % 3]
    vc = rng.randint(-2, 2)
    c = _unit(rng, p) * Fraction(p) ** vc
    terms = [L + c * Fraction(p) ** (s * nu) for nu in range(n_terms)]
    m = n_terms - 1
    settled = vc + s * (m - m // 2) - 1
    vl = rng.randint(-2, 2)
    lead = _unit(rng, p) * Fraction(p) ** vl
    used: set = set(terms)

    def root(at_limit: bool):
        if at_limit:
            return str(L), True, None
        while True:
            ve = rng.randint(-3, min(3, settled))
            x = L + _unit(rng, p) * Fraction(p) ** ve
            if x not in used:
                used.add(x)
                return str(x), False, (Fraction(ve),)

    field = {"kind": "padic", "p": p}
    group = {"components": [{"kind": "cyclic", "gen": "1"}]}
    seq = {"kind": "pcs", "group": group,
           "chain": [{"terminal": {"dir": "inc", "bound": "unbounded"}}],
           "pcs_type": {"algebraic": {"deg": 1}}}
    deltas = [(Fraction(vc + s * i),) for i in range(m)]
    return (field, group, seq, [str(z) for z in terms], str(lead),
            (Fraction(vl),), root, deltas, "pcs", 1)


def _qt(const: Fraction, coeff: Fraction, power: int) -> dict:
    """const + coeff * t^power as a problem-file element of Q(t)."""
    num = [ZERO] * (power + 1)
    num[0] += const
    num[power] += coeff
    return {"num": [str(x) for x in num]}


def _composite_instance(rng: random.Random, n_terms: int, shape: int):
    """Sequences over Q(t) with v(f) = (ord_t f, v_p(lowest coefficient)).

    pcs-second: z_nu = L + c0 p^nu t^k, deltas (k, nu).
    pcs-first:  z_nu = L + c0 t^(k+nu), deltas (k + nu, 0).
    pds-second: z_nu = L + c0 p^-nu t^k, consecutive deltas (k, -(nu+1)).
    A root L + u t^m is a limit exactly when m > k, except in pcs-first,
    where only L is; otherwise it settles at (m, v_p(u)).
    """
    p = (2, 3, 5)[shape // 3 % 3]
    shape = ("pcs-second", "pcs-first", "pds-second")[shape % 3]
    L = Fraction(rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)),
                 rng.choice((1, 2, 3)))
    c0 = _unit(rng, p)
    k = rng.randint(1, 2)
    steps = []  # (coefficient, power) of z_nu - L
    for nu in range(n_terms):
        if shape == "pcs-second":
            steps.append((c0 * Fraction(p) ** nu, k))
        elif shape == "pcs-first":
            steps.append((c0, k + nu))
        else:
            steps.append((c0 * Fraction(p) ** -nu, k))
    m = n_terms - 1
    if shape == "pcs-second":
        deltas = [(Fraction(k), Fraction(i)) for i in range(m)]
    elif shape == "pcs-first":
        deltas = [(Fraction(k + i), ZERO) for i in range(m)]
    else:
        deltas = [(Fraction(k), Fraction(-(i + 1))) for i in range(m)]
    lead_power = rng.randint(0, 1)
    lead_coeff = _unit(rng, p)
    used: set = set()

    def root(at_limit: bool):
        if at_limit:
            return {"num": [str(L)]}, True, None
        while True:
            power = rng.randint(0, k + 2)
            if shape == "pds-second" and power == k:
                continue  # domination would switch inside the window
            vu = rng.randint(-2, 2)
            u = _unit(rng, p) * Fraction(p) ** vu
            if (u, power) in steps or (u, power) in used:
                continue
            used.add((u, power))
            limit = shape != "pcs-first" and power > k
            beta = None if limit else (Fraction(power), Fraction(vu))
            return _qt(L, u, power), limit, beta

    field = {"kind": "composite", "p": p}
    z = {"components": [{"kind": "cyclic", "gen": "1"}] * 2}
    inc = shape != "pds-second"
    first = shape == "pcs-first"
    chain = [] if first else [{"const": {"v": str(k), "from": 0}}]
    chain.append({"terminal": {"dir": "inc" if inc else "dec",
                               "bound": "unbounded"}})
    seq = {"kind": "pcs" if inc else "pds", "group": z, "chain": chain}
    if inc:
        seq["pcs_type"] = {"algebraic": {"deg": 1}}
    terms = [_qt(L, cf, pw) for cf, pw in steps]
    lead = _qt(ZERO, lead_coeff, lead_power)
    return (field, z, seq, terms, lead, (Fraction(lead_power), ZERO), root,
            deltas, seq["kind"], 2)


def make_oracle(rng: random.Random, size: int, pid: int) -> tuple[dict, dict]:
    # Rounds alternate between p-adic and composite fields; the sequence
    # shape and the number of roots cycle with the place in the pool,
    # shifted by one each round, so every seed runs the same shapes at the
    # same sizes.  Every WRONG_TAG_EVERY-th problem carries one deliberately
    # wrong root tag.
    round_no = pid // len(ORACLE_SIZES)
    shape = pid % len(ORACLE_SIZES) + round_no
    make = _padic_instance if round_no % 2 == 0 else _composite_instance
    (field, group, seq, terms, lead, lead_value, root, deltas, kind,
     arity) = make(rng, size, shape)
    n_num, n_den = ((1, 0), (2, 1), (1, 2), (3, 0), (2, 0), (1, 1))[shape % 6]
    d, beta = 0, lead_value
    roots = {"num": [], "den": []}
    tags = {"num": [], "den": []}  # (is_limit, beta)
    for side, sign, count in (("num", 1, n_num), ("den", -1, n_den)):
        for _ in range(count):
            # A third of the roots are the limit L itself.
            raw, limit, b = root((shape + len(tags["num"])
                                  + len(tags["den"])) % 3 == 0)
            roots[side].append(raw)
            tags[side].append((limit, b))
            if limit:
                d += sign
            else:
                beta = vadd(beta, vscale(b, sign))
    wrong = None
    if pid % WRONG_TAG_EVERY == WRONG_TAG_EVERY - 1:
        side = rng.choice([s for s in ("num", "den") if tags[s]])
        idx = rng.randrange(len(tags[side]))
        limit, b = tags[side][idx]
        if limit:
            tags[side][idx] = (False, (Fraction(rng.randint(-3, 3)),) * arity)
        elif rng.random() < 0.5:
            tags[side][idx] = (True, None)
        else:
            tags[side][idx] = (False, b[:-1] + (b[-1] + 1,))
        wrong = f"{side}[{idx}]"
    fn = {"lead": lead, "num_roots": roots["num"], "den_roots": roots["den"],
          "tagged": {"lead": encode_value(lead_value),
                     **{side: [_tag(*t) for t in ts]
                        for side, ts in tags.items()}}}
    problem = {"version": "1", "group": group, "sequence": seq,
               "oracle": {"field": field, "sequence": terms,
                          "functions": [fn]}}
    expected = {"kind": kind, "deltas": deltas, "d": d, "beta": beta,
                "wrong": wrong}
    return problem, expected


def drive_oracle(problem: Problem) -> dict:
    return {"oracle-check": call_cli(["oracle-check", "--in", problem.path])}


def check_oracle(problem: Problem, out: dict) -> list[str]:
    exp, errors = problem.expected, []
    code, rep = out["oracle-check"]
    wrong = exp["wrong"]
    _diff("exit code", code, 0 if wrong is None else 1, errors)
    if "functions" not in rep:
        return errors + [f"no functions in report {rep!r}"]
    _diff("all_agree", rep["all_agree"], wrong is None, errors)
    fn = rep["functions"][0]
    _diff("kind", fn["kind"], exp["kind"], errors)
    _diff("delta_prefix", _values(fn["delta_prefix"]), exp["deltas"], errors)
    # The oracle's fit never sees the tags, so it matches the true answer
    # even when a tag is wrong.
    _diff("fit.kind", fn["fit"]["kind"], "affine" if exp["d"] else "constant",
          errors)
    _diff("fit.degree", fn["fit"]["degree"], exp["d"], errors)
    _diff("fit.beta", decode_report_value(fn["fit"]["beta"]), exp["beta"],
          errors)
    named = {m.split(":")[0] for m in fn["mismatches"]} - {"overall"}
    _diff("roots named in mismatches", named,
          set() if wrong is None else {wrong}, errors)
    if wrong is None:
        _diff("tagged.degree", fn["tagged"]["degree"], exp["d"], errors)
        _diff("tagged.beta", decode_report_value(fn["tagged"]["beta"]),
              exp["beta"], errors)
        _diff("mismatches", fn["mismatches"], [], errors)
    return errors


# ---------------------------------------------------------------------------
# witness-config: configurations with limit and non-limit candidates


# Sizes of one round, weighted toward small N so that a run visits every
# problem of the two-round pool a few times, and so that over the pool the
# median falls inside the N = 14 band and the 90th percentile inside the
# N = 24 band rather than on a band edge, where either would jump between
# sizes from run to run.
WITNESS_SIZES = (8, 8, 8, 10, 10, 10, 12, 12, 14, 14, 14, 14, 16, 16, 20, 20,
                 24, 24, 24, 32)
WITNESS_WHY = (
    "classify, is_limit and limit_dichotomy_check on surd-valued "
    "configurations, N = 8..32: O(N^2) distance decode, surd comparisons, "
    "one classify per witnessed index")


def _gap(lo_of, hi_of) -> tuple[Fraction, Fraction]:
    """Rational (hi bound of lo_of, lo bound of hi_of), separated."""
    m = 10 ** 6
    while True:
        lo, hi = bounds(lo_of, m)[1], bounds(hi_of, m)[0]
        if lo < hi:
            return lo, hi
        m *= 1000


def make_witness(rng: random.Random, size: int, pid: int) -> tuple[dict, dict]:
    """A pcs or pds of N = size points over a rank 2-3 group whose
    components each adjoin the square root of their own radicand, with limit
    candidates y* and non-limit candidates w* whose distances lie outside
    vK (other radicands), as the max-distance rule allows.

    pcs: d(z_i, z_j) = delta_i (i < j).  A limit y has d(y, z_nu) =
    delta_nu; two limits sit at D above every delta.  A non-limit w in slot
    k has d(w, z_nu) = delta_nu before k and its beta, strictly between
    delta_{k-1} and delta_k, from k on.
    pds: d(z_i, z_j) = delta_{j-1}.  A limit y has d(y, z_0) = D above
    delta_0 and d(y, z_nu) = delta_{nu-1}; a non-limit w sits at its beta,
    below every delta and the bound, from every point.
    Non-limit betas are ordered by slot, which gives d(w, w') = the smaller
    beta and d(y, w) = beta.

    The shape of a problem (kind, leaf, rank, candidates) is a function of
    its place in the pool, shifted by one each round, so every seed runs the
    same shapes at the same sizes; the seed draws only the numbers.
    """
    i = pid % len(WITNESS_SIZES) + pid // len(WITNESS_SIZES)
    inc = i % 2 == 0
    branch = BRANCHES[i % 3]
    n = 2 + i // 2 % 2
    n_lim, n_non = ((1, 1), (1, 2), (2, 1))[i // 4 % 3]
    rads = rng.sample(RADICANDS, n + 6)
    comp_rads, spare = rads[:n], rads[n:]
    comps = []
    for lvl in range(n):
        base = ({"kind": "rationals", "g": Fraction(1)}
                if lvl == n - 1 or rng.random() < 0.5
                else {"kind": "cyclic", "g": Fraction(1)})
        comps.append({"kind": "adjoined_surd", "base": base,
                      "d": comp_rads[lvl]})
    consts = [Surd(Fraction(rng.randint(-5, 5)), Fraction(rng.choice((-2, -1, 1, 2))),
                   comp_rads[lvl]) for lvl in range(n - 1)]
    dn = comp_rads[-1]
    m = Fraction(rng.choice((-2, -1, 1, 2)))
    stage = size // 2
    count = size  # deltas 0..N-1; the last one only for d(y, z_{N-1})
    q0 = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
    r = None
    if branch == UNBOUNDED:
        step = Fraction(rng.choice((1, 2)), 2)
        qs = [q0 + step * nu for nu in range(count)]
    elif branch == IN_GROUP:
        qs = [q0 - Fraction(1, 2 ** (nu + 1)) for nu in range(count)]
        r = Surd(q0, m, dn)
    else:
        r = Surd(q0, m + Fraction(rng.choice((-1, 1)), 2), dn)
        qs = lower_approximations(Surd(q0, r.b - m, dn), count)
    t = [Surd(q, m, dn) for q in qs]
    if not inc:
        t = [neg(x) for x in t]
        r = None if r is None else neg(r)
    deltas = [tuple(consts) + (x,) for x in t]
    pad = (ZERO,) * (n - 1)
    c1 = consts[0]
    D = (surd_between(bounds(c1)[1], bounds(c1)[1] + 1, spare.pop()),) + pad

    betas = []  # in increasing order
    if inc:
        slots = sorted(rng.sample(range(stage + 1), n_non))
        for k in slots:
            if k == 0:
                hi = bounds(t[0])[0]
                lo = hi - 1
            else:
                lo, hi = _gap(t[k - 1], t[k])
            betas.append((k, tuple(consts) + (surd_between(lo, hi,
                                                            spare.pop()),)))
    else:
        # Below every delta: under the bound on the terminal coordinate
        # when there is one, else under the first constant.
        ceiling = bounds(r if r is not None else c1)[0]
        for i in reversed(range(n_non)):
            u = surd_between(ceiling - i - 1, ceiling - i, spare.pop())
            betas.append((0, tuple(consts) + (u,) if r is not None
                          else (u,) + pad))

    z = [f"z{i}" for i in range(size)]
    ys = [f"y{i}" for i in range(n_lim)]
    ws = [f"w{i}" for i in range(len(betas))]
    dist = {}
    for i in range(size):
        for j in range(i + 1, size):
            dist[(z[i], z[j])] = deltas[i] if inc else deltas[j - 1]
    for y in ys:
        for nu in range(size):
            if inc:
                dist[(y, z[nu])] = deltas[nu]
            else:
                dist[(y, z[nu])] = D if nu == 0 else deltas[nu - 1]
        for y2 in ys:
            if y < y2:
                dist[(y, y2)] = D
    for w, (k, beta) in zip(ws, betas):
        for nu in range(size):
            dist[(w, z[nu])] = deltas[nu] if inc and nu < k else beta
        for y in ys:
            dist[(y, w)] = beta
    for a in range(len(ws)):
        for b in range(a + 1, len(ws)):
            dist[(ws[a], ws[b])] = betas[a][1]
    config = {"sequence": z, "points": ys + ws,
              "distances": [{"pair": list(pq), "v": encode_value(v)}
                            for pq, v in dist.items()]}
    group = {"components": [_encode_component(c) for c in comps]}
    degree = rng.randint(1, 2)
    seq = {"kind": "pcs" if inc else "pds", "group": group,
           "chain": _chain(consts, stage, inc, branch, r)}
    if inc:
        seq["pcs_type"] = {"algebraic": {"deg": degree}}
    expected = {"inc": inc, "rank": rank_answer(n, consts, inc, branch, r),
                "deltas": deltas[:size - 1], "pure": (not inc) or degree == 1,
                "limits": ys,
                "nonlimits": {w: beta for w, (_, beta) in zip(ws, betas)}}
    return {"version": "1", "group": group, "sequence": seq,
            "configuration": config}, expected


def drive_witness(problem: Problem) -> dict:
    out = {"classify": call_cli(["classify", "--in", problem.path])}
    decoded = jsonio.loads_problem(problem.text)
    E, cfg = decoded.sequence, decoded.configuration
    for y in cfg.points:
        out[y] = (pmsval.is_limit(y, E, cfg),
                  pmsval.limit_dichotomy_check(y, E, cfg))
    return out


def check_witness(problem: Problem, out: dict) -> list[str]:
    exp, errors = problem.expected, []
    code, rep = out["classify"]
    _diff("classify: exit code", code, 0, errors)
    if errors:
        return errors
    kind = "pcs" if exp["inc"] else "pds"
    _diff("classify.kind", rep["kind"], kind, errors)
    _diff("classify.delta_prefix", _values(rep["delta_prefix"]),
          exp["deltas"], errors)
    _check_extension(rep, exp["rank"], exp["pure"], errors)
    for y in exp["limits"]:
        tri, dich = out[y]
        _diff(f"is_limit({y})", tri.value, "true", errors)
        _diff(f"dichotomy({y})", (dich.is_limit, dich.constant_value),
              (True, None), errors)
    for w, beta in exp["nonlimits"].items():
        tri, dich = out[w]
        _diff(f"is_limit({w})", tri.value, "false", errors)
        _diff(f"dichotomy({w})",
              (dich.is_limit, from_library_value(dich.constant_value)),
              (False, beta), errors)
    return errors


WORKLOADS = {
    "oracle-sweep": Workload("oracle-sweep", ORACLE_WHY, ORACLE_SIZES, 5,
                             make_oracle, drive_oracle, check_oracle),
    "witness-config": Workload("witness-config", WITNESS_WHY,
                               WITNESS_SIZES, 1, make_witness,
                               drive_witness, check_witness),
    "symbolic-batch": Workload("symbolic-batch", SYMBOLIC_WHY,
                               (1, 2, 3, 4, 5, 6), 30, make_symbolic,
                               drive_symbolic, check_symbolic),
}
