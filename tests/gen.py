"""Random instance generators shared by the unit and acceptance suites.

All generators take an explicit random.Random so runs are reproducible.
Chains produced here are always valid descriptors (constructor validation
double-checks); bound branches are only placed on dense components, where
an infinite strictly monotone tail below the bound can actually exist.
"""

from __future__ import annotations

import random
from fractions import Fraction

from pmsval import (Algebraic, ConstantFrom, Cyclic, ExactReal, FullRational,
                    GroupDescriptor, PPowerDivisible, PmsDescriptor, PmsKind,
                    StageChain, UltrametricConfiguration, Value)
from pmsval.engine import FactoredRationalFunction, TaggedRoot
from pmsval.groups import component_contains, component_generator
from pmsval.oracle import CompositeField, ConcreteRationalFunction, \
    PadicRationals, QtElement, padic_valuation
from pmsval.ranktree import Branch

LEAF_BRANCHES = (Branch.SUP_INFINITE, Branch.BOUND_NOT_IN_GROUP,
                 Branch.BOUND_IN_GROUP_STRICT)


def rand_fraction(rng: random.Random, lo: int = -8, hi: int = 8,
                  dens=(1, 2, 3, 4, 5, 8)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_component(rng: random.Random, dense: bool = False):
    kinds = ["cyclic", "ppd", "rationals"]
    if dense:
        kinds = ["ppd", "rationals"]
    kind = rng.choice(kinds)
    if kind == "cyclic":
        return Cyclic(Fraction(rng.randint(1, 4), rng.choice([1, 2, 3])))
    if kind == "ppd":
        return PPowerDivisible(rng.choice([2, 3, 5]),
                               Fraction(rng.choice([1, 1, 2]), rng.choice([1, 2])))
    return FullRational()


def random_member(rng: random.Random, comp) -> ExactReal:
    if isinstance(comp, Cyclic):
        return ExactReal.rational(comp.gen * rng.randint(-6, 6))
    if isinstance(comp, PPowerDivisible):
        return ExactReal.rational(
            comp.scale * Fraction(rng.randint(-40, 40), comp.p ** rng.randint(0, 3)))
    if isinstance(comp, FullRational):
        return ExactReal.rational(rand_fraction(rng))
    raise AssertionError(f"no member generator for {comp!r}")


def random_group(rng: random.Random, n: int,
                 dense_at: int | None = None) -> GroupDescriptor:
    comps = [random_component(rng, dense=(dense_at == i)) for i in range(n)]
    return GroupDescriptor(tuple(comps))


def _approach_step(comp, k: int) -> ExactReal:
    """A small positive member shrinking with k, for approaching a bound."""
    if isinstance(comp, PPowerDivisible):
        return ExactReal.rational(comp.scale / comp.p ** k)
    if isinstance(comp, FullRational):
        return ExactReal.rational(Fraction(1, 2 ** k))
    raise AssertionError("bounds need a dense component")


def make_descriptor(rng: random.Random, group: GroupDescriptor, kind: PmsKind,
                    level: int, branch: Branch, prefix_len: int = 6,
                    pcs_degree: int | None = None) -> PmsDescriptor:
    """A valid pcs-algebraic or pds descriptor realizing the given leaf."""
    assert kind in (PmsKind.PCS, PmsKind.PDS)
    comps = group.components
    n = len(comps)
    inc = kind is PmsKind.PCS
    sign = 1 if inc else -1
    consts = [random_member(rng, comps[i]) for i in range(level - 1)]
    comp_j = comps[level - 1]
    gen = component_generator(comp_j)
    start = random_member(rng, comp_j)
    if branch is Branch.SUP_INFINITE:
        r, in_group = None, False
        coords = [start + gen.scaled(sign * (i + 1)) for i in range(prefix_len)]
    elif branch is Branch.BOUND_IN_GROUP_STRICT:
        r, in_group = start + gen.scaled(sign), True
        coords = [r + _approach_step(comp_j, i + 1).scaled(-sign)
                  for i in range(prefix_len)]
    else:
        coords = [start + gen.scaled(sign * (i + 1)) for i in range(prefix_len)]
        if isinstance(comp_j, PPowerDivisible) and rng.random() < 0.5:
            q = 3 if comp_j.p != 3 else 5
            eps = gen.scaled(Fraction(1, q))
        else:
            eps = ExactReal.surd(0, gen.a / 2, 2)
        r = coords[-1] + eps.scaled(sign)
        assert not component_contains(comp_j, r)
        in_group = False
    chain = StageChain(tuple(ConstantFrom(c, 0) for c in consts), r, in_group)
    zero = ExactReal.rational(0)
    prefix = tuple(
        Value(tuple(consts + [c] + [zero] * (n - level))) for c in coords)
    return PmsDescriptor(
        kind, group, chain=chain,
        pcs_type=Algebraic(pcs_degree or rng.randint(1, 3)) if inc else None,
        prefix=prefix)


def random_descriptor(rng: random.Random, n: int,
                      kind: PmsKind | None = None,
                      branch: Branch | None = None) -> PmsDescriptor:
    kind = kind or rng.choice([PmsKind.PCS, PmsKind.PDS])
    branch = branch or rng.choice(LEAF_BRANCHES)
    level = rng.randint(1, n)
    dense = level - 1 if branch is not Branch.SUP_INFINITE else None
    group = random_group(rng, n, dense_at=dense)
    return make_descriptor(rng, group, kind, level, branch)


def random_pcts(rng: random.Random, n: int) -> PmsDescriptor:
    group = random_group(rng, n)
    delta = Value(tuple(random_member(rng, c) for c in group.components))
    return PmsDescriptor(PmsKind.PCTS, group, pcts_delta=delta,
                         prefix=(delta,) * rng.randint(2, 5))


def with_candidates(rng: random.Random, cfg: UltrametricConfiguration
                    ) -> UltrametricConfiguration:
    """cfg with more candidate points: y<k> closer to the member z_k than
    any other point is, and w below every distance.  Every point outside
    the sequence, cfg's own included, keeps a random share of its
    distances to the members."""
    zs = cfg.sequence
    values = [v for v in table(cfg).values() if not v.is_infinity]
    zero = ExactReal.rational(0)
    top, bottom = (Value((v.coords[0] + ExactReal.rational(step),)
                         + (zero,) * (v.arity - 1))
                   for v, step in ((max(values), 1), (min(values), -1)))
    proxy = {p: p for p in cfg.names()}
    for k in rng.sample(range(len(zs)), rng.randint(1, len(zs))):
        proxy[f"y{k}"] = zs[k]
    names = list(proxy) + ["w"]
    keep = {p: rng.choice((0.25, 0.5, 1.0)) for p in names if p not in zs}
    dist = {}
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            if p in zs and q not in zs and rng.random() >= keep[q]:
                continue
            if q == "w":
                dist[(p, q)] = bottom
            elif proxy[p] == proxy[q]:
                dist[(p, q)] = top
            elif (d := cfg.distance(proxy[p], proxy[q])) is not None:
                dist[(p, q)] = d
    return UltrametricConfiguration.build(zs, names[len(zs):],
                                          rows_of(names, dist))


def table(cfg: UltrametricConfiguration) -> dict:
    """The recorded distances of cfg as a table rows_of takes, each pair
    once, keyed by its two names in position order."""
    names = cfg.names()
    return {(names[i], names[k]): v
            for i, row in enumerate(cfg.rows) for k, v in row.items()}


def rows_of(names, distances: dict) -> tuple:
    """The rows build takes, from a table keyed by pairs of names:
    rows[i][k], k > i, the distance of names[i] and names[k]."""
    index = {p: i for i, p in enumerate(names)}
    rows = tuple({} for _ in names)
    for (p, q), v in distances.items():
        i, k = sorted((index[p], index[q]))
        rows[i][k] = v
    return rows


def unchecked(sequence, points, distances: dict) -> UltrametricConfiguration:
    """A configuration over distances made without build's isosceles
    check."""
    sequence, points = tuple(sequence), tuple(points)
    return UltrametricConfiguration(sequence, points,
                                    rows_of(sequence + points, distances))


def random_value(rng: random.Random, arity: int, surds: bool = True) -> Value:
    coords = []
    for _ in range(arity):
        if surds and rng.random() < 0.4:
            coords.append(ExactReal.surd(rand_fraction(rng),
                                         rand_fraction(rng, -4, 4, (1, 2, 3)),
                                         rng.choice([2, 3, 5, 6, 7, 10])))
        else:
            coords.append(ExactReal.rational(rand_fraction(rng)))
    return Value(tuple(coords))


# ---------------------------------------------------------------------------
# Concrete oracle instances


def _unit(rng: random.Random, p: int) -> Fraction:
    num = rng.choice([u for u in range(1, 13) if u % p])
    den = rng.choice([u for u in range(1, 7) if u % p])
    return Fraction(num, den) * rng.choice([1, -1])


def random_padic_instance(rng: random.Random, prefix_len: int = 16):
    """A convergent geometric-tail sequence z_nu = L + c*p^(s*nu) over
    (Q, v_p) with <= 4 rational roots; returns the true tags and the
    closed-form expected tail pattern (d, beta).

    The unique rational limit is L; any other rational root L + e settles at
    the constant distance v_p(e) as soon as v_p(c) + s*nu passes v_p(e).
    """
    p = rng.choice([2, 3, 5, 7])
    field = PadicRationals(p)
    L = rand_fraction(rng, -9, 9, dens=(1, 2, 3, 4, 5))
    s = rng.choice([1, 1, 2])
    c = _unit(rng, p) * Fraction(p) ** rng.randint(-2, 2)
    terms = [L + c * Fraction(p) ** (s * nu) for nu in range(prefix_len)]
    lead = _unit(rng, p) * Fraction(p) ** rng.randint(-2, 2)
    limit_side = rng.choice(["num", "num", "den", None])
    used: set[Fraction] = set()

    def sample_offset():
        while True:
            e = _unit(rng, p) * Fraction(p) ** rng.randint(-3, 3)
            root = L + e
            if root in used or any(root == z for z in terms):
                continue
            used.add(root)
            return root, padic_valuation(e, p)

    n_num = rng.randint(1, 3)
    n_den = rng.randint(0, 4 - n_num)
    expected_d = 0
    expected_beta = padic_valuation(lead, p)
    num, den = [], []
    for side, count, out in (("num", n_num, num), ("den", n_den, den)):
        sign = 1 if side == "num" else -1
        for _ in range(count):
            if side == limit_side and rng.random() < 0.5:
                out.append((L, TaggedRoot.limit()))
                expected_d += sign
            else:
                root, beta = sample_offset()
                out.append((root, TaggedRoot.at_distance(Value.of(beta))))
                expected_beta += sign * beta
    concrete = ConcreteRationalFunction(
        lead, tuple(r for r, _ in num), tuple(r for r, _ in den))
    tagged = FactoredRationalFunction(
        Value.of(padic_valuation(lead, p)),
        tuple(t for _, t in num), tuple(t for _, t in den))
    return field, terms, concrete, tagged, expected_d, Value.of(expected_beta)


def _qt_monomial(coeff: Fraction, power: int) -> QtElement:
    return QtElement.of([Fraction(0)] * power + [coeff])


def random_composite_instance(rng: random.Random, prefix_len: int = 9):
    """(Q(t), (ord_t, v_p)) instances: z_nu = L + c0 * t^(k or k+nu) * p^(+-s*nu).

    Root offsets are monomials u*t^m.  Whether L + u*t^m is a limit has a
    closed form: for the second-coordinate shapes it depends on m versus k;
    for the t-order-driven shape only L itself is a limit.  Non-limit roots
    settle at beta = (m, v_p(u)).
    """
    p = rng.choice([2, 3, 5])
    field = CompositeField(p)
    shape = rng.choice(["pcs-second", "pcs-first", "pds-second"])
    L = _qt_monomial(rand_fraction(rng, -5, 5, (1, 2, 3)) or Fraction(1), 0)
    c0 = _unit(rng, p)
    k = rng.randint(1, 2)
    terms = []
    for nu in range(prefix_len):
        if shape == "pcs-second":
            step = _qt_monomial(c0 * Fraction(p) ** nu, k)
        elif shape == "pcs-first":
            step = _qt_monomial(c0, k + nu)
        else:
            step = _qt_monomial(c0 * Fraction(p) ** (-nu), k)
        terms.append(L + step)
    expected_kind = PmsKind.PDS if shape == "pds-second" else PmsKind.PCS

    def sample_root():
        while True:
            if rng.random() < 0.35:
                return L, TaggedRoot.limit(), None
            m = rng.randint(0, k + 2)
            if shape == "pds-second" and m == k:
                continue  # domination would start mid-window; keep it sharp
            u = _unit(rng, p) * Fraction(p) ** rng.randint(-2, 2)
            e = _qt_monomial(u, m)
            root = L + e
            if any(not z - root for z in terms):
                continue
            if shape == "pcs-first":
                lim = False
            else:
                lim = m > k
            if lim:
                return root, TaggedRoot.limit(), None
            beta = Value.of(m, padic_valuation(u, p))
            return root, TaggedRoot.at_distance(beta), beta

    lead_coeff = _unit(rng, p)
    lead = _qt_monomial(lead_coeff, rng.randint(0, 1))
    lead_val = field.valuate(lead)
    n_num = rng.randint(1, 2)
    n_den = rng.randint(0, 1)
    num, den = [], []
    expected_d = 0
    expected_beta = lead_val
    for sign, count, out in ((1, n_num, num), (-1, n_den, den)):
        for _ in range(count):
            root, tag, beta = sample_root()
            out.append((root, tag))
            if tag.is_limit:
                expected_d += sign
            else:
                expected_beta = expected_beta + beta.scale(sign)
    concrete = ConcreteRationalFunction(
        lead, tuple(r for r, _ in num), tuple(r for r, _ in den))
    tagged = FactoredRationalFunction(
        lead_val, tuple(t for _, t in num), tuple(t for _, t in den))
    return (field, terms, concrete, tagged, expected_d, expected_beta,
            expected_kind)
