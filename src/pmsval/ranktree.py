"""Rank of the induced valuation via the level-by-level decision tree.

Walking the stage chain coordinate by coordinate: a constant coordinate
descends one level; the strictly moving coordinate ends the walk at one of
three leaves.  An unbounded coordinate or an in-group strict bound inserts a
formal integer factor (rank goes up by one); a bound outside the component
is adjoined to it (rank unchanged).  The placement of the value alpha of
X minus a limit is verified internally against the finite-witness check of
the chain contract.  Each rule is written once for pcs and pds alike; the
chain direction (E.sign, +1 or -1) sets the side, as in mirror duality.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Sequence

from .errors import InvariantError, KindError
from .exact import ExactReal
from .groups import (GroupDescriptor, Value, component_generator, insert_zero)
from .sequences import PmsDescriptor, PmsKind, beyond_all_deltas, cofinal


class Branch(enum.Enum):
    SUP_INFINITE = "sup-infinite"
    BOUND_NOT_IN_GROUP = "bound-not-in-group"
    BOUND_IN_GROUP_STRICT = "bound-in-group-strict"
    BOUND_IN_GROUP_CONSTANT = "bound-in-group-constant"


class Leaf(NamedTuple):
    """Where the rank walk ends: a constant coordinate at every level above
    terminal_level, then branch there."""

    terminal_level: int
    branch: Branch

    @property
    def steps(self) -> tuple[tuple[int, Branch], ...]:
        return tuple((i, Branch.BOUND_IN_GROUP_CONSTANT)
                     for i in range(1, self.terminal_level)) \
            + ((self.terminal_level, self.branch),)

    @property
    def rank_delta(self) -> int:
        """0 when the bound is adjoined to its component, else 1 for the
        inserted formal integer factor."""
        return int(self.branch is not Branch.BOUND_NOT_IN_GROUP)


class RankResult(NamedTuple):
    """The rank walk's answer; an inserted formal integer factor is the
    one way the extended group's rank exceeds the input rank."""

    extended_group: GroupDescriptor
    alpha: Optional[Value]
    trace: Optional[Leaf]
    insert_position: Optional[int]
    alpha_check: Optional[CheckOutcome] = None

    output_rank = property(lambda self: self.extended_group.rank())
    delta = property(lambda self: int(self.insert_position is not None))
    input_rank = property(lambda self: self.output_rank - self.delta)
    group_note = property(lambda self: (
        "value group unchanged" if self.alpha is None else
        "model of the extended value group over the algebraic closure"))

    def embed(self, value: Value) -> Value:
        """Order embedding of the base group into the extended group."""
        if self.insert_position is None:
            return value
        return insert_zero(value, self.insert_position)


def rank_of_vE(E: PmsDescriptor) -> RankResult:
    """Rank of the induced valuation on the rational function field.

    Sequences that leave the value group unchanged (pcs of transcendental
    type, pcts) short-circuit; otherwise the chain is walked and the result
    carries the extended group model, the placed alpha, the trace and the
    outcome of checking alpha against the auto probes.
    """
    if E.kind is PmsKind.PCTS or E.is_transcendental_pcs():
        return RankResult(E.group, None, None, None)
    cut = E.cut
    j = len(cut.constants) + 1
    # alpha is the cut as an element of the extended group: the constants
    # and the bound, if any, then the side of a cut beside r or at an
    # infinity as the coordinate of a new formal integer factor.  A bound
    # outside the component is adjoined to it instead.
    head = cut.constants + (() if cut.r is None else (cut.r,))
    if cut.side:
        insert_position = len(head)
        extended = E.group.insert_formal_integer(insert_position)
        head += (ExactReal.rational(cut.side),)
    else:
        insert_position = None
        extended = E.group.adjoin_at(j - 1, cut.r)
    pad = extended.rank() - len(head)
    alpha = Value(head + (ExactReal.rational(0),) * pad)
    branch = (Branch.SUP_INFINITE if cut.r is None
              else Branch.BOUND_IN_GROUP_STRICT if cut.side
              else Branch.BOUND_NOT_IN_GROUP)
    result = RankResult(extended, alpha, Leaf(j, branch), insert_position)
    outcome = check_alpha(E, result, auto_probes(E))
    if not outcome.holds:
        raise InvariantError(
            f"alpha placement fails its chain contract at probe "
            f"{outcome.counterexample}")
    return result._replace(alpha_check=outcome)


# ---------------------------------------------------------------------------
# Finite-witness checks of the value-transcendental equivalences


class CheckOutcome(NamedTuple):
    """A chain check over `checked` probes: it holds unless a probe
    contradicts the contract."""

    counterexample: Optional[Value]
    checked: int

    holds = property(lambda self: self.counterexample is None)


def _check_equivalence_iii(E: PmsDescriptor, result: RankResult,
                           probes: Sequence[Value]) -> CheckOutcome:
    """For every probe beta in the group: beta, embedded in the extended
    group of the rank walk result, lies past its alpha iff beta lies past
    every distance value, on the side the chain moves toward."""
    s, alpha, embed = E.sign, result.alpha, result.embed
    probes = list(probes)
    # beyond_all_deltas, less its member test once every probe is a member
    cut, members = E.cut, E.group.contains_all(probes)
    for beta in probes:
        past_alpha = embed(beta).compare(alpha) * s > 0
        if past_alpha != (cut.compare(beta) == s if members
                          else beyond_all_deltas(beta, E)):
            return CheckOutcome(beta, len(probes))
    return CheckOutcome(None, len(probes))


def check_pcs_equivalence_iii(E: PmsDescriptor, result: RankResult,
                              probes: Sequence[Value]) -> CheckOutcome:
    """beta > alpha iff beta exceeds every distance value of the increasing
    chain."""
    if E.kind is not PmsKind.PCS:
        raise KindError("the increasing-chain check applies to pcs descriptors")
    return _check_equivalence_iii(E, result, probes)


def check_pds_equivalence_iii(E: PmsDescriptor, result: RankResult,
                              probes: Sequence[Value]) -> CheckOutcome:
    """Mirror check: beta < alpha iff beta is below every distance value."""
    if E.kind is not PmsKind.PDS:
        raise KindError("the decreasing-chain check applies to pds descriptors")
    return _check_equivalence_iii(E, result, probes)


def check_alpha(E: PmsDescriptor, result: RankResult,
                probes: Sequence[Value]) -> CheckOutcome:
    """The chain check of E's kind on the alpha placed by the rank walk.

    Calls go through the kind-named checkers, so a wrapper bound to either
    name (a profiler or tracer) sees every check."""
    check = (check_pcs_equivalence_iii if E.kind is PmsKind.PCS
             else check_pds_equivalence_iii)
    return check(E, result, probes)


def auto_probes(E: PmsDescriptor) -> list[Value]:
    """Group elements straddling the chain: at each level the constant (or
    bound, or for a bound outside the group the member of the component next
    below it) nudged by the component generator, zero-padded."""
    cut = E.cut
    n = E.group.rank()
    consts = cut.constants
    j = len(consts) + 1
    zero = ExactReal.rational(0)
    probes: dict = {}  # coordinate tuples; the first of equal probes stays
    for level in range(1, j + 1):
        comp = E.group.components[level - 1]
        gen = component_generator(comp)
        if level < j:
            center = consts[level - 1]
        elif cut.r is None:
            center = zero
        elif cut.side:
            center = cut.r
        else:
            # The group member floor(r/g)*g next below a bound r outside the
            # group, so the probes straddle alpha.
            center = gen.scaled(cut.r.scaled(1 / gen.rational_value).floor())
        head, pad = consts[:level - 1], (zero,) * (n - level)
        coord = center + gen.scaled(-2)
        for _ in range(5):  # center - 2*gen, ..., center + 2*gen
            probes.setdefault(head + (coord,) + pad)
            coord += gen
    return [Value(c) for c in probes]


# ---------------------------------------------------------------------------
# Leaf enumeration


def enumerate_leaves(n: int) -> list[Leaf]:
    """All leaves of the depth-n tree: three per level, constant descends;
    a constant coordinate at the last level is contradictory and excluded.

    n is capped at 6, the largest rank the rank walk is exercised on, so a
    requested depth cannot cost unbounded time or output."""
    if not 1 <= n <= 6:
        raise InvariantError("leaf enumeration supports ranks 1..6")
    return [Leaf(level, branch) for level in range(1, n + 1)
            for branch in (Branch.SUP_INFINITE, Branch.BOUND_NOT_IN_GROUP,
                           Branch.BOUND_IN_GROUP_STRICT)]


# ---------------------------------------------------------------------------
# The rank theorem


class TheoremCheck(NamedTuple):
    """The theorem's conditions and the walk's rank delta: the theorem holds
    unless a condition is met and the rank stays the same."""

    conditions: dict[str, bool]
    rank_delta: int

    predicate = property(lambda self: any(self.conditions.values()))
    holds = property(lambda self: not self.predicate or self.rank_delta == 1)


def theorem_rank_check(E: PmsDescriptor) -> TheoremCheck:
    """The four sufficient conditions for rank incrementation, and whether
    the walk raises the rank where one holds; necessity is not checked."""
    if E.kind is PmsKind.PCTS or E.is_transcendental_pcs():
        raise KindError("the rank theorem concerns algebraic-type pcs and pds")
    pcs = E.kind is PmsKind.PCS
    result = rank_of_vE(E)
    reaches_end, in_group = cofinal(E), E.cut.in_group(E.group.rank())
    conditions = {
        "cauchy": pcs and reaches_end,
        "sup_in_group": pcs and in_group,
        "diverges_to_infinity": not pcs and reaches_end,
        "inf_in_group": not pcs and in_group,
    }
    return TheoremCheck(conditions, result.delta)


# ---------------------------------------------------------------------------
# DOT rendering of the decision tree


def _labels(pcs: bool, i: int) -> dict[str, str]:
    d = f"δ({i},ν)"  # delta(i,nu)
    ext, r, past, end = (("sup", f"r{i}", ">", "∞") if pcs
                         else ("inf", f"r'{i}", "<", "-∞"))
    return {
        "inf": f"{ext} {d} = {end}",
        "real": f"{r} := {ext} {d} ∈ R",
        "notin": f"{r} ∉ Γ{i}",
        "in": f"{r} ∈ Γ{i}",
        "strict": f"{r} {past} {d} for all ν",
        "const": f"{r} = {d} ultimately",
    }


# The nodes a walk takes at the level where it ends, by the branch it ends on.
_LEAF_NODES = {
    Branch.SUP_INFINITE: ("inf",),
    Branch.BOUND_NOT_IN_GROUP: ("real", "notin"),
    Branch.BOUND_IN_GROUP_STRICT: ("real", "in", "strict"),
    Branch.BOUND_IN_GROUP_CONSTANT: ("real", "in", "const"),
}


def tree_dot(kind: PmsKind, n: int, trace: Optional[Leaf] = None) -> str:
    """Graphviz source for the depth-n tree, optionally highlighting a trace.

    The square (constant-coordinate) node of level i doubles as the root of
    level i+1; at the last level it marks the contradictory input instead.
    """
    if kind not in (PmsKind.PCS, PmsKind.PDS):
        raise KindError("the decision tree applies to pcs or pds input")
    pcs = kind is PmsKind.PCS
    taken: set[str] = set()
    if trace is not None:
        leaf = trace.terminal_level
        taken.add("root1")
        for level in range(1, leaf):
            taken.update({f"real{level}", f"in{level}", f"root{level + 1}"})
        taken.update(f"{name}{leaf}" for name in _LEAF_NODES[trace.branch])

    lines = [
        "digraph rank_walk {",
        "  rankdir=TB;",
        '  node [fontname="Helvetica"];',
    ]

    def node(name: str, label: str, shape: str) -> None:
        style = ", color=red, penwidth=2" if name in taken else ""
        lines.append(f'  {name} [label="{label}", shape={shape}{style}];')

    def edge(a: str, b: str, mark: str = "") -> None:
        attrs = [f'label="{mark}"'] if mark else []
        if a in taken and b in taken:
            attrs.append("color=red")
            attrs.append("penwidth=2")
        inner = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {a} -> {b}{inner};")

    seq = "pcs of algebraic type" if pcs else "pds"
    for i in range(1, n + 1):
        lab = _labels(pcs, i)
        if i == 1:
            node("root1", f"rank vK = {n} ({seq})", "circle")
        else:
            node(f"root{i}", _labels(pcs, i - 1)["const"], "box")
        node(f"inf{i}", lab["inf"] + "\\n(*) rank+1", "ellipse")
        node(f"real{i}", lab["real"], "circle")
        node(f"notin{i}", lab["notin"] + "\\n(#) rank same", "ellipse")
        node(f"in{i}", lab["in"], "circle")
        node(f"strict{i}", lab["strict"] + "\\n(*) rank+1", "ellipse")
        edge(f"root{i}", f"inf{i}", "(*)")
        edge(f"root{i}", f"real{i}")
        edge(f"real{i}", f"notin{i}", "(#)")
        edge(f"real{i}", f"in{i}")
        edge(f"in{i}", f"strict{i}", "(*)")
        if i < n:
            edge(f"in{i}", f"root{i + 1}")
        else:
            node(f"const{i}", lab["const"]
                 + "\\ncontradicts strict monotonicity", "box")
            edge(f"in{i}", f"const{i}")
    lines.append("}")
    return "\n".join(lines) + "\n"
