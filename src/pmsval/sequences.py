"""Pseudo monotone sequences: symbolic descriptors, finite prefixes,
classification from pairwise distances, limits, and the cut where the
distance values end.

A transfinite sequence is represented by a stage chain (the asymptotic,
coordinate-by-coordinate truth about its distance values) together with an
optional finite prefix of concrete distance values used as witnesses.
Indices at or beyond the last declared stage count as tail witnesses.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from functools import cached_property, cmp_to_key
from typing import NamedTuple, Optional, Sequence, Union

from .errors import (IndeterminateError, InvalidConfiguration, InvariantError,
                     KindError, NotAPms)
from .exact import ExactReal
from .groups import (INFINITY, Cyclic, FormalInteger, GroupDescriptor,
                     Marker, Value, component_contains)


class PmsKind(enum.Enum):
    PCS = "pcs"
    PDS = "pds"
    PCTS = "pcts"

    # A member is its own only equal, so it hashes by identity, in C, not
    # by Enum's hash of its name, which runs in Python at every lookup.
    __hash__ = object.__hash__


# How each kind's distance values move: up, down or not at all.
DIRECTION = {PmsKind.PCS: 1, PmsKind.PDS: -1, PmsKind.PCTS: 0}


class Tri(enum.Enum):
    """Three-valued answer; INDETERMINATE means not enough witness data."""

    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"


# ---------------------------------------------------------------------------
# The distance pattern


def moves(xs: Sequence, s: int) -> bool:
    """Whether every entry of xs compares s to the one before it: s = +1
    strictly increasing (a pcs), -1 strictly decreasing (a pds), 0 constant
    (a pcts)."""
    return all(b.compare(a) == s for a, b in zip(xs, xs[1:]))


def pattern_distance(kind: PmsKind, deltas: Sequence[Value], i: int,
                     j: int) -> Value:
    """v(z_i - z_j) for i < j, given deltas[k] = v(z_k - z_{k+1}): the
    earlier index decides for a pcs, the later one for a pds, and a pcts
    has a single distance."""
    if kind is PmsKind.PCS:
        return deltas[i]
    if kind is PmsKind.PDS:
        return deltas[j - 1]
    return deltas[0]


def delta_shift(kind: PmsKind) -> int:
    """The sequence index of the first distance value.  delta_nu of a pds
    compares z_nu with earlier members, so it starts at nu = 1 and is
    consecutive distance nu - 1; a pcs or pcts starts at nu = 0."""
    return 1 if kind is PmsKind.PDS else 0


# ---------------------------------------------------------------------------
# Stage chains


class ConstantFrom(NamedTuple):
    """Coordinate ultimately constant at value, from prefix index stage on."""

    value: ExactReal
    stage: int


class StageChain(namedtuple("StageChain", "constants bound bound_in_group")):
    """The constant coordinates, then the terminal coordinate, the first
    strictly moving one: its bound r (None when it is unbounded) and whether
    r is a member of the group.  The kind of the sequence sets the side: a
    pcs increases toward a strict upper bound, a pds decreases toward a
    strict lower bound, neither attained."""

    __slots__ = ()

    def __new__(cls, constants: tuple[ConstantFrom, ...],
                bound: Optional[ExactReal] = None, bound_in_group: bool = False):
        stages = [e.stage for e in constants]
        if any(s < 0 for s in stages) or stages != sorted(stages):
            raise InvariantError("stage labels must be nonnegative and nondecreasing")
        if bound is None and bound_in_group:
            raise InvariantError("an unbounded chain has no bound in the group")
        return super().__new__(cls, constants, bound, bound_in_group)

    @property
    def terminal_level(self) -> int:
        """1-based coordinate index of the strictly moving coordinate."""
        return len(self.constants) + 1

    @property
    def tail_start(self) -> int:
        return max((e.stage for e in self.constants), default=0)


class Cut(NamedTuple):
    """Where the distance values of a pcs or pds end, as a cut in the lex
    group: the chain constants, then r + side*eps at the terminal level, eps
    a positive infinitesimal.  A bound r outside the component is the cut
    itself (side 0); an in-group bound is r- under a pcs and r+ over a pds;
    an unbounded chain has r None and its cut at side*infinity.  A pcs and
    a pds on one chain thus share their cut exactly when the bound lies
    outside the group (F.-V. Kuhlmann, Trans. AMS 2004)."""

    constants: tuple[ExactReal, ...]
    r: Optional[ExactReal]
    side: int

    def compare(self, beta: Value) -> int:
        """+1 when the group element beta lies above the cut, -1 below: the
        first coordinate off the constants decides, lexicographically."""
        coords = beta.coords
        for x, c in zip(coords, self.constants):
            if x is not c and (cmp := x.compare(c)):  # decoders share objects
                return cmp
        r = self.r
        cmp = 0 if r is None else coords[len(self.constants)].compare(r)
        return cmp or -self.side

    def in_group(self, rank: int) -> bool:
        """Whether the sup or inf at this cut is a member of a group of this
        rank: an in-group bound at the last level."""
        return (self.r is not None and self.side != 0
                and len(self.constants) == rank - 1)


class Transcendental(Marker):
    pass


class Algebraic(namedtuple("Algebraic", "degree")):
    __slots__ = ()

    def __new__(cls, degree: int):
        if degree < 1:
            raise InvariantError("minimal polynomial degree must be >= 1")
        return super().__new__(cls, degree)


PcsType = Union[Transcendental, Algebraic]


# PmsDescriptor and UltrametricConfiguration declare no __slots__: the
# instance __dict__ holds their cached properties.
class PmsDescriptor(namedtuple("PmsDescriptor", "kind group chain pcts_delta "
                                                "pcs_type prefix")):
    def __new__(cls, kind: PmsKind, group: GroupDescriptor,
                chain: Optional[StageChain] = None,
                pcts_delta: Optional[Value] = None,
                pcs_type: Optional[PcsType] = None,
                prefix: Optional[tuple[Value, ...]] = None):
        self = super().__new__(cls, kind, group, chain, pcts_delta, pcs_type,
                               prefix)
        self.validate()
        return self

    def validate(self) -> None:
        n = self.group.rank()
        if self.kind is PmsKind.PCTS:
            if self.chain is not None:
                raise InvariantError("a pcts carries a single delta, not a chain")
            if self.pcts_delta is None:
                raise InvariantError("a pcts descriptor needs its delta value")
            if not self.group.contains(self.pcts_delta):
                raise InvariantError("pcts delta must belong to the group")
        else:
            if self.chain is None:
                raise InvariantError(f"a {self.kind.value} descriptor needs a chain")
            if self.pcts_delta is not None:
                raise InvariantError("pcts_delta is only meaningful for a pcts")
            self._validate_chain(n)
        if self.kind is PmsKind.PCS:
            if self.pcs_type is None:
                raise InvariantError("a pcs must declare its type")
        elif self.pcs_type is not None:
            raise InvariantError("pcs_type is only meaningful for a pcs")
        if self.prefix is not None:
            self._validate_prefix()

    def _validate_chain(self, n: int) -> None:
        chain = self.chain
        if chain.terminal_level > n:
            raise InvariantError(
                f"chain length {chain.terminal_level} exceeds group rank {n}")
        for i, entry in enumerate(chain.constants):
            if not component_contains(self.group.components[i], entry.value):
                raise InvariantError(
                    f"chain constant {entry.value} is not a member of component {i}")
        r = chain.bound
        if r is None:
            return
        comp = self.group.components[chain.terminal_level - 1]
        if component_contains(comp, r) != chain.bound_in_group:
            raise InvariantError(
                f"declared in-group bound {r} is not a component member"
                if chain.bound_in_group else
                f"declared not-in-group bound {r} is a component member")
        if isinstance(comp, (Cyclic, FormalInteger)):
            raise InvariantError(
                f"a strictly monotone tail bounded by {r} cannot be "
                f"infinite in the discrete component "
                f"{chain.terminal_level - 1}")

    def _validate_prefix(self) -> None:
        prefix = self.prefix
        n = self.group.rank()
        # Entry by entry only to name the first that is not a member.
        for v in () if self.group.contains_all(prefix) else prefix:
            if v.is_infinity or v.arity != n:
                raise InvariantError("prefix entries must be finite group tuples")
            if not self.group.contains(v):
                raise InvariantError(f"prefix entry {v} is not a group member")
        if self.kind is PmsKind.PCTS:
            if not moves(prefix, 0):
                raise InvariantError("a pcts prefix must be constant")
            if prefix and prefix[0] != self.pcts_delta:
                raise InvariantError("pcts prefix must equal the declared delta")
            return
        inc, s = self.kind is PmsKind.PCS, self.sign
        if not moves(prefix, s):
            raise InvariantError(
                f"prefix must be strictly {'increasing' if inc else 'decreasing'}")
        chain = self.chain
        j = chain.terminal_level
        for i, entry in enumerate(chain.constants):
            for nu in range(entry.stage, len(prefix)):
                if prefix[nu].coords[i] != entry.value:
                    raise InvariantError(
                        f"prefix coordinate {i} must equal {entry.value} "
                        f"from index {entry.stage} on")
        coords = [v.coords[j - 1] for v in prefix[chain.tail_start:]]
        if not moves(coords, s):
            raise InvariantError(
                "terminal coordinate must move strictly with the chain direction")
        # The last entry is nearest the cut; a scan names the first past it.
        if prefix and (cut := self.cut).compare(prefix[-1]) != -s:
            v = next(v for v in prefix if cut.compare(v) != -s)
            raise InvariantError(
                f"prefix entry {v} is not {'below' if inc else 'above'} "
                f"the cut of the chain")

    @property
    def tail_start(self) -> int:
        return 0 if self.chain is None else self.chain.tail_start

    @property
    def sign(self) -> int:
        """The chain direction, +1 for a pcs and -1 for a pds."""
        s = DIRECTION[self.kind]
        if not s:
            raise KindError("a pcts has no chain direction")
        return s

    @cached_property
    def cut(self) -> Cut:
        """The cut the distance values run up to (a pcs) or down to (a pds),
        built once per descriptor; a pcts has none."""
        s = self.sign
        r = self.chain.bound
        side = s if r is None else -s if self.chain.bound_in_group else 0
        return Cut(tuple(e.value for e in self.chain.constants), r, side)

    def is_transcendental_pcs(self) -> bool:
        return self.kind is PmsKind.PCS and isinstance(self.pcs_type, Transcendental)

# ---------------------------------------------------------------------------
# Ultrametric configurations


def _checked_rows(names: tuple, distances: dict) -> tuple:
    """rows[i][k] for k > i, the distance of names[i] and names[k], in one
    walk over the table.  Refuses repeated names, then in table order an
    unknown point, a pair given two values and a finite self-distance, then
    mixed arities."""
    index = {p: i for i, p in enumerate(names)}
    if len(index) != len(names):
        raise InvalidConfiguration("point names must be distinct")
    rows = tuple({} for _ in names)
    arities = set()
    for (p, q), v in distances.items():
        i, k = index.get(p), index.get(q)
        if i is None or k is None:
            a, b = sorted((p, q))
            raise InvalidConfiguration(
                f"distance references unknown point {a},{b}")
        if k < i:
            i, k = k, i
        elif i == k:
            if v.coords is not None:
                raise InvalidConfiguration(
                    f"self-distance of {p} must be plus-infinity, not {v}")
            continue
        old = rows[i].setdefault(k, v)
        if old is not v and old != v:
            a, b = sorted((p, q))
            raise InvalidConfiguration(
                f"pair {a},{b} is given two different values, {old} and {v}")
        if v.coords is not None:
            arities.add(len(v.coords))
    if len(arities) > 1:
        raise InvalidConfiguration("distance values have mixed arities")
    return rows


class UltrametricConfiguration(namedtuple("UltrametricConfiguration",
                                          "sequence points rows")):
    """A finite named point set with exact pairwise valuation distances.

    sequence lists the ordered names of the sequence members; points holds
    any extra named points (limit candidates, X, ...).  rows[i][k], for
    k > i, is the recorded distance of names()[i] and names()[k], indexed
    once by build; the self-distance is plus-infinity.
    """

    @staticmethod
    def build(sequence: Sequence[str], points: Sequence[str],
              distances: dict[tuple[str, str], Value]) -> "UltrametricConfiguration":
        """The checked constructor: one walk indexes the table by position
        and refuses bad entries, then the isosceles law is checked."""
        sequence, points = tuple(sequence), tuple(points)
        cfg = UltrametricConfiguration(
            sequence, points, _checked_rows(sequence + points, distances))
        bad = cfg.isosceles_violation()
        if bad is not None:
            raise InvalidConfiguration(
                f"isosceles law fails on points {bad[0]}, {bad[1]}, {bad[2]}")
        return cfg

    def names(self) -> tuple[str, ...]:
        return self.sequence + self.points

    @cached_property
    def _positions(self) -> dict[str, int]:
        """The position of each name in names(), indexed once."""
        return {p: i for i, p in enumerate(self.names())}

    def distance(self, p: str, q: str) -> Optional[Value]:
        """The recorded distance of p and q, plus-infinity when p is q, and
        None when no distance is recorded or a name is unknown."""
        if p == q:
            return INFINITY
        i, k = self._positions.get(p), self._positions.get(q)
        if i is None or k is None:
            return None
        return self.rows[min(i, k)].get(max(i, k))

    @cached_property
    def classification(self) -> tuple[PmsKind, tuple[Value, ...]]:
        """classify_from_prefix of this configuration, computed once."""
        kind, prefix = classify_from_prefix(self)
        return kind, tuple(prefix)

    def isosceles_violation(self) -> Optional[tuple[str, str, str]]:
        """A triple where the minimum pairwise distance is attained once.

        A complete table is certified in O(n^2) by its maximum spanning
        tree, built on the ranks of its distinct values.  Otherwise the
        scan walks only the triangles whose three pairs are present, in
        name order, so a partial table costs time in proportion to its
        pairs and triangles; it also names the first violating triple of a
        complete table once the certificate has failed.
        """
        names, rows = self.names(), self.rows
        if len(names) < 3 or self._spanning_tree_certifies():
            return None
        for i, after_i in enumerate(rows):
            for j in sorted(after_i):
                after_j = rows[j]
                for k in sorted(after_i.keys() & after_j.keys()):
                    d1, d2, d3 = after_i[j], after_i[k], after_j[k]
                    lo = min(d1, d2, d3)
                    if sum(1 for d in (d1, d2, d3) if d == lo) < 2:
                        return (names[i], names[j], names[k])
        return None

    def _spanning_tree_certifies(self) -> bool:
        """Whether the table is complete and ultrametric.

        A complete table is ultrametric exactly when each distance equals
        the minimum along the path joining its ends in a maximum-valuation
        spanning tree (Gower & Ross 1969).  The tree grows in Prim's order:
        u joins through its largest distance w to the tree, at parent.  The
        pairs inside the tree already passed, so the path minimum from a
        tree point x to u is min(d(x, parent), w), and d(x, u) <= w by the
        choice of w.  The tree runs on the integer ranks of the distinct
        distance values, so a table of k distinct values costs one sort of
        k values.  Returns False on a missing pair or a failed check.
        """
        rows = self.rows
        n = len(rows)
        if sum(map(len, rows)) != n * (n - 1) // 2:
            return False
        # Read column by column (k, then each i < k), as tables are written.
        objects = {id(row[k]): row[k] for k in range(n) for row in rows[:k]}
        rank = dict.fromkeys(objects.values(), 0)
        for r, v in enumerate(sorted(rank, key=cmp_to_key(Value.compare))):
            rank[v] = r
        rank = {i: rank[v] for i, v in objects.items()}
        d = [[0] * n for _ in rows]
        for i, row in enumerate(rows):
            for k, v in row.items():
                d[i][k] = d[k][i] = rank[id(v)]
        best = dict(enumerate(d[0]))
        del best[0]
        parent = dict.fromkeys(best, 0)
        tree = [0]
        while best:
            u = max(best, key=best.__getitem__)
            w = best.pop(u)
            up = parent.pop(u)
            du, dp = d[u], d[up]
            for x in tree:
                if x != up and not (dp[x] >= w if du[x] == w
                                    else dp[x] == du[x]):
                    return False
            tree.append(u)
            for y, by in best.items():
                if du[y] > by:
                    best[y], parent[y] = du[y], u
        return True


def classify_from_prefix(cfg: UltrametricConfiguration) -> tuple[PmsKind, list[Value]]:
    """Classify the sequence points of cfg and return the distance prefix.

    The prefix is indexed so that entry nu is v(z_nu - z_{nu+1}) for a pcs,
    v(z_{nu+1} - z_mu), mu <= nu, for a pds, and the constant for a pcts.
    """
    zs = cfg.sequence
    if len(zs) < 3:
        raise IndeterminateError("need at least three sequence points to classify")
    consec = []
    for i, row in enumerate(cfg.rows[:len(zs) - 1]):
        v = row.get(i + 1)
        if v is None:
            raise IndeterminateError(
                f"no distance recorded for {zs[i]}, {zs[i + 1]}")
        consec.append(v)
    kind = next((k for k, s in DIRECTION.items() if moves(consec, s)), None)
    neither = ("consecutive distances are neither strictly increasing, "
               "strictly decreasing, nor all equal")
    if kind is None:
        raise NotAPms(neither)
    # Only the recorded pairs of members are checked, smallest (i, j) first.
    m = len(zs)
    for i, after_i in enumerate(cfg.rows[:m]):
        for j in sorted(k for k in after_i if k < m):
            want = pattern_distance(kind, consec, i, j)
            if after_i[j] is not want and after_i[j] != want:
                # Equal consecutive distances admit only the pcts pattern.
                if kind is PmsKind.PCTS:
                    raise NotAPms(neither)
                raise InvalidConfiguration(
                    f"distance {zs[i]},{zs[j]} contradicts the {kind.value} "
                    "pattern")
    return kind, consec


# ---------------------------------------------------------------------------
# Symbolic tail comparisons against the chain


def beyond_all_deltas(beta: Value, E: PmsDescriptor) -> bool:
    """beta lies past every distance value on the side the chain moves
    toward, above them all for a pcs and below them all for a pds: past the
    cut on that side.

    Because the cut is never attained, lying past every delta_nu matches
    lying weakly past every one of them as well.
    """
    s = E.sign
    if beta.coords is None:
        return s > 0
    if not E.group.contains(beta):
        raise InvariantError(f"{beta} is not a member of the declared group")
    return E.cut.compare(beta) == s


# ---------------------------------------------------------------------------
# Cauchy / divergence


def cofinal(E: PmsDescriptor) -> bool:
    """Whether the distance values pass every group element on the chain's
    side: a Cauchy pcs, or a pds diverging to infinity.

    Cofinality in a lex group with archimedean leading component reduces to
    unboundedness of the first coordinate: a cut at infinity with no
    constants before it.  A pcts has constant distance values and no cut."""
    cut = E.cut
    return not cut.constants and cut.r is None


# ---------------------------------------------------------------------------
# Limits


def check_configuration(E: PmsDescriptor, cfg: UltrametricConfiguration
                        ) -> tuple[Value, ...]:
    """The consecutive distances of cfg, once cfg is checked against E: it
    classifies as E's kind, and a pcts sits at E's delta."""
    kind, consec = cfg.classification
    if kind is not E.kind:
        raise InvalidConfiguration(
            f"configuration classifies as {kind.value} but the descriptor "
            f"declares {E.kind.value}")
    if kind is PmsKind.PCTS and consec[0] != E.pcts_delta:
        raise InvalidConfiguration(
            f"configuration distance is {consec[0]} but the descriptor "
            f"declares delta {E.pcts_delta}")
    return consec


def _tail(y: str, E: PmsDescriptor, cfg: UltrametricConfiguration
          ) -> list[tuple[Value, Optional[Value]]]:
    """The pairs (v(y - z_nu), delta_nu) where v(y - z_nu) is recorded, from
    the last stage on (from 1 for a pds) and after y for a member; delta_nu
    is a consecutive distance of cfg, then an entry of E's prefix, else
    None, and a pcts has its one delta at every index."""
    deltas = check_configuration(E, cfg)
    deltas += (E.prefix or ())[len(deltas):]
    zs, shift = cfg.sequence, delta_shift(E.kind)
    floor = max(E.tail_start, shift)
    if y in zs:
        floor = max(floor, zs.index(y) + 1)
    pcts = E.kind is PmsKind.PCTS
    return [(d, E.pcts_delta if pcts
             else deltas[nu - shift] if nu - shift < len(deltas) else None)
            for nu in range(floor, len(zs))
            if (d := cfg.distance(y, zs[nu])) is not None]


def _reading(E: PmsDescriptor, tail) -> tuple[Optional[bool], Optional[int]]:
    """(True, None) when the tail follows delta_nu (equals it for a pcs, is
    at least it otherwise) from its first witness on, or for a pds from its
    first witness that follows: a pds point at least delta_nu from z_nu is
    at exactly delta_mu from every later z_mu, so a pds follows when its
    last witness does.  (False, k) when the tail leaves the pattern at
    tail[k], and (None, None) when no delta_nu is known."""
    pcs = E.kind is PmsKind.PCS
    follows = lambda p: p[0] == p[1] if pcs else p[0] >= p[1]
    known = [(i, p) for i, p in enumerate(tail) if p[1] is not None]
    if not known:
        return None, None
    if E.kind is PmsKind.PDS:
        if not follows(known[-1][1]):
            return False, known[0][0]
        known = known[next(j for j, p in enumerate(known) if follows(p[1])):]
    k = next((i for i, p in known if not follows(p)), None)
    return k is None, k


def is_limit(y: str, E: PmsDescriptor, cfg: UltrametricConfiguration) -> Tri:
    """Does v(y - z_nu) follow delta_nu on the witnessed tail?

    Sequence members are decided outright: every member of a pds or pcts is
    a limit, no member of a pcs is.
    """
    if y in cfg.sequence:
        return Tri.FALSE if E.kind is PmsKind.PCS else Tri.TRUE
    limit, _ = _reading(E, _tail(y, E, cfg))
    return (Tri.INDETERMINATE if limit is None
            else Tri.TRUE if limit else Tri.FALSE)


class Dichotomy(NamedTuple):
    """Outcome of the limit-or-ultimately-constant alternative."""

    is_limit: bool
    constant_value: Optional[Value]


def limit_dichotomy_check(y: str, E: PmsDescriptor,
                          cfg: UltrametricConfiguration) -> Dichotomy:
    """(True, None) for a limit, (True, delta) for a pcts limit, (False, c)
    for a tail off the pattern at k, then at c = min(v(y - z_k), delta_k)."""
    tail = _tail(y, E, cfg)
    pcts = E.kind is PmsKind.PCTS
    if len(tail) < (1 if pcts else 2):
        raise IndeterminateError(
            "no tail witnesses for the dichotomy" if pcts else
            "need at least two tail witnesses to separate the limit pattern "
            "from an ultimately constant one")
    limit, k = _reading(E, tail)
    if limit:
        return Dichotomy(True, E.pcts_delta)
    c = min(tail[k])
    if all(d == c for d, _ in tail[k + 1:]):
        return Dichotomy(False, c)
    raise InvalidConfiguration(
        "distances to a pcts are ultimately constant; witnessed tail is not"
        if pcts else
        f"distances from {y} neither follow the distance values nor settle; "
        "not valid pseudo monotone data")
