"""Brute-force ground truth on concrete fields.

Two exact desk-scale fields: the rationals with a p-adic valuation (rank 1)
and rational functions in t over Q with the composite valuation
v(f) = (order in t, p-adic value of the lowest t-coefficient), a rank-2 lex
group.  Sequences of field elements are valuated directly and the affine
tail pattern d*delta_nu + beta is fitted independently of any root tagging.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from typing import NamedTuple, Optional, Sequence, Union

from .engine import DominatingForm, FactoredRationalFunction, dominating_degree
from .errors import InvariantError, SchemaError
from .exact import ExactReal
from .groups import INFINITY, Value, immutable, is_prime
from .sequences import (DIRECTION, PmsDescriptor, PmsKind,
                        UltrametricConfiguration, classify_from_prefix,
                        delta_shift, moves)


def padic_valuation(q: Union[int, Fraction], p: int) -> int:
    """Exact exponent of p in q, q nonzero.  Numerator and denominator are
    coprime, so at most one of them is divisible by p."""
    if q == 0:
        raise InvariantError("the zero element has value plus-infinity")
    if p < 2:
        raise InvariantError(f"no {p}-adic valuation")
    if q.numerator % p == 0:
        return _multiplicity(q.numerator, p)
    return -_multiplicity(q.denominator, p)


def _multiplicity(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n, by repeated squaring: divide
    by p, p^2, p^4, ... while they divide, then by the same powers from the
    top down, which strips the rest bit by bit."""
    v, powers = 0, [p]
    while n % powers[-1] == 0:
        n //= powers[-1]
        v += 1 << (len(powers) - 1)
        powers.append(powers[-1] * powers[-1])
    for i in range(len(powers) - 2, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


# ---------------------------------------------------------------------------
# Exact rational functions in t over Q
#
# A polynomial is sparse: a tuple of (power, coefficient) pairs in
# increasing power, with no zero coefficient, so its cost follows the terms
# present, not its degree.

Poly = tuple[tuple[int, Fraction], ...]


def _poly_add(a: Poly, b: Poly, negate: bool = False) -> Poly:
    """a + b, or a - b when negate: merged by power, zero sums dropped."""
    if not b:
        return a
    acc = dict(a)
    for e, c in b:
        if negate:
            c = -c
        s = acc[e] + c if e in acc else c
        if s:
            acc[e] = s
        else:
            del acc[e]
    return tuple(sorted(acc.items()))


def _poly_mul(a: Poly, b: Poly) -> Poly:
    """a * b, term by term."""
    acc: dict[int, Fraction] = {}
    for e, x in a:
        for f, y in b:
            k = e + f
            acc[k] = acc[k] + x * y if k in acc else x * y
    return tuple(sorted((e, c) for e, c in acc.items() if c))


class QtElement:
    """num/den, sparse polynomials over exact rationals; den nonzero.  Zero
    is false, as for a Fraction."""

    __slots__ = ("num", "den")
    __setattr__ = __delattr__ = immutable
    __repr__ = lambda self: f"QtElement(num={self.num!r}, den={self.den!r})"

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise InvariantError("denominator must be nonzero")
        _set_num(self, num)
        _set_den(self, den)

    @staticmethod
    def of(num: Sequence[Union[int, str, Fraction]],
           den: Sequence[Union[int, str, Fraction]] = (1,)) -> "QtElement":
        """The element with dense coefficient lists num and den, constant
        term first; a Fraction coefficient is kept as it is."""
        def sparse(coeffs) -> Poly:
            pairs = [(e, c if isinstance(c, Fraction) else Fraction(c))
                     for e, c in enumerate(coeffs)]
            return tuple((e, c) for e, c in pairs if c)

        return QtElement(sparse(num), sparse(den))

    @staticmethod
    def constant(q: Union[int, str, Fraction]) -> "QtElement":
        return QtElement.of([Fraction(q)])

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "QtElement", negate: bool = False) -> "QtElement":
        if self.den == other.den:
            return QtElement(_poly_add(self.num, other.num, negate), self.den)
        return QtElement(
            _poly_add(_poly_mul(self.num, other.den),
                      _poly_mul(other.num, self.den), negate),
            _poly_mul(self.den, other.den))

    def __sub__(self, other: "QtElement") -> "QtElement":
        return self.__add__(other, True)

    def __mul__(self, other: "QtElement") -> "QtElement":
        return QtElement(_poly_mul(self.num, other.num),
                         _poly_mul(self.den, other.den))

    def __eq__(self, other) -> bool:
        if not isinstance(other, QtElement):
            return NotImplemented
        if self.den == other.den:  # the sparse numerators are canonical
            return self.num == other.num
        return not self - other

    def __hash__(self):
        raise TypeError("QtElement is not hashable (non-canonical form)")


_set_num, _set_den = QtElement.num.__set__, QtElement.den.__set__


# ---------------------------------------------------------------------------
# Concrete fields


class PadicRationals(namedtuple("PadicRationals", "p")):
    """(Q, v_p): value group Z."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p):
            raise InvariantError(f"field p must be prime, got {p}")
        return super().__new__(cls, p)

    def valuate(self, x: Union[int, Fraction]) -> Value:
        if not x:
            return INFINITY
        return Value.of(padic_valuation(x, self.p))


class CompositeField(namedtuple("CompositeField", "p")):
    """(Q(t), v): v(f) = (ord_t f, v_p of the lowest t-coefficient), lex."""

    __slots__ = ()

    def __new__(cls, p: int):
        if not is_prime(p):
            raise InvariantError(f"field p must be prime, got {p}")
        return super().__new__(cls, p)

    def valuate(self, x: QtElement) -> Value:
        if not x:
            return INFINITY
        # The lowest pairs give the order in t and the lowest coefficient.
        (on, oc), (dn, dc) = x.num[0], x.den[0]
        return Value.of(on - dn, padic_valuation(oc, self.p)
                        - padic_valuation(dc, self.p))


ConcreteField = Union[PadicRationals, CompositeField]


class ConcreteRationalFunction(NamedTuple):
    """lead * prod(X - a_i) / prod(X - b_j) with concrete field elements."""

    lead: object
    num_roots: tuple = ()
    den_roots: tuple = ()


def sequence_configuration(field: ConcreteField,
                           terms: Sequence) -> UltrametricConfiguration:
    """Valuation distances of the sequence members.

    The consecutive distances delta_k = v(z_k - z_{k+1}) come first.  When
    they strictly increase or strictly decrease they fix every other pair:
    z_i - z_j is the sum of the steps z_k - z_{k+1}, i <= k < j, exactly one
    of which has the smallest value (k = i when increasing, k = j - 1 when
    decreasing), so v(z_i - z_j) = pattern_distance(kind, deltas, i, j) by
    the ultrametric law.  Only those N - 1 pairs are then recorded, and
    ``distance`` of a non-consecutive pair returns None.  Any other
    sequence (a pcts, or no pms at all) gets the full table, which its
    classification needs.  Two equal consecutive terms are refused.
    """
    n = len(terms)
    consec = [field.valuate(terms[i] - terms[i + 1]) for i in range(n - 1)]
    rows = tuple({} for _ in terms)
    for i, v in enumerate(consec):
        if v.is_infinity:
            raise InvariantError(
                f"sequence terms {i} and {i + 1} are equal")
        rows[i][i + 1] = v
    if not (moves(consec, 1) or moves(consec, -1)):
        for i, row in enumerate(rows):
            for j in range(i + 2, n):
                row[j] = field.valuate(terms[i] - terms[j])
    return UltrametricConfiguration.build([f"z{i}" for i in range(n)], (),
                                          rows)


# ---------------------------------------------------------------------------
# Pattern fitting


def _window(m: int, tail_window: Optional[int]) -> int:
    """How many of the m aligned points the fit reads: tail_window, by
    default the last half, kept within 2..m."""
    return max(2, min(m // 2 if tail_window is None else tail_window, m))


def fit_pattern(kind: PmsKind, deltas: Sequence[Value],
                values: Sequence[Value],
                tail_window: Optional[int] = None) -> Optional[DominatingForm]:
    """Fit values_nu = d*delta_nu + beta on the tail, solving from the last
    two points and verifying over the window (default: the last half of the
    m = len(deltas) points); None when the window follows no such pattern.
    values ends where deltas ends; only its last window entries are read,
    so it may hold those alone.  kind is the direction of the deltas, which
    the last two of them must show."""
    m = len(deltas)
    if m < 4:
        raise InvariantError("pattern fitting needs at least four tail points")
    window = _window(m, tail_window)
    if len(values) < window:
        raise InvariantError(f"pattern fitting needs the last {window} values")
    if deltas[-1].compare(deltas[-2]) != DIRECTION[kind]:
        raise InvariantError("distance prefix is neither monotone nor constant")
    deltas, values = deltas[m - window:], values[len(values) - window:]
    if any(v.is_infinity for v in values):
        return None
    d = _solve_degree(deltas[-1] - deltas[-2], values[-1] - values[-2])
    if d is None:
        return None
    beta = values[-1] - deltas[-1].scale(d)
    n = len(beta.coords)
    for delta, value in zip(deltas, values):
        line = map(_on_line, repeat(d), delta.coords, value.coords,
                   beta.coords)
        if not len(delta.coords) == len(value.coords) == n or not all(line):
            return None
    return DominatingForm(d, beta)


def _on_line(d: int, x: ExactReal, y: ExactReal, c: ExactReal) -> bool:
    """y = d*x + c, on integers: the rational parts and then the surd parts
    q = d*p + r, cross-multiplied as q.n*p.d*r.d = (d*p.n*r.d + r.n*p.d)*q.d,
    and every nonzero surd part among y, d*x and c on one radicand (a
    rational part carries radicand 1)."""
    xd, xan, xad, xbn, xbd = x
    yd, yan, yad, ybn, ybd = y
    cd, can, cad, cbn, cbd = c
    return (yan * xad * cad == (d * xan * cad + can * xad) * yad
            and ybn * xbd * cbd == (d * xbn * cbd + cbn * xbd) * ybd
            and len({xd if d else 1, yd, cd, 1}) <= 2)


def _solve_degree(ddelta: Value, dvalue: Value) -> Optional[int]:
    """Integer d with dvalue = d*ddelta, coordinate by coordinate, on the
    rational and the surd parts alike: y = d*x for parts x = a/b and
    y = c/e reads c*b = d*a*e, and two nonzero surd parts share a radicand."""
    d: Optional[int] = None
    for x, y in zip(ddelta.coords, dvalue.coords):
        xd, xan, xad, xbn, xbd = x
        yd, yan, yad, ybn, ybd = y
        if xbn and ybn and xd != yd:
            return None
        for a, b, c, e in ((xan, xad, yan, yad), (xbn, xbd, ybn, ybd)):
            if not a:
                if c:
                    return None
            elif d is None:
                d, r = divmod(c * b, a * e)
                if r:
                    return None
            elif c * b != d * a * e:
                return None
    return d if d is not None else 0


# ---------------------------------------------------------------------------
# Cross-checking the tag calculus against the oracle


class CrossCheckReport(NamedTuple):
    kind: PmsKind
    delta_prefix: tuple[Value, ...]
    fit: Optional[DominatingForm]
    tagged_form: Optional[DominatingForm]
    mismatches: tuple[str, ...]

    agree = property(lambda self: self.fit is not None and not self.mismatches)


def cross_check(field: ConcreteField, terms: Sequence,
                functions: Sequence[tuple[ConcreteRationalFunction,
                                          FactoredRationalFunction]],
                E: Optional[PmsDescriptor] = None,
                tail_window: Optional[int] = None) -> list[CrossCheckReport]:
    """Evaluate each concrete function along the sequence, fit the tail
    pattern and compare the result with the function's root tagging: each
    root's fit with its tag's form (1, 0) for a limit and (0, beta) at
    distance beta, and the function's fit with the tags' dominating form;
    mismatches name the offending root by side and position.  The sequence
    is valuated and classified once, for all the functions.  The fit reads
    only the tail window, so each factor is valuated at those terms alone;
    a pole is sought at every term, by equality."""
    for phi, tagged in functions:
        if len(phi.num_roots) != len(tagged.num_roots) or \
                len(phi.den_roots) != len(tagged.den_roots):
            raise SchemaError("tagged and concrete root lists differ in shape")
    kind, deltas = classify_from_prefix(sequence_configuration(field, terms))
    # Aligned point i is term delta_shift(kind) + i, and the fit reads the
    # last window of the m points.
    m = len(deltas)
    window = _window(m, tail_window)
    start = delta_shift(kind) + m - window
    tail = terms[start:start + window]
    limit_form = DominatingForm(1, Value.of(*[0] * deltas[0].arity))

    reports = []
    for phi, tagged in functions:
        if any(z == root for root in phi.den_roots for z in terms):
            raise InvariantError("evaluation at a pole")
        # v(z_nu - root) once per tail term and root; the values follow.
        lead = field.valuate(phi.lead)
        num = [[field.valuate(z - root) for z in tail] for root in phi.num_roots]
        den = [[field.valuate(z - root) for z in tail] for root in phi.den_roots]
        values = [_term_value(lead, [dists[k] for dists in num],
                              [dists[k] for dists in den])
                  for k in range(window)]
        fit = fit_pattern(kind, deltas, values, tail_window)
        mismatches: list[str] = []
        for side, rows, tags in (("num", num, tagged.num_roots),
                                 ("den", den, tagged.den_roots)):
            for idx, (dists, tag) in enumerate(zip(rows, tags)):
                root_fit = fit_pattern(kind, deltas, dists, tail_window)
                declared = (limit_form if tag.is_limit
                            else DominatingForm(0, tag.beta))
                if root_fit != declared:
                    mismatches.append(
                        f"{side}[{idx}]: declared "
                        f"{_root_text(declared, limit_form)}, oracle saw "
                        f"{_root_text(root_fit, limit_form)}")
        tagged_form = (dominating_degree(tagged, E) if E is not None
                       else tagged.dominating_form())
        if fit is not None and fit != tagged_form:
            mismatches.append(
                f"overall: oracle fit d={fit.degree}, beta={fit.beta}; tags "
                f"give d={tagged_form.degree}, beta={tagged_form.beta}")
        reports.append(CrossCheckReport(kind, tuple(deltas), fit, tagged_form,
                                        tuple(mismatches)))
    return reports


def _term_value(lead: Value, num: Sequence[Value],
                den: Sequence[Value]) -> Value:
    """lead + sum(num) - sum(den), summed once per coordinate through
    ExactReal into one Value; v(0) when lead or a num entry is.  The
    entries share lead's arity, as valuations in one field do."""
    if lead.is_infinity or any(v.is_infinity for v in num):
        return INFINITY
    sums = []
    for i, c in enumerate(lead.coords):
        for v in num:
            c = c + v.coords[i]
        for v in den:
            c = c - v.coords[i]
        sums.append(c)
    return Value(tuple(sums))


def _root_text(form: Optional[DominatingForm], limit: DominatingForm) -> str:
    """A root's form as a mismatch names it: a limit, or the constant
    distance beta (None when the distances are not constant)."""
    if form == limit:
        return "limit"
    return f"beta={form.beta if form is not None and form.degree == 0 else None}"
