"""Lexicographic products of rank-1 ordered groups, with exact arithmetic.

A group descriptor is an ordered list of rank-1 components (most significant
first).  Components are subgroups of the rationals, optionally extended by a
single adjoined quadratic surd, plus the formal integer factors inserted by
the rank construction.  Elements are tuples of exact reals ordered
lexicographically; the value of zero is a single plus-infinity above every
tuple.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import DescriptorMismatch, InvalidAdjoin, InvariantError
from .exact import ExactReal, RationalLike


# ---------------------------------------------------------------------------
# Components


# Miller-Rabin on the primes up to 41 decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson &
# Webster 2017); the primes up to 37 alone are fooled below it, by
# 318665857834031151167461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n at or above PRIME_BOUND is refused
    with an InvariantError rather than answered."""
    if n >= PRIME_BOUND:
        raise InvariantError(f"primality is only decided below {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def immutable(record, *_) -> None:
    """__setattr__ and __delattr__ of a record fixed at construction."""
    raise AttributeError(f"{record.__class__.__name__} is immutable")


class Marker:
    """A record without fields: true, equal only to an instance of its own
    class, and hashed as the empty tuple of its fields."""

    __setattr__ = __delattr__ = immutable
    __eq__ = lambda self, other: (True if other.__class__ is self.__class__
                                  else NotImplemented)
    __hash__ = lambda self: hash(())
    __repr__ = lambda self: f"{self.__class__.__name__}()"


class Cyclic(namedtuple("Cyclic", "gen")):
    """The subgroup gen * Z of the rationals, gen > 0."""

    __slots__ = ()

    def __new__(cls, gen: Fraction):
        if gen.numerator <= 0:  # the denominator is positive
            raise InvariantError("cyclic generator must be positive")
        return super().__new__(cls, gen)


class PPowerDivisible(namedtuple("PPowerDivisible", "p scale")):
    """scale * Z[1/p^inf]: rationals whose scaled denominator is a p-power."""

    __slots__ = ()

    def __new__(cls, p: int, scale: Fraction):
        if not is_prime(p):
            raise InvariantError(f"{p} is not prime")
        if scale.numerator <= 0:
            raise InvariantError("scale must be positive")
        return super().__new__(cls, p, scale)


class FullRational(Marker):
    """All of Q."""


class FormalInteger(Marker):
    """A Z factor inserted by the rank construction."""


class AdjoinedSurd(namedtuple("AdjoinedSurd", "base tau")):
    """base + Z*tau for an irrational quadratic tau; still rank 1."""

    __slots__ = ()

    def __new__(cls, base: "Component", tau: ExactReal):
        if tau.is_rational:
            raise InvariantError("adjoined tau must be irrational")
        if isinstance(base, AdjoinedSurd):
            raise InvariantError("at most one adjoined surd per component")
        return super().__new__(cls, base, tau)


Component = Union[Cyclic, PPowerDivisible, FullRational, FormalInteger, AdjoinedSurd]


def _p_free_part(n: int, p: int) -> int:
    """n, n >= 1, stripped of its factors p by at most one gcd: the p-part
    p^k <= n divides p^e for e = bit_length(n) // (bit_length(p) - 1) >= k."""
    if n % p:
        return n
    return n // gcd(n, p ** (n.bit_length() // (p.bit_length() - 1)))


def component_contains(comp: Component, x: ExactReal) -> bool:
    """Decide membership of an exact real in a rank-1 component, by
    divisibility of x's integers and the component's; a component is told
    apart by its exact class, as none is subclassed."""
    d, an, ad, bn, bd = x
    if comp.__class__ is AdjoinedSurd:
        if d == 1:
            return component_contains(comp.base, x)
        td, tan, tad, tbn, tbd = comp.tau
        if d != td:
            return False
        # x = k*tau + rest needs k = x.b / tau.b integral and rest in base.
        num, den = bn * tbd, bd * tbn
        if num % den:
            return False
        rest = ExactReal.ratio(an * tad - tan * (num // den) * ad, ad * tad)
        return component_contains(comp.base, rest)
    if d != 1:
        return False
    kind = comp.__class__
    if kind is FullRational:
        return True
    if kind is FormalInteger:
        return ad == 1
    if kind is Cyclic:
        gen = comp.gen
        return (an * gen.denominator) % (ad * gen.numerator) == 0
    if kind is PPowerDivisible:
        # The denominator of x/scale in lowest terms must be a power of p.
        num = an * comp.scale.denominator
        den = ad * comp.scale.numerator
        return _p_free_part(den // gcd(num, den), comp.p) == 1
    raise InvariantError(f"unknown component {comp!r}")


def component_generator(comp: Component) -> ExactReal:
    """A canonical small positive member, used to build probe elements."""
    if isinstance(comp, (FullRational, FormalInteger)):
        return ExactReal.rational(1)
    if isinstance(comp, Cyclic):
        return ExactReal.rational(comp.gen)
    if isinstance(comp, PPowerDivisible):
        return ExactReal.rational(comp.scale)
    if isinstance(comp, AdjoinedSurd):
        return component_generator(comp.base)
    raise InvariantError(f"unknown component {comp!r}")


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(gcd(a.numerator * b.denominator, b.numerator * a.denominator),
                    a.denominator * b.denominator)


def _adjoin_rational(comp: Component, q: Fraction) -> Component:
    if isinstance(comp, (Cyclic, FormalInteger)):
        gen = comp.gen if isinstance(comp, Cyclic) else Fraction(1)
        return Cyclic(_frac_gcd(gen, abs(q)))
    if isinstance(comp, PPowerDivisible):
        # scale*Z[1/p^inf] + q*Z = (scale/w)*Z[1/p^inf] with w the p-free
        # part of the denominator of q/scale.
        w = _p_free_part((q / comp.scale).denominator, comp.p)
        return PPowerDivisible(comp.p, comp.scale / w)
    raise InvariantError(f"cannot adjoin rational to {comp!r}")


def component_adjoin(comp: Component, r: ExactReal) -> Component:
    """Smallest representable component containing comp and r; rank stays 1."""
    if component_contains(comp, r):
        raise InvalidAdjoin(f"{r} already belongs to the component")
    if r.is_rational:
        if isinstance(comp, AdjoinedSurd):
            return AdjoinedSurd(_adjoin_rational(comp.base, r.rational_value), comp.tau)
        return _adjoin_rational(comp, r.rational_value)
    tau = r if r.b > 0 else -r
    if not isinstance(comp, AdjoinedSurd):
        return AdjoinedSurd(comp, tau)
    if tau.d != comp.tau.d:
        raise InvalidAdjoin(
            "component already carries a surd over a different radicand")
    # Combine Z*tau + Z*comp.tau: the sqrt(d) coefficients form a cyclic
    # group over g = gcd; Bezout yields the new tau, and the leftover
    # rational offsets land in the base.
    b1, b2 = comp.tau.b, tau.b
    g = _frac_gcd(abs(b1), abs(b2))
    m1, m2 = int(b1 / g), int(b2 / g)
    x, y = _bezout(m1, m2)
    new_tau = comp.tau.scaled(x) + tau.scaled(y)
    base = comp.base
    for old in (comp.tau, tau):
        n = old.b / new_tau.b
        rest = old - new_tau.scaled(n)
        if not rest.is_rational:
            raise InvariantError("surd combination left an irrational residue")
        if rest.rational_value and not component_contains(base, rest):
            base = _adjoin_rational(base, rest.rational_value)
    # new_tau.b = x*b1 + y*b2 = g*(x*m1 + y*m2) = g > 0 already.
    return AdjoinedSurd(base, new_tau)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """x, y with a*x + b*y = gcd(|a|, |b|)."""
    sa = -1 if a < 0 else 1
    sb = -1 if b < 0 else 1
    old_r, r = abs(a), abs(b)
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return sa * old_x, sb * old_y


def component_label(comp: Component) -> str:
    if isinstance(comp, Cyclic):
        return f"{comp.gen}Z"
    if isinstance(comp, PPowerDivisible):
        pre = "" if comp.scale == 1 else f"{comp.scale}*"
        return f"{pre}Z[1/{comp.p}^inf]"
    if isinstance(comp, FullRational):
        return "Q"
    if isinstance(comp, FormalInteger):
        return "Z"
    if isinstance(comp, AdjoinedSurd):
        return f"{component_label(comp.base)}+Z({comp.tau})"
    return repr(comp)


# ---------------------------------------------------------------------------
# Values (group elements and the value of zero)


class Value:
    """A group element, a lex-ordered tuple of exact reals; coords None
    encodes the scalar +infinity assigned to v(0), greater than every
    tuple."""

    __slots__ = ("coords",)
    __setattr__ = __delattr__ = immutable
    __hash__ = lambda self: hash((self.coords,))
    __reduce__ = lambda self: (Value, (self.coords,))  # copy, pickle

    def __init__(self, coords: Optional[tuple[ExactReal, ...]]):
        _set_coords(self, coords)

    def __eq__(self, other):
        if other.__class__ is not Value:
            return NotImplemented
        return self.coords == other.coords

    @staticmethod
    def of(*coords: Union[ExactReal, RationalLike]) -> "Value":
        return Value(tuple(c if isinstance(c, ExactReal)
                           else ExactReal.rational(c) for c in coords))

    @property
    def is_infinity(self) -> bool:
        return self.coords is None

    @property
    def arity(self) -> int:
        if self.coords is None:
            raise InvariantError("plus-infinity carries no coordinates")
        return len(self.coords)

    def compare(self, other: "Value") -> int:
        if not isinstance(other, Value):
            raise DescriptorMismatch(f"cannot compare Value with {other!r}")
        xs, ys = self.coords, other.coords
        if xs is None or ys is None:
            si = 1 if xs is None else 0
            oi = 1 if ys is None else 0
            return (si > oi) - (si < oi)
        if len(xs) != len(ys):
            raise DescriptorMismatch(f"arity {len(xs)} vs {len(ys)}")
        for x, y in zip(xs, ys):
            if x is not y:  # decoders share equal coordinates
                c = x.compare(y)
                if c:
                    return c
        return 0

    __lt__ = lambda self, other: self.compare(other) < 0
    __le__ = lambda self, other: self.compare(other) <= 0
    __gt__ = lambda self, other: self.compare(other) > 0
    __ge__ = lambda self, other: self.compare(other) >= 0
    __sub__ = lambda self, other: self + (-other)

    def __add__(self, other: "Value") -> "Value":
        if self.is_infinity or other.is_infinity:
            return INFINITY
        if len(self.coords) != len(other.coords):
            raise DescriptorMismatch("cannot add values of different arity")
        return Value(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "Value":
        if self.is_infinity:
            raise InvariantError("plus-infinity has no negative")
        return Value(tuple(-c for c in self.coords))

    def scale(self, n: int) -> "Value":
        if self.is_infinity:
            if n <= 0:
                raise InvariantError("cannot scale plus-infinity by n <= 0")
            return INFINITY
        return Value(tuple(c.scaled(n) for c in self.coords))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "v(0)=+inf"
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


_set_coords = Value.coords.__set__
INFINITY = Value(None)


# ---------------------------------------------------------------------------
# Group descriptors


class GroupDescriptor(namedtuple("GroupDescriptor", "components")):
    __slots__ = ()

    def __new__(cls, components: tuple[Component, ...]):
        if not components:
            raise InvariantError("a group descriptor needs at least one component")
        return super().__new__(cls, components)

    @staticmethod
    def of(*components: Component) -> "GroupDescriptor":
        return GroupDescriptor(tuple(components))

    def rank(self) -> int:
        # Each component has rank 1, so the lex product rank is the sum.
        return len(self.components)

    def contains(self, value: Value) -> bool:
        coords, components = value.coords, self.components
        if coords is None:
            return False
        if len(coords) != len(components):
            raise DescriptorMismatch(f"element arity {len(coords)} vs "
                                     f"descriptor rank {len(components)}")
        for c, x in zip(components, coords):
            if not component_contains(c, x):
                return False
        return True

    def contains_all(self, values) -> bool:
        """Whether every value is a member of this arity, testing each
        distinct coordinate object of a level once."""
        rows, n = [v.coords for v in values], len(self.components)
        for r in rows:
            if r is None or len(r) != n:
                return False
        for c, column in zip(self.components, zip(*rows)):
            for x in {id(x): x for x in column}.values():
                if not component_contains(c, x):
                    return False
        return True

    def insert_formal_integer(self, position: int) -> "GroupDescriptor":
        """Insert a Z factor at position; insert_zero embeds the old group
        into the new one."""
        if not 0 <= position <= len(self.components):
            raise InvariantError(f"insert position {position} out of range")
        comps = (self.components[:position] + (FormalInteger(),)
                 + self.components[position:])
        return GroupDescriptor(comps)

    def adjoin_at(self, position: int, r: ExactReal) -> "GroupDescriptor":
        if not 0 <= position < len(self.components):
            raise InvariantError(f"component index {position} out of range")
        comps = list(self.components)
        comps[position] = component_adjoin(comps[position], r)
        return GroupDescriptor(tuple(comps))

    def label(self) -> str:
        return "(" + " (+) ".join(component_label(c) for c in self.components) + ")_lex"


_ZERO = (ExactReal.rational(0),)  # the coordinate insert_zero inserts


def insert_zero(value: Value, position: int) -> Value:
    """Order embedding used with insert_formal_integer."""
    if value.is_infinity:
        return value
    coords = value.coords
    if not 0 <= position <= len(coords):
        raise InvariantError(f"insert position {position} out of range")
    return Value(coords[:position] + _ZERO + coords[position:])

