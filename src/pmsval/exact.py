"""Exact real numbers of the form a + b*sqrt(d) with rational a, b.

These are the coordinate entries of lexicographic group elements: either
plain rationals (b = 0) or quadratic surds over a squarefree radicand
d >= 2.  All comparisons are exact; no floating point is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt
from typing import Union

from .errors import InvariantError

RationalLike = Union[int, str, Fraction]
_ZERO = Fraction(0)


def _as_fraction(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    return Fraction(q)


# split_square is trial division up to the square root of the radicand;
# refusing radicands at or above 2**32 bounds it to 65536 steps.
RADICAND_BOUND = 2 ** 32


def split_square(n: int) -> tuple[int, int]:
    """Factor 0 < n < RADICAND_BOUND as s*s * d with d squarefree; returns
    (s, d)."""
    if n <= 0:
        raise InvariantError(f"radicand must be positive, got {n}")
    if n >= RADICAND_BOUND:
        raise InvariantError(
            f"radicand must be below {RADICAND_BOUND}, got {n}")
    s, d = 1, n
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            s *= f
        f += 1
    return s, d


def _isign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and squarefree d >= 1."""
    if not b or d == 1:
        a += b
        return (a > 0) - (a < 0)
    # The larger of |a| and |b|*sqrt(d) gives the sign.
    t = a * a - b * b * d
    if t == 0:
        # a = -b*sqrt(d) would make sqrt(d) rational; cannot happen.
        raise InvariantError("squarefree radicand produced a rational surd")
    return 1 if (a if t > 0 else b) > 0 else -1


@total_ordering
@dataclass(frozen=True, slots=True)
class ExactReal:
    """Canonical a + b*sqrt(d): b == 0 forces d == 1, else d squarefree >= 2.

    A Fraction is always in lowest terms, so equality and hashing read the
    five integers (d, a, b as numerator and denominator) directly."""

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        if not self.b:
            if self.d != 1:
                raise InvariantError("rational value must carry radicand 1")
        elif self.d < 2:
            raise InvariantError("surd radicand must be >= 2")

    @staticmethod
    def rational(q: RationalLike) -> "ExactReal":
        return ExactReal(_as_fraction(q), _ZERO, 1)

    @staticmethod
    def surd(a: RationalLike, b: RationalLike, d: int) -> "ExactReal":
        """Build a + b*sqrt(d), normalizing the square part of d into b."""
        a, b = _as_fraction(a), _as_fraction(b)
        if b == 0:
            return ExactReal.rational(a)
        s, d0 = split_square(d)
        if s != 1:
            b = b * s
        if d0 == 1:
            return ExactReal.rational(a + b)
        return ExactReal(a, b, d0)

    @property
    def is_rational(self) -> bool:
        # The canonical form makes b == 0 equivalent to d == 1.
        return self.d == 1

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise InvariantError(f"{self} is not rational")
        return self.a

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ExactReal:
            return NotImplemented
        a, b, oa, ob = self.a, self.b, other.a, other.b
        return (self.d == other.d
                and a.numerator == oa.numerator
                and a.denominator == oa.denominator
                and b.numerator == ob.numerator
                and b.denominator == ob.denominator)

    def __hash__(self) -> int:
        a, b = self.a, self.b
        return hash((self.d, a.numerator, a.denominator,
                     b.numerator, b.denominator))

    def __add__(self, other: "ExactReal") -> "ExactReal":
        if not isinstance(other, ExactReal):
            return NotImplemented
        a, oa = self.a, other.a
        # Integer rational parts add as integers, without Fraction's
        # operator dispatch and gcd.
        a = Fraction(a.numerator + oa.numerator) \
            if a.denominator == 1 == oa.denominator else a + oa
        if other.is_rational:  # the surd part, if any, is self's
            return ExactReal(a, self.b, self.d)
        if self.is_rational or self.d == other.d:
            # Radicands are squarefree already: only a vanishing b changes d.
            b = self.b + other.b
            return ExactReal(a, b, max(self.d, other.d)) if b \
                else ExactReal.rational(a)
        raise InvariantError(
            f"cannot add surds over distinct radicands {self.d} and {other.d}"
        )

    def __neg__(self) -> "ExactReal":
        return ExactReal(-self.a, -self.b, self.d)

    def __sub__(self, other: "ExactReal") -> "ExactReal":
        return self + (-other)

    def scaled(self, q: RationalLike) -> "ExactReal":
        # An integer times an integer rational stays an integer.
        if q.__class__ is int and self.d == 1 and self.a.denominator == 1:
            return ExactReal(Fraction(self.a.numerator * q), _ZERO, 1)
        q = _as_fraction(q)
        if not q:
            return ExactReal.rational(0)
        # q != 0 keeps b == 0 exactly when it was, so d stays canonical.
        return ExactReal(self.a * q, self.b * q, self.d)

    def floor(self) -> int:
        """The largest integer m with m <= self, exactly: the integer square
        root of b^2*d gives a guess at most one off, and compare corrects it."""
        root = Fraction(isqrt(self.b.numerator ** 2 * self.d),
                        self.b.denominator)
        guess = self.a + (root if self.b > 0 else -root)
        m = guess.numerator // guess.denominator
        while ExactReal.rational(m).compare(self) > 0:
            m -= 1
        while ExactReal.rational(m + 1).compare(self) <= 0:
            m += 1
        return m

    def compare(self, other: "ExactReal") -> int:
        """Exact three-way comparison; handles distinct radicands."""
        d = self.d
        if d == other.d:
            b, ob = self.b, other.b
            if d == 1 or (b.numerator == ob.numerator
                          and b.denominator == ob.denominator):
                # Rationals, or the same surd part: the rational parts
                # decide, cross-multiplied over positive denominators.
                a, oa = self.a, other.a
                x = a.numerator * oa.denominator
                y = oa.numerator * a.denominator
                return (x > y) - (x < y)
        return _sign_of_difference(self, other)

    def __lt__(self, other: "ExactReal") -> bool:
        if not isinstance(other, ExactReal):
            return NotImplemented
        return self.compare(other) < 0

    def __repr__(self) -> str:
        if self.is_rational:
            return str(self.a)
        head = f"{self.a}+" if self.a else ""
        coef = "" if self.b == 1 else ("-" if self.b == -1 else f"{self.b}*")
        return f"{head}{coef}√{self.d}".replace("+-", "-")


def _sign_of_difference(x: ExactReal, y: ExactReal) -> int:
    """Exact sign of x - y for x and y with different surd parts.  Times
    the positive product of the four denominators, x - y is r + u with
    u = p1*sqrt(d1) - p2*sqrt(d2), on integers r, p1 and p2; a rational
    side has p == 0 and d == 1."""
    a1, b1, a2, b2 = x.a, x.b, y.a, y.b
    da1, db1, da2, db2 = (a1.denominator, b1.denominator, a2.denominator,
                          b2.denominator)
    r = (a1.numerator * da2 - a2.numerator * da1) * db1 * db2
    da = da1 * da2
    p1, d1 = b1.numerator * db2 * da, x.d
    p2, d2 = b2.numerator * db1 * da, y.d
    # With d1*d2 = g^2 * dprod, u times sqrt(d1) > 0 is
    # p1*d1 - p2*g*sqrt(dprod).  The surd parts differ, so u != 0, and u is
    # irrational, so u^2 != r^2 below.
    g, dprod = _split_square_product(d1, d2)
    su = _isign(p1 * d1, -p2 * g, dprod)
    if (r > 0) == (su > 0):
        return su
    # Opposite signs, or r == 0: r + u has the sign of u exactly when
    # u^2 > r^2, and u^2 = p1^2*d1 + p2^2*d2 - 2*p1*p2*g*sqrt(dprod).
    return su * _isign(p1 * p1 * d1 + p2 * p2 * d2 - r * r,
                       -2 * p1 * p2 * g, dprod)


def _split_square_product(d1: int, d2: int) -> tuple[int, int]:
    """split_square(d1 * d2) for squarefree d1, d2: with g = gcd(d1, d2),
    the cofactors d1/g, d2/g and g are pairwise coprime, so the square
    part is g."""
    g = gcd(d1, d2)
    return g, d1 * d2 // (g * g)
