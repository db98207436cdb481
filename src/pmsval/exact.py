"""Exact real numbers of the form a + b*sqrt(d) with rational a, b.

These are the coordinate entries of lexicographic group elements: either
plain rationals (b = 0) or quadratic surds over a squarefree radicand
d >= 2.  All comparisons are exact; no floating point is involved.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import itemgetter
from typing import Union

from .errors import InvariantError

RationalLike = Union[int, str, Fraction, "ExactReal"]
_new = tuple.__new__


def _ints(q: RationalLike) -> tuple[int, int]:
    """q as a numerator and a positive denominator in lowest terms; a
    rational ExactReal is read as it is held."""
    if q.__class__ is int:
        return q, 1
    if q.__class__ is ExactReal and q[0] == 1:
        return q[1], q[2]
    q = q if isinstance(q, Fraction) else Fraction(q)
    return q.numerator, q.denominator


def _lowest(n: int, m: int) -> tuple[int, int]:
    """n/m in lowest terms, for m > 0."""
    g = gcd(n, m)
    return (n // g, m // g) if g != 1 else (n, m)


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
    s, d, f = 1, n, 2
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


def _guarded(op, other=NotImplemented):
    """op as a method on another ExactReal, giving other for anything else."""
    return lambda x, y: op(x, y) if y.__class__ is ExactReal else other


class ExactReal(tuple):
    """Canonical a + b*sqrt(d) as the integers (d, an, ad, bn, bd): a = an/ad
    and b = bn/bd in lowest terms, denominators positive, and b == 0 exactly
    when d == 1, else d squarefree >= 2; equal values are equal tuples."""

    __slots__ = ()
    d, an, ad, bn, bd = (property(itemgetter(i)) for i in range(5))
    __mul__ = __rmul__ = None  # no tuple repetition
    __getnewargs__ = lambda self: (self.a, self.b, self.d)  # copy, pickle

    def __new__(cls, a: RationalLike, b: RationalLike, d: int) -> "ExactReal":
        (an, ad), (bn, bd) = _ints(a), _ints(b)
        if not bn:
            if d != 1:
                raise InvariantError("rational value must carry radicand 1")
        elif d < 2:
            raise InvariantError("surd radicand must be >= 2")
        elif split_square(d)[0] != 1:
            raise InvariantError(f"surd radicand must be squarefree, got {d}")
        return _new(cls, (d, an, ad, bn, bd))

    @staticmethod
    def rational(q: RationalLike) -> "ExactReal":
        return _new(ExactReal, (1, *_ints(q), 0, 1))

    @staticmethod
    def ratio(n: int, m: int) -> "ExactReal":
        """The rational n/m for integers n and m > 0."""
        return _new(ExactReal, (1, *_lowest(n, m), 0, 1))

    @staticmethod
    def surd(a: RationalLike, b: RationalLike, d: int) -> "ExactReal":
        """Build a + b*sqrt(d), normalizing the square part of d into b."""
        (an, ad), (bn, bd) = _ints(a), _ints(b)
        if not bn:
            return _new(ExactReal, (1, an, ad, 0, 1))
        s, d = split_square(d)
        bn, bd = _lowest(bn * s, bd)
        if d == 1:
            return ExactReal.ratio(an * bd + bn * ad, ad * bd)
        return _new(ExactReal, (d, an, ad, bn, bd))

    @property
    def a(self) -> Fraction:
        return Fraction(self[1], self[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self[3], self[4])

    @property
    def is_rational(self) -> bool:
        return self[0] == 1

    @property
    def rational_value(self) -> Fraction:
        if self[0] != 1:
            raise InvariantError(f"{self} is not rational")
        return self.a

    # Not NotImplemented: a plain tuple's == would compare the integers.
    __eq__, __ne__ = _guarded(tuple.__eq__, False), _guarded(tuple.__ne__, True)
    __hash__ = tuple.__hash__
    __lt__ = _guarded(lambda x, y: x.compare(y) < 0)
    __le__ = _guarded(lambda x, y: x.compare(y) <= 0)
    __gt__ = _guarded(lambda x, y: x.compare(y) > 0)
    __ge__ = _guarded(lambda x, y: x.compare(y) >= 0)

    def __add__(self, other: "ExactReal") -> "ExactReal":
        if other.__class__ is not ExactReal:
            return NotImplemented
        d, an, ad, bn, bd = self
        e, cn, cd, en, ed = other
        an, ad = _lowest(an * cd + cn * ad, ad * cd)
        if e == 1:  # the surd part, if any, is self's
            return _new(ExactReal, (d, an, ad, bn, bd))
        if d == 1 or d == e:
            # Radicands are squarefree already: only a vanishing b changes d.
            bn, bd = _lowest(bn * ed + en * bd, bd * ed)
            return _new(ExactReal, (e if bn else 1, an, ad, bn, bd))
        raise InvariantError(
            f"cannot add surds over distinct radicands {d} and {e}")

    def __neg__(self) -> "ExactReal":
        d, an, ad, bn, bd = self
        return _new(ExactReal, (d, -an, ad, -bn, bd))

    def __sub__(self, other: "ExactReal") -> "ExactReal":
        return self + (-other)

    def scaled(self, q: RationalLike) -> "ExactReal":
        d, an, ad, bn, bd = self
        n, m = _ints(q)
        # q != 0 keeps b == 0 exactly when it was; q == 0 gives radicand 1.
        return _new(ExactReal, (d if n else 1, *_lowest(an * n, ad * m),
                                *_lowest(bn * n, bd * m)))

    def floor(self) -> int:
        """The largest integer m with m <= self, exactly: the integer square
        root of b^2*d gives a guess at most one off, and compare corrects it."""
        d, an, ad, bn, bd = self
        root = isqrt(bn * bn * d)
        m = (an * bd + (root if bn > 0 else -root) * ad) // (ad * bd)
        while ExactReal.rational(m).compare(self) > 0:
            m -= 1
        while ExactReal.rational(m + 1).compare(self) <= 0:
            m += 1
        return m

    def compare(self, other: "ExactReal") -> int:
        """Exact three-way comparison; handles distinct radicands."""
        d, an, ad, bn, bd = self
        e, cn, cd, en, ed = other
        if d == e and bn == en and bd == ed:
            # One surd part (none for rationals): cross-multiply the rest.
            x, y = an * cd, cn * ad
            return (x > y) - (x < y)
        return _sign_of_difference(self, other)

    def __repr__(self) -> str:
        if self.is_rational:
            return str(self.a)
        a, b = self.a, self.b
        head = f"{a}+" if a else ""
        coef = "" if b == 1 else ("-" if b == -1 else f"{b}*")
        return f"{head}{coef}√{self.d}".replace("+-", "-")


def _sign_of_difference(x: ExactReal, y: ExactReal) -> int:
    """Exact sign of x - y for x and y with different surd parts.  Times
    the positive product of the four denominators, x - y is r + u with
    u = p1*sqrt(d1) - p2*sqrt(d2), on integers r, p1 and p2; a rational
    side has p == 0 and d == 1."""
    d1, an1, ad1, bn1, bd1 = x
    d2, an2, ad2, bn2, bd2 = y
    r = (an1 * ad2 - an2 * ad1) * bd1 * bd2
    da = ad1 * ad2
    p1, p2 = bn1 * bd2 * da, bn2 * bd1 * da
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
