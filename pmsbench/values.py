"""Exact values in the benchmark's own terms, independent of pmsval.

The generators compute every expected answer with these helpers, so a
change inside pmsval can never move an expectation along with it.

A coordinate is a ``Fraction``, a ``Surd`` a + b*sqrt(d) (b != 0, d
squarefree), or one of the strings ``"inf"`` and ``"-inf"``.  A value is a
tuple of coordinates; the scalar plus-infinity of v(0) is the string
``"INF"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Union

# Squarefree radicands; each problem draws distinct ones from this pool.
RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


@dataclass(frozen=True)
class Surd:
    a: Fraction
    b: Fraction
    d: int


Coord = Union[Fraction, Surd, str]


def surd(a, b, d: int) -> Coord:
    a, b = Fraction(a), Fraction(b)
    return a if b == 0 else Surd(a, b, d)


def add(x: Coord, y: Coord) -> Coord:
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x + y
    if isinstance(x, Fraction):
        x, y = y, x
    if isinstance(y, Fraction):
        return Surd(x.a + y, x.b, x.d)
    if x.d != y.d:
        raise ValueError("no single-radicand sum")
    return surd(x.a + y.a, x.b + y.b, x.d)


def neg(x: Coord) -> Coord:
    if isinstance(x, Fraction):
        return -x
    return Surd(-x.a, -x.b, x.d)


def scale(x: Coord, n: int) -> Coord:
    if n == 0:
        return Fraction(0)
    if isinstance(x, Fraction):
        return x * n
    return Surd(x.a * n, x.b * n, x.d)


def vadd(u: tuple, v: tuple) -> tuple:
    return tuple(add(x, y) for x, y in zip(u, v, strict=True))


def vscale(u: tuple, n: int) -> tuple:
    return tuple(scale(x, n) for x in u)


def sqrt_bounds(d: int, m: int) -> tuple[Fraction, Fraction]:
    """lo < sqrt(d) < hi with hi - lo = 1/m, for non-square d."""
    s = isqrt(d * m * m)
    return Fraction(s, m), Fraction(s + 1, m)


def bounds(x: Coord, m: int = 10 ** 6) -> tuple[Fraction, Fraction]:
    """Rational lo <= x <= hi, strict for surds, width |b|/m."""
    if isinstance(x, Fraction):
        return x, x
    lo, hi = sqrt_bounds(x.d, m)
    ends = (x.a + x.b * lo, x.a + x.b * hi)
    return min(ends), max(ends)


def surd_between(lo: Fraction, hi: Fraction, d: int) -> Surd:
    """A surd over radicand d strictly inside the rational interval (lo, hi)."""
    m = 1
    while Fraction(1, m) >= hi - lo:
        m *= 2
    s_lo, _ = sqrt_bounds(d, m)
    # lo + (sqrt(d) - s_lo) with 0 < sqrt(d) - s_lo < 1/m < hi - lo.
    return Surd(lo - s_lo, Fraction(1), d)


def floor_surd(x: Surd) -> int:
    """floor(a + b*sqrt(d)) exactly, for b > 0."""
    if x.b <= 0:
        raise ValueError("floor_surd needs b > 0")
    den = x.a.denominator * x.b.denominator
    p = x.a.numerator * x.b.denominator
    q = x.b.numerator * x.a.denominator
    # x = (p + q*sqrt(d)) / den with q > 0, den > 0.
    return (p + isqrt(q * q * x.d)) // den


def lower_approximations(x: Coord, count: int) -> list[Fraction]:
    """Strictly increasing rationals converging to an irrational x from below.

    With error e < w/m of the bounds, q_k = lo_k - w/m_k sits in
    (x - 2w/m_k, x - w/m_k); quadrupling m_k makes the sequence increase.
    """
    if isinstance(x, Fraction):
        raise ValueError("lower_approximations needs an irrational x")
    w = abs(x.b)
    out, m = [], 4
    for _ in range(count):
        lo, _ = bounds(x, m)
        out.append(lo - w / m)
        m *= 4
    return out


# ---------------------------------------------------------------------------
# JSON forms


def encode_coord(x: Coord):
    """Problem-file form of a finite coordinate."""
    if isinstance(x, Fraction):
        return str(x)
    return {"surd": {"a": str(x.a), "b": str(x.b), "d": x.d}}


def encode_value(v: tuple) -> list:
    return [encode_coord(x) for x in v]


def decode_report_coord(raw) -> Coord:
    """Coordinate as a pmsval report writes it: {"rat"}, {"surd"} or inf."""
    if raw in ("inf", "-inf"):
        return raw
    if "rat" in raw:
        return Fraction(raw["rat"])
    s = raw["surd"]
    return surd(Fraction(s["a"]), Fraction(s["b"]), s["d"])


def decode_report_value(raw):
    if raw == "inf":
        return "INF"
    return tuple(decode_report_coord(c) for c in raw)


def from_library_value(v) -> Union[tuple, str]:
    """Translate a value object returned by a pmsval library call."""
    if v.coords is None:
        return "INF"
    out = []
    for c in v.coords:
        if hasattr(c, "a"):
            out.append(surd(c.a, c.b, c.d))
        else:  # an infinite coordinate
            out.append("inf" if c.sign > 0 else "-inf")
    return tuple(out)
