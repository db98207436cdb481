"""A fixed computation that paces the machine the benchmark runs on.

On a shared virtual machine the speed of the same code moves by a factor of
two over minutes (a slower clock, a busy sibling hyperthread on the host,
contended caches), and a whole run can fall in a slow stretch.  The
benchmark times this computation next to every problem and reports each
problem's time as a multiple of it, converted back to seconds with
``REFERENCE_S``, so that a stretch that slows both alike cancels out.

The computation is the benchmark's own and never changes with pmsval.  It
does the kind of work pmsval does: exact ``Fraction`` arithmetic, ordering
by a user-defined comparison, dictionary lookups and a JSON round trip.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from functools import total_ordering

# A round figure for the reference's CPU time on the machine the figures
# in README.md were measured on (2-vCPU x86-64 KVM guest, Python 3.11.7),
# where runs saw it take 3.8-5.5 ms.  Multiplying a ratio by it turns the
# ratio back into seconds at that pace.  Changing it rescales every
# end-to-end time, so it stays fixed.
REFERENCE_S = 0.004


@total_ordering
class _Key:
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        self.value = value

    def __eq__(self, other):
        return self.value == other.value

    def __lt__(self, other):
        return self.value < other.value


def reference() -> Fraction:
    rng = random.Random(2107)
    acc = Fraction(0)
    seen: dict[int, str] = {}
    keys = []
    for i in range(1, 160):
        a = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
        acc = acc * Fraction(3, 4) + a
        if acc.denominator > 10 ** 12:
            acc = Fraction(acc.numerator // acc.denominator + 1, i)
        seen[acc.numerator % 101] = str(a)
        keys.append(_Key(a - acc))
    keys.sort()
    text = json.dumps([[k.value.numerator, k.value.denominator]
                       for k in keys] + list(seen.values()))
    back = json.loads(text)
    return acc + Fraction(len(back))


def time_reference() -> float:
    """CPU time of one run of the reference computation."""
    start = time.thread_time()
    reference()
    return time.thread_time() - start
