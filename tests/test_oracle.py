"""Concrete-field valuations, tail-pattern fitting and the tag cross-check."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from pmsval import INFINITY, PmsKind, Value, classify_from_prefix, oracle
from pmsval.engine import DominatingForm, FactoredRationalFunction, TaggedRoot
from pmsval.errors import InvariantError, NotAPms, SchemaError
from pmsval.exact import ExactReal
from pmsval.oracle import (CompositeField, ConcreteRationalFunction,
                           CrossCheckReport, PadicRationals, QtElement,
                           cross_check, fit_pattern, padic_valuation,
                           sequence_configuration)
from pmsval.sequences import DIRECTION, delta_shift, moves, pattern_distance

from gen import random_composite_instance, random_padic_instance, table

F5 = PadicRationals(5)
C5 = CompositeField(5)
T = QtElement.of([0, 1])


def test_padic_valuation_examples():
    assert F5.valuate(Fraction(75, 2)) == Value.of(2)
    assert F5.valuate(Fraction(2, 25)) == Value.of(-2)
    assert F5.valuate(0).is_infinity
    assert padic_valuation(Fraction(12), 2) == 2


def test_padic_valuation_strips_powers_by_squaring():
    def one_at_a_time(q, p):
        v, num, den = 0, q.numerator, q.denominator
        while num % p == 0:
            num, v = num // p, v + 1
        while den % p == 0:
            den, v = den // p, v - 1
        return v

    rng = random.Random(700)
    for _ in range(3000):
        p = rng.choice((2, 3, 5, 7))
        unit = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        q = rng.choice((1, -1)) * unit * Fraction(p) ** rng.randint(-700, 700)
        assert padic_valuation(q, p) == one_at_a_time(q, p)
    assert padic_valuation(Fraction(2) ** 700 * 3, 2) == 700
    assert padic_valuation(Fraction(1, 7 ** 513), 7) == -513
    for p in (0, 1):
        with pytest.raises(InvariantError):
            padic_valuation(Fraction(3), p)


@pytest.mark.parametrize("p", [0, 1, 4])
@pytest.mark.parametrize("field", [PadicRationals, CompositeField])
def test_fields_built_directly_need_a_prime(field, p):
    with pytest.raises(InvariantError, match="must be prime"):
        field(p)


def test_composite_valuation_examples():
    # t^2 * (5/3 + t) has order 2 and lowest coefficient 5/3.
    x = QtElement.of([0, 0, Fraction(5, 3), 1])
    assert C5.valuate(x) == Value.of(2, 1)
    assert C5.valuate(QtElement.of([1], [0, 1])) == Value.of(-1, 0)
    assert C5.valuate(QtElement.of([0])).is_infinity


def test_valuation_axioms_randomized():
    rng = random.Random(4)

    def rand_q():
        return Fraction(rng.randint(-400, 400), rng.randint(1, 60))

    def rand_qt():
        return QtElement.of([rand_q() for _ in range(rng.randint(1, 3))],
                            [rand_q() or 1 for _ in range(rng.randint(1, 2))])

    for field, rand in ((F5, rand_q), (C5, rand_qt)):
        for _ in range(5000):
            x, y = rand(), rand()
            vx, vy = field.valuate(x), field.valuate(y)
            if vx.is_infinity or vy.is_infinity:
                continue
            assert field.valuate(x * y) == vx + vy
            s = field.valuate(x + y)
            assert s.is_infinity or s >= min(vx, vy)


PCS, PDS, PCTS = PmsKind.PCS, PmsKind.PDS, PmsKind.PCTS


def test_fit_pattern_affine_and_constant():
    deltas = [Value.of(k) for k in range(8)]
    assert fit_pattern(PCS, deltas, deltas) == DominatingForm(1, Value.of(0))
    fit = fit_pattern(PCS, deltas, [Value.of(2 * k + 3) for k in range(8)])
    assert fit == DominatingForm(2, Value.of(3))
    const = fit_pattern(PCS, deltas, [Value.of(3)] * 8)
    assert const == DominatingForm(0, Value.of(3))
    ragged = [Value.of(3)] * 7 + [Value.of(4)]
    assert fit_pattern(PCS, deltas, ragged) is None
    with pytest.raises(InvariantError, match="four tail points"):
        fit_pattern(PCS, deltas[:3], deltas[:3])


def test_fit_pattern_needs_four_points():
    deltas = [Value.of(k) for k in range(4)]
    assert fit_pattern(PCS, deltas, deltas) == DominatingForm(1, Value.of(0))
    with pytest.raises(InvariantError, match="four tail points"):
        fit_pattern(PCS, deltas[:3], deltas[:3])


def test_fit_pattern_vector_degree():
    deltas = [Value.of(2, k) for k in range(8)]
    values = [Value.of(4, 2 * k + 1) for k in range(8)]
    assert fit_pattern(PCS, deltas, values) == DominatingForm(2, Value.of(0, 1))
    # A drifting coordinate the distance values never move is unfittable.
    bad = [Value.of(2 * k, k) for k in range(8)]
    assert fit_pattern(PCS, deltas, bad) is None


def test_fit_pattern_reads_only_the_window():
    deltas = [Value.of(Fraction(k, 3)) for k in range(10)]
    values = [Value.of(Fraction(2 * k, 3) + 1) for k in range(10)]
    fit = DominatingForm(2, Value.of(1))
    assert fit_pattern(PCS, deltas, values) == fit
    # Only the last window values are read, so they may come alone, and
    # anything before them is ignored.
    assert fit_pattern(PCS, deltas, values[5:]) == fit
    assert fit_pattern(PCS, deltas, [INFINITY] * 7 + values[7:],
                       tail_window=3) == fit
    assert fit_pattern(PCS, deltas, [INFINITY] * 7 + values[7:],
                       tail_window=4) is None
    with pytest.raises(InvariantError, match="last 5 values"):
        fit_pattern(PCS, deltas, values[6:])


def test_fit_pattern_pds_and_pcts():
    down = [Value.of(-k) for k in range(8)]
    fit = fit_pattern(PDS, down, [Value.of(2 * k + 5) for k in range(8)])
    assert fit == DominatingForm(-2, Value.of(5))
    halves = [Value.of(Fraction(3 * k, 2)) for k in range(8)]
    assert fit_pattern(PDS, down, halves) is None
    flat = [Value.of(3, 1)] * 8
    const = fit_pattern(PCTS, flat, [Value.of(1, k % 2) for k in range(4)]
                        + [Value.of(-2, 7)] * 4)
    assert const == DominatingForm(0, Value.of(-2, 7))
    drift = [Value.of(-2, 7)] * 7 + [Value.of(-2, 8)]
    assert fit_pattern(PCTS, flat, drift) is None


@pytest.mark.parametrize("kind, deltas", [
    (PDS, [Value.of(k) for k in range(8)]),
    (PCTS, [Value.of(k) for k in range(8)]),
    (PCS, [Value.of(8 - k) for k in range(8)]),
    (PCS, [Value.of(1)] * 8),
    # Only the last two deltas are checked against the kind.
    (PCS, [Value.of(k) for k in range(7)] + [Value.of(0)]),
    # The last step falls back, though it still lies above every earlier
    # delta but one.
    (PCS, [Value.of(k) for k in range(6)] + [Value.of(7), Value.of(6)]),
], ids=["pds-rising", "pcts-rising", "pcs-falling", "pcs-flat", "pcs-last-step",
        "pcs-last-step-back"])
def test_fit_pattern_refuses_a_kind_the_deltas_contradict(kind, deltas):
    with pytest.raises(InvariantError,
                       match="^distance prefix is neither monotone nor constant$"):
        fit_pattern(kind, deltas, deltas)


def test_cross_check_5adic_worked_example():
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(13)]
    phi = ConcreteRationalFunction(Fraction(1), (Fraction(-1, 4),), ())
    tagged = FactoredRationalFunction(Value.of(0), (TaggedRoot.limit(),), ())
    rep = cross_check(F5, terms, [(phi, tagged)])[0]
    assert rep.agree and rep.kind is PmsKind.PCS
    assert rep.fit.degree == 1 and rep.fit.beta == Value.of(0)
    assert rep.delta_prefix[:3] == (Value.of(1), Value.of(2), Value.of(3))


def test_cross_check_flags_mistag():
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(13)]
    phi = ConcreteRationalFunction(Fraction(1), (Fraction(-1, 4),), ())
    mis = FactoredRationalFunction(
        Value.of(0), (TaggedRoot.at_distance(Value.of(0)),), ())
    rep = cross_check(F5, terms, [(phi, mis)])[0]
    assert not rep.agree
    assert any("num[0]" in m for m in rep.mismatches)


def test_cross_check_overall_catches_a_wrong_degree_or_beta_alone():
    # X + 1/4 has the limit -1/4 as its root: the fit is d = 1, beta = 0.
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(13)]
    phi = ConcreteRationalFunction(Fraction(1), (Fraction(-1, 4),), ())
    # The limit tagged at distance 0 gives d = 0 and the same beta; a wrong
    # lead value gives the same d and beta = 1.
    wrong_d = FactoredRationalFunction(
        Value.of(0), (TaggedRoot.at_distance(Value.of(0)),), ())
    wrong_beta = FactoredRationalFunction(Value.of(1), (TaggedRoot.limit(),), ())
    rep_d, rep_beta = cross_check(F5, terms, [(phi, wrong_d), (phi, wrong_beta)])
    assert (rep_d.tagged_form.degree, rep_d.tagged_form.beta) == (0, Value.of(0))
    assert (rep_beta.tagged_form.degree, rep_beta.tagged_form.beta) \
        == (1, Value.of(1))
    for rep in (rep_d, rep_beta):
        assert (rep.fit.degree, rep.fit.beta) == (1, Value.of(0))
        assert not rep.agree
        assert rep.mismatches[-1].startswith("overall: oracle fit d=1")
    # The roots of the wrong lead are tagged right: only the overall check
    # sees it.
    assert len(rep_beta.mismatches) == 1


def test_cross_check_composite_worked_example():
    terms = [T + QtElement.of([0, 0, 5 ** nu]) for nu in range(9)]
    phi = ConcreteRationalFunction(QtElement.constant(1), (T,), ())
    tagged = FactoredRationalFunction(Value.of(0, 0), (TaggedRoot.limit(),), ())
    rep = cross_check(C5, terms, [(phi, tagged)])[0]
    assert rep.agree
    assert rep.fit.degree == 1
    assert rep.delta_prefix[0] == Value.of(2, 0)


def test_random_padic_instances_agree():
    rng = random.Random(1001)
    for _ in range(30):
        field, terms, phi, tagged, d, beta = random_padic_instance(rng)
        rep = cross_check(field, terms, [(phi, tagged)], tail_window=8)[0]
        assert rep.agree, rep.mismatches
        assert rep.fit.degree == d and rep.fit.beta == beta


def test_random_composite_instances_agree():
    rng = random.Random(1002)
    for _ in range(20):
        field, terms, phi, tagged, d, beta, kind = random_composite_instance(rng)
        rep = cross_check(field, terms, [(phi, tagged)], tail_window=4)[0]
        assert rep.kind is kind
        assert rep.agree, rep.mismatches
        assert rep.fit.degree == d and rep.fit.beta == beta


def reference_fit(deltas, values, tail_window=None) -> Optional[DominatingForm]:
    """The fit as it was before it took the kind: every aligned value, the
    direction from a scan of the whole prefix, d by Fraction division."""
    m = min(len(deltas), len(values))
    if m < 4:
        raise InvariantError("pattern fitting needs at least four tail points")
    window = tail_window if tail_window is not None else m // 2
    window = max(2, min(window, m))
    tail = range(m - window, m)
    if any(values[i].is_infinity for i in tail):
        return None
    if moves(deltas, 0):
        if moves(values[m - window:m], 0):
            return DominatingForm(0, values[m - 1])
        return None
    assert moves(deltas, 1) or moves(deltas, -1)
    # d from the first nonzero part of the last step, then checked on the
    # whole step by Value arithmetic.
    ddelta, dvalue = deltas[m - 1] - deltas[m - 2], values[m - 1] - values[m - 2]
    q = next((y / x for c, e in zip(ddelta.coords, dvalue.coords)
              for x, y in ((c.a, e.a), (c.b, e.b)) if x), Fraction(0))
    d = int(q)
    if q != d or dvalue != ddelta.scale(d):
        return None
    beta = values[m - 1] - deltas[m - 1].scale(d)
    if any(values[i] != deltas[i].scale(d) + beta for i in tail):
        return None
    return DominatingForm(d, beta)


seeded = settings(max_examples=300, deadline=None, derandomize=True,
                  database=None)


def random_exact(rng: random.Random, radicand: int) -> ExactReal:
    """A rational, often not an integer, or a surd over radicand."""
    a = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4)))
    if rng.random() < 0.4:
        b = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
        return ExactReal.surd(a, b, radicand)
    return ExactReal.rational(a)


def random_window(seed: int):
    """A kind, m aligned deltas and values and a tail window.  The deltas
    move by steps, mostly rational, the first coordinate's in the kind's
    direction, from starts that may be surds, all over one radicand; the
    values lie on d*delta + beta with d
    in -2..3, up to two of them moved off the line or set to v(0)."""
    rng = random.Random(seed)
    arity, radicand, m = rng.randint(1, 3), rng.choice((2, 3, 5)), \
        rng.randint(4, 12)
    kind, d = rng.choice((PCS, PDS, PCTS)), rng.randint(-2, 3)
    zero = ExactReal.rational(0)
    steps = [random_exact(rng, radicand) if rng.random() < 0.2 else
             ExactReal.rational(Fraction(rng.randint(-5, 5),
                                         rng.choice((1, 2, 3))))
             for _ in range(arity)]
    if steps[0] == zero:
        steps[0] = ExactReal.rational(Fraction(1, 2))
    if steps[0].compare(zero) != DIRECTION[kind]:
        steps[0] = -steps[0]
    if kind is PCTS:
        steps = [zero] * arity
    starts = [random_exact(rng, radicand) for _ in range(arity)]
    deltas = [Value(tuple(s + t.scaled(k) for s, t in zip(starts, steps)))
              for k in range(m)]
    beta = Value(tuple(random_exact(rng, radicand) for _ in range(arity)))
    values = [delta.scale(d) + beta for delta in deltas]
    for _ in range(rng.choice((0, 0, 1, 2))):
        k = rng.randrange(m)
        if rng.random() < 0.25:
            values[k] = INFINITY
        elif not values[k].is_infinity:
            i = rng.randrange(arity)
            shift = random_exact(rng, radicand)
            coords = list(values[k].coords)
            coords[i] = coords[i] + (shift if shift != zero
                                     else ExactReal.rational(1))
            values[k] = Value(tuple(coords))
    return kind, deltas, values, rng.choice((None, 2, 3, m // 2, m, m + 3))


@seeded
@given(st.integers(0, 2 ** 32))
def test_fit_pattern_agrees_with_value_arithmetic(seed):
    kind, deltas, values, tail_window = random_window(seed)
    assert fit_pattern(kind, deltas, values, tail_window) == \
        reference_fit(deltas, values, tail_window)


surd = ExactReal.surd


@pytest.mark.parametrize("deltas, values", [
    # The rational and surd parts of 2 + sqrt(3) match d*delta + beta =
    # 2 + sqrt(2), but not the radicand.
    ([Value.of(k) for k in range(6)],
     [Value.of(surd(k, 1, 3 if k == 2 else 2)) for k in range(6)]),
    # beta = sqrt(2) and a rational value with the right rational part.
    ([Value.of(k) for k in range(6)],
     [Value.of(surd(k, 1, 2)) if k > 2 else Value.of(k) for k in range(6)]),
    # The same in a second coordinate, over fractions.
    ([Value.of(k, Fraction(1, 3)) for k in range(6)],
     [Value.of(2 * k, surd(Fraction(1, 2), Fraction(-2, 3), 5) if k != 2
               else Fraction(1, 2)) for k in range(6)]),
    # 3 + 2*sqrt(2) has the parts of d*delta + beta = 3 + sqrt(3) +
    # sqrt(2), which lies on no one radicand.
    ([Value.of(surd(k, 1, 3)) if k < 4 else Value.of(k) for k in range(6)],
     [Value.of(surd(k, 2 if k < 4 else 1, 2)) for k in range(6)]),
    # A value of another arity.
    ([Value.of(k) for k in range(6)],
     [Value.of(k, 0) if k == 3 else Value.of(k) for k in range(6)]),
], ids=["other-radicand", "rational-value-surd-beta", "second-coordinate",
        "two-radicands", "other-arity"])
def test_fit_pattern_sees_points_off_the_line_with_its_rational_parts(
        deltas, values):
    assert fit_pattern(PCS, deltas, values, tail_window=6) is None


def test_fit_pattern_keeps_a_surd_beta_on_the_line():
    # delta = k + sqrt(3) and value = 2k + 1 - sqrt(3): beta = 1 - 3*sqrt(3).
    deltas = [Value.of(surd(k, 1, 3)) for k in range(6)]
    values = [Value.of(surd(2 * k + 1, -1, 3)) for k in range(6)]
    assert fit_pattern(PCS, deltas, values, tail_window=6) == \
        DominatingForm(2, Value.of(surd(1, -3, 3)))
    # d = 0: the deltas' radicand is not read.
    flat = [Value.of(surd(Fraction(1, 2), Fraction(5, 2), 5))] * 6
    assert fit_pattern(PCS, deltas, flat, tail_window=6) == \
        DominatingForm(0, flat[0])


@pytest.mark.parametrize("deltas, values, fit", [
    # A last step of 1 + sqrt(2) against 0: d = 0 and beta = 7.
    ([Value.of(k) for k in range(5)] + [Value.of(surd(5, 1, 2))],
     [Value.of(7)] * 6, DominatingForm(0, Value.of(7))),
    # delta = k*sqrt(2) and value = 2k*sqrt(2) + 1.
    ([Value.of(surd(0, k, 2)) for k in range(1, 7)],
     [Value.of(surd(1, 2 * k, 2)) for k in range(1, 7)],
     DominatingForm(2, Value.of(1))),
    # A step of sqrt(2) against 2*sqrt(3): no d.
    ([Value.of(k) for k in range(5)] + [Value.of(surd(4, 1, 2))],
     [Value.of(2 * k) for k in range(5)] + [Value.of(surd(8, 2, 3))], None),
], ids=["constant", "surd-degree", "other-radicand"])
def test_fit_pattern_solves_the_degree_on_surd_steps(deltas, values, fit):
    assert fit_pattern(PCS, deltas, values, tail_window=6) == fit


def random_rows(seed: int):
    """A lead and one term's num and den entries over one radicand; num
    entries may be v(0)."""
    rng = random.Random(seed)
    arity, radicand = rng.randint(1, 3), rng.choice((2, 3, 5))

    def value():
        return Value(tuple(random_exact(rng, radicand) for _ in range(arity)))

    num = [INFINITY if rng.random() < 0.1 else value()
           for _ in range(rng.randint(0, 4))]
    return value(), num, [value() for _ in range(rng.randint(0, 4))]


@seeded
@given(st.integers(0, 2 ** 32))
def test_term_value_is_the_value_sum(seed):
    lead, num, den = random_rows(seed)
    total = oracle._term_value(lead, num, den)
    assert total == sum(num + [-x for x in den], lead)
    assert total.is_infinity == any(v.is_infinity for v in num)


def test_term_value_at_v0():
    lead, one = Value.of(1, 2), Value.of(surd(0, 1, 2), 3)
    assert oracle._term_value(lead, [one, INFINITY], [one]) is INFINITY
    assert oracle._term_value(INFINITY, [one], [one]) is INFINITY
    assert oracle._term_value(lead, [], []) == lead
    assert oracle._term_value(lead, [one], [one]) == lead


def reference_cross_check(field, terms, phi, tagged, tail_window):
    """cross_check of one function with every term valuated: over (Q, v_p)
    f(z_nu) is computed in Q and valuated, over Q(t) the factor valuations
    are summed at every term."""
    kind, deltas = classify_from_prefix(sequence_configuration(field, terms))
    shift = delta_shift(kind)
    aligned = terms[shift:shift + len(deltas)]
    if any(z == b for b in phi.den_roots for z in terms):
        raise InvariantError("evaluation at a pole")
    num = [[field.valuate(z - a) for z in aligned] for a in phi.num_roots]
    den = [[field.valuate(z - b) for z in aligned] for b in phi.den_roots]
    if isinstance(field, PadicRationals):
        def f(z):
            out = phi.lead
            for a in phi.num_roots:
                out *= z - a
            for b in phi.den_roots:
                out /= z - b
            return out
        values = [field.valuate(f(z)) for z in aligned]
    else:
        lead = field.valuate(phi.lead)
        values = [sum([row[k] for row in num] + [-row[k] for row in den], lead)
                  for k in range(len(aligned))]
    fit = reference_fit(deltas, values, tail_window)
    mismatches = []
    for side, rows, tags in (("num", num, tagged.num_roots),
                             ("den", den, tagged.den_roots)):
        for idx, (row, tag) in enumerate(zip(rows, tags)):
            root_fit = reference_fit(deltas, row, tail_window)
            limit = root_fit is not None and root_fit.degree == 1 and \
                root_fit.beta == Value.of(*[0] * root_fit.beta.arity)
            beta = root_fit.beta if root_fit is not None and \
                root_fit.degree == 0 else None
            if (tag.is_limit, tag.beta) != (limit, beta):
                mismatches.append(
                    f"{side}[{idx}]: declared "
                    f"{'limit' if tag.is_limit else f'beta={tag.beta}'}, "
                    f"oracle saw {'limit' if limit else f'beta={beta}'}")
    form = tagged.dominating_form()
    if fit is not None and (fit.degree, fit.beta) != (form.degree, form.beta):
        mismatches.append(
            f"overall: oracle fit d={fit.degree}, beta={fit.beta}; tags give "
            f"d={form.degree}, beta={form.beta}")
    return CrossCheckReport(kind, tuple(deltas), fit, form, tuple(mismatches))


def with_root(phi, tagged, side, root):
    """phi and tagged with root, tagged as a limit, added on side."""
    concrete = {"num_roots": phi.num_roots, "den_roots": phi.den_roots}
    tags = {"num_roots": tagged.num_roots, "den_roots": tagged.den_roots}
    concrete[side] += (root,)
    tags[side] += (TaggedRoot.limit(),)
    return (ConcreteRationalFunction(phi.lead, **concrete),
            FactoredRationalFunction(tagged.lead_value, **tags))


@pytest.mark.parametrize("window", [None, 2, 3, "N"])
def test_cross_check_matches_the_every_term_reference(monkeypatch, window):
    fits = []
    inner = oracle.fit_pattern
    monkeypatch.setattr(oracle, "fit_pattern",
                        lambda *args: fits.append(args) or inner(*args))
    rng = random.Random(1008)
    for make in [random_padic_instance] * 8 + [random_composite_instance] * 8:
        field, terms, phi, tagged = make(rng)[:4]
        tail_window = len(terms) if window == "N" else window
        # A numerator root at z_0 makes v(f(z_0)) infinite; only a window
        # that reaches z_0 (a pcs with window N) may see it.
        for f, t in ((phi, tagged),
                     with_root(phi, tagged, "num_roots", terms[0])):
            expected = reference_cross_check(field, terms, f, t, tail_window)
            assert cross_check(field, terms, [(f, t)],
                               tail_window=tail_window) == [expected]
        fits.clear()
        pole = with_root(phi, tagged, "den_roots", terms[0])
        with pytest.raises(InvariantError, match="evaluation at a pole"):
            cross_check(field, terms, [pole], tail_window=tail_window)
        assert fits == []


def test_sequence_configuration_classifies():
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(6)]
    cfg = sequence_configuration(F5, terms)
    kind, prefix = classify_from_prefix(cfg)
    assert kind is PmsKind.PCS and prefix[0] == Value.of(1)
    # Reversing a convergent construction yields the divergent mirror.
    kind2, _ = classify_from_prefix(sequence_configuration(F5, terms[::-1]))
    assert kind2 is PmsKind.PDS


def test_monotone_sequence_distances_follow_the_pattern():
    rng = random.Random(1006)
    kinds = set()
    for make in [random_padic_instance] * 8 + [random_composite_instance] * 8:
        field, terms = make(rng)[:2]
        for seq in (terms, terms[::-1]):
            cfg = sequence_configuration(field, seq)
            assert len(table(cfg)) == len(seq) - 1
            kind, deltas = classify_from_prefix(cfg)
            kinds.add(kind)
            for i in range(len(seq)):
                for j in range(i + 1, len(seq)):
                    assert field.valuate(seq[i] - seq[j]) == \
                        pattern_distance(kind, deltas, i, j)
    assert kinds == {PmsKind.PCS, PmsKind.PDS}


@pytest.mark.parametrize("terms", [[0, 5, 30, 35], [0, 5, 25]],
                         ids=["up-down", "equal-steps-far-pair-off"])
def test_non_monotone_sequence_keeps_the_full_table(monkeypatch, terms):
    calls = counting_valuate(monkeypatch, PadicRationals)
    cfg = sequence_configuration(F5, [Fraction(z) for z in terms])
    n = len(terms)
    assert len(calls) == len(table(cfg)) == n * (n - 1) // 2
    with pytest.raises(NotAPms, match="^consecutive distances are neither "
                       "strictly increasing, strictly decreasing, nor all "
                       "equal$"):
        classify_from_prefix(cfg)


def test_sequence_configuration_names_equal_terms():
    with pytest.raises(InvariantError, match="^sequence terms 1 and 2 are equal$"):
        sequence_configuration(F5, [Fraction(z) for z in (1, 6, 6, 31)])


def test_qt_element_arithmetic():
    x = QtElement.of([1, 2], [1])
    y = QtElement.of([0, 1])
    assert not x * y - y * x
    assert x - x == QtElement.of([0])
    zero = QtElement.of([0])
    assert (x + zero).num == (zero + x).num == x.num
    # Equal elements written over different denominators.
    assert QtElement.of([0, 2], [2]) == y
    assert QtElement.of([1], [2]) != QtElement.of([1])
    with pytest.raises(InvariantError):
        QtElement.of([1], [0])


def test_equal_denominators_subtract_without_multiplying(monkeypatch):
    calls = []
    inner = oracle._poly_mul

    def counting(a, b):
        calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(oracle, "_poly_mul", counting)
    den = [1, 0, 3]
    x, y = QtElement.of([2, 0, 0, 5], den), QtElement.of([2, 1], den)
    diff = x - y
    assert calls == []
    assert diff.num == ((1, Fraction(-1)), (3, Fraction(5)))
    assert diff.den == ((0, Fraction(1)), (2, Fraction(3)))
    assert not x - x and x == x and calls == []
    # Distinct denominators still cross-multiply.
    assert QtElement.of([1], [1, 1]) - x
    assert len(calls) == 3


def test_qt_elements_are_sparse():
    x = QtElement.of(["0", "7/2"] + ["0"] * 40 + ["-1"], ["5", "0", "0/4"])
    assert x.num == ((1, Fraction(7, 2)), (42, Fraction(-1)))
    assert x.den == ((0, Fraction(5)),)
    assert (x + x).num == ((1, Fraction(7)), (42, Fraction(-2)))
    assert C5.valuate(x) == Value.of(1, -1)
    with pytest.raises(TypeError, match="not hashable"):
        hash(x)


def counting_valuate(monkeypatch, field_cls) -> list:
    calls: list = []
    inner = field_cls.valuate

    def valuate(self, x):
        calls.append(x)
        return inner(self, x)
    monkeypatch.setattr(field_cls, "valuate", valuate)
    return calls


def test_cross_check_valuates_each_factor_once(monkeypatch):
    rng = random.Random(1003)
    instances = ([random_padic_instance(rng)[:4] + (8,) for _ in range(6)]
                 + [random_composite_instance(rng)[:4] + (4,)
                    for _ in range(4)])
    calls = counting_valuate(monkeypatch, PadicRationals)
    calls_qt = counting_valuate(monkeypatch, CompositeField)
    for field, terms, phi, tagged, window in instances:
        n, r = len(terms), len(phi.num_roots) + len(phi.den_roots)
        calls.clear()
        calls_qt.clear()
        assert cross_check(field, terms, [(phi, tagged)],
                           tail_window=window)[0].agree
        # The lead once, then each root at the window's tail terms.
        assert len(calls) + len(calls_qt) == n - 1 + 1 + window * r


def test_cross_check_pole_raises_before_any_fit(monkeypatch):
    fits = []
    monkeypatch.setattr(oracle, "fit_pattern",
                        lambda *args: fits.append(args) or fit_pattern(*args))
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(13)]
    tagged = FactoredRationalFunction(
        Value.of(0), (TaggedRoot.limit(),), (TaggedRoot.at_distance(Value.of(1)),))
    for pole in (terms[0], terms[7], terms[-1]):
        phi = ConcreteRationalFunction(Fraction(1), (Fraction(-1, 4),), (pole,))
        with pytest.raises(InvariantError, match="evaluation at a pole"):
            cross_check(F5, terms, [(phi, tagged)])
    # Too short for a fit: the pole is still what is reported.
    phi = ConcreteRationalFunction(Fraction(1), (Fraction(-1, 4),), (terms[1],))
    with pytest.raises(InvariantError, match="evaluation at a pole"):
        cross_check(F5, terms[:4], [(phi, tagged)])
    assert fits == []
    with pytest.raises(InvariantError, match="four tail points"):
        cross_check(F5, terms[:4], [(ConcreteRationalFunction(
            Fraction(1), (Fraction(-1, 4),), (Fraction(7),)), tagged)])


def test_cross_check_valuates_the_sequence_once_for_all_functions(monkeypatch):
    rng = random.Random(1004)
    calls = counting_valuate(monkeypatch, PadicRationals)
    calls_qt = counting_valuate(monkeypatch, CompositeField)
    for make in [random_padic_instance] * 4 + [random_composite_instance] * 3:
        field, terms, phi, tagged = make(rng)[:4]
        # Functions of further instances, evaluated along these terms.
        functions = [(phi, tagged)] + [make(rng)[2:4]
                                       for _ in range(rng.randint(1, 3))]
        n = len(terms)
        window = (n - 1) // 2  # the default: half of the n - 1 distances
        expected = n - 1 + sum(
            1 + window * (len(f.num_roots) + len(f.den_roots))
            for f, _ in functions)
        calls.clear()
        calls_qt.clear()
        reports = cross_check(field, terms, functions)
        assert len(reports) == len(functions) and reports[0].agree
        assert len(calls) + len(calls_qt) == expected


def test_cross_check_refuses_a_misshaped_function_before_valuating(
        monkeypatch):
    calls = counting_valuate(monkeypatch, PadicRationals)
    terms = [Fraction(5 ** (nu + 1) - 1, 4) for nu in range(13)]
    tagged = FactoredRationalFunction(Value.of(0), (TaggedRoot.limit(),), ())
    # The first function has a pole at a term, the second one root too few.
    pole = ConcreteRationalFunction(Fraction(1), (Fraction(-1, 4),), (terms[3],))
    misshaped = ConcreteRationalFunction(Fraction(1), (), ())
    with pytest.raises(SchemaError, match="differ in shape"):
        cross_check(F5, terms, [(pole, tagged), (misshaped, tagged)])
    assert calls == []
