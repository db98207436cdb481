"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are exact equality throughout: every computation here is
exact rational/surd arithmetic, and the runtime budgets are asserted.
"""

from __future__ import annotations

import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from pmsval import (Algebraic, ConstantFrom, Cyclic, ExactReal,
                    GroupDescriptor, INFINITY, PPowerDivisible, PmsDescriptor,
                    PmsKind, StageChain, Tri, Value, is_limit)
from pmsval.cli import _supinf_dict
from pmsval.engine import (DominatingForm, check_pcs_equivalence_iii,
                           check_pds_equivalence_iii, dominating_degree)
from pmsval.groups import component_generator
from pmsval.oracle import cross_check
from pmsval.ranktree import (auto_probes, enumerate_leaves, rank_of_vE,
                             theorem_rank_check)

from gen import (make_descriptor, random_composite_instance,
                 random_descriptor, random_group, random_member,
                 random_padic_instance, random_value)
from oracles import induced_configuration, mirror, monomial_value
from test_exact import random_surd, to_decimal

from pmsval.ranktree import Branch


def _report(name: str, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"{'PASS' if ok else 'FAIL'} {name}{tail}")
    assert ok


def test_criterion_1_rank_example_gamma_plus_z():
    start = time.perf_counter()
    g = GroupDescriptor.of(Cyclic(Fraction(1, 2)), Cyclic(Fraction(1)))
    chain = StageChain((ConstantFrom(ExactReal.rational(Fraction(1, 2)), 0),))
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(1),
                      prefix=tuple(Value.of(Fraction(1, 2), i)
                                   for i in range(6)))
    result = rank_of_vE(E)
    elapsed = time.perf_counter() - start
    ok = (_supinf_dict(E) == {"value": [{"rat": "1/2"}, "inf"],
                              "in_group": False}
          and result.output_rank == 3
          and result.input_rank == 2
          and elapsed < 1.0)
    _report("criterion 1: rank example over (1/2)Z (+) Z -> rank 3", ok,
            f"{elapsed:.3f}s")


def test_criterion_2_rank_example_p_divisible():
    start = time.perf_counter()
    g = GroupDescriptor.of(PPowerDivisible(2, Fraction(1)))
    chain = StageChain((), ExactReal.rational(0), True)
    E = PmsDescriptor(PmsKind.PCS, g, chain=chain, pcs_type=Algebraic(2),
                      prefix=tuple(Value.of(Fraction(-1, 2 ** nu))
                                   for nu in range(8)))
    result = rank_of_vE(E)
    elapsed = time.perf_counter() - start
    ok = (_supinf_dict(E) == {"value": [{"rat": "0"}], "in_group": True}
          and result.output_rank == 2
          and result.alpha == Value.of(0, -1)
          and elapsed < 1.0)
    _report("criterion 2: rank example over Z[1/2^inf] -> rank 2, "
            "alpha=(0,-1)", ok, f"{elapsed:.3f}s")


def test_criterion_3_rank_theorem_randomized():
    rng = random.Random(31415)
    failures = 0
    total = 0
    for n in (1, 2, 3):
        for _ in range(100):
            E = random_descriptor(rng, n)
            out = theorem_rank_check(E)
            total += 1
            if not out.holds:
                failures += 1
            if out.predicate and out.rank_delta != 1:
                failures += 1
            if n == 1 and out.rank_delta == 1 and not out.predicate:
                failures += 1
    _report("criterion 3: rank theorem on 100 random chains per rank 1..3",
            failures == 0, f"{total} instances")


def test_criterion_4_leaf_enumeration():
    rng = random.Random(27182)
    failures = 0
    checked = 0
    for n in (1, 2, 3):
        shapes = enumerate_leaves(n)
        if len(shapes) != 3 * n:
            failures += 1
        for shape in shapes:
            for kind in (PmsKind.PCS, PmsKind.PDS):
                dense = (shape.terminal_level - 1
                         if shape.branch is not Branch.SUP_INFINITE else None)
                group = random_group(rng, n, dense_at=dense)
                E = make_descriptor(rng, group, kind, shape.terminal_level,
                                    shape.branch)
                result = rank_of_vE(E)
                checked += 1
                if result.delta != shape.rank_delta:
                    failures += 1
                if result.output_rank != result.extended_group.rank():
                    failures += 1
    _report("criterion 4: every enumerated leaf realizes its marked rank "
            "delta", failures == 0, f"{checked} walks")


def test_criterion_5_padic_oracle_equivalence():
    rng = random.Random(16180)
    start = time.perf_counter()
    failures = []
    for i in range(110):
        field, terms, phi, tagged, d, beta = random_padic_instance(
            rng, prefix_len=16)
        rep = cross_check(field, terms, [(phi, tagged)], tail_window=8)[0]
        if not (rep.agree and rep.fit == DominatingForm(d, beta)):
            failures.append((i, rep.mismatches))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report("criterion 5: 110 p-adic oracle instances agree exactly "
            "(prefix 16, window 8)", ok, f"{elapsed:.2f}s")


def test_criterion_6_composite_oracle():
    rng = random.Random(14142)
    start = time.perf_counter()
    failures = []
    for i in range(30):
        field, terms, phi, tagged, d, beta, kind = \
            random_composite_instance(rng, prefix_len=9)
        rep = cross_check(field, terms, [(phi, tagged)], tail_window=4)[0]
        if not (rep.agree and rep.kind is kind
                and rep.fit.degree == d and rep.fit.beta == beta):
            failures.append((i, rep.kind, rep.mismatches))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _report("criterion 6: 30 rank-2 rational-function-field oracle instances "
            "agree", ok, f"{elapsed:.2f}s")


def test_criterion_7_mirror_duality():
    rng = random.Random(57721)
    failures = 0
    for _ in range(100):
        E = random_descriptor(rng, rng.randint(1, 3), kind=PmsKind.PCS)
        M = mirror(E)
        r, rm = rank_of_vE(E), rank_of_vE(M)
        if r.delta != rm.delta or rm.alpha != -r.alpha:
            failures += 1
            continue
        good_pcs = check_pcs_equivalence_iii(E, r, auto_probes(E)).holds
        good_pds = check_pds_equivalence_iii(M, rm, auto_probes(M)).holds
        if good_pcs != good_pds or not good_pcs:
            failures += 1
            continue
        # A deliberately misplaced alpha must fail on both sides alike: embed
        # the last witnessed distance value and probe strictly between it
        # and the bound (or anywhere above it when unbounded).
        j = E.chain.terminal_level
        comp = E.group.components[j - 1]
        gen = component_generator(comp)
        last = E.prefix[-1]
        bound = E.chain.bound
        step = gen
        if bound is not None:
            shrink = Fraction(1, comp.p if isinstance(comp, PPowerDivisible)
                              else 2)
            while (last.coords[j - 1] + step).compare(bound) >= 0:
                step = step.scaled(shrink)
        beyond = Value(last.coords[:j - 1]
                       + (last.coords[j - 1] + step,)
                       + last.coords[j:])
        bad_pcs = check_pcs_equivalence_iii(
            E, r._replace(alpha=r.embed(last)),
            list(auto_probes(E)) + [beyond]).holds
        bad_pds = check_pds_equivalence_iii(
            M, rm._replace(alpha=rm.embed(-last)),
            list(auto_probes(M)) + [-beyond]).holds
        if bad_pcs != bad_pds or bad_pcs:
            failures += 1
    _report("criterion 7: mirror duality of rank deltas, alpha and the "
            "chain checkers on 100 instances", failures == 0)


def test_criterion_8_invariant_suites():
    rng = random.Random(2718281)
    failures = []

    # Ultrametric isosceles law on every accepted configuration.
    for _ in range(60):
        E = random_descriptor(rng, rng.randint(1, 2))
        cfg = induced_configuration(E)
        if cfg.isosceles_violation() is not None:
            failures.append("isosceles")

    # Lex total order laws on 1000 random triples.
    for _ in range(1000):
        arity = rng.randint(1, 3)
        x, y, z = (random_value(rng, arity) for _ in range(3))
        if (x < y) + (x == y) + (x > y) != 1:
            failures.append("trichotomy")
        if x <= y and y <= z and not x <= z:
            failures.append("transitivity")

    # Surd comparison against 50-digit decimal evaluation on 1000 surds.
    getcontext().prec = 50
    for _ in range(1000):
        a, b = random_surd(rng), random_surd(rng)
        got = a.compare(b)
        diff = to_decimal(a) - to_decimal(b)
        if got == 0 and abs(diff) > Decimal("1e-30"):
            failures.append("surd-eq")
        if got != 0 and (diff > 0) != (got > 0):
            failures.append("surd-cmp")

    # Dominating-degree additivity on 200 random products.
    for _ in range(200):
        E = random_descriptor(rng, rng.randint(1, 2))
        from pmsval.engine import FactoredRationalFunction, TaggedRoot

        def rand_phi():
            def roots():
                out = []
                for _ in range(rng.randint(0, 2)):
                    if rng.random() < 0.5:
                        out.append(TaggedRoot.limit(rng.randint(1, 2)))
                    else:
                        beta = Value(tuple(random_member(rng, c)
                                           for c in E.group.components))
                        out.append(TaggedRoot.at_distance(beta, rng.randint(1, 2)))
                return tuple(out)
            lead = Value(tuple(random_member(rng, c)
                               for c in E.group.components))
            return FactoredRationalFunction(lead, roots(), roots())

        f, g = rand_phi(), rand_phi()
        df, dg, dfg = (dominating_degree(f, E), dominating_degree(g, E),
                       dominating_degree(FactoredRationalFunction(
                           f.lead_value + g.lead_value,
                           f.num_roots + g.num_roots,
                           f.den_roots + g.den_roots), E))
        if dfg.degree != df.degree + dg.degree or dfg.beta != df.beta + dg.beta:
            failures.append("additivity")

    # Monomial valuation fixes linear pairs of definition.
    for _ in range(100):
        arity = rng.randint(1, 3)
        alpha = random_value(rng, arity)
        zero = Value.of(*[0] * arity)
        if monomial_value([(1, zero), (0, INFINITY)], alpha) != alpha:
            failures.append("monomial")

    # X is a limit of every pcs and of no pds.
    for _ in range(50):
        E = random_descriptor(rng, rng.randint(1, 2), kind=PmsKind.PCS)
        if is_limit("X", E, induced_configuration(E)) is not Tri.TRUE:
            failures.append("pcs-X")
        M = random_descriptor(rng, rng.randint(1, 2), kind=PmsKind.PDS)
        if is_limit("X", M, induced_configuration(M)) is not Tri.FALSE:
            failures.append("pds-X")

    _report("criterion 8: invariant suites (isosceles, lex laws, surd "
            "oracle, additivity, monomial fixed point, X-limit flags)",
            not failures, f"violations={sorted(set(failures))}" if failures else "")
