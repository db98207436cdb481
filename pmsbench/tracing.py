"""Traced runs: wrappers around the public functions of each pmsval layer.

The wrappers live here, in the benchmark, so the program itself carries no
timing code.  Each wrapped call records a span (name, problem id, parent
span, start, end, self time) and a count.  Calls of the four hottest
boundaries -- Value.compare, ExactReal.compare, component_contains and the
oracle's valuate -- number in the millions per run, so their spans are
folded into one record per (name, parent span) holding the call count and
the summed durations; every other call keeps its own span.  Self time is a
span's duration minus the time its child spans cover.

Several functions are bound by ``from .x import f`` in more than one module
(``classify_from_prefix`` in oracle, the chain checks in ranktree, the
sequence helpers in engine, everything in ``pmsval/__init__``), so a
function is replaced in every pmsval module namespace that binds it, not
only where it is defined.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps
from importlib import import_module

ORACLE, WITNESS, SYMBOLIC = "oracle-sweep", "witness-config", "symbolic-batch"
ALL = (ORACLE, WITNESS, SYMBOLIC)

# Span name -> the (module, attribute path) bindings it wraps.
TARGETS = {
    "cli.main": [("pmsval.cli", "main")],
    "cli.build_parser": [("pmsval.cli", "build_parser")],
    "jsonio.loads_problem": [("pmsval.jsonio", "loads_problem")],
    "jsonio.dump_report": [("pmsval.jsonio", "dump_report")],
    "sequences.UltrametricConfiguration.build":
        [("pmsval.sequences", "UltrametricConfiguration.build")],
    "sequences.isosceles_violation":
        [("pmsval.sequences", "UltrametricConfiguration.isosceles_violation")],
    "sequences.classify_from_prefix":
        [("pmsval.sequences", "classify_from_prefix")],
    "sequences.is_limit": [("pmsval.sequences", "is_limit")],
    "sequences.limit_dichotomy_check":
        [("pmsval.sequences", "limit_dichotomy_check")],
    "sequences.PmsDescriptor.validate":
        [("pmsval.sequences", "PmsDescriptor.validate")],
    "ranktree.rank_of_vE": [("pmsval.ranktree", "rank_of_vE")],
    "ranktree.auto_probes": [("pmsval.ranktree", "auto_probes")],
    "engine.v_e": [("pmsval.engine", "v_e")],
    "engine.dominating_degree": [("pmsval.engine", "dominating_degree")],
    "engine.extension_report": [("pmsval.engine", "extension_report")],
    "engine.check_pcs_equivalence_iii":
        [("pmsval.engine", "check_pcs_equivalence_iii")],
    "engine.check_pds_equivalence_iii":
        [("pmsval.engine", "check_pds_equivalence_iii")],
    "oracle.valuate": [("pmsval.oracle", "PadicRationals.valuate"),
                       ("pmsval.oracle", "CompositeField.valuate")],
    "oracle.sequence_configuration":
        [("pmsval.oracle", "sequence_configuration")],
    "oracle.fit_pattern": [("pmsval.oracle", "fit_pattern")],
    "oracle.cross_check": [("pmsval.oracle", "cross_check")],
    "groups.Value.compare": [("pmsval.groups", "Value.compare")],
    "groups.component_contains": [("pmsval.groups", "component_contains")],
    "exact.ExactReal.compare": [("pmsval.exact", "ExactReal.compare")],
}
HOT = {"groups.Value.compare", "exact.ExactReal.compare",
       "groups.component_contains", "oracle.valuate"}

# Per-layer metric -> (unit, workloads on which its traced count must be
# non-zero).  The oracle counters must be zero on the other workloads.
LAYER_METRICS = {
    "cli.main.total_s": ("s", ALL),
    "cli.build_parser.total_s": ("s", ALL),
    "jsonio.loads_problem.total_s": ("s", ALL),
    "jsonio.dump_report.total_s": ("s", ALL),
    "sequences.UltrametricConfiguration.build.total_s": ("s", (ORACLE, WITNESS)),
    "sequences.isosceles_violation.self_s": ("s", (ORACLE, WITNESS)),
    "sequences.classify_from_prefix.calls": ("count", (ORACLE, WITNESS)),
    "sequences.classify_from_prefix.calls_per_config":
        ("ratio", (ORACLE, WITNESS)),
    "sequences.classify_from_prefix.self_s": ("s", (ORACLE, WITNESS)),
    "sequences.is_limit.total_s": ("s", (WITNESS,)),
    "sequences.limit_dichotomy_check.total_s": ("s", (WITNESS,)),
    "sequences.PmsDescriptor.validate.total_s": ("s", ALL),
    "ranktree.rank_of_vE.calls": ("count", (WITNESS, SYMBOLIC)),
    "ranktree.rank_of_vE.calls_per_problem": ("ratio", (WITNESS, SYMBOLIC)),
    "ranktree.rank_of_vE.total_s": ("s", (WITNESS, SYMBOLIC)),
    "ranktree.auto_probes.calls": ("count", (WITNESS, SYMBOLIC)),
    "engine.v_e.total_s": ("s", (SYMBOLIC,)),
    "engine.dominating_degree.calls": ("count", (ORACLE, SYMBOLIC)),
    "engine.extension_report.total_s": ("s", (WITNESS, SYMBOLIC)),
    "engine.check_pcs_equivalence_iii.total_s": ("s", (WITNESS, SYMBOLIC)),
    "engine.check_pds_equivalence_iii.total_s": ("s", (WITNESS, SYMBOLIC)),
    "oracle.valuate.calls": ("count", (ORACLE,)),
    "oracle.valuate.self_s": ("s", (ORACLE,)),
    "oracle.sequence_configuration.total_s": ("s", (ORACLE,)),
    "oracle.fit_pattern.calls": ("count", (ORACLE,)),
    "oracle.cross_check.total_s": ("s", (ORACLE,)),
    "groups.Value.compare.calls": ("count", ALL),
    "groups.Value.compare.self_s": ("s", ALL),
    "groups.component_contains.calls": ("count", ALL),
    "exact.ExactReal.compare.calls": ("count", ALL),
    # The argument-shape split of ExactReal.compare is an expectation about
    # shares, not a must-be-non-zero fact: rational fast paths may move it.
    "exact.compare.rational_calls": ("count", ()),
    "exact.compare.same_radicand_calls": ("count", ()),
    "exact.compare.mixed_radicand_calls": ("count", ()),
    "exact.ExactReal.compare.self_s": ("s", ALL),
    "bench.untraced_problems_per_s": ("1/s", ALL),
    "bench.traced_problems_per_s": ("1/s", ALL),
    "bench.trace_overhead_problems_per_s": ("1/s", ()),
}


def _compare_shape(args) -> int:
    """0 rational, 1 one radicand, 2 two distinct radicands.

    ExactReal keeps d == 1 exactly for rationals, so the radicands say it.
    """
    x, y = args[0].d, args[1].d
    if x == 1 and y == 1:
        return 0
    if x == y or x == 1 or y == 1:
        return 1
    return 2


class Tracer:
    """Spans and counters for one traced pass; install() patches pmsval."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.spans: list = []   # (name, problem, parent, start, end, self_s)
        self.folded: dict = {}  # (name, parent) -> [calls, total, self_s]
        self.stack = [[-1, 0.0]]  # frames: [span id, time of children]
        self.problem = None
        self.shapes = [0, 0, 0]
        self.configs: dict = {}  # configurations classified, this problem
        self.configs_classified = 0
        self.problems = 0
        self._restore: list = []

    # -- per-problem bookkeeping -------------------------------------------

    def begin(self, pid: int) -> None:
        self.problem = pid

    def end(self) -> None:
        self.problems += 1
        self.configs_classified += len(self.configs)
        self.configs.clear()
        self.problem = None

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, func, depth: list):
        st = self.stats[name]
        stack, spans, folded = self.stack, self.spans, self.folded
        hot = name in HOT
        clock = time.thread_time
        tracer = self
        shapes = self.shapes
        note = None
        if name == "exact.ExactReal.compare":
            def note(args):
                shapes[_compare_shape(args)] += 1
        elif name == "sequences.classify_from_prefix":
            def note(args):
                tracer.configs[id(args[0])] = args[0]

        @wraps(func)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            parent = stack[-1]
            if hot:
                frame = [parent[0], 0.0]
            else:
                frame = [len(spans), 0.0]
                spans.append(None)
            stack.append(frame)
            depth[0] += 1
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                depth[0] -= 1
                parent[1] += dur
                self_s = dur - frame[1]
                st[0] += 1
                st[2] += self_s
                if depth[0] == 0:  # recursion counts once in total time
                    st[1] += dur
                if hot:
                    rec = folded.get((name, frame[0]))
                    if rec is None:
                        rec = folded[(name, frame[0])] = [0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += self_s
                else:
                    spans[frame[0]] = (name, tracer.problem, parent[0], start,
                                       start + dur, self_s)
        return wrapper

    def install(self) -> None:
        """Wrap every target at every pmsval binding of it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "pmsval" or n.startswith("pmsval.")]
        for name, bindings in TARGETS.items():
            depth = [0]
            for modname, path in bindings:
                owner = import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                if outer:  # a method: the class attribute is the one binding
                    raw = owner.__dict__[attr]
                    func = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = self._wrap(name, func, depth)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                func = getattr(owner, attr)
                wrapped = self._wrap(name, func, depth)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is func:
                            self._restore.append((mod, key, func))
                            setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Every traced per-layer metric except the bench.* rates."""
        out = {}
        for name in TARGETS:
            calls, total, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out["exact.compare.rational_calls"] = self.shapes[0]
        out["exact.compare.same_radicand_calls"] = self.shapes[1]
        out["exact.compare.mixed_radicand_calls"] = self.shapes[2]
        classify = self.stats["sequences.classify_from_prefix"][0]
        out["sequences.classify_from_prefix.calls_per_config"] = (
            classify / self.configs_classified if self.configs_classified
            else 0.0)
        out["ranktree.rank_of_vE.calls_per_problem"] = (
            self.stats["ranktree.rank_of_vE"][0] / max(self.problems, 1))
        return out

    def dump(self) -> dict:
        return {
            "fields": ["name", "problem", "parent", "start", "end", "self_s"],
            "spans": self.spans,
            "folded": [{"name": n, "parent": p, "calls": c, "total_s": t,
                        "self_s": s} for (n, p), (c, t, s)
                       in self.folded.items()],
        }


def layer_violations(workload: str, metrics: dict) -> list[str]:
    """Where the traced counts break the layer map for this workload."""
    out = []
    for name, (_, nonzero) in LAYER_METRICS.items():
        if workload in nonzero and not metrics[name]:
            out.append(f"{name} is zero on {workload}")
        if name.startswith("oracle.") and workload != ORACLE and metrics[name]:
            out.append(f"{name} is non-zero on {workload}")
    return out
