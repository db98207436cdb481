"""Module structure of the package: imports sit at module top, the
intra-package import graph has no cycle (sequences -> ranktree -> engine,
never back), every top-level definition has a caller, only sequences
and jsonio read the terminal of a stage chain, only build constructs a
configuration, only the modules at Fraction's edges import fractions,
no module imports dataclasses, so a cold start loads neither it nor
inspect, and no parameter that every package caller passes has a
default."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

from pmsval.sequences import StageChain

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pmsval"

# Top-level definitions no other package code loads, each kept for the
# caller outside the package named here, until the roadmap item named here
# frees it.
OUTSIDE_CALLERS = {
    "is_limit": ("pmsbench/workloads.py",
                 "the witness-config workload calls it, until item 9"),
    "limit_dichotomy_check": ("pmsbench/workloads.py",
                              "the witness-config workload calls it, "
                              "until item 9"),
    "theorem_rank_check": ("tests/test_acceptance.py",
                           "criterion 3, until item 14"),
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _local_imports(tree: ast.Module, modules: set[str]) -> set[str]:
    """Sibling modules named by the import statements of one module."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(a.name for a in node.names if a.name in modules)
            elif node.module and node.module.startswith("pmsval."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("pmsval."))
    return out


def test_no_import_inside_a_function():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append(f"{name}.py:{node.lineno} in {fn.name}")
    assert found == []


def test_package_import_graph_is_acyclic():
    trees = _trees()
    graph = {name: _local_imports(tree, set(trees))
             for name, tree in trees.items()}
    try:
        order = list(TopologicalSorter(graph).static_order())
    except CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
    assert order.index("sequences") < order.index("ranktree") \
        < order.index("engine")


def _loads(stmt: ast.stmt, modules: set[str]) -> set[str]:
    """The names one statement loads: a bare name, or module.name on a
    sibling module.  An attribute of anything else (root.is_limit) and a
    name that is bound (is_limit = property(...)) do not count."""
    out: set[str] = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
              and isinstance(n.value, ast.Name) and n.value.id in modules):
            out.add(n.attr)
    return out


def test_every_definition_has_a_caller():
    """A top-level function or class is loaded somewhere in the package
    outside its own definition and __init__, or its outside caller is
    listed in OUTSIDE_CALLERS."""
    trees = _trees()
    modules = set(trees)
    defined: dict[str, tuple[str, int]] = {}
    loads: dict[tuple[str, int], set[str]] = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for i, stmt in enumerate(tree.body):
            loads[(module, i)] = _loads(stmt, modules)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = (module, i)
    orphans = {name for name, where in defined.items()
               if not any(name in used for key, used in loads.items()
                          if key != where)}
    assert sorted(orphans - OUTSIDE_CALLERS.keys()) == []
    # A listed name that gains a caller inside the package leaves the list.
    assert sorted(OUTSIDE_CALLERS.keys() - orphans) == []
    for name, (path, _reason) in OUTSIDE_CALLERS.items():
        assert f"{name}(" in (ROOT / path).read_text(), (name, path)


def test_only_sequences_and_jsonio_read_a_chain_terminal():
    """The terminal of a stage chain is plain data: sequences builds the cut
    from it and jsonio reads and writes it.  Every other module reaches the
    cut through PmsDescriptor.cut."""
    terminal = set(StageChain._fields) - {"constants"}
    found = [f"{name}.py:{node.lineno} reads .{node.attr}"
             for name, tree in _trees().items()
             if name not in ("sequences", "jsonio")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in terminal]
    assert terminal and found == []


def _constructions(node: ast.AST) -> list[ast.Call]:
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)
            and n.func.id == "UltrametricConfiguration"]


def test_only_build_constructs_a_configuration():
    """UltrametricConfiguration.build is the one checked constructor: no
    other package code calls the class itself."""
    trees = _trees()
    cls = next(n for n in trees["sequences"].body
               if isinstance(n, ast.ClassDef)
               and n.name == "UltrametricConfiguration")
    build = next(n for n in cls.body
                 if isinstance(n, ast.FunctionDef) and n.name == "build")
    inside = _constructions(build)
    found = [f"{name}.py:{call.lineno}" for name, tree in trees.items()
             for call in _constructions(tree) if call not in inside]
    assert len(inside) == 1 and found == []


# ExactReal holds integers; a Fraction is built only where one is read out
# (rational_value, a and b), for component generators, and for the oracle's
# field elements, which jsonio decodes.
FRACTION_EDGES = {"exact", "groups", "jsonio", "oracle"}


def test_only_the_edges_import_fractions():
    found = sorted(name for name, tree in _trees().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "fractions"
                   or isinstance(node, ast.Import)
                   and any(a.name == "fractions" for a in node.names))
    assert set(found) <= FRACTION_EDGES, found


def test_no_module_imports_dataclasses():
    """Records are named tuples or hand-written classes: dataclasses would
    bring inspect, ast, dis and tokenize into every cold start."""
    found = sorted(name for name, tree in _trees().items()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and node.module == "dataclasses"
                   or isinstance(node, ast.Import)
                   and any(a.name == "dataclasses" for a in node.names))
    assert found == []


def test_a_cold_start_loads_neither_dataclasses_nor_inspect():
    # pytest has imported these here, so a fresh interpreter looks.  The CLI
    # prints an internal error's traceback without the traceback module,
    # which would bring linecache and tokenize along.
    unwanted = {"dataclasses", "inspect", "traceback", "linecache",
                "tokenize"}
    code = ("import sys, pmsval, pmsval.cli; "
            f"print(sorted({unwanted!r} & sys.modules.keys()))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout == "[]\n"


# Parameters every package caller passes: a default for one would select a
# second path through the code that the package never takes.
ALWAYS_PASSED = {"numerals", "path", "rank_result", "embed"}


def test_no_always_passed_parameter_has_a_default():
    found = []
    for name, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs,
                                               args.kw_defaults)
                             if d is not None]
            found += [f"{name}.py:{fn.lineno} {a.arg}" for a in with_default
                      if a.arg in ALWAYS_PASSED]
    assert found == []
