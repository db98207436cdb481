"""Module structure of the package: imports sit at module top, and the
intra-package import graph has no cycle (sequences -> ranktree -> engine,
never back)."""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pmsval"


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
