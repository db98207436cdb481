"""Mutation sampler: one mutant per site of a pmsval module, each run
against the module's test subset.

    python tests/mutants.py sequences tests/test_sequences.py \
        tests/test_ultrametric.py

The operators: a comparison swapped (< and <=, > and >=, == and !=, is and
is not, in and not in), and/or swapped, a small integer constant plus one,
and a unary - or not dropped.  Sites are taken in (line, column) order, so
two runs diff cleanly.  Each mutant is the module unparsed from its
mutated syntax tree, written into a temporary copy of the repository,
where `pytest -x` runs the given tests; a failing run kills it, and so
does a run past the time limit.  The mutants run one after another, after
a baseline run of the unmutated module unparsed the same way, so that
unparsing alone never counts as a kill.

The result goes to tests/mutants/MUTANTS_<module>.json.  A survivor that
tests/mutants/ALLOWLIST.json lists for the module, by function, source
line and mutation, is marked "equivalent"; the allowlist gives each one
its reason.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "tests" / "mutants"

SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
        ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
          ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
          ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or",
          ast.USub: "-", ast.Not: "not"}
SMALL = 16  # integer constants up to this size are mutated


def _functions(tree: ast.Module) -> dict[int, str]:
    """The qualified name of the innermost function or class around each
    node, keyed by id(node)."""
    owner: dict[int, str] = {}

    def visit(node: ast.AST, name: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[id(child)] = inner
            visit(child, inner)

    visit(tree, "")
    return owner


def _sites(tree: ast.Module) -> list[tuple[tuple[int, int, int], ast.AST,
                                             int, str]]:
    """(position, node, operand index, mutation text) for every site, in
    (line, column) order."""
    out = []
    for node in ast.walk(tree):
        where = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                new = SWAP[type(op)]
                out.append(((*where, i), node, i,
                            f"{SYMBOL[type(op)]} -> {SYMBOL[new]}"))
        elif isinstance(node, ast.BoolOp):
            new = SWAP[type(node.op)]
            out.append(((*where, 0), node, 0,
                        f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}"))
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and abs(node.value) <= SMALL):
            out.append(((*where, 0), node, 0,
                        f"{node.value} -> {node.value + 1}"))
        elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.USub,
                                                                  ast.Not):
            out.append(((*where, 0), node, 0,
                        f"drop {SYMBOL[type(node.op)]}"))
    out.sort(key=lambda site: site[0])
    return out


class _Drop(ast.NodeTransformer):
    """Replace one unary operation by its operand."""

    def __init__(self, target: ast.AST):
        self.target = target

    def generic_visit(self, node):
        if node is self.target:
            return node.operand
        return super().generic_visit(node)


def mutant_source(source: str, index: int) -> str:
    """The module source with site number index mutated."""
    tree = ast.parse(source)
    _, node, i, _ = _sites(tree)[index]
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAP[type(node.ops[i])]()
    elif isinstance(node, ast.BoolOp):
        node.op = SWAP[type(node.op)]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    else:
        tree = _Drop(node).visit(tree)
    return ast.unparse(tree)


def describe(source: str) -> list[dict]:
    tree = ast.parse(source)
    owner = _functions(tree)
    lines = source.splitlines()
    return [{"line": pos[0], "col": pos[1],
             "function": owner.get(id(node), ""),
             "code": lines[pos[0] - 1].strip(), "mutation": text}
            for pos, node, _, text in _sites(tree)]


def _run(copy: Path, target: Path, text: str, tests: list[str],
         limit: float) -> str:
    target.write_text(text)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p",
           "no:cacheprovider", *tests]
    # No bytecode is written, so a mutant never runs a stale cached one.
    env = {**os.environ, "PYTHONPATH": str(copy / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return "killed"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name under src/pmsval")
    parser.add_argument("tests", nargs="+", help="test files to run")
    args = parser.parse_args(argv)
    rel = Path("src", "pmsval", f"{args.module}.py")
    source = (ROOT / rel).read_text()
    sites = describe(source)
    allow = json.loads((OUT / "ALLOWLIST.json").read_text()).get(
        args.module, [])
    key = lambda s: (s["function"], s["code"], s["mutation"])
    reasons = {key(a): a["reason"] for a in allow}

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns(
                                "__pycache__", ".hypothesis", "mutants"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        start = time.monotonic()
        baseline = ast.unparse(ast.parse(source))
        if _run(copy, copy / rel, baseline, args.tests, 600) != "survived":
            print("the tests fail on the unmutated module", file=sys.stderr)
            return 2
        limit = max(60.0, 10 * (time.monotonic() - start))
        for i, site in enumerate(sites):
            site["status"] = _run(copy, copy / rel, mutant_source(source, i),
                                  args.tests, limit)

    for site in sites:
        if site["status"] == "survived" and key(site) in reasons:
            site["status"] = "equivalent"
    counts = {s: sum(site["status"] == s for site in sites)
              for s in ("killed", "equivalent", "survived")}
    report = {"module": args.module, "tests": args.tests,
              "sites": len(sites), **counts, "mutants": sites}
    out = OUT / f"MUTANTS_{args.module}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.module}: {counts['killed']}/{len(sites)} killed, "
          f"{counts['equivalent']} equivalent, {counts['survived']} "
          f"survived -> {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
