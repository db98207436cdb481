"""Seeded fuzz of the CLI: mutated bundled problems end in a JSON report.

Each example takes one bundled problem and applies a few mutations: junk in
a subtree or a leaf, a dropped key, or a chain edit (drop, insert or shuffle
entries, flip a terminal's dir, change the kind).  Every command must then
exit 0-4 with a JSON report on stdout: a bad input is refused with its
documented code, never with an internal error (exit 5).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import tempfile
from importlib import resources

from hypothesis import given, settings, strategies as st

from pmsval.cli import main

PROBLEMS = {p.name: json.loads(p.read_text()) for p in
            resources.files("pmsval").joinpath("problems").iterdir()
            if p.name.endswith(".json")}
COMMANDS = ("classify", "ve", "rank", "sup", "oracle-check", "probe")
JUNK = (None, True, False, 0, -1, 7, 2 ** 40, 1.5, "", "x", "1/0", "-3/4",
        "1e3", "inf", "-inf", [], {}, ["1"], ["1", "inf"], [0, 0],
        {"rat": "1/2"}, {"surd": {"a": "0", "b": "1", "d": 2}},
        {"kind": "cyclic"})
CONST = {"const": {"v": "1/2", "from": 0}}
TERMINAL = {"terminal": {"dir": "inc", "bound": "unbounded"}}


def _slots(node, out: list) -> list:
    """Every (container, key) pair below node, parents before children."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out.append((node, key))
        _slots(child, out)
    return out


def _mutate_chain(seq: dict, rng: random.Random) -> None:
    chain = seq.get("chain")
    if not isinstance(chain, list):
        seq["chain"] = chain = [copy.deepcopy(TERMINAL)]
    op = rng.choice(("drop", "insert", "shuffle", "flip", "kind"))
    if op == "drop" and chain:
        del chain[rng.randrange(len(chain))]
    elif op == "insert":
        chain.insert(rng.randint(0, len(chain)),
                     copy.deepcopy(rng.choice((CONST, TERMINAL))))
    elif op == "shuffle":
        rng.shuffle(chain)
    elif op == "flip":
        for entry in chain:
            if isinstance(entry, dict) and isinstance(entry.get("terminal"),
                                                      dict):
                t = entry["terminal"]
                t["dir"] = "dec" if t.get("dir") == "inc" else "inc"
    else:
        seq["kind"] = rng.choice(("pcs", "pds", "pcts", "pms"))


def mutate(raw: dict, rng: random.Random) -> dict:
    """One to three seeded mutations of a copy of raw."""
    raw = copy.deepcopy(raw)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("subtree", "leaf", "delete", "chain", "chain"))
        slots = _slots(raw, [])
        if op == "chain" and isinstance(raw.get("sequence"), dict):
            _mutate_chain(raw["sequence"], rng)
        elif op == "leaf":
            leaves = [(n, k) for n, k in slots
                      if not isinstance(n[k], (dict, list))]
            if leaves:
                node, key = rng.choice(leaves)
                node[key] = copy.deepcopy(rng.choice(JUNK))
        elif op == "delete":
            keyed = [(n, k) for n, k in slots if isinstance(n, dict)]
            if keyed:
                node, key = rng.choice(keyed)
                del node[key]
        elif slots:
            node, key = rng.choice(slots)
            node[key] = copy.deepcopy(rng.choice(JUNK))
    return raw


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PROBLEMS)), st.integers(0, 2 ** 32))
def test_mutated_problems_end_in_a_json_report(name, seed):
    raw = mutate(PROBLEMS[name], random.Random(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w") as fh:
            json.dump(raw, fh)
        for command in COMMANDS:
            code, stdout = run([command, "--in", path])
            assert 0 <= code <= 4, (command, json.dumps(raw), stdout)
            assert isinstance(json.loads(stdout), dict), (command, stdout)
