"""Golden CLI reports: every command on every bundled problem, byte for byte.

The snapshot in golden/reports.json records the exit code, the stdout and
any DOT file of each run.  Refactors must leave all of them unchanged.
Regenerate only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from importlib import resources
from pathlib import Path

import pytest

from pmsval.cli import main

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
DOT = "tree.dot"

PROBLEMS = sorted(p.name for p in resources.files("pmsval")
                  .joinpath("problems").iterdir() if p.name.endswith(".json"))
COMMANDS = ("classify", "ve", "rank", "sup", "oracle-check", "probe")


def cases() -> dict[str, list[str]]:
    out = {}
    for name in PROBLEMS:
        stem = name[:-len(".json")]
        for command in COMMANDS:
            out[f"{stem}:{command}"] = [command, "--in", name]
        out[f"{stem}:rank-dot"] = ["rank", "--in", name, "--dot", DOT]
    for levels in range(1, 5):
        for kind in ("pcs", "pds"):
            out[f"leaves:{levels}:{kind}"] = [
                "leaves", "--levels", str(levels), "--kind", kind,
                "--dot", DOT]
    return out


def run_case(argv: list[str], workdir: Path) -> dict:
    """Exit code, stdout and DOT text of one CLI run inside workdir."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        dot = Path(DOT)
        dot_text = dot.read_text() if dot.exists() else None
        if dot_text is not None:
            dot.unlink()
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": buf.getvalue(), "dot": dot_text}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(cases())
    assert len(golden) == 57
    assert sum(1 for g in golden.values() if g["exit"] != 0) == 12


@pytest.mark.parametrize("case", sorted(cases()))
def test_report_is_byte_identical(case, golden, tmp_path):
    assert run_case(cases()[case], tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = {case: run_case(argv, Path(tmp))
                    for case, argv in sorted(cases().items())}
    GOLDEN.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
