"""The command-line surface, pinned: the text of `pmsval --help` and of each
subcommand's --help at 80 columns, and argparse's own exit 2 for a command
line it refuses.  A change to how commands are dispatched leaves all of it
unchanged.  Regenerate only when an option is meant to change:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from pmsval.cli import main

HELP = Path(__file__).parent / "golden" / "help.json"
COMMANDS = ("classify", "ve", "rank", "sup", "oracle-check", "probe",
            "leaves")


def cases() -> dict[str, list[str]]:
    return {"pmsval": ["--help"],
            **{command: [command, "--help"] for command in COMMANDS}}


def run_help(argv: list[str]) -> str:
    """The text argparse prints for argv, which must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), \
            pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 0
    return buf.getvalue()


@pytest.fixture(autouse=True)
def eighty_columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_help_covers_every_command():
    assert sorted(json.loads(HELP.read_text())) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_help_text_is_unchanged(case):
    assert run_help(cases()[case]) == json.loads(HELP.read_text())[case]


@pytest.mark.parametrize("argv", [[command] for command in COMMANDS[:-1]]
                         + [["rank", "--dot", "t.dot"], [], ["unknown"],
                            ["leaves", "--kind", "pcts"]])
def test_argparse_refuses_an_incomplete_command_line(argv, capsys):
    with pytest.raises(SystemExit) as done:
        main(argv)
    assert done.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: pmsval")


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HELP.write_text(json.dumps({case: run_help(argv)
                                for case, argv in sorted(cases().items())},
                               indent=1, sort_keys=True) + "\n")
