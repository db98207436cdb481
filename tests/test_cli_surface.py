"""The command-line surface, pinned: the text of `pmsval --help` and of each
subcommand's --help at 80 columns, argparse's own exit 2 for a command
line it refuses, and the same exit code, stdout and stderr from `main` as
from the full parser followed by `_run`.  A change to how commands are
dispatched leaves all of it unchanged.  Regenerate only when an option is
meant to change:

    PYTHONPATH=src python tests/test_cli_surface.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from pmsval import cli
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


def full_parse(argv: list[str]) -> int:
    """main as it reads a command line without the command's parser."""
    text, code = cli._run(cli.build_parser().parse_args(argv))
    sys.stdout.write(text)
    return code


def outcome(entry, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as done:
            code = ("exit", done.code)
    return code, out.getvalue(), err.getvalue()


RANK3 = "example-rank3.json"
PARITY = [
    *([command, "--in", problem] for command, problem in (
        ("classify", "example-pcts.json"), ("ve", "example-3-6-not-1.json"),
        ("rank", RANK3), ("sup", "example-pds-mirror.json"),
        ("oracle-check", "example-cauchy-5adic.json"),
        ("probe", "example-surd-bound.json"), ("ve", RANK3))),
    ["leaves", "--levels", "2"],
    ["rank", f"--in={RANK3}"],
    ["rank", "--i", RANK3],
    ["rank", "-h"],
    ["leaves", "--kind", "pds", "--help"],
    ["rank", "--in", RANK3, "--bogus"],
    ["rank", "--bogus", "--in", RANK3],
    ["sup", "--in", RANK3, "extra"],
    ["rank"],
    ["probe", "--probes", RANK3],
    ["--in", RANK3, "rank"],
    ["-h", "rank"],
    ["rank", "--in", "no-such-problem.json", "--in", RANK3],
    ["rank", "--", "--in", RANK3],
    ["rank", "--in", RANK3, "--"],
    ["--", "rank", "--in", RANK3],
    ["oracle-check", "--in", "example-cauchy-5adic.json", "--tail-window",
     "x"],
]


@pytest.mark.parametrize("argv", PARITY, ids=" ".join)
def test_main_reads_a_line_as_the_full_parser_does(argv):
    assert outcome(main, argv) == outcome(full_parse, argv)


def test_a_command_line_is_parsed_once(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the full parser read the line")

    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    assert main(["rank", "--in", RANK3]) == 0
    assert json.loads(capsys.readouterr().out)["output_rank"] == 3


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    HELP.write_text(json.dumps({case: run_help(argv)
                                for case, argv in sorted(cases().items())},
                               indent=1, sort_keys=True) + "\n")
