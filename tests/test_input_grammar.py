"""Inputs the decoder refuses: each ends in a schema error (exit 2) that
names its path, before any mathematics runs.

- A numeral is a JSON integer or a string n or n/d of decimal digits with
  d nonzero; decimals, exponents, whitespace and floats are refused, within
  a fixed CPU budget, and a long p-power denominator is read within it.
- A JSON boolean is not an integer.
- A coordinate is an exact real: "inf" and "-inf" stand only for the whole
  value v(0), never for one coordinate.
- An integer literal past Python's digit limit is invalid JSON.
- JSON nested past the parser's recursion limit is invalid JSON.
"""

from __future__ import annotations

import copy
import json
import resource
from importlib import resources

import pytest

from pmsval.cli import main

PROBLEMS = {p.name[:-len(".json")]: json.loads(p.read_text()) for p in
            resources.files("pmsval").joinpath("problems").iterdir()
            if p.name.endswith(".json")}

# CPU seconds one refused input may cost, parse to report.  A refused
# numeral is never turned into a number, so this has wide headroom.
CPU_BUDGET_S = 0.5


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_edited(capsys, tmp_path, command: str, problem: str, path: tuple,
               leaf) -> tuple[int, dict, float]:
    """Exit code, report and CPU seconds of command on a bundled problem
    whose node at path (a tuple of keys and indices) is set to leaf."""
    raw = copy.deepcopy(PROBLEMS[problem])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = leaf
    file = tmp_path / "edited.json"
    file.write_text(json.dumps(raw))
    start = cpu_seconds()
    code = main([command, "--in", str(file)])
    spent = cpu_seconds() - start
    return code, json.loads(capsys.readouterr().out), spent


def assert_schema_error(code: int, rep: dict, where: str) -> None:
    assert code == 2 and rep["error"] == "schema", rep
    assert rep["detail"].startswith(f"{where}: "), rep["detail"]


# ---------------------------------------------------------------------------
# One numeral grammar


BAD_NUMERALS = ["1e-200000", "1e-2000000", "1e3", "1.5", "0.5/2", " 1",
                "1 ", "+1", "1_000", "0x10", "1/0", "1/-2", "١", "inf",
                "nan", "", "1" * 5000, "-", "1/", "/2", "--1", "-/1", "²",
                "1/²", 1.5, 1e3, True]
NUMERAL_SITES = {
    "oracle-term": ("oracle-check", "example-cauchy-5adic",
                    ("oracle", "sequence", 0), "oracle.sequence[0]"),
    "t-coefficient": ("oracle-check", "example-composite-rank2",
                      ("oracle", "sequence", 0, "num", 1),
                      "oracle.sequence[0].num[1]"),
    "cyclic-gen": ("rank", "example-rank3",
                   ("group", "components", 0, "gen"),
                   "group.components[0].gen"),
    "p-divisible-scale": ("rank", "example-3-6-not-1",
                          ("sequence", "group", "components", 0, "scale"),
                          "sequence.group.components[0].scale"),
    "value-coordinate": ("rank", "example-rank3",
                         ("sequence", "prefix", 0, 1),
                         "sequence.prefix[0][1]"),
}


@pytest.mark.parametrize("site", sorted(NUMERAL_SITES))
@pytest.mark.parametrize("numeral", BAD_NUMERALS,
                         ids=[repr(n)[:12] for n in BAD_NUMERALS])
def test_numerals_outside_the_grammar_exit_2_within_budget(
        capsys, tmp_path, site, numeral):
    command, problem, path, where = NUMERAL_SITES[site]
    code, rep, spent = run_edited(capsys, tmp_path, command, problem, path,
                                  numeral)
    assert_schema_error(code, rep, where)
    assert spent < CPU_BUDGET_S, f"{spent:.2f}s of CPU"


@pytest.mark.parametrize("path, leaf, where", [
    (("oracle", "functions", 0, "num_roots", 0, "num", 1), "1.5",
     "oracle.functions[0].num_roots[0].num[1]"),
    (("oracle", "functions", 1, "lead"), {"num": ["1"], "den": ["1", "1e3"]},
     "oracle.functions[1].lead.den[1]"),
    (("oracle", "sequence", 2, "den"), ["1", True],
     "oracle.sequence[2].den[1]")])
def test_a_bad_t_coefficient_is_named_by_its_index(capsys, tmp_path, path,
                                                  leaf, where):
    code, rep, _ = run_edited(capsys, tmp_path, "oracle-check",
                              "example-composite-rank2", path, leaf)
    assert_schema_error(code, rep, where)


@pytest.mark.parametrize("numeral", ["-7", "007", "-0/5", "3/6", "-0", "0/7",
                                     12, -4])
def test_numerals_in_the_grammar_are_read(capsys, tmp_path, numeral):
    code, rep, _ = run_edited(capsys, tmp_path, "oracle-check",
                              "example-cauchy-5adic", ("oracle", "sequence", 0),
                              numeral)
    assert code in (0, 3), rep
    assert rep.get("error") != "schema", rep


def test_a_long_p_power_denominator_is_read_within_budget(capsys, tmp_path):
    # 100 prefix entries k/2^14000, each denominator 4,215 digits long (under
    # the digit limit), over p_divisible p = 2: each membership test strips
    # the denominator's factors of 2.
    prefix = [[f"{k}/{2 ** 14000}"] for k in range(-100, 0)]
    code, rep, spent = run_edited(capsys, tmp_path, "classify",
                                  "example-3-6-not-1", ("sequence", "prefix"),
                                  prefix)
    assert code == 0 and rep["kind"] == "pcs", rep
    assert spent < CPU_BUDGET_S, f"{spent:.2f}s of CPU"


# ---------------------------------------------------------------------------
# Booleans are not integers


BOOLEAN_SITES = {
    "mult": ("ve", "example-3-6-not-1", ("functions", 0, "num", 0, "mult"),
             "functions[0].num[0]"),
    "deg": ("rank", "example-3-6-not-1",
            ("sequence", "pcs_type", "algebraic", "deg"), "sequence"),
    "from": ("rank", "example-composite-rank2",
             ("sequence", "chain", 0, "const", "from"), "sequence.chain[0]"),
    "surd-d": ("rank", "example-surd-bound",
               ("sequence", "chain", 0, "terminal", "bound", "not_in_group",
                "surd", "d"), "sequence.chain[0].bound"),
    "field-p": ("oracle-check", "example-cauchy-5adic",
                ("oracle", "field", "p"), "oracle.field"),
    "p-divisible-p": ("rank", "example-3-6-not-1",
                      ("group", "components", 0, "p"),
                      "group.components[0]"),
    "exact-real": ("rank", "example-rank3",
                   ("sequence", "chain", 0, "const", "v"),
                   "sequence.chain[0].v"),
}


@pytest.mark.parametrize("site", sorted(BOOLEAN_SITES))
def test_a_boolean_is_not_an_integer(capsys, tmp_path, site):
    command, problem, path, where = BOOLEAN_SITES[site]
    code, rep, _ = run_edited(capsys, tmp_path, command, problem, path, True)
    assert_schema_error(code, rep, where)


# ---------------------------------------------------------------------------
# Coordinates are exact reals


INFINITE_COORDINATE_SITES = {
    "distance": ("classify", "example-pcts",
                 ("configuration", "distances", 0, "v"),
                 "configuration.distances[0].v[1]"),
    "prefix": ("rank", "example-rank3", ("sequence", "prefix", 0),
               "sequence.prefix[0][1]"),
    "probe": ("probe", "example-rank3", ("probes",), "probes[0][1]"),
    "lead": ("ve", "example-3-6-not-1", ("functions", 0, "lead"),
             "functions[0].lead[1]"),
    "beta": ("ve", "example-cauchy-5adic", ("functions", 1, "den", 0, "beta"),
             "functions[1].den[0].beta[1]"),
    "pcts-delta": ("sup", "example-pcts", ("sequence", "pcts_delta"),
                   "sequence.pcts_delta[1]"),
}


@pytest.mark.parametrize("infinity", ["inf", "-inf"])
@pytest.mark.parametrize("site", sorted(INFINITE_COORDINATE_SITES))
def test_an_infinite_coordinate_is_refused(capsys, tmp_path, site, infinity):
    command, problem, path, where = INFINITE_COORDINATE_SITES[site]
    leaf = ["1", infinity]
    if site == "probe":
        leaf = [leaf]
    code, rep, _ = run_edited(capsys, tmp_path, command, problem, path, leaf)
    assert_schema_error(code, rep, where)


def test_infinite_coordinates_no_longer_classify_as_a_pcs(capsys, tmp_path):
    file = tmp_path / "cfg.json"
    file.write_text(json.dumps({"version": "1", "configuration": {
        "sequence": ["z0", "z1", "z2", "z3"],
        "distances": [{"pair": [f"z{i}", f"z{i + 1}"], "v": [str(i + 1), inf]}
                      for i, inf in enumerate(["inf", "-inf", "inf"])]}}))
    assert main(["classify", "--in", str(file)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["detail"].startswith("configuration.distances[0].v[1]: ")


# ---------------------------------------------------------------------------
# Oversized JSON integers


def test_an_integer_literal_past_the_digit_limit_is_a_schema_error(
        capsys, tmp_path):
    file = tmp_path / "huge.json"
    file.write_text('{"version": "1", "x": ' + "1" * 5000 + "}")
    assert main(["classify", "--in", str(file)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"] == "schema" and "invalid JSON" in rep["detail"]


# ---------------------------------------------------------------------------
# Nesting past the parser's recursion limit


IN_COMMANDS = ["classify", "ve", "rank", "sup", "oracle-check", "probe"]


def deep_json(depth: int = 100_000) -> str:
    return '{"version": "1", "x": ' + "[" * depth + "]" * depth + "}"


@pytest.mark.parametrize("command", IN_COMMANDS)
def test_json_nested_too_deeply_is_a_schema_error(capsys, tmp_path, command):
    file = tmp_path / "deep.json"
    file.write_text(deep_json())
    assert main([command, "--in", str(file)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"error": "schema",
                   "detail": "invalid JSON: nested too deeply"}


def test_a_probes_file_nested_too_deeply_is_a_schema_error(capsys, tmp_path):
    file = tmp_path / "deep.json"
    file.write_text(deep_json())
    assert main(["probe", "--in", "example-rank3.json", "--probes",
                 str(file)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"error": "schema",
                   "detail": "invalid JSON: nested too deeply"}
