"""End-to-end CLI runs over the bundled problem corpus."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from pmsval import Value, cli, oracle, ranktree
from pmsval.cli import main

from test_golden import GOLDEN, cases, run_case

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else {})


def test_rank_on_bundled_rank3(capsys):
    code, rep = run(capsys, "rank", "--in", "example-rank3.json")
    assert code == 0
    assert (rep["input_rank"], rep["output_rank"]) == (2, 3)
    assert rep["sup"]["in_group"] is False
    assert rep["sup"]["value"] == [{"rat": "1/2"}, "inf"]
    assert rep["alpha"] == [{"rat": "1/2"}, {"rat": "1"}, {"rat": "0"}]


def test_rank_on_bundled_3_6_not_1(capsys):
    code, rep = run(capsys, "rank", "--in", "example-3-6-not-1.json")
    assert code == 0
    assert rep["output_rank"] == 2
    assert rep["alpha"] == [{"rat": "0"}, {"rat": "-1"}]
    assert rep["sup"]["value"] == [{"rat": "0"}]
    assert rep["sup"]["in_group"] is True


def test_rank_dot_output(capsys, tmp_path):
    dot = tmp_path / "walk.dot"
    code, rep = run(capsys, "rank", "--in", "example-rank3.json",
                    "--dot", str(dot))
    assert code == 0 and rep["dot"] == str(dot)
    text = dot.read_text()
    assert text.startswith("digraph") and "color=red" in text


def test_classify_pcts_configuration(capsys):
    code, rep = run(capsys, "classify", "--in", "example-pcts.json")
    assert code == 0
    assert rep["kind"] == "pcts"
    assert rep["extension"]["extension_kind"] == "residue-transcendental"


def test_classify_cauchy(capsys):
    code, rep = run(capsys, "classify", "--in", "example-cauchy-5adic.json")
    assert code == 0
    assert rep["is_cauchy"] is True
    assert rep["extension"]["pure"] is True


def test_ve_reports_dominating_forms(capsys):
    code, rep = run(capsys, "ve", "--in", "example-cauchy-5adic.json")
    assert code == 0
    f0, f1 = rep["functions"]
    assert f0["dominating_degree"] == 1 and f0["in_vk"] is False
    assert f1["dominating_degree"] == 1
    assert f0["value"] == [{"rat": "1"}, {"rat": "0"}]


def test_sup_command(capsys, tmp_path):
    code, rep = run(capsys, "sup", "--in", "example-pds-mirror.json")
    assert code == 0
    assert rep["inf"]["value"] == [{"rat": "0"}] and rep["inf"]["in_group"]
    # Past the cut's coordinates, the sup is padded with the infinity
    # opposite the values' side.
    problem = tmp_path / "rank2.json"
    problem.write_text(json.dumps({"version": "1", "sequence": {
        "kind": "pcs", "pcs_type": "transcendental",
        "group": {"components": Z_GROUP["components"] * 2},
        "chain": [UNBOUNDED]}}))
    code, rep = run(capsys, "sup", "--in", str(problem))
    assert code == 0
    assert rep["sup"] == {"value": ["inf", "-inf"], "in_group": False}


def test_oracle_check_agrees(capsys):
    code, rep = run(capsys, "oracle-check", "--in", "example-cauchy-5adic.json")
    assert code == 0 and rep["all_agree"] is True
    code2, rep2 = run(capsys, "oracle-check", "--in",
                      "example-composite-rank2.json", "--tail-window", "4")
    assert code2 == 0 and rep2["all_agree"] is True
    # The least window the fit accepts.
    code3, rep3 = run(capsys, "oracle-check", "--in",
                      "example-cauchy-5adic.json", "--tail-window", "2")
    assert code3 == 0 and rep3["all_agree"] is True


def test_a_wrong_tag_is_a_negative_outcome(capsys, tmp_path):
    def wrong_tag(section):
        # -1/4 is the 5-adic limit of the sequence, not a root at distance 0.
        section["functions"][0]["tagged"]["num"] = [{"beta": ["0"]}]

    def root_on_a_term(section):
        # A numerator root equal to the term z_11 of the fit window makes
        # that term's value +infinity, so no affine pattern fits the window.
        section["functions"][0]["num_roots"] = [section["sequence"][-2]]

    for edit, fit in (
            (wrong_tag, {"kind": "affine", "degree": 1,
                         "beta": [{"rat": "0"}]}),
            (root_on_a_term, {"kind": "inconsistent", "degree": None,
                              "beta": None})):
        code, rep = run(capsys, "oracle-check", "--in", edited_oracle(
            tmp_path, "example-cauchy-5adic.json", edit))
        assert code == 1 and rep["all_agree"] is False
        assert [f["agree"] for f in rep["functions"]] == [False, True]
        assert rep["functions"][0]["fit"] == fit


def test_probe_command(capsys):
    code, rep = run(capsys, "probe", "--in", "example-surd-bound.json")
    assert code == 0 and rep["holds"] is True
    assert rep["auto_probes"] is True


def test_leaves_command(capsys, tmp_path):
    dot = tmp_path / "tree.dot"
    code, rep = run(capsys, "leaves", "--levels", "3", "--kind", "pds",
                    "--dot", str(dot))
    assert code == 0 and len(rep["leaves"]) == 9
    assert dot.read_text().startswith("digraph")
    code, rep = run(capsys, "leaves", "--levels", "6")
    assert code == 0 and len(rep["leaves"]) == 18
    for levels in ("0", "7"):
        code, rep = run(capsys, "leaves", "--levels", levels)
        assert code == 3 and rep["error"] == "invariant"
    code, rep = run(capsys, "leaves")
    assert code == 0 and rep["levels"] == 3 and len(rep["leaves"]) == 9


def test_exit_code_schema_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"version\": \"1\", \"sequence\": {\"kind\": \"pcs\"}}")
    code, rep = run(capsys, "rank", "--in", str(bad))
    assert code == 2 and rep["error"] == "schema"
    code2, rep2 = run(capsys, "rank", "--in", "no-such-problem.json")
    assert code2 == 2


def test_exit_code_non_prime_oracle_field(capsys, tmp_path):
    for p in (0, 1):
        bad = tmp_path / f"p{p}.json"
        bad.write_text(json.dumps({"version": "1", "oracle": {
            "field": {"kind": "padic", "p": p}, "sequence": ["1", "6", "31"],
            "functions": [{"lead": "1", "num_roots": ["-1/4"], "tagged": {
                "lead": ["0"], "num": [{"limit": True}], "den": []}}]}}))
        code, rep = run(capsys, "oracle-check", "--in", str(bad))
        assert code == 2 and rep["error"] == "schema"


def edited_oracle(tmp_path, problem: str, edit) -> str:
    """A bundled problem with edit applied to its oracle section, written
    to a file; returns the file's path."""
    raw = json.loads(resources.files("pmsval").joinpath(
        "problems", problem).read_text())
    edit(raw["oracle"])
    file = tmp_path / "edited.json"
    file.write_text(json.dumps(raw))
    return str(file)


@pytest.mark.parametrize("den", [["0"], [], ["0", "0/7"]])
def test_zero_denominator_is_a_schema_error_at_its_path(capsys, tmp_path, den):
    def edit(section):
        section["sequence"][3] = {"num": ["1"], "den": den}
    code, rep = run(capsys, "oracle-check", "--in",
                    edited_oracle(tmp_path, "example-composite-rank2.json",
                                  edit))
    assert code == 2 and rep == {
        "error": "schema",
        "detail": "oracle.sequence[3].den: denominator must be nonzero"}


@pytest.mark.parametrize("problem, lead", [
    ("example-composite-rank2.json", "0"),
    ("example-composite-rank2.json", {"num": ["0", "0/3"]}),
    ("example-cauchy-5adic.json", "0/5")])
def test_zero_concrete_lead_is_an_invariant_error(capsys, tmp_path, problem,
                                                   lead):
    def edit(section):
        section["functions"][0]["lead"] = lead
    code, rep = run(capsys, "oracle-check", "--in",
                    edited_oracle(tmp_path, problem, edit))
    assert code == 3 and rep["error"] == "invariant"
    assert rep["detail"].startswith("oracle.functions[0].lead: "), rep


def test_exit_code_invariant_violation(capsys, tmp_path):
    bad = tmp_path / "mixed.json"
    bad.write_text(json.dumps({
        "version": "1",
        "configuration": {
            "sequence": ["z0", "z1", "z2", "z3"],
            "points": [],
            "distances": [
                {"pair": ["z0", "z1"], "v": ["1"]},
                {"pair": ["z1", "z2"], "v": ["2"]},
                {"pair": ["z2", "z3"], "v": ["1"]},
                {"pair": ["z0", "z2"], "v": ["1"]},
                {"pair": ["z0", "z3"], "v": ["1"]},
                {"pair": ["z1", "z3"], "v": ["1"]},
            ],
        },
    }))
    code, rep = run(capsys, "classify", "--in", str(bad))
    assert code == 3 and rep["error"] == "invariant"


def test_exit_code_indeterminate(capsys, tmp_path):
    thin = tmp_path / "thin.json"
    thin.write_text(json.dumps({
        "version": "1",
        "configuration": {
            "sequence": ["z0", "z1"],
            "points": [],
            "distances": [{"pair": ["z0", "z1"], "v": ["1"]}],
        },
    }))
    code, rep = run(capsys, "classify", "--in", str(thin))
    assert code == 4 and rep["error"] == "indeterminate"


@pytest.mark.parametrize("reverse, at", [(False, 12), (True, 0)],
                         ids=["pcs-last-repeated", "pds-first-repeated"])
def test_repeated_oracle_term_is_an_invariant_error(capsys, tmp_path,
                                                    reverse, at):
    raw = json.loads(resources.files("pmsval").joinpath(
        "problems", "example-cauchy-5adic.json").read_text())
    terms = raw["oracle"]["sequence"]
    if reverse:
        terms.reverse()
    terms.insert(at, terms[at])
    problem = tmp_path / "repeated.json"
    problem.write_text(json.dumps(raw))
    code, rep = run(capsys, "oracle-check", "--in", str(problem))
    assert code == 3 and rep == {
        "error": "invariant",
        "detail": f"sequence terms {at} and {at + 1} are equal"}


@pytest.mark.parametrize("terms, code", [(4, 3), (5, 0)])
def test_oracle_sequence_needs_five_terms(capsys, tmp_path, terms, code):
    # N terms give N - 1 fitted distances, and the fit needs four.
    raw = json.loads(resources.files("pmsval").joinpath(
        "problems", "example-cauchy-5adic.json").read_text())
    raw["oracle"]["sequence"] = raw["oracle"]["sequence"][:terms]
    problem = tmp_path / "short.json"
    problem.write_text(json.dumps(raw))
    got, rep = run(capsys, "oracle-check", "--in", str(problem))
    assert got == code
    if code:
        assert rep == {"error": "invariant", "detail": "pattern fitting "
                       "needs at least four tail points"}
    else:
        assert rep["all_agree"] is True


def test_exit_code_internal_error(capsys, monkeypatch):
    def broken(problem):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_sup", broken)
    code, rep = run(capsys, "sup", "--in", "example-rank3.json")
    assert code == 5
    assert rep == {"error": "internal", "detail": "RuntimeError: boom"}


def test_internal_error_prints_its_traceback(capsys, monkeypatch):
    def broken(problem):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "cmd_sup", broken)
    code = main(["sup", "--in", "example-rank3.json"])
    out, err = capsys.readouterr()
    assert code == 5
    assert json.loads(out) == {"error": "internal",
                               "detail": "RuntimeError: boom"}
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in err and err.endswith("RuntimeError: boom\n")


def test_files_are_read_and_written_as_utf8_whatever_the_locale(tmp_path):
    # Under these flags a read or write that names no encoding raises.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (["sup", "--in", "example-rank3.json"],
                 ["rank", "--in", "example-rank3.json", "--out", "o.json"]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W",
             "error::EncodingWarning", "-m", "pmsval", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=60)
        assert (done.returncode, done.stderr) == (0, ""), argv
    assert json.loads((tmp_path / "o.json").read_text())["command"] == "rank"


def test_reports_byte_identical(capsys, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["rank", "--in", "example-rank3.json", "--out", str(out1)]) == 0
    assert main(["rank", "--in", "example-rank3.json", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_probe_with_supplied_probes(capsys, tmp_path):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"version": "1",
                                  "probes": [["-1/2"], ["0"], ["1"]]}))
    code, rep = run(capsys, "probe", "--in", "example-3-6-not-1.json",
                    "--probes", str(probes))
    assert code == 0 and rep["holds"] is True
    assert rep["probes_checked"] == 3 and rep["auto_probes"] is False


def test_probe_reports_a_counterexample_to_a_moved_alpha(capsys, tmp_path,
                                                        monkeypatch):
    # The walk places alpha at (0, -1); at (-1/2, 0) the probe -1/4 lies
    # past alpha but below the distance value -1/8.
    walk = ranktree.rank_of_vE
    monkeypatch.setattr(ranktree, "rank_of_vE", lambda E: walk(E)._replace(
        alpha=Value.of(Fraction(-1, 2), 0)))
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"version": "1",
                                  "probes": [["-1"], ["-1/4"], ["1"]]}))
    code, rep = run(capsys, "probe", "--in", "example-3-6-not-1.json",
                    "--probes", str(probes))
    assert code == 1
    assert rep["alpha"] == [{"rat": "-1/2"}, {"rat": "0"}]
    assert rep["holds"] is False and rep["auto_probes"] is False
    assert rep["counterexample"] == [{"rat": "-1/4"}]
    assert rep["probes_checked"] == 3


@pytest.mark.parametrize("probes, first", [
    ([["1/3"], ["0", "0"]], "(1/3) is not a member of the declared group"),
    ([["0", "0"], ["1/3"]], "arity 3 vs 2"),
    (["inf", ["1/3"], ["0", "0"]],
     "(1/3) is not a member of the declared group"),
])
def test_bad_supplied_probes_are_refused_at_the_first(capsys, tmp_path,
                                                      probes, first):
    # p = 2 has no 1/3; each probe is compared with alpha, arity 2, before
    # its membership is tested.
    file = tmp_path / "probes.json"
    file.write_text(json.dumps({"version": "1", "probes": probes}))
    code, rep = run(capsys, "probe", "--in", "example-3-6-not-1.json",
                    "--probes", str(file))
    assert code == 3 and rep == {"error": "invariant", "detail": first}


@pytest.mark.parametrize("problem", ["example-surd-bound.json",
                                     "example-pds-mirror.json"])
def test_probe_walks_and_checks_once(capsys, monkeypatch, problem):
    calls = {"auto_probes": 0, "check": 0}

    def counting(name, key):
        inner = getattr(ranktree, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(ranktree, name, wrapper)

    counting("auto_probes", "auto_probes")
    counting("check_pcs_equivalence_iii", "check")
    counting("check_pds_equivalence_iii", "check")
    code, rep = run(capsys, "probe", "--in", problem)
    assert code == 0 and rep["holds"] is True and rep["auto_probes"] is True
    assert calls == {"auto_probes": 1, "check": 1}


def test_oracle_check_builds_and_classifies_the_sequence_once(capsys,
                                                              monkeypatch):
    calls = {"sequence_configuration": 0, "classify_from_prefix": 0,
             "valuate": 0}

    def counting(owner, name, key):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counting(oracle, "sequence_configuration", "sequence_configuration")
    counting(oracle, "classify_from_prefix", "classify_from_prefix")
    counting(oracle.PadicRationals, "valuate", "valuate")
    counting(oracle.CompositeField, "valuate", "valuate")
    code, rep = run(capsys, "oracle-check", "--in",
                    "example-composite-rank2.json")
    assert code == 0 and len(rep["functions"]) == 2
    # N = 9 strictly monotone terms: 8 consecutive distances, then per
    # function the lead and one root at each of the 8 // 2 = 4 tail terms.
    assert calls == {"sequence_configuration": 1, "classify_from_prefix": 1,
                     "valuate": 8 + 2 * (1 + 4)}


def test_ve_writes_an_integer_past_the_str_digit_limit(capsys, tmp_path):
    # A denominator root at distance 10^4000 with multiplicity 10^4000 puts
    # -10^8000 in beta, past the 4,300 digits str() writes of an int.  The
    # digits are checked as text: int() has the same limit.
    raw = json.loads(resources.files("pmsval").joinpath(
        "problems", "example-cauchy-5adic.json").read_text())
    raw["functions"][1]["den"] = [{"beta": ["1" + "0" * 4000],
                                   "mult": 10 ** 4000}]
    problem = tmp_path / "huge-beta.json"
    problem.write_text(json.dumps(raw))
    code, rep = run(capsys, "ve", "--in", str(problem))
    assert code == 0
    assert rep["functions"][1]["beta"] == [{"rat": "-1" + "0" * 8000}]


def test_ve_on_transcendental_pcs_has_no_extended_group(capsys, tmp_path):
    group = {"components": [{"kind": "cyclic", "gen": "1"}]}
    problem = tmp_path / "transcendental.json"
    problem.write_text(json.dumps({"version": "1", "sequence": {
        "kind": "pcs", "group": group, "pcs_type": "transcendental",
        "chain": [{"terminal": {"dir": "inc", "bound": "unbounded"}}]},
        "functions": [{"lead": ["1"], "num": [{"beta": ["2"]}], "den": []}]}))
    code, rep = run(capsys, "ve", "--in", str(problem))
    assert code == 0 and "extended_group" not in rep
    assert rep["functions"][0]["value"] == [{"rat": "3"}]


@pytest.mark.parametrize("kind, bound", [
    ("pcs", {"in_group": "0"}), ("pcs", {"not_in_group": "1/2"}),
    ("pds", {"in_group": "0"}), ("pds", {"not_in_group": "1/2"})],
    ids=["pcs-in", "pcs-not-in", "pds-in", "pds-not-in"])
@pytest.mark.parametrize("component", [{"kind": "cyclic", "gen": "1"},
                                       {"kind": "formal_integer"}],
                         ids=["cyclic", "formal_integer"])
def test_rank_refuses_bounded_chain_on_discrete_component(capsys, tmp_path,
                                                          kind, bound,
                                                          component):
    sequence = {"kind": kind, "group": {"components": [component]},
                "chain": [{"terminal": {"dir": "inc" if kind == "pcs"
                                        else "dec", "bound": bound}}]}
    if kind == "pcs":
        sequence["pcs_type"] = {"algebraic": {"deg": 1}}
    problem = tmp_path / "discrete.json"
    problem.write_text(json.dumps({"version": "1", "sequence": sequence}))
    code, rep = run(capsys, "rank", "--in", str(problem))
    assert code == 3 and rep["error"] == "invariant"
    assert "discrete component" in rep["detail"]


ORACLE_FIELD = {"kind": "padic", "p": 5}
ORACLE_TERMS = ["1", "6", "31", "156"]


@pytest.mark.parametrize("raw", [
    {"configuration": {"sequence": ["z0", "z1", "z2"], "distances": 5}},
    {"functions": 5},
    {"functions": {"lead": ["0"]}},
    {"oracle": {"field": ORACLE_FIELD, "sequence": ORACLE_TERMS,
                "functions": 5}},
    {"oracle": {"field": ORACLE_FIELD, "sequence": ORACLE_TERMS,
                "functions": [{"num_roots": 5, "tagged": {"lead": ["0"]}}]}},
    {"oracle": {"field": ORACLE_FIELD, "sequence": ORACLE_TERMS,
                "functions": [{"den_roots": "1", "tagged": {"lead": ["0"]}}]}},
], ids=["distances", "functions", "functions-object", "oracle-functions",
        "num_roots", "den_roots"])
def test_non_list_fields_are_schema_errors(capsys, tmp_path, raw):
    problem = tmp_path / "bad.json"
    problem.write_text(json.dumps({"version": "1", **raw}))
    code, rep = run(capsys, "classify", "--in", str(problem))
    assert code == 2 and rep["error"] == "schema"
    assert "must be a list" in rep["detail"]


def classify_file(tmp_path, distances) -> str:
    """A classify input over z0..z3 with the consecutive pairs at 1, 2, 3
    and the given extra distance entries."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"version": "1", "configuration": {
        "sequence": ["z0", "z1", "z2", "z3"],
        "distances": [{"pair": [f"z{i}", f"z{i + 1}"], "v": str(i + 1)}
                      for i in range(3)] + distances}}))
    return str(path)


def test_classify_refuses_finite_self_pair(capsys, tmp_path):
    cfg = classify_file(tmp_path, [{"pair": ["z0", "z0"], "v": "5"}])
    code, rep = run(capsys, "classify", "--in", cfg)
    assert code == 3 and rep["error"] == "invariant"
    assert "self-distance of z0" in rep["detail"]
    cfg = classify_file(tmp_path, [{"pair": ["z0", "z0"], "v": "inf"}])
    assert run(capsys, "classify", "--in", cfg)[0] == 0


@pytest.mark.parametrize("pair", [["z1", "z2"], ["z2", "z1"]],
                         ids=["same-order", "swapped"])
def test_classify_refuses_conflicting_duplicate_pair(capsys, tmp_path, pair):
    cfg = classify_file(tmp_path, [{"pair": pair, "v": "7"}])
    code, rep = run(capsys, "classify", "--in", cfg)
    assert code == 2 and rep["error"] == "schema"
    assert rep["detail"].startswith("configuration.distances[3]: ")
    assert rep["detail"].endswith("at configuration.distances[1]")
    # Repeating a pair with its own value changes nothing.
    cfg = classify_file(tmp_path, [{"pair": pair, "v": "2"}])
    code, rep = run(capsys, "classify", "--in", cfg)
    assert code == 0 and rep["kind"] == "pcs"
    assert rep["delta_prefix"] == [[{"rat": str(k)}] for k in (1, 2, 3)]


Z_GROUP = {"components": [{"kind": "cyclic", "gen": "1"}]}
UNBOUNDED = {"terminal": {"dir": "inc", "bound": "unbounded"}}


@pytest.mark.parametrize("sequence, detail", [
    ({"kind": "pds", "chain": [{"terminal": {"dir": "dec",
                                             "bound": "unbounded"}}]},
     "configuration classifies as pcs but the descriptor declares pds"),
    ({"kind": "pcs", "pcs_type": {"algebraic": {"deg": 1}},
      "chain": [UNBOUNDED], "prefix": [["1"], ["2"], ["4"]]},
     "configuration distance 2 is (3), declared prefix says (4)"),
], ids=["kind", "prefix"])
def test_classify_refuses_a_descriptor_the_configuration_contradicts(
        capsys, tmp_path, sequence, detail):
    path = tmp_path / "both.json"
    problem = json.loads(open(classify_file(tmp_path, [])).read())
    problem["sequence"] = {"group": Z_GROUP, **sequence}
    path.write_text(json.dumps(problem))
    code, rep = run(capsys, "classify", "--in", str(path))
    assert code == 3 and rep["error"] == "invariant"
    assert rep["detail"] == detail


def test_classify_refuses_a_pcts_off_its_declared_delta(capsys, tmp_path):
    path = tmp_path / "pcts.json"
    path.write_text(json.dumps({"version": "1", "configuration": {
        "sequence": ["z0", "z1", "z2", "z3"],
        "distances": [{"pair": [f"z{i}", f"z{i + 1}"], "v": "3"}
                      for i in range(3)]},
        "sequence": {"kind": "pcts", "group": Z_GROUP, "pcts_delta": ["2"]}}))
    code, rep = run(capsys, "classify", "--in", str(path))
    assert code == 3 and rep["error"] == "invariant"
    assert rep["detail"] == ("configuration distance is (3) but the "
                             "descriptor declares delta (2)")


def test_classify_refuses_a_prefix_past_the_cut(capsys, tmp_path):
    # Coordinate 0 settles at 2 from index 5, so an increasing prefix
    # cannot start at (3, 0).
    problem = tmp_path / "past.json"
    problem.write_text(json.dumps({"version": "1", "sequence": {
        "kind": "pcs", "pcs_type": {"algebraic": {"deg": 1}},
        "group": {"components": Z_GROUP["components"] * 2},
        "chain": [{"const": {"v": "2", "from": 5}}, UNBOUNDED],
        "prefix": [["3", "0"], ["3", "1"], ["3", "2"]]}}))
    code, rep = run(capsys, "classify", "--in", str(problem))
    assert code == 3 and rep["error"] == "invariant"
    assert "prefix entry (3, 0)" in rep["detail"]


PCTS_Z = {"kind": "pcts", "group": Z_GROUP}
PCS_Z = {"kind": "pcs", "group": Z_GROUP, "chain": [UNBOUNDED]}
Z_FUNCTION = {"lead": ["0"], "num": [{"limit": True}], "den": []}
SQRT3 = {"surd": {"a": "0", "b": "1", "d": 3}}
SURD_Z = {"kind": "adjoined_surd", "base": Z_GROUP["components"][0],
          "tau": {"surd": {"a": "0", "b": "1", "d": 2}}}


# Each command's refusal, its problem, and the report and exit code it
# answers with.
REFUSALS = [
    ("classify", {"sequence": PCTS_Z}, "invariant",
     "a pcts descriptor needs its delta value", 3),
    ("classify", {"sequence": {**PCTS_Z, "pcts_delta": ["1/2"]}}, "invariant",
     "pcts delta must belong to the group", 3),
    ("classify", {"sequence": {"kind": "pcs", "group": Z_GROUP,
                               "pcs_type": "transcendental"}}, "invariant",
     "a pcs descriptor needs a chain", 3),
    ("classify", {"sequence": {**PCTS_Z, "pcts_delta": ["1"],
                               "prefix": [["1"], ["2"]]}}, "invariant",
     "a pcts prefix must be constant", 3),
    ("classify", {"sequence": {**PCTS_Z, "pcts_delta": ["1"],
                               "prefix": [["2"], ["2"]]}}, "invariant",
     "pcts prefix must equal the declared delta", 3),
    ("classify", {"sequence": {
        "kind": "pcs", "pcs_type": "transcendental",
        "group": {"components": Z_GROUP["components"] * 2},
        "chain": [{"const": {"v": "2", "from": 1}}, UNBOUNDED],
        "prefix": [["1", "5"], ["3", "6"]]}}, "invariant",
     "prefix coordinate 0 must equal 2 from index 1 on", 3),
    ("classify", {"sequence": {**PCS_Z, "pcs_type": {"algebraic": {"deg": 0}}}},
     "invariant", "minimal polynomial degree must be >= 1", 3),
    ("classify", {"configuration": []}, "schema",
     "configuration: configuration must be an object", 2),
    ("classify", {"sequence": {**PCS_Z,
                               "pcs_type": {"algebraic": {"deg": "1"}}}},
     "schema", "sequence: algebraic pcs_type needs an integer deg", 2),
    ("classify", {"sequence": {**PCS_Z, "pcs_type": "transcendental",
                               "chain": [1]}},
     "schema", "sequence.chain[0]: chain entry must be an object", 2),
    ("classify", {"configuration": {
        "sequence": ["z0", "z1", "z2"],
        "distances": [{"pair": ["z1", "z2"], "v": "1"},
                      {"pair": ["z0", "z2"], "v": "1"}]}},
     "indeterminate", "no distance recorded for z0, z1", 4),
    ("ve", {"sequence": {**PCS_Z, "pcs_type": "transcendental"},
            "functions": [{**Z_FUNCTION, "lead": ["1/2"]}]}, "invariant",
     "lead value must be a member of the group", 3),
    ("ve", {"sequence": {**PCS_Z, "pcs_type": {"algebraic": {"deg": 1}}},
            "functions": [{**Z_FUNCTION, "num": [{"beta": ["1/2"]}]}]},
     "invariant", "root distance must be a member of the group", 3),
    ("ve", {"sequence": {**PCS_Z, "pcs_type": {"algebraic": {"deg": 1}}},
            "functions": [{**Z_FUNCTION, "num": [1]}]},
     "schema", "functions[0].num[0]: root must be an object", 2),
    ("sup", {"group": {"components": [{"kind": "adjoined_surd",
                                       "base": Z_GROUP["components"][0],
                                       "tau": "1/2"}]},
             "sequence": {**PCS_Z, "pcs_type": "transcendental"}},
     "schema", "group.components[0]: adjoined tau must be irrational", 2),
    ("sup", {"group": {"components": [{"kind": "adjoined_surd",
                                       "base": SURD_Z, "tau": SQRT3}]},
             "sequence": {**PCS_Z, "pcs_type": "transcendental"}},
     "schema", "group.components[0]: at most one adjoined surd per "
     "component", 2),
    ("oracle-check", {"oracle": {"field": {"kind": "padic", "p": 5},
                                 "sequence": ["1", "6", "31"]}},
     "schema", "oracle section lists no functions to check", 2),
]


@pytest.mark.parametrize("command, problem, error, detail, code", REFUSALS,
                         ids=[case[3] for case in REFUSALS])
def test_refusals_keep_their_text_and_exit_code(capsys, tmp_path, command,
                                                problem, error, detail, code):
    path = tmp_path / "refused.json"
    path.write_text(json.dumps({"version": "1", **problem}))
    assert run(capsys, command, "--in", str(path)) \
        == (code, {"error": error, "detail": detail})


@pytest.mark.parametrize("window", ["-5", "0", "1"])
def test_oracle_check_refuses_tail_window_below_two(capsys, monkeypatch,
                                                    window):
    def no_valuation(*args, **kwargs):
        raise AssertionError("cross_check ran on a refused window")

    monkeypatch.setattr(oracle, "cross_check", no_valuation)
    code, rep = run(capsys, "oracle-check", "--in",
                    "example-cauchy-5adic.json", "--tail-window", window)
    assert code == 2 and rep == {
        "error": "schema",
        "detail": f"--tail-window must be at least 2, got {window}"}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_forgets_rank_dot(capsys, tmp_path):
    dot = tmp_path / "walk.dot"
    assert run(capsys, "rank", "--in", "example-rank3.json",
               "--dot", str(dot))[1]["dot"] == str(dot)
    code, rep = run(capsys, "rank", "--in", "example-rank3.json")
    assert code == 0 and "dot" not in rep


def test_reused_parser_forgets_tail_window(capsys, monkeypatch):
    windows = []
    inner = oracle.cross_check

    def recording(*args):
        windows.append(args[-1])
        return inner(*args)

    monkeypatch.setattr(oracle, "cross_check", recording)
    for extra in (["--tail-window", "3"], []):
        code, rep = run(capsys, "oracle-check", "--in",
                        "example-composite-rank2.json", *extra)
        assert code == 0 and rep["all_agree"] is True
    assert windows == [3, None]


def test_reused_parser_forgets_probes(capsys, tmp_path):
    probes = tmp_path / "probes.json"
    probes.write_text(json.dumps({"version": "1", "probes": [["0"], ["1"]]}))
    code, rep = run(capsys, "probe", "--in", "example-3-6-not-1.json",
                    "--probes", str(probes))
    assert code == 0 and rep["auto_probes"] is False
    code, rep = run(capsys, "probe", "--in", "example-3-6-not-1.json")
    assert code == 0 and rep["auto_probes"] is True


def test_reused_parser_recovers_from_a_bad_argument_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--in", "example-rank3.json", "--no-such-flag"])
    assert exc.value.code == 2
    assert "usage: pmsval" in capsys.readouterr().err
    code, rep = run(capsys, "rank", "--in", "example-rank3.json")
    assert code == 0 and rep["output_rank"] == 3


def test_golden_reports_in_shuffled_order_in_one_process(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    order = sorted(cases().items())
    random.Random(9).shuffle(order)
    for case, argv in order:
        assert run_case(argv, tmp_path) == golden[case], case


# Unreadable inputs and unwritable outputs are schema errors (exit 2) with a
# JSON report on stdout, never exit 1 or 5.


def schema_error_on_stdout(capsys, argv, detail) -> None:
    code = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep == {"error": "schema", "detail": detail}


def test_directory_as_problem_file(capsys, tmp_path):
    schema_error_on_stdout(
        capsys, ["classify", "--in", str(tmp_path)],
        f"cannot read problem file {tmp_path}: Is a directory")


def test_directory_as_probes_file(capsys, tmp_path):
    schema_error_on_stdout(
        capsys, ["probe", "--in", "example-3-6-not-1.json",
                 "--probes", str(tmp_path)],
        f"cannot read problem file {tmp_path}: Is a directory")


@pytest.mark.parametrize("where", ["missing", "directory", "through a file",
                                   "tab", "nul"])
def test_problem_names_that_open_no_file(capsys, tmp_path, where):
    (tmp_path / "afile.json").write_text("{}")
    name = {"missing": str(tmp_path / "missing.json"),
            "directory": str(tmp_path),
            "through a file": str(tmp_path / "afile.json" / "x"),
            "tab": "example-rank3.json\t",
            "nul": "example-rank3.json\0"}[where]
    schema_error_on_stdout(
        capsys, ["sup", "--in", name],
        f"cannot read problem file {name}: Is a directory"
        if where == "directory" else
        f"no such problem file or bundled problem: {name}")


def test_a_file_name_too_long_to_open_is_a_schema_error(capsys):
    name = "x" * 300 + ".json"
    schema_error_on_stdout(capsys, ["sup", "--in", name],
                           f"cannot read problem file {name}: "
                           "File name too long")


def test_a_bundled_name_is_read_when_no_file_has_it(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, rep = run(capsys, "sup", "--in", "example-rank3.json")
    assert code == 0 and rep["command"] == "sup"


def test_problem_file_not_utf8(capsys, tmp_path):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    code = main(["classify", "--in", str(bad)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2 and rep["error"] == "schema"
    assert rep["detail"].startswith(f"cannot read problem file {bad}: "
                                    "'utf-8' codec can't decode byte 0xff")


def test_directory_as_dot_file(capsys, tmp_path):
    schema_error_on_stdout(
        capsys, ["rank", "--in", "example-rank3.json", "--dot", str(tmp_path)],
        f"cannot write {tmp_path}: Is a directory")


def test_directory_as_out_file(capsys, tmp_path):
    schema_error_on_stdout(
        capsys, ["rank", "--in", "example-rank3.json", "--out", str(tmp_path)],
        f"cannot write {tmp_path}: Is a directory")


def test_float_in_a_report_is_an_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_sup", lambda problem: ({"x": 0.5}, 0))
    code, rep = run(capsys, "sup", "--in", "example-rank3.json")
    assert code == 5 and rep["error"] == "internal"
    assert rep["detail"].startswith("TypeError: ")
