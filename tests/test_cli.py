"""End-to-end CLI runs over the bundled problem corpus."""

from __future__ import annotations

import json

from pmsval.cli import main


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


def test_sup_command(capsys):
    code, rep = run(capsys, "sup", "--in", "example-pds-mirror.json")
    assert code == 0
    assert rep["inf"]["value"] == [{"rat": "0"}] and rep["inf"]["in_group"]


def test_oracle_check_agrees(capsys):
    code, rep = run(capsys, "oracle-check", "--in", "example-cauchy-5adic.json")
    assert code == 0 and rep["all_agree"] is True
    code2, rep2 = run(capsys, "oracle-check", "--in",
                      "example-composite-rank2.json", "--tail-window", "4")
    assert code2 == 0 and rep2["all_agree"] is True


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
