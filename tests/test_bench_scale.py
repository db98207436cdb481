"""bench/scale.py: pacing each run, and --diff's scaling and noise rule."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "scale.py"
spec = importlib.util.spec_from_file_location("scale", SCRIPT)
scale = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale)


def bench_file(pace_s: float, entries: list[tuple]) -> dict:
    """A file as --out writes it; each entry is (n, q1, median, q3)."""
    return {"commit": "0" * 40, "entries": [
        {"series": "rank-alpha", "n": n, "q1": q1, "median": median, "q3": q3,
         "pace_s": pace_s} for n, q1, median, q3 in entries]}


def test_diff_cancels_a_slower_pace():
    old = bench_file(0.004, [(1, 0.9, 1.0, 1.1), (2, 1.9, 2.0, 2.1)])
    new = bench_file(0.008, [(1, 1.8, 2.0, 2.2), (2, 3.8, 4.0, 4.2)])
    lines = scale.diff(old, new)[1:]
    assert [line.split()[3:] for line in lines] == [
        ["x0.500", "1.000000", "->", "1.000000", "x1.000", "within", "noise"],
        ["x0.500", "2.000000", "->", "2.000000", "x1.000", "within", "noise"]]


def test_diff_needs_a_move_beyond_both_spreads():
    old = bench_file(0.004, [(1, 0.99, 1.0, 1.01), (2, 0.99, 1.0, 1.01)])
    # n = 1 moves by 0.3, inside the new file's spread of 0.4; n = 2 moves
    # by 0.3 with both spreads at 0.02.
    new = bench_file(0.004, [(1, 1.1, 1.3, 1.5), (2, 1.29, 1.3, 1.31)])
    first, second = scale.diff(old, new)[1:]
    assert first.endswith("x1.300  within noise")
    assert second.endswith("x1.300  beyond noise")


def test_diff_of_files_without_a_pace_is_unscaled():
    old = bench_file(0.004, [(1, 0.9, 1.0, 1.1)])
    new = bench_file(0.008, [(1, 1.8, 2.0, 2.2)])
    del old["entries"][0]["pace_s"]
    (line,) = scale.diff(old, new)[1:]
    assert line.split()[3:] == ["x1.000", "1.000000", "->", "2.000000",
                                "x2.000", "beyond", "noise"]


def test_paced_runs_cancel_a_steady_drift(monkeypatch):
    # The machine slows by a tenth with every call, reference and run alike;
    # a run sits halfway between the reference blocks on either side of it.
    calls = []

    def slowing(seconds):
        calls.append(None)
        return seconds * (1 + len(calls) / 10)

    monkeypatch.setattr(scale, "PACE_RUNS", 1)
    monkeypatch.setattr(scale, "time_reference", lambda: slowing(0.002))
    point = scale.paced(lambda: slowing(0.1))
    assert point["runs"] == pytest.approx([0.1 / 0.002 * scale.REFERENCE_S]
                                          * scale.REPEAT)
    assert point["q3"] - point["q1"] == pytest.approx(0)
    assert point["pace_s"] == pytest.approx(0.002 * (1 + 6 / 10))


def test_diff_of_files_paced_run_by_run_is_unscaled():
    old = bench_file(0.004, [(1, 0.99, 1.0, 1.01)])
    new = bench_file(0.008, [(1, 0.98, 1.0, 1.02)])
    old["reference_s"] = new["reference_s"] = scale.REFERENCE_S
    (line,) = scale.diff(old, new)[1:]
    assert line.split()[3:] == ["x1.000", "1.000000", "->", "1.000000",
                                "x1.000", "within", "noise"]


def test_diff_converts_a_file_paced_per_point():
    # The old file recorded only each point's pace: at twice the reference
    # time, its 2.0 s is 1.0 s at reference speed.
    old = bench_file(2 * scale.REFERENCE_S, [(1, 1.98, 2.0, 2.02)])
    new = bench_file(0.0, [(1, 0.99, 1.0, 1.01)])
    new["reference_s"] = scale.REFERENCE_S
    (line,) = scale.diff(old, new)[1:]
    assert line.split()[3:] == ["x2.000", "2.000000", "->", "2.000000",
                                "x1.000", "within", "noise"]


@pytest.mark.parametrize("n", scale.RANKS)
def test_decode_dump_problem_is_a_rank_n_pcs(n):
    problem = scale.jsonio.loads_problem(scale.symbolic_problem(n))
    report, code = scale.cli.cmd_rank(problem)
    assert code == 0 and report["input_rank"] == n


def test_composite_check_problem_agrees(capsys, tmp_path):
    file = tmp_path / "composite.json"
    file.write_text(scale.composite_problem(40))
    assert scale.cli.main(["oracle-check", "--in", str(file)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_agree"]
    assert [(f["kind"], f["fit"]["kind"]) for f in report["functions"]] == [
        ("pcs", "affine"), ("pcs", "constant")]
    assert report["functions"][0]["delta_prefix"][-1] == [{"rat": "40"},
                                                          {"rat": "0"}]
