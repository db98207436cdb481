"""The benchmark's own tests: tiny smoke runs of every workload, traced and
untraced, and proof that the answer checks catch a wrong expectation.

    python3 -m pytest pmsbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pmsval  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from values import Surd, add  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Smallest pools that still reach every layer the map expects on each
# workload: both fields, both kinds.
TINY = {
    "oracle-sweep": dict(sizes=(8,), rounds=2),
    "witness-config": dict(sizes=(8, 10), rounds=1),
    "symbolic-batch": dict(sizes=(1, 2), rounds=6),
}


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_end_to_end(name):
    result = run.run_workload(tiny(name), seed=7, seconds=0, trace=False,
                              spawns=1)
    assert result["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(TINY[name]["sizes"])
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced_follows_layer_map(name):
    result = run.run_workload(tiny(name), seed=7, seconds=0, trace=True)
    assert result["failures"] == []
    assert {k: m["unit"] for k, m in result["metrics"].items()} \
        == {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}


def _corrupt(name, expected):
    if name == "oracle-sweep":
        expected["d"] += 1
    elif name == "witness-config":
        w, beta = next(iter(expected["nonlimits"].items()))
        expected["nonlimits"][w] = beta[:-1] + (Surd(Fraction(0), Fraction(1), 2),)
    else:
        alpha = expected["rank"]["alpha"]
        expected["rank"]["alpha"] = (add(alpha[0], Fraction(1)),) + alpha[1:]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_expectation_counts_as_failed(name, tmp_path):
    wl = tiny(name)
    pool = wl.pool(seed=3)
    run.write_problems(pool, tmp_path)
    problem = pool[0]
    failures = []
    run.run_problem(wl, problem, failures)
    assert failures == []
    _corrupt(name, problem.expected)
    run.run_problem(wl, problem, failures)
    assert len(failures) == 1 and failures[0].startswith("problem 0")


def test_pools_are_seeded():
    for wl in WORKLOADS.values():
        first = [p.text for p in wl.pool(5, rounds=1)]
        assert first == [p.text for p in wl.pool(5, rounds=1)]
        assert first != [p.text for p in wl.pool(6, rounds=1)]


def test_tracer_wraps_every_binding():
    originals = {
        "seq": pmsval.sequences.classify_from_prefix,
        "pcs": pmsval.engine.check_pcs_equivalence_iii,
        "compare": pmsval.exact.ExactReal.compare,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = pmsval.sequences.classify_from_prefix
        assert wrapped is not originals["seq"]
        assert pmsval.oracle.classify_from_prefix is wrapped
        assert pmsval.classify_from_prefix is wrapped
        assert pmsval.ranktree.check_pcs_equivalence_iii \
            is pmsval.engine.check_pcs_equivalence_iii \
            is pmsval.check_pcs_equivalence_iii
        assert pmsval.engine.check_pcs_equivalence_iii is not originals["pcs"]
        assert pmsval.exact.ExactReal.compare is not originals["compare"]
    finally:
        tracer.uninstall()
    assert pmsval.oracle.classify_from_prefix is originals["seq"]
    assert pmsval.ranktree.check_pcs_equivalence_iii is originals["pcs"]
    assert pmsval.exact.ExactReal.compare is originals["compare"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} \
        == {name: wl.why for name, wl in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "oracle-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
