"""Scaling curves for pmsval: CPU time against sequence length and group rank.

    python3 bench/scale.py --out BENCH.json            # measure and write
    python3 bench/scale.py --diff OLD.json NEW.json    # compare two files

Six series; each point is the median of five runs with its quartiles:

- ``oracle-check``: ``python3 -m pmsval oracle-check`` on the 5-adic Cauchy
  sequence z_n = (5^(n+1) - 1)/4, N = 40 ... 2560 doubling.  CPU time (user
  plus system) of the child process, interpreter start included.
- ``composite-check``: the same on the Q(t) pcs z_n = t + t^(n+2) under
  the composite valuation with p = 5 (one terminal chain, increasing and
  unbounded, and the functions of the bundled
  ``example-composite-rank2.json``), N = 40 ... 640 doubling.  Its terms
  are written as dense coefficient lists of length up to N + 2.
- ``config-limit``: decoding a JSON configuration (a pcs over Z with
  delta_i = i and a limit y; every pair listed) plus ``is_limit``,
  N = 10 ... 160 doubling.  In-process CPU time, garbage collector off.
- ``rank-alpha``: ``rank_of_vE``, which includes its alpha check, on a pcs
  of rank n over the rationals with constants in front of a bounded
  terminal coordinate, n = 1 ... 6.  In-process CPU time, garbage
  collector off.
- ``cli-commands``: ``cli.main`` running one of the five commands of the
  benchmark's symbolic-batch workload (classify, ve, rank, sup, probe) on
  the bundled ``example-3-6-not-1.json``, after one untimed call; n names
  the command.  In-process CPU time per call, averaged over a batch of
  calls, garbage collector off.
- ``decode-dump``: ``jsonio.loads_problem`` on a problem in the shape of
  the benchmark's symbolic-batch problems (the group written twice, a
  chain of constants, a prefix of six values repeating them, one tagged
  function) of rank n = 1 ... 6, and ``jsonio.dump_report`` on its ``rank``
  report; n is ``decode-<rank>`` or ``dump-<rank>``.  In-process CPU time
  per call, averaged over a batch of calls, garbage collector off.

Each run is paced as the benchmark paces its problems: blocks of runs of
the benchmark's reference computation (``pmsbench/reference.py``) sit
before, between and after a point's runs, and each run's time is divided
by the mean pace of the blocks on either side of it and multiplied by
``REFERENCE_S``, giving seconds at reference speed.  A machine that slows
for a while then slows a run and its pace alike, and the quartiles are
taken over the paced runs.  Each point also records its pace, the median
reference time.  ``--diff`` compares two files at reference speed, so a
machine that ran slower in one session does not read as a code change;
a file written before runs were paced one by one is converted by its
points' paces.  The file also records the machine, the Python version and
the git commit of the checkout measured (``dirty`` when its working tree
differs from that commit).  The measured code is the ``src/`` next to this
script.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from pmsbench.reference import REFERENCE_S, time_reference  # noqa: E402
from pmsval import cli, jsonio  # noqa: E402
from pmsval.exact import ExactReal  # noqa: E402
from pmsval.groups import FullRational, GroupDescriptor  # noqa: E402
from pmsval.ranktree import rank_of_vE  # noqa: E402
from pmsval.sequences import (Algebraic, ConstantFrom, PmsDescriptor,  # noqa: E402
                              PmsKind, StageChain, Tri, is_limit)

ORACLE_SIZES = (40, 80, 160, 320, 640, 1280, 2560)
COMPOSITE_SIZES = (40, 80, 160, 320, 640)
CONFIG_SIZES = (10, 20, 40, 80, 160)
RANKS = (1, 2, 3, 4, 5, 6)
CLI_PROBLEM = "example-3-6-not-1.json"
CLI_COMMANDS = ("classify", "ve", "rank", "sup", "probe")
CLI_BATCH = 20
IO_BATCH = 50
PACE_RUNS = 5
REPEAT = 5


def paced(run) -> dict:
    """REPEAT calls of run(), which returns seconds, paced as
    pmsbench/run.py paces its problems: each call's time over the mean
    reference time just before and just after it, times REFERENCE_S.  The
    reference time on each side is the median of a block of PACE_RUNS
    runs, shared by the calls before and after the block.  Returns the
    paced runs with their median and quartiles, and the median reference
    time as the pace of this point."""
    def block() -> float:
        return statistics.median(time_reference() for _ in range(PACE_RUNS))

    runs, paces = [], [block()]
    for _ in range(REPEAT):
        spent = run()
        paces.append(block())
        runs.append(2 * spent / (paces[-2] + paces[-1]) * REFERENCE_S)
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs,
            "pace_s": statistics.median(paces)}


def bundled(name: str) -> dict:
    return json.loads(resources.files("pmsval").joinpath(
        "problems", name).read_text())


def oracle_problem(n: int) -> str:
    raw = bundled("example-cauchy-5adic.json")
    raw["oracle"]["sequence"] = [str((5 ** (k + 1) - 1) // 4)
                                 for k in range(n)]
    return json.dumps(raw)


def composite_problem(n: int) -> str:
    raw = bundled("example-composite-rank2.json")
    del raw["sequence"]["prefix"]
    raw["sequence"]["chain"] = [{"terminal": {"dir": "inc",
                                              "bound": "unbounded"}}]
    raw["oracle"]["sequence"] = [{"num": ["0", "1"] + ["0"] * k + ["1"]}
                                 for k in range(n)]
    return json.dumps(raw)


def child_cpu(argv: list[str]) -> float:
    """CPU seconds (user + system) of one child process run to completion."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def child_series(series: str, sizes: tuple, problem) -> list[dict]:
    """``oracle-check`` in a child process on problem(n) for each size n."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            path = Path(tmp) / f"{series}-{n}.json"
            path.write_text(problem(n))
            argv = [sys.executable, "-m", "pmsval", "oracle-check", "--in",
                    str(path)]
            out.append({"series": series, "n": n,
                        "clock": "child CPU s at reference speed",
                        **paced(lambda: child_cpu(argv))})
    return out


def config_problem(n: int) -> str:
    group = {"components": [{"kind": "cyclic", "gen": "1"}]}
    z = [f"z{i}" for i in range(n)]
    dist = [{"pair": [z[i], z[j]], "v": [str(i)]}
            for i in range(n) for j in range(i + 1, n)]
    dist += [{"pair": ["y", z[i]], "v": [str(i)]} for i in range(n)]
    return json.dumps({
        "version": "1", "group": group,
        "sequence": {"kind": "pcs", "group": group,
                     "chain": [{"terminal": {"dir": "inc",
                                             "bound": "unbounded"}}],
                     "pcs_type": {"algebraic": {"deg": 1}}},
        "configuration": {"sequence": z, "points": ["y"], "distances": dist}})


def timed(fn) -> float:
    """CPU seconds of one call, with the garbage collector off (as timeit
    does), so that a collection of earlier runs' garbage is not charged to
    this one."""
    gc.collect()
    gc.disable()
    try:
        start = time.process_time()
        fn()
        return time.process_time() - start
    finally:
        gc.enable()


def config_series() -> list[dict]:
    out = []
    for n in CONFIG_SIZES:
        text = config_problem(n)

        def build_and_check():
            problem = jsonio.loads_problem(text)
            if is_limit("y", problem.sequence, problem.configuration) \
                    is not Tri.TRUE:
                raise SystemExit(f"config-limit N={n}: y is not a limit")

        out.append({"series": "config-limit", "n": n,
                    "clock": "process CPU s at reference speed",
                    **paced(lambda: timed(build_and_check))})
    return out


def rank_descriptor(n: int) -> PmsDescriptor:
    zero = ExactReal.rational(0)
    group = GroupDescriptor.of(*[FullRational()] * n)
    chain = StageChain(tuple(ConstantFrom(ExactReal.rational(Fraction(k, 2)), 0)
                             for k in range(n - 1)), zero, True)
    return PmsDescriptor(PmsKind.PCS, group, chain=chain,
                         pcs_type=Algebraic(1))


def rank_series() -> list[dict]:
    out = []
    for n in RANKS:
        E = rank_descriptor(n)

        def walk():
            result = rank_of_vE(E)
            if result.alpha_check is None or not result.alpha_check.holds:
                raise SystemExit(f"rank-alpha n={n}: alpha check failed")

        out.append({"series": "rank-alpha", "n": n,
                    "clock": "process CPU s at reference speed",
                    **paced(lambda: timed(walk))})
    return out


def cli_series() -> list[dict]:
    out = []
    for command in CLI_COMMANDS:
        argv = [command, "--in", CLI_PROBLEM]

        def batch():
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in range(CLI_BATCH):
                    if cli.main(argv) != 0:
                        raise SystemExit(f"cli-commands {command}: nonzero exit")

        batch()
        out.append({"series": "cli-commands", "n": command,
                    "clock": "process CPU s per call at reference speed",
                    **paced(lambda: timed(batch) / CLI_BATCH)})
    return out


def symbolic_problem(n: int) -> str:
    """A pcs of rank n: cyclic components (1/2)Z in front of a rational
    one, the constants 0, 1/2, ... and a terminal coordinate increasing to
    the bound 0, written as a symbolic-batch problem is."""
    group = {"components": [{"kind": "cyclic", "gen": "1/2"}] * (n - 1)
             + [{"kind": "rationals"}]}
    consts = [str(Fraction(k, 2)) for k in range(n - 1)]
    chain = ([{"const": {"v": c, "from": 0}} for c in consts]
             + [{"terminal": {"dir": "inc", "bound": {"in_group": "0"}}}])
    function = {"lead": ["0"] * n,
                "num": [{"limit": True, "mult": 1},
                        {"beta": consts + ["1"], "mult": 2}],
                "den": [{"beta": ["0"] * n, "mult": 1}]}
    return json.dumps({
        "version": "1", "group": group,
        "sequence": {"kind": "pcs", "group": group, "chain": chain,
                     "pcs_type": {"algebraic": {"deg": 1}},
                     "prefix": [consts + [f"-1/{k + 1}"] for k in range(6)]},
        "functions": [function]})


def io_series() -> list[dict]:
    out = []
    for n in RANKS:
        text = symbolic_problem(n)
        report, _ = cli.cmd_rank(jsonio.loads_problem(text))
        for layer, call in (("decode", lambda: jsonio.loads_problem(text)),
                            ("dump", lambda: jsonio.dump_report(report))):
            def batch():
                for _ in range(IO_BATCH):
                    call()

            out.append({"series": "decode-dump", "n": f"{layer}-{n}",
                        "clock": "process CPU s per call at reference speed",
                        **paced(lambda: timed(batch) / IO_BATCH)})
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def machine() -> dict:
    model = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"platform": platform.platform(), "cpu": model,
            "cpus": os.cpu_count(), "python": platform.python_version()}


def measure() -> dict:
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--", "src", "bench")),
            "machine": machine(), "repeat": REPEAT,
            "reference_s": REFERENCE_S,
            "entries": child_series("oracle-check", ORACLE_SIZES,
                                    oracle_problem)
            + child_series("composite-check", COMPOSITE_SIZES,
                           composite_problem)
            + config_series() + rank_series() + cli_series() + io_series()}


def to_reference(f: dict, e: dict) -> float | None:
    """The factor that turns entry e of file f into seconds at reference
    speed: 1 when f paced each run, REFERENCE_S over e's pace when f only
    recorded the pace, None when f predates the pace."""
    if "reference_s" in f:
        return 1.0
    return REFERENCE_S / e["pace_s"] if "pace_s" in e else None


def diff(old: dict, new: dict) -> list[str]:
    """One line per entry in both files: the factor that brings the new
    entry to the old one's pace, the old median, the new median scaled by
    it, their ratio, and whether the move exceeds the larger of the two
    entries' quartile spreads.  Two files paced run by run compare as they
    are (factor 1); an entry of a file written before the pace was
    recorded is compared unscaled."""
    before = {(e["series"], e["n"]): e for e in old["entries"]}
    lines = [f"old {old['commit'][:12]} -> new {new['commit'][:12]}"]
    for e in new["entries"]:
        o = before.get((e["series"], e["n"]))
        if o is None:
            continue
        fo, fe = to_reference(old, o), to_reference(new, e)
        pace = fe / fo if fo and fe else 1.0
        median = e["median"] * pace
        spread = max(o["q3"] - o["q1"], (e["q3"] - e["q1"]) * pace)
        moved = abs(median - o["median"]) > spread
        lines.append(f"{e['series']:>13} {e['n']:>8}  pace x{pace:.3f}  "
                     f"{o['median']:.6f} -> {median:.6f}  "
                     f"x{median / o['median']:.3f}  "
                     f"{'beyond' if moved else 'within'} noise")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the measurements here")
    group.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                       help="compare two files written by --out")
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text()) for p in args.diff)
        print("\n".join(diff(old, new)))
        return 0
    Path(args.out).write_text(json.dumps(measure(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
