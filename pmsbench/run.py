"""Run one pmsval benchmark workload, or all of them, and print its metrics.

    python3 pmsbench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0
    python3 pmsbench/run.py --workload all --seed 1 --seconds 30 --out runs.jsonl

Run it from a checkout of the repository: it imports pmsval from ``src/``
of the checkout, so nothing needs installing.  Each metric is printed on
its own line with its unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones from a separate traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCE_S, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# End-to-end metric -> unit.  failed_ratio is printed but is not a gated
# metric: it is 0 when all is well, which a relative bound cannot judge;
# the result line's attempted and failed carry it.
END_TO_END = {
    "problems_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_SPAWNS = 20
# A measured run completes at least this many problems, however slow the
# machine, so that its figures never rest on one or two passes of a small
# pool.
MIN_COMPLETED = 100
# Times are read on the client thread's CPU clock.  The program is
# single-threaded and does no waiting I/O, so on an idle machine this equals
# wall time; on a shared one it leaves out the time the thread sat
# descheduled behind other work, which belongs to the machine, not pmsval.
# The end-to-end times are then paced by the reference computation
# (reference.py).
clock = time.thread_time
# Rounds of the pool (one problem of every size each) that the traced run
# passes over: untraced, traced, untraced again.
TRACE_ROUNDS = {"oracle-sweep": 4, "witness-config": 1, "symbolic-batch": 12}


def measure_setup(spawns: int) -> float:
    """Set-up time of a fresh interpreter importing pmsval and its CLI, in
    seconds at reference speed: the median over the spawns of each spawn's
    CPU time (user + system) over the mean of the reference runs on either
    side, times REFERENCE_S.  One untimed spawn first leaves __pycache__
    built.  Each spawn is waited for, so the growth of RUSAGE_CHILDREN
    across it is that interpreter's own time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-c", "import pmsval, pmsval.cli"]

    def children_cpu() -> float:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        return usage.ru_utime + usage.ru_stime

    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    ratios = []
    before = time_reference()
    for _ in range(spawns):
        start = children_cpu()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        spent = children_cpu() - start
        after = time_reference()
        ratios.append(2 * spent / (before + after))
        before = after
    return statistics.median(ratios) * REFERENCE_S


def write_problems(pool, workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for problem in pool:
        problem.path = str(workdir / f"problem-{problem.pid}.json")
        Path(problem.path).write_text(problem.text)


def run_problem(wl, problem, failures: list) -> float:
    """Drive one problem; time it from problem text to parsed verdict, then
    check the verdict outside the timed region."""
    start = clock()
    try:
        out = wl.drive(problem)
    except Exception as exc:  # a raise is a failed problem, not a crash
        failures.append(f"problem {problem.pid}: raised {exc!r}")
        return clock() - start
    latency = clock() - start
    errors = wl.check(problem, out)
    if errors:
        failures.append(f"problem {problem.pid} (size {problem.size}): "
                        + "; ".join(errors[:3]))
    return latency


def timed_loop(wl, pool, seconds: float,
               failures: list) -> tuple[list, int, float]:
    """Closed loop over the pool, pass after pass, while fewer than
    MIN_COMPLETED problems have run or the next pass would end less than
    half a pass after the measuring time.  Returns each problem's time to verdict in seconds at reference
    speed, the pass count and the median time of the reference.

    The reference computation runs between every two problems.  A visit's
    time is its CPU time over the mean of the reference runs on either
    side, times REFERENCE_S; a problem's time is the median over its
    visits, which lie a pass apart.
    """
    ratios: list[list[float]] = [[] for _ in pool]
    paces = []
    start = time.perf_counter()
    passes = 0
    before = time_reference()
    while True:
        for k, problem in enumerate(pool):
            latency = run_problem(wl, problem, failures)
            after = time_reference()
            ratios[k].append(2 * latency / (before + after))
            paces.append(after)
            before = after
        passes += 1
        elapsed = time.perf_counter() - start
        if (passes * len(pool) >= MIN_COMPLETED
                and elapsed + elapsed / passes / 2 > seconds):
            return ([statistics.median(r) * REFERENCE_S for r in ratios],
                    passes, statistics.median(paces))


def end_to_end(wl, pool, seconds: float, spawns: int) -> tuple[dict, int, list]:
    setup_s = measure_setup(spawns)
    failures: list[str] = []
    run_problem(wl, pool[0], [])  # untimed: lazy imports and file cache
    times, passes, pace = timed_loop(wl, pool, seconds, failures)
    print(f"{wl.name} reference_ms {pace * 1000:.6g} ms (the machine's pace "
          f"in this run; {REFERENCE_S * 1000:g} ms is reference speed)")
    ms = [x * 1000 for x in times]
    metrics = {
        "problems_per_s": len(times) / sum(times),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": statistics.quantiles(ms, n=10,
                                               method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    return metrics, passes * len(pool), failures


def traced(wl, pool, seed: int, spans_path: Path) -> tuple[dict, int, list]:
    from tracing import LAYER_METRICS, Tracer, layer_violations
    problems = pool[:TRACE_ROUNDS[wl.name] * len(wl.sizes)]
    failures: list[str] = []
    run_problem(wl, problems[0], [])

    def rate(tracer=None) -> float:
        start = clock()
        for problem in problems:
            if tracer:
                tracer.begin(problem.pid)
            run_problem(wl, problem, failures)
            if tracer:
                tracer.end()
        return len(problems) / (clock() - start)

    # Untraced passes on both sides of the traced one, so that drift in
    # machine speed does not read as tracing overhead.
    before = rate()
    tracer = Tracer()
    tracer.install()
    try:
        traced_rate = rate(tracer)
    finally:
        tracer.uninstall()
    untraced = (before + rate()) / 2
    found = tracer.metrics()
    found["bench.untraced_problems_per_s"] = untraced
    found["bench.traced_problems_per_s"] = traced_rate
    found["bench.trace_overhead_problems_per_s"] = untraced - traced_rate
    metrics = {name: found[name] for name in LAYER_METRICS}
    failures += [f"layer map: {v}" for v in layer_violations(wl.name, found)]
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"workload": wl.name, "seed": seed,
                                      **tracer.dump()}))
    return metrics, 3 * len(problems), failures


def run_workload(wl, seed: int, seconds: float, trace: bool,
                 spawns: int = SETUP_SPAWNS) -> dict:
    """One run; returns the result object the last output line carries."""
    from tracing import LAYER_METRICS
    pool = wl.pool(seed)
    workdir = OUT / f"work-{os.getpid()}-{wl.name}"
    try:
        write_problems(pool, workdir)
        if trace:
            values, attempted, failures = traced(
                wl, pool, seed, OUT / f"spans-{wl.name}-seed{seed}.json")
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        else:
            values, attempted, failures = end_to_end(wl, pool, seconds, spawns)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for f in failures if f.startswith("problem"))
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in values.items()},
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each run's result to this "
                                      "JSON-lines file")
    args = parser.parse_args(argv)
    if not (SRC / "pmsval" / "__init__.py").is_file():
        print(f"pmsval sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        results[name] = result
        for failure in result["failures"][:10]:
            print(f"FAILED {name}: {failure}", file=sys.stderr)
        attempted = result["attempted"]
        print(f"{name} failed_ratio {result['failed'] / attempted:.6g} ratio "
              f"(n={attempted})")
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({
                    "workload": name, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds,
                    "machine": {"platform": platform.platform(),
                                "python": platform.python_version(),
                                "cpus": os.cpu_count()},
                    "result": {k: v for k, v in result.items()
                               if k != "failures"}}) + "\n")
    if len(names) == 1:
        summary = results[names[0]]
        metrics = summary["metrics"]
    else:
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values())}
        metrics = {f"{n}/{k}": m for n, r in results.items()
                   for k, m in r["metrics"].items()}
    print(json.dumps({"correct": summary["correct"],
                      "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
