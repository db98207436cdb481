"""Summarise or compare benchmark result files, metric by metric.

    python3 pmsbench/compare.py runs.jsonl             # spread of one set
    python3 pmsbench/compare.py parent.jsonl change.jsonl  # two sets, side by side

A result file is the JSON-lines output of ``run.py --out``; runs of one
workload with other seeds are pooled.  For each workload and metric --
end-to-end and per-layer alike -- this prints the median and quartiles
(``statistics.quantiles(values, n=4)``), the quartile spread as a share of
the median, and, where BENCHMARK.json gives one, the metric's bound.  With
two files it also prints the change of the median and flags an end-to-end
metric that got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """(workload, metric) -> list of values, in file order."""
    out = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        for name, m in rec["result"]["metrics"].items():
            out[(rec["workload"], name)].append(m["value"])
    return out


def summary(values: list) -> tuple[float, float, float, float]:
    """median, q1, q3 and (q3 - q1) / median."""
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def declared() -> dict:
    """metric -> (better, bound or None), from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one result file, or two to compare")
    sets = [load(f) for f in args.files]
    spec = declared()
    keys = sorted(set().union(*sets))
    worse = 0
    for workload, metric in keys:
        better, bound = spec.get(metric, ("lower", None))
        cols = []
        meds = []
        for s in sets:
            values = s.get((workload, metric))
            if not values:
                cols.append("-")
                meds.append(None)
                continue
            med, q1, q3, spread = summary(values)
            meds.append(med)
            cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] "
                        f"spread {spread:.3f} n={len(values)}")
        line = f"{workload:15} {metric:50} " + " | ".join(cols)
        if bound is not None:
            line += f" | bound {bound}"
        if len(sets) == 2 and None not in meds and meds[0]:
            change = (meds[1] - meds[0]) / meds[0]
            line += f" | change {change:+.3f}"
            loss = change if better == "lower" else -change
            if bound is not None and loss > bound:
                line += " WORSE BEYOND BOUND"
                worse += 1
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
