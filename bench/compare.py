#!/usr/bin/env python3
"""Summarise one result set of bench/run.py, or compare two.

    python3 bench/compare.py BASE_DIR [NEW_DIR]

A result set is a directory of the records ``bench/run.py --results DIR``
writes, one per (workload, seed, trace).  For each workload this prints, for
every end-to-end metric, the median over the set's untraced runs and the
spread (distance between the first and third quartile, as a share of the
median).  Given NEW_DIR it also checks, and exits 1 unless all hold:

- each end-to-end median of NEW is no worse than BASE's by more than the
  metric's bound in BENCHMARK.json;
- the share of failed operations per workload is exactly the same;
- every count of a (workload, seed, trace) present in both sets is equal.
"""

from __future__ import annotations

import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load(directory: Path) -> list:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(directory.glob("*.json"))]


def summarise(records: list) -> dict:
    """workload -> metric -> (median, spread, n) over untraced runs, plus the failed share."""
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r["result"] for r in records if r["workload"] == workload and r["trace"] == 0]
        if not runs:
            continue
        entry = {"failed_share": {Fraction(r["failed"], r["attempted"]) for r in runs}}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            median = statistics.median(values)
            spread = 0.0
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
            entry[metric["name"]] = (median, spread, len(values))
        out[workload] = entry
    return out


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    summaries = [summarise(s) for s in sets]
    problems = []
    for workload, entry in summaries[0].items():
        print(f"{workload}: failed share {', '.join(map(str, sorted(entry['failed_share'])))}")
        if len(entry["failed_share"]) != 1:
            problems.append(f"{workload}: failed share varies within {argv[0]}")
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            median, spread, n = entry[name]
            line = f"  {name:12s} median {median:12.4f} {metric['unit']:5s} spread {spread:6.3f} (n={n}, bound {bound})"
            if len(summaries) == 2 and workload in summaries[1]:
                new = summaries[1][workload][name][0]
                change = (new - median) / median
                worse = change if metric["better"] == "lower" else -change
                line += f" | new {new:12.4f} change {change:+.3f}"
                if worse > bound:
                    problems.append(f"{workload} {name}: worse by {worse:.3f} > bound {bound}")
            print(line)
        if len(summaries) == 2 and workload in summaries[1]:
            if entry["failed_share"] != summaries[1][workload]["failed_share"]:
                problems.append(f"{workload}: failed share {entry['failed_share']} "
                                f"!= {summaries[1][workload]['failed_share']}")
    if len(sets) == 2:
        keyed = [{(r["workload"], r["seed"], r["trace"]): r["counts"] for r in s} for s in sets]
        for key in sorted(keyed[0].keys() & keyed[1].keys()):
            a, b = keyed[0][key], keyed[1][key]
            for name in sorted(a.keys() | b.keys()):
                if a.get(name) != b.get(name):
                    problems.append(f"{key}: count {name} {a.get(name)} != {b.get(name)}")
        print(f"counts compared on {len(keyed[0].keys() & keyed[1].keys())} (workload, seed, trace) keys")
    for problem in problems:
        print("PROBLEM", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
