"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A/ B/

``A/`` holds the parent's records and ``B/`` the change's, as
``run.py --out`` writes them (``<workload>-s<seed>.json``; traced
records are skipped).  For every (end-to-end metric, workload) pair it
prints each side's median and quartiles, then a verdict:

* ``ok``: B's median is no worse than A's by more than the bound;
* ``worse``: it is worse by more than the bound;
* ``unresolved``: one side's spread (quartile distance over median) is
  wider than the bound, and not every B run beats every A run, so the
  runs cannot tell whether B is worse.

Exits 1 when any pair is not ``ok``, or a B run failed an operation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load(directory: pathlib.Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        if not path.name.endswith(".trace.json"):
            record = json.loads(path.read_text())
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], *, bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        all_better = all(sign * (y - x) < 0 for x in a for y in b)
        return "ok" if all_better else "unresolved"
    return "worse" if sign * (bm - am) / am > bound else "ok"


def compare(dir_a: pathlib.Path, dir_b: pathlib.Path, spec: dict) -> int:
    runs_a, runs_b = load(dir_a), load(dir_b)
    status = 0
    print(f"{'workload':14s} {'metric':18s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'change':>8s}  verdict")
    for wl in spec["workloads"]:
        name = wl["name"]
        a_runs, b_runs = runs_a.get(name, []), runs_b.get(name, [])
        if not a_runs or not b_runs:
            print(f"{name:14s} missing runs (A: {len(a_runs)}, B: {len(b_runs)})")
            status = 1
            continue
        failed = sum(r["ops"]["failed"] for r in b_runs)
        if failed:
            print(f"{name:14s} B failed {failed} operations")
            status = 1
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            v = verdict(a, b, bound=m["bound"], better=m["better"])
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(f"{name:14s} {m['name']:18s} {am:12.4g} [{a1:.4g}, {a3:.4g}] "
                  f"{bm:12.4g} [{b1:.4g}, {b3:.4g}] {100 * (bm - am) / am:+7.1f}%  {v}")
            if v != "ok":
                status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=pathlib.Path, help="records of the parent")
    ap.add_argument("b", type=pathlib.Path, help="records of the change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args.a, args.b, spec)


if __name__ == "__main__":
    sys.exit(main())
