"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result files written by ``run.py`` (``perfbench/_out``
after a set of runs, copied aside). The view prints one row per (workload,
end-to-end metric) with each side's median and quartiles over its runs. A
row is "unresolved" when either side's spread (quartile distance over the
median) exceeds the metric's bound in BENCHMARK.json, unless every run after
reads better than every run before. From traced runs it then
lists per-layer metrics and the per-span self-time deltas, so a change can
show in which layer its saving lands.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict:
    """{(workload, trace): [result, ...]} from one side's result files."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*-t[01].json")):
        result = json.loads(path.read_text())
        runs[(result["workload"], result["trace"])].append(result)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(before, after, bound, better) -> str:
    sign = -1 if better == "lower" else 1
    b_med, a_med = statistics.median(before), statistics.median(after)
    if all(sign * a > sign * b for a in after for b in before):
        return "better in every run"
    if spread(before) > bound or spread(after) > bound:
        return "unresolved"
    if sign * (a_med - b_med) / abs(b_med) < -bound:
        return "WORSE beyond bound"
    return "within bound"


def fmt(values) -> str:
    q1, med, q3 = summary(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before, after = load(argv[0]), load(argv[1])
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':11s} {'metric':15s} {'before: median [q1, q3]':>34s} "
          f"{'after: median [q1, q3]':>34s} {'change':>8s}  verdict (n before/after)")
    for w in workloads:
        b_runs, a_runs = before.get((w, 0), []), after.get((w, 0), [])
        if not b_runs or not a_runs:
            print(f"{w:11s} (untraced runs missing on a side)")
            continue
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            change = (statistics.median(a) / statistics.median(b) - 1) * 100
            print(f"{w:11s} {m['name']:15s} {fmt(b):>34s} {fmt(a):>34s} {change:+7.1f}%  "
                  f"{verdict(b, a, m['bound'], m['better'])} ({len(b)}/{len(a)})")

    for w in workloads:
        b_runs, a_runs = before.get((w, 1), []), after.get((w, 1), [])
        if not b_runs or not a_runs:
            continue
        print(f"\n{w}: per-layer metrics (traced runs, median before -> after)")
        for m in spec["per_layer"]:
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in b_runs)
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in a_runs)
            print(f"  {m['name']:26s} {b:14.6g} -> {a:14.6g} {m['unit']}")
        print(f"{w}: self time per span, median over traced runs, largest change first")
        names = {n for r in b_runs + a_runs for n in r["spans"]}
        rows = []
        for n in names:
            b = statistics.median(r["spans"].get(n, {"self_s": 0.0})["self_s"] for r in b_runs)
            a = statistics.median(r["spans"].get(n, {"self_s": 0.0})["self_s"] for r in a_runs)
            rows.append((a - b, n, b, a))
        for delta, n, b, a in sorted(rows, key=lambda row: -abs(row[0])):
            print(f"  {n:42s} {b:10.4f} s -> {a:10.4f} s  ({delta:+.4f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
