"""Summarise or compare benchmark result sets.

    python3 bench/compare.py RESULTS.jsonl            # spread of one set
    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

A result set is the JSONL file that ``run.py --save`` appends to, one
record per run.  Rows are per workload and metric.  With two sets, runs
are paired in file order per workload (run them alternately), and each
end-to-end row gets a verdict:

- improved: the change wins at least 9 in 10 pairs (ties count for
  neither) and the medians differ by more than the parent's own
  quartile spread;
- unresolved: the parent's spread (IQR / median) exceeds the bound and
  not every run of the change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than
  the bound from BENCHMARK.json;
- unchanged: otherwise.

Per-layer rows (traced runs) get medians and quartiles only: they have
no bound.  A run that was not correct is listed and left out.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {metric: [values in file order]}}, plus bad runs."""
    sets: dict = {}
    bad = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        if not rec["correct"]:
            bad.append("%s seed %s" % (rec["workload"], rec["seed"]))
            continue
        rows = sets.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
    return {"sets": sets, "bad": bad}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spec() -> dict:
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in data["end_to_end"]}


def verdict(parent, change, better: str, bound: float) -> tuple[str, int, int]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    spread = (p3 - p1) / pm if pm else 0.0
    worse_by = sign * (pm - cm) / pm if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - pm) > (p3 - p1):
        return "improved", wins, len(pairs)
    if spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def summarise(path: str) -> None:
    res = load(path)
    bounds = spec()
    print("%-16s %-5s %-36s %5s %12s %12s %12s %8s %s"
          % ("workload", "trace", "metric", "runs", "q1", "median", "q3", "iqr/med", "bound"))
    for (workload, trace), rows in sorted(res["sets"].items()):
        for name, values in rows.items():
            q1, q2, q3 = quartiles(values)
            rel = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds[name]["bound"] if name in bounds else "-"
            print("%-16s %-5s %-36s %5d %12.6g %12.6g %12.6g %8.4f %s"
                  % (workload, trace, name, len(values), q1, q2, q3, rel, bound))
    for b in res["bad"]:
        print("not correct, left out: %s" % b)


def compare(parent_path: str, change_path: str) -> None:
    parent, change = load(parent_path), load(change_path)
    bounds = spec()
    print("%-16s %-36s %12s %25s %12s %25s %7s %s"
          % ("workload", "metric", "parent med", "parent q1..q3", "change med",
             "change q1..q3", "wins", "verdict"))
    for key in sorted(set(parent["sets"]) & set(change["sets"])):
        workload, trace = key
        for name, pv in parent["sets"][key].items():
            cv = change["sets"][key].get(name)
            if not cv:
                continue
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            if name in bounds and not trace:
                b = bounds[name]
                v, wins, n = verdict(pv, cv, b["better"], b["bound"])
                won = "%d/%d" % (wins, n)
            else:
                v, won = "(per-layer)", "-"
            print("%-16s %-36s %12.6g %12.6g..%-12.6g %12.6g %12.6g..%-12.6g %7s %s"
                  % (workload, name, pm, p1, p3, cm, c1, c3, won, v))
    for b in parent["bad"] + change["bad"]:
        print("not correct, left out: %s" % b)


def main(argv) -> int:
    if len(argv) == 1:
        summarise(argv[0])
    elif len(argv) == 2:
        compare(argv[0], argv[1])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
