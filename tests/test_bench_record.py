"""The committed perf record against the benchmark's own verdict rule.

Every BENCH_*.json at the root stores the runs of both sides and the
verdicts read off them.  Each end-to-end verdict is recomputed here from
those runs with bench/compare.py's rule and BENCHMARK.json's bounds, so
a record cannot claim more than its runs show.  Each record also runs
every workload of BENCHMARK.json, untraced, as often on both sides, and
its claimed workload in at least the 10 pairs that the rule's 9 in 10
wins are counted over.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _compare():
    """bench/compare.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _series(runs):
    """{workload: {metric: [values in run order]}} of the correct untraced runs."""
    out = {}
    for run in runs:
        if run["correct"] and not run["trace"]:
            rows = out.setdefault(run["workload"], {})
            for name, m in run["metrics"].items():
                rows.setdefault(name, []).append(m["value"])
    return out


def test_recorded_verdicts_follow_from_the_runs():
    compare = _compare()
    assert RECORDS
    for path in RECORDS:
        record = json.loads(path.read_text())
        parent, change = _series(record["parent_runs"]), _series(record["change_runs"])
        recomputed = {}
        for workload in sorted(set(parent) & set(change)):
            rows = recomputed[workload] = {}
            for name, spec in compare.spec().items():
                v, wins, n = compare.verdict(
                    parent[workload][name], change[workload][name],
                    spec["better"], spec["bound"],
                )
                rows[name] = {"wins": "%d/%d" % (wins, n), "verdict": v}
        assert recomputed == record["verdicts"], path.name
        claimed = record["claimed"]
        assert claimed["verdict"] == "improved", path.name
        assert recomputed[claimed["workload"]][claimed["metric"]]["verdict"] == "improved"
        worse = [(w, m) for w, rows in recomputed.items() for m, r in rows.items()
                 if r["verdict"] == "worse"]
        assert worse == [], path.name


def test_every_record_runs_every_workload_in_pairs():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    for path in RECORDS:
        record = json.loads(path.read_text())
        parent, change = (
            Counter(run["workload"] for run in record[side] if not run["trace"])
            for side in ("parent_runs", "change_runs")
        )
        assert set(parent) == set(change) == workloads, path.name
        assert parent == change, path.name
        assert parent[record["claimed"]["workload"]] >= 10, path.name
