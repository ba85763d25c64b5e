"""Layered benchmark of the anthyphairesis package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--save results.jsonl]

Run from the root of a checkout; the package is imported from ``src/``
of the checkout this file belongs to.  Inputs come from ``--seed`` only
(see gen.py), every answer is checked against the benchmark's own
oracle, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (the traced
run).  The lines before it are a readable report with the same metrics,
their units, and the Python version, git commit, CPU count and seed.

Every workload is one client in a closed loop, with at most one child
process alive at a time: a fresh workload process (worker.py) for the
in-process workloads, and one CLI process per op for cli_session.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import gen
import ops as workload_ops
import tracer as tr
import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# name -> unit; the order is the report order
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exactarith.square_free_split.calls": "count/op",
    "exactarith.square_free_split.s": "s/op",
    "exactarith.constructed": "count/op",
    "exactarith.self_s": "s/op",
    "exactarith.floor.calls": "count/op",
    "exactarith.floor.s": "s/op",
    "engine.expansions": "count/op",
    "engine.steps": "count/op",
    "engine.defect_steps": "count/op",
    "engine.run.s": "s/op",
    "engine.steps_per_s": "1/s",
    "engine.peak_states": "count",
    "engine.surd_cf.calls": "count/op",
    "engine.surd_cf.s": "s/op",
    "engine.state_space_size.s": "s/op",
    "engine.truncated_share": "ratio",
    "engine.self_s": "s/op",
    "ratios.anth_of_ratio.calls": "count/op",
    "ratios.anth_of_ratio.s": "s/op",
    "ratios.via_surd_cf_share": "ratio",
    "ratios.expansions_per_verdict": "count",
    "ratios.distinct_share": "ratio",
    "ratios.verdict.s": "s/op",
    "ratios.self_s": "s/op",
    "properties.trials": "count/op",
    "properties.vacuous_share": "ratio",
    "properties.engine.s": "s/op",
    "properties.ratio.s": "s/op",
    "properties.areas.s": "s/op",
    "properties.self_s": "s/op",
    "areas.calls": "count/op",
    "areas.s": "s/op",
    "areas.self_s": "s/op",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main.s": "s/op",
    "cli.self_s": "s/op",
    "cli.stdout_bytes": "bytes/op",
    "trace.untraced_s": "s/op",
    "trace.op_s": "s/op",
    "trace.overhead": "ratio",
}

SETUP_PROBES = 9  # fresh-process imports behind setup_s, after one warm-up
MIN_OPS = 110  # a run goes on past --seconds until ten samples lie beyond p90
CLI_MODULE = "anthyphairesis.cli"
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import calib; r = calib.measure(); "
         "t = time.perf_counter(); __import__(sys.argv[3]); print(time.perf_counter() - t, r)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv, timeout: float, stdin: str | None = None) -> subprocess.CompletedProcess:
    """One child process at a time; killed and waited for if it overruns."""
    return subprocess.run(argv, input=stdin, capture_output=True, text=True,
                          env=child_env(), cwd=str(ROOT), timeout=timeout)


def measure_setup(module: str) -> list[tuple[float, float]]:
    """(import time, reference time) of ``module`` in fresh processes.

    One warm-up import first, so that byte-code compilation is not counted.
    """
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = run_child([sys.executable, "-c", PROBE, str(SRC), str(BENCH), module],
                         timeout=60)
        if proc.returncode != 0:
            raise RuntimeError("import of %s failed: %s" % (module, proc.stderr.strip()))
        if i:
            dt, ref = proc.stdout.split()
            times.append((float(dt), float(ref)))
    return times


def nearest_rank(sorted_values, q: float):
    """The q-quantile by nearest rank (q in (0, 1])."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


# -- running a workload --------------------------------------------------------


def run_in_worker(data: dict, seconds: float, trace: bool, spans: str | None) -> dict:
    job = {"src": str(SRC), "workload": data["workload"], "ops": data["ops"],
           "block": data["block"], "seconds": seconds, "min_ops": MIN_OPS, "trace": trace,
           "spans": spans}
    proc = run_child([sys.executable, str(BENCH / "worker.py")], stdin=json.dumps(job),
                     timeout=4 * seconds + 120)
    if proc.returncode != 0:
        raise RuntimeError("workload process failed: %s" % proc.stderr.strip()[-2000:])
    return json.loads(proc.stdout)


def cli_loop(data: dict, seconds: float, min_ops: int, limit=None, traced=False) -> dict:
    """CLI ops back to back, one process each; the traced form goes through the launcher.

    Each op is its own process, so the reference kernel is timed after every op.
    """
    launches = []

    def run(spec):
        argv, _ = spec
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_launcher.py"), str(SRC)] + argv
        else:
            cmd = [sys.executable, "-m", CLI_MODULE] + argv
        return run_child(cmd, timeout=120)

    def answer(spec, proc):
        _, want = spec
        if not traced:
            return workload_ops.check_cli(want, proc.returncode, proc.stdout)
        if proc.returncode != 0:
            return "launcher failed: %s" % proc.stderr.strip()[-500:]
        launch = json.loads(proc.stdout)
        launches.append(launch)
        return workload_ops.check_cli(want, launch["code"], launch["out"])

    specs = list(zip(data["ops"], data["expect"]))
    result = worker.closed_loop(specs, run, answer, seconds, min_ops, 1, limit=limit)
    result["launches"] = launches
    return result


def count_failures(data: dict, result: dict, cli: bool) -> list[str]:
    expect = data["expect"]
    bad = []
    for i, ans in enumerate(result["answers"]):
        if cli:
            if ans is not None:
                bad.append("op %d %s: %s" % (i, data["ops"][i % len(expect)], ans))
        elif ans != expect[i % len(expect)]:
            bad.append("op %d %s: got %r, expected %r"
                       % (i, data["ops"][i % len(expect)], ans, expect[i % len(expect)]))
    return bad


def nominal_seconds(result: dict) -> list[float]:
    """Op latencies in seconds on the nominal host (see calib.py).

    Each op is scaled by the reference kernel timed right after it, or
    after its block of ``ref_every`` ops.
    """
    ref, every = result["ref_s"], result["ref_every"]
    return [ns * 1e-9 * calib.NOMINAL_S / ref[i // every]
            for i, ns in enumerate(result["lat_ns"])]


def throughput(lat_s: list[float], block: int) -> float:
    """Ops per second of op time: block size over the median block time.

    A block is one fixed-composition unit of the generated ops, so every
    block costs the same work; the median ignores bursts of host noise.
    """
    times = [sum(lat_s[i:i + block]) for i in range(0, len(lat_s) - block + 1, block)]
    if len(times) < 3:
        return len(lat_s) / sum(lat_s)
    return block / statistics.median(times)


def end_to_end(lat_s: list[float], block: int, setup: list[tuple], rss_kb: int) -> dict:
    lat = sorted(lat_s)
    return {
        "setup_s": statistics.median(dt * calib.NOMINAL_S / ref for dt, ref in setup),
        "ops_per_s": throughput(lat_s, block),
        "latency_p50_ms": nearest_rank(lat, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(lat, 0.9) * 1e3,
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(counters: dict, untraced: list[float], traced: list[float],
              cli_extra: dict) -> dict:
    m = tr.metrics(counters)
    base = sum(untraced[:len(traced)])
    m["trace.overhead"] = sum(traced) / base if base else 0.0
    m.update(cli_extra)
    return m


def run_workload(args) -> tuple[dict, dict]:
    """Returns (result line, report facts)."""
    data = gen.generate(args.workload, args.seed)
    cli = args.workload == "cli_session"
    setup = measure_setup(CLI_MODULE if cli else "anthyphairesis")
    facts = {}
    if cli:
        untraced = cli_loop(data, args.seconds / 2 if args.trace else args.seconds,
                            MIN_OPS // 2 if args.trace else MIN_OPS)
        runs = [untraced]
        if args.trace:
            traced = cli_loop(data, args.seconds, 0, limit=len(untraced["lat_ns"]),
                              traced=True)
            runs.append(traced)
            # a run whose launches all failed is reported, as not correct
            launches = traced["launches"] or [{"import_s": 0.0, "stdout_bytes": 0,
                                               "counters": {}}]
            counters = tr.merge(launch["counters"] for launch in launches)
            bare = []
            for _ in range(SETUP_PROBES):
                t0 = time.perf_counter()
                run_child([sys.executable, "-c", "pass"], timeout=60)
                bare.append(time.perf_counter() - t0)
            cli_extra = {
                "cli.interpreter_s": statistics.median(bare),
                "cli.import_s": statistics.median(x["import_s"] for x in launches),
                "cli.stdout_bytes": sum(x["stdout_bytes"] for x in launches) / len(launches),
            }
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        spans = None
        if args.trace:
            OUT.mkdir(exist_ok=True)
            spans = str(OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))
            facts["spans file"] = spans
        res = run_in_worker(data, args.seconds, bool(args.trace), spans)
        untraced = res["untraced"]
        runs = [untraced]
        if args.trace:
            traced = res["traced"]
            runs.append(traced)
            counters = res["counters"]
            cli_extra = {"cli.interpreter_s": 0.0, "cli.import_s": 0.0,
                         "cli.stdout_bytes": 0.0}
        rss_kb = res["rss_kb"]
    bad = [b for r in runs for b in count_failures(data, r, cli)]
    attempted = sum(len(r["lat_ns"]) for r in runs)
    block = data["block"]
    lat = untraced["lat_ns"]
    raw = end_to_end([ns * 1e-9 for ns in lat], block,
                     [(dt, calib.NOMINAL_S) for dt, _ in setup], rss_kb)
    facts.update({
        "samples": len(lat),
        "blocks": "%d of %d ops" % (len(lat) // block, block),
        "samples beyond p90": len(lat) - math.ceil(0.9 * len(lat)),
        "failed_ratio": len(bad) / attempted,
        "setup probes": len(setup),
        "host factor": "%.4f (reference kernel median / nominal)"
                       % (statistics.median(untraced["ref_s"]) / calib.NOMINAL_S),
        "raw (unscaled)": ", ".join("%s %.6g" % kv for kv in raw.items()),
    })
    lat_s = nominal_seconds(untraced)
    if args.trace:
        metrics = per_layer(counters, lat_s, nominal_seconds(traced), cli_extra)
        facts["traced ops"] = len(traced["lat_ns"])
        outside = sum(traced["lat_ns"]) - counters.get("wall_ns", 0) if cli else 0
        facts["dominant layer"] = tr.dominant_layer(counters, outside)
        units = PER_LAYER
    else:
        metrics = end_to_end(lat_s, block, setup, rss_kb)
        units = END_TO_END
    line = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    facts["failures"] = bad[:5]
    return line, facts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append this run's record to a JSONL file")
    args = ap.parse_args(argv)
    if not (SRC / "anthyphairesis" / "__init__.py").is_file():
        print("run.py: no package at %s; run from a full checkout" % SRC, file=sys.stderr)
        return 2
    line, facts = run_workload(args)
    info = {
        "python": platform.python_version(),
        "git": git_sha(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    for key, value in list(info.items()) + list(facts.items()):
        print("%-20s %s" % (key, value))
    for name, m in line["metrics"].items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    if args.save:
        with open(args.save, "a") as fh:
            fh.write(json.dumps(dict(info, **line)) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
