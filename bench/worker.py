"""Workload process: one client, closed loop, in a fresh interpreter.

Reads one JSON job on stdin (``src``, ``workload``, ``ops``, ``block``,
``seconds``, ``min_ops``, ``trace``, ``spans``), imports the package from
``src``, runs the ops in order (wrapping around the list if the run
outlasts it) and prints one JSON object: import time, per-op latencies,
answers and host reference timings, peak RSS, and for a traced job the
tracer's counters.

A traced job first runs untraced for half the time, then replays the
same ops with the tracer installed, so tracing overhead is measured on
identical work.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import calib
import ops as workload_ops
from tracer import Tracer


def closed_loop(specs, run, answer, seconds: float, min_ops: int, block: int,
                limit=None, tracer=None):
    """Run ops back to back until ``seconds`` have passed and ``min_ops`` are done.

    Stops at ``limit`` ops, or at three times ``seconds`` whatever the count.
    After every ``block`` ops (and after a last partial block) the host
    reference kernel is timed, outside the ops: ``ref_s[k]`` belongs to
    ops ``k*block`` to ``(k+1)*block - 1``.
    """
    clock = time.perf_counter_ns
    lat, answers, ref_s = [], [], []
    start = clock()
    deadline = start + int(seconds * 1e9)
    hard = start + int(3 * seconds * 1e9)
    i = 0
    while limit is None or i < limit:
        now = clock()
        if now >= hard or (now >= deadline and i >= min_ops):
            break
        spec = specs[i % len(specs)]
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        try:
            result, error = run(spec), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = clock()
        if tracer is not None:
            tracer.end_op(t1 - t0)
        lat.append(t1 - t0)
        answers.append({"error": error} if error else answer(spec, result))
        i += 1
        if i % block == 0:
            ref_s.append(calib.measure())
    if i % block:
        ref_s.append(calib.measure())
    return {"lat_ns": lat, "answers": answers, "ref_s": ref_s, "ref_every": block}


def main() -> int:
    job = json.load(sys.stdin)
    src = job["src"]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import anthyphairesis as pkg
    import_s = time.perf_counter() - t0
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        print("worker: imported %s, not the package under %s" % (pkg.__file__, src),
              file=sys.stderr)
        return 2
    run, answer = workload_ops.runner(job["workload"], pkg)
    specs, seconds, min_ops, block = job["ops"], job["seconds"], job["min_ops"], job["block"]
    out = {"import_s": import_s}
    if not job["trace"]:
        out["untraced"] = closed_loop(specs, run, answer, seconds, min_ops, block)
    else:
        out["untraced"] = closed_loop(specs, run, answer, seconds / 2, min_ops // 2, block)
        done = len(out["untraced"]["lat_ns"])
        tracer = Tracer()
        tracer.install(pkg)
        try:
            out["traced"] = closed_loop(specs, run, answer, seconds, 0, block, limit=done,
                                        tracer=tracer)
        finally:
            tracer.uninstall()
        out["counters"] = tracer.counters()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
