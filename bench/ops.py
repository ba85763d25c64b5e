"""What one operation of each workload asks of the package, and its check.

``runner(workload, pkg)`` returns ``(run, answer)``: ``run(spec)`` is the
timed call into the package; ``answer(spec, result)`` turns its result
into the comparable form that ``gen`` stores in ``expect``, outside the
timed region.  Package functions are looked up on ``pkg`` at call time,
so the tracer's wrappers are seen once installed.
"""

from __future__ import annotations

import json
import re

import gen


def runner(workload: str, pkg):
    if workload == "sqrt_expand":
        def run(spec):
            if spec[0] == "sqrt":
                form = pkg.QuadraticForm(pkg.EXCESS, 1, 0, spec[1])
            else:
                form = pkg.QuadraticForm(pkg.DEFECT, spec[1], spec[2], spec[3])
            return pkg.run_anthyphairesis(form, gen.SQRT_MAX_STEPS)

        def answer(spec, result):
            cf, _ = result
            return "truncated" if cf.truncated else gen.digest(cf.preperiod, cf.period)

        return run, answer

    if workload == "ratio_verdicts":
        def mag(m):
            return pkg.line(pkg.QuadSurd(*m))

        def run(spec):
            kind = spec[0]
            if kind == "eq":
                return pkg.ratio_eq(*(mag(m) for m in spec[1:]))
            if kind == "cross":
                return pkg.cross_product_eq(*(mag(m) for m in spec[1:]))
            if kind == "mixed":
                return pkg.mixed_ratio_eq(mag(spec[1]), mag(spec[2]), spec[3], spec[4])
            report = pkg.check_proposition(spec[1], [mag(m) for m in spec[2:]])
            return [report.hypotheses_hold, report.conclusion_holds]

        def answer(spec, result):
            return result

        return run, answer

    if workload == "verify_suites":
        props = {(suite, name): fn for suite, entries in pkg.SUITES.items()
                 for name, fn in entries}

        def run(spec):
            suite, name, seed = spec
            return pkg.run_property(suite, name, props[(suite, name)], 1, seed)

        def answer(spec, r):
            if r.failed == 0 and r.trials == 1 and r.passed + r.vacuous == r.trials:
                return "ok"
            return "failed: %s" % (r.first_failure,)

        return run, answer

    raise ValueError("no in-process runner for %r" % (workload,))


_EXPANSION = re.compile(r"^expansion  : (.*)$", re.M)


def check_cli(want: dict, code: int, out: str) -> str | None:
    """None when a CLI run shows what ``want`` asks for, else the reason."""
    if code != want["exit"]:
        return "exit %d, expected %d" % (code, want["exit"])
    try:
        if "expansion" in want:
            m = _EXPANSION.search(out)
            if not m or m.group(1) != want["expansion"]:
                return "expansion line differs"
        elif "truncated_digest" in want:
            m = _EXPANSION.search(out)
            text = m.group(1) if m else ""
            if not text.endswith(", ...]"):
                return "expansion is not reported truncated"
            qs = [int(t) for t in text[1:-len(", ...]")].split(", ")]
            if gen.digest(qs, None) != want["truncated_digest"]:
                return "truncated quotients differ"
        elif "json_cf" in want:
            res = json.loads(out)["result"]
            got = [[int(k) for k in res["preperiod"]],
                   None if res["period"] is None else [int(k) for k in res["period"]]]
            if got != want["json_cf"] or res["truncated"]:
                return "JSON expansion differs"
        elif "rows" in want:
            rows = json.loads(out)["result"]["rows"]
            if [[r["p"], r["q"]] for r in rows] != want["rows"]:
                return "convergent rows differ"
        elif "theodorus" in want:
            rows = json.loads(out)["result"]["rows"]
            got = {r["n"]: [[int(k) for k in r["preperiod"]],
                            None if r["period"] is None else [int(k) for k in r["period"]]]
                   for r in rows}
            if got != want["theodorus"]:
                return "theodorus rows differ"
        elif "verdict" in want:
            if "verdict    : %s\n" % want["verdict"] not in out:
                return "verdict differs"
        elif "verify" in want:
            if "\nresult: ok (" not in "\n" + out:
                return "verify did not report ok"
    except (ValueError, KeyError, TypeError) as exc:
        return "unreadable output: %s" % exc
    return None
