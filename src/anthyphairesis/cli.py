"""Command line front end.

Reports go to stdout, diagnostics to stderr, and nothing is written to
disk.  Exit codes: 0 success, 1 bad input, an unusable request or a
stdout its reader closed, 2 verification failure (a suite found
counterexamples or an internal invariant broke), 3 indeterminate (a
step budget ran out before an answer was reached).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from itertools import islice

from . import __version__
from .engine import (
    EXCESS,
    ContinuedFraction,
    ExpansionTrace,
    QuadraticForm,
    convergents,
    euclid_cf,
    minimal_form,
    remainder,
    run_anthyphairesis,
    state_space_size,
    _MAX_STEPS,
    _tag,
    _triple,
)
from .errors import DomainError, InternalInvariantError
from .exactarith import QuadSurd, _in_field, as_surd, isqrt
from .ratios import (
    Magnitude,
    anth_of_ratio,
    commensurable_pure,
    cross_product_eq,
    line,
    mixed_ratio_eq,
    ratio_eq,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: neither module is imported at run time
    from collections.abc import Iterable, Iterator
    from typing import Any

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_UNDECIDED = 3

# argparse reads an argument that starts with '-' as an option unless it
# looks like a negative number, which to argparse is only '-5' or '-.5'.
# A magnitude literal may start with '-' too ('-1,1,1,2' is sqrt(2) - 1,
# '-1/2' is refused as not positive), and so may a quotient list
# ('-1,2' is refused as not >= 1), so the ratio and convergents parsers
# take anything that starts with '-' and a digit for an argument.  Their
# options (-h, --max-steps, --quotients, --count) start otherwise.
_NEGATIVE_LITERAL = re.compile(r"^-\d")

# Since 3.11 and 3.10.7, CPython refuses to convert an int of more than
# sys.get_int_max_str_digits() digits to or from a decimal string.  main
# lifts that limit while a command runs, so output prints exactly at any
# size, and keeps it for input, whose parsing is quadratic in its digits:
# argparse parses before the lift, and a command parses its own literals
# with _int, against the limit main saved here (0: no limit).
_input_digits = 0


def _int(text: str) -> int:
    """int(text), refused as int() refuses it past the saved digit limit."""
    if _input_digits and sum(map(str.isdecimal, text)) > _input_digits:
        raise ValueError("more than %d digits" % _input_digits)
    return int(text)


# -- serialization helpers ----------------------------------------------------
# All integers are rendered as decimal strings so JSON output is exact
# and byte-stable regardless of magnitude (see _input_digits).


def _cf_json(cf: ContinuedFraction) -> dict[str, Any]:
    return {
        "preperiod": [str(k) for k in cf.preperiod],
        "period": None if cf.period is None else [str(k) for k in cf.period],
        "truncated": cf.truncated,
    }


def _form_json(form: QuadraticForm) -> dict[str, Any]:
    return {
        "kind": _tag(form),
        "A": str(form.A),
        "B": str(form.B),
        "C": str(form.C),
        "disc": str(form.disc),
    }


def _surd_json(x: QuadSurd) -> dict[str, str]:
    return {"u": str(x.u), "v": str(x.v), "w": str(x.w), "D": str(x.d)}


def _emit(args: argparse.Namespace, command: str, input_obj: Any, result: Any,
          lines: Iterable[str]) -> None:
    if args.json:
        import json  # loaded only by the commands that print it

        envelope = {
            "command": command,
            "input": input_obj,
            "result": result,
            "version": __version__,
        }
        # written as made, in batches: an unbuffered stdout makes each write a system call
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(envelope)
        while batch := "".join(islice(chunks, 4096)):
            sys.stdout.write(batch)
        print()
    else:
        for ln in lines:
            print(ln)


def _kv(key: str, value: Any) -> str:
    return "%-10s : %s" % (key, value)


def _bracketed(seq) -> str:
    return "[%s]" % ", ".join(str(k) for k in seq)


def _table(headers: tuple[str, ...], rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns two spaces apart, header first."""
    widths = [max([len(h)] + [len(r[c]) for r in rows]) for c, h in enumerate(headers)]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    return [(fmt % r).rstrip() for r in [headers] + rows]


def _rem_expr(n: int, p: int, q: int) -> str:
    """Symbolic remainder (-1)^n * (q*b - p*a) for row n."""

    def term(coef: int, sym: str) -> str:
        return sym if coef == 1 else "%d*%s" % (coef, sym)

    if n % 2 == 0:
        if p == 0:
            return term(q, "b")
        return "%s - %s" % (term(q, "b"), term(p, "a"))
    return "%s - %s" % (term(p, "a"), term(q, "b"))


def _surd_display(x: QuadSurd) -> str:
    if x.is_rational:
        return str(x)
    return "%s ~ %s" % (x, x.decimal())


def _surd(u: int, v: int, w: int, d: int) -> QuadSurd:
    """(u + v*sqrt(d))/w for d >= 1, with d unsplit past the factoring budget.

    A square d gives the rational value by isqrt, as QuadraticForm.root()
    does, so no surd is built over a square radicand.
    """
    r = isqrt(d)
    if r * r == d:
        return _in_field(u + v * r, 0, w, 1)
    try:
        return QuadSurd(u, v, w, d)
    except DomainError:  # d is past the factoring budget: keep it unsplit
        # sign and floor, hence the decimal, need only a non-square radicand
        return _in_field(u, v, w, d)


def _root_text(form: QuadraticForm) -> str:
    a, b, _, s = _triple(form)
    return _surd_display(_surd(b, s, 2 * a, form.disc))


# -- anth ---------------------------------------------------------------------


def _run_form(args: argparse.Namespace, command: str, input_obj: Any,
              form: QuadraticForm, root: QuadSurd | None = None) -> int:
    cf, trace = run_anthyphairesis(form, args.max_steps)
    result = None
    if args.json:  # states replay as printed; the text lines, never made, would factor disc
        result = {
            **_form_json(form),
            "quotients": [str(k) for k in trace.quotients],
            **_cf_json(cf),
            "states": [_form_json(st) for st in trace._replay()],
        }
    _emit(args, command, input_obj, result, _form_lines(args, form, cf, trace, root))
    return EXIT_UNDECIDED if cf.truncated else EXIT_OK


def _form_lines(args: argparse.Namespace, form: QuadraticForm, cf: ContinuedFraction,
                trace: ExpansionTrace, root: QuadSurd | None) -> Iterator[str]:
    yield _kv("form", form)
    yield _kv("disc", form.disc)
    yield _kv("root", _root_text(form) if root is None else _surd_display(root))
    yield _kv("expansion", cf)
    yield _kv("preperiod", _bracketed(cf.preperiod))
    yield _kv("period", "-" if cf.period is None else _bracketed(cf.period))
    yield _kv("truncated", "yes" if cf.truncated else "no")
    quotients = trace.quotients  # derived on each read: read once per report
    yield _kv("steps", len(quotients))
    if args.trace:
        repeat_at = trace.repeat_at
        yield "trace      :"
        for t, st in enumerate(trace._replay()):
            note = "  k=%d" % quotients[t] if t < len(quotients) else ""
            if repeat_at is not None and t == repeat_at[1]:
                note += "  (repeat of t=%d)" % repeat_at[0]
            yield "  t=%-4d %s%s" % (t, st, note)
        if cf.truncated:
            yield "  step budget exhausted"


def _run_plain_cf(args: argparse.Namespace, command: str, input_obj: Any,
                  kind: str, head_line: str, cf: ContinuedFraction) -> int:
    result = {"kind": kind, **_cf_json(cf)}
    lines = [
        head_line,
        _kv("expansion", cf),
        _kv("truncated", "yes" if cf.truncated else "no"),
    ]
    _emit(args, command, input_obj, result, lines)
    return EXIT_UNDECIDED if cf.truncated else EXIT_OK


def _cmd_anth(args: argparse.Namespace) -> int:
    if args.mode == "form":
        form = QuadraticForm(args.kind, args.A, args.B, args.C)
        input_obj = {"kind": args.kind, "A": str(args.A), "B": str(args.B), "C": str(args.C)}
        return _run_form(args, "anth form", input_obj, form)

    if args.mode == "sqrt":
        if args.N < 1:
            raise DomainError("anth sqrt: N must be >= 1, got %d" % args.N)
        form = QuadraticForm(EXCESS, 1, 0, args.N)
        return _run_form(args, "anth sqrt", {"radicand": str(args.N)}, form)

    if args.mode == "rational":
        if args.M < 1 or args.N < 1:
            raise DomainError("anth rational: M and N must be >= 1")
        cf = anth_of_ratio(line(args.M), line(args.N), args.max_steps)
        input_obj = {"M": str(args.M), "N": str(args.N)}
        head = _kv("ratio", "%d : %d" % (args.M, args.N))
        return _run_plain_cf(args, "anth rational", input_obj, "rational", head, cf)

    x = QuadSurd(args.U, args.V, args.W, args.D)
    if not x > 0:
        raise DomainError("anth surd: the value must be positive, got %s" % x)
    input_obj = _surd_json(x)
    if not x.is_rational and x > 1:
        return _run_form(args, "anth surd", input_obj, minimal_form(x), x)
    cf = anth_of_ratio(line(x), line(1), args.max_steps)
    kind = "rational" if x.is_rational else "surd"
    head = _kv("value", _surd_display(x))
    return _run_plain_cf(args, "anth surd", input_obj, kind, head, cf)


# -- convergents --------------------------------------------------------------


def _count(args: argparse.Namespace, default: int) -> int:
    """The quotients convergents should use: --count, else default; at least 1.

    The table shows row 0 and then one row per quotient, count + 1 rows.
    """
    count = default if args.count is None else args.count
    if count < 1:
        raise DomainError("convergents: count must be >= 1")
    return count


def _cmd_convergents(args: argparse.Namespace) -> int:
    if args.quotients is not None:
        # the quotients are given, so there is nothing for a budget to bound
        if args.max_steps is not None:
            raise DomainError("convergents: --max-steps applies to 'sqrt N' only")
        if args.source:
            raise DomainError("convergents: give either 'sqrt N' or --quotients, not both")
        try:
            qs_all = tuple(_int(t) for t in args.quotients.split(","))
        except ValueError:
            raise DomainError("convergents: --quotients must be comma separated integers")
        sd = convergents(qs_all, len(qs_all))  # refuses a quotient below 1, a head 0 too
        count = _count(args, len(qs_all))
        if count > len(qs_all):
            raise DomainError(
                "convergents: %d quotients cannot support count %d without a period"
                % (len(qs_all), count)
            )
        qs = qs_all[:count]
        a = b = None
        shown = _bracketed(qs_all)
        input_obj = {"quotients": [str(k) for k in qs_all], "count": str(count)}
    else:
        if len(args.source) != 2 or args.source[0] != "sqrt":
            raise DomainError("convergents: expected 'sqrt N' or --quotients k0,k1,...")
        try:
            n = _int(args.source[1])
        except ValueError:
            raise DomainError("convergents: N must be an integer")
        if n < 1:
            raise DomainError("convergents: N must be >= 1, got %d" % n)
        form = QuadraticForm(EXCESS, 1, 0, n)
        max_steps = _MAX_STEPS if args.max_steps is None else args.max_steps
        expansion, _ = run_anthyphairesis(form, max_steps)
        count = _count(args, 5)
        have = len(expansion.preperiod)
        if expansion.period is None and count > have:
            if expansion.truncated:
                print("undecided: convergents: sqrt(%d) gave only %d quotients within "
                      "max_steps %d, %d requested (raise --max-steps)"
                      % (n, have, max_steps, count), file=sys.stderr)
                return EXIT_UNDECIDED
            raise DomainError(
                "convergents: sqrt(%d) has only %d quotients, %d requested" % (n, have, count)
            )
        if count > max_steps:  # periodic: head(count) unrolls the period count long
            print("undecided: convergents: count %d for sqrt(%d) exceeds max_steps %d "
                  "(raise --max-steps)" % (count, n, max_steps), file=sys.stderr)
            return EXIT_UNDECIDED
        qs = expansion.head(count)
        sd = convergents(qs, count)
        a, b = _surd(0, 1, 1, n), as_surd(1)
        shown = str(expansion)
        input_obj = {"radicand": str(n), "count": str(count)}

    rows = []
    table = []
    for i in range(count + 1):
        value: QuadSurd | None = None
        if a is not None:
            try:
                value = remainder(i, a, b, sd)
            except DomainError:
                value = None  # the expansion terminated exactly at this row
        expr = _rem_expr(i, sd.p[i], sd.q[i])
        rows.append(
            {
                "n": str(i),
                "k": None if i == 0 else str(qs[i - 1]),
                "p": str(sd.p[i]),
                "q": str(sd.q[i]),
                "remainder": expr,
                "value": None if value is None else _surd_json(value),
            }
        )
        table.append(
            (
                str(i),
                "-" if i == 0 else str(qs[i - 1]),
                str(sd.p[i]),
                str(sd.q[i]),
                expr,
                "-" if value is None else str(value),
            )
        )

    headers = ("n", "k", "p", "q", "remainder", "value")
    lines = [_kv("expansion", shown)] + _table(headers, table)

    _emit(args, "convergents", input_obj, {"rows": rows}, lines)
    return EXIT_OK


# -- theodorus ----------------------------------------------------------------


def _cmd_theodorus(args: argparse.Namespace) -> int:
    if args.max < 2:
        raise DomainError("theodorus: --max must be >= 2")
    rows = []
    table = []
    for n in range(2, args.max + 1):
        form = QuadraticForm(EXCESS, 1, 0, n)
        cf, _ = run_anthyphairesis(form, args.max_steps)
        commensurable = commensurable_pure(1, n)
        states = None if commensurable else str(state_space_size(form.disc))
        rows.append(
            {
                "n": str(n),
                "commensurable": commensurable,
                "disc": str(form.disc),
                "state_space": states,
                **_cf_json(cf),
            }
        )
        table.append(
            (
                str(n),
                str(cf),
                "-" if cf.period is None else _bracketed(cf.period),
                str(form.disc),
                "-" if states is None else states,
                "yes" if commensurable else "no",
            )
        )

    headers = ("N", "expansion", "period", "disc", "states", "commensurable")
    lines = _table(headers, table)

    _emit(args, "theodorus", {"max": str(args.max)}, {"rows": rows}, lines)
    return EXIT_UNDECIDED if any(row["truncated"] for row in rows) else EXIT_OK


# -- ratio --------------------------------------------------------------------


def _parse_magnitude(text: str) -> Magnitude:
    """A magnitude literal: 'u,v,w,D' surd, 'p/q' fraction or integer.

    Each shape gives the components (u, v, w, D) of one QuadSurd.  Only
    a malformed literal is reported as one.  A well-formed literal whose
    value is unusable (a zero w or q, a radicand below 1, a value that is
    not positive) raises the value's own DomainError.
    """
    try:
        if "," in text:
            u, v, w, d = map(_int, text.split(","))
        elif "/" in text:
            p, q = text.split("/")
            u, v, w, d = _int(p), 0, _int(q), 1
        else:
            u, v, w, d = _int(text), 0, 1, 1
    except ValueError:
        raise DomainError(
            "ratio: magnitude literal %r must be 'u,v,w,D', 'p/q' or an integer" % text
        ) from None
    return line(QuadSurd(u, v, w, d))


def _emit_verdict(args: argparse.Namespace, command: str, input_obj: Any,
                  equal: bool, lhs: Any, rhs: Any, render=_cf_json,
                  names: tuple[str, str] = ("lhs", "rhs")) -> int:
    verdict = "equal" if equal else "unequal"
    result = {"verdict": verdict, "lhs": render(lhs), "rhs": render(rhs)}
    lines = [_kv(names[0], lhs), _kv(names[1], rhs), _kv("verdict", verdict)]
    _emit(args, command, input_obj, result, lines)
    return EXIT_OK


def _cmd_ratio(args: argparse.Namespace) -> int:
    # eq and mixed take their verdicts from the library, which decides
    # every pair without a budget; --max-steps bounds only the expansions
    # they print, which are display only and may be truncated
    if args.mode == "mixed":
        a, b = _parse_magnitude(args.A), _parse_magnitude(args.B)
        equal = mixed_ratio_eq(a, b, args.M, args.N)
        input_obj = {
            "A": _surd_json(a.value),
            "B": _surd_json(b.value),
            "M": str(args.M),
            "N": str(args.N),
        }
        return _emit_verdict(args, "ratio mixed", input_obj, equal,
                             anth_of_ratio(a, b, args.max_steps),
                             euclid_cf(args.M, args.N))

    a, b, c, d = (_parse_magnitude(t) for t in args.magnitudes)
    input_obj = {"magnitudes": [_surd_json(m.value) for m in (a, b, c, d)]}
    if args.mode == "cross":
        equal = cross_product_eq(a, b, c, d)  # distinct fields raise here
        return _emit_verdict(args, "ratio cross", input_obj, equal,
                             a.value * d.value, b.value * c.value,
                             _surd_json, ("a*d", "b*c"))
    equal = ratio_eq(a, b, c, d)
    return _emit_verdict(args, "ratio eq", input_obj, equal,
                         anth_of_ratio(a, b, args.max_steps),
                         anth_of_ratio(c, d, args.max_steps))


# -- verify -------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise DomainError("verify: --trials must be >= 1")
    from .properties import run_suite  # only verify loads the suites

    suites = ("engine", "ratio", "areas") if args.suite == "all" else (args.suite,)
    results = []
    for s in suites:
        results.extend(run_suite(s, args.trials, args.seed))

    failed = sum(r.failed for r in results)
    rows = [
        {
            "suite": r.suite,
            "name": r.name,
            "trials": str(r.trials),
            "passed": str(r.passed),
            "vacuous": str(r.vacuous),
            "failed": str(r.failed),
            "first_failure": r.first_failure,
        }
        for r in results
    ]
    verdict = "ok" if failed == 0 else "fail"

    lines = []
    name_w = max(len("%s/%s" % (r.suite, r.name)) for r in results)
    for r in results:
        lines.append(
            "%-*s  passed %-4d vacuous %-4d failed %d"
            % (name_w, "%s/%s" % (r.suite, r.name), r.passed, r.vacuous, r.failed)
        )
        if r.first_failure is not None:
            lines.append("%-*s    first failure: %s" % (name_w, "", r.first_failure))
    lines.append(
        "result: %s (%d properties, %d trials each, seed %d, %d failures)"
        % (verdict, len(results), args.trials, args.seed, failed)
    )

    input_obj = {"suite": args.suite, "trials": str(args.trials), "seed": str(args.seed)}
    result = {"verdict": verdict, "rows": rows}
    _emit(args, "verify", input_obj, result, lines)
    return EXIT_OK if failed == 0 else EXIT_FAILED


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anthyph",
        description="Exact reciprocal-subtraction expansions, proportion "
        "verdicts and seeded self checks for quadratic values.",
    )
    parser.add_argument(
        "--version", action="version", version="%(prog)s " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def common(sp: argparse.ArgumentParser, trace: bool = False) -> None:
        sp.add_argument(
            "--max-steps", type=int, default=_MAX_STEPS, dest="max_steps",
            help="step budget before an expansion is reported truncated",
        )
        sp.add_argument("--json", action="store_true", help="emit a JSON report")
        if trace:
            sp.add_argument(
                "--trace", action="store_true",
                help="list the visited forms step by step",
            )

    p_anth = sub.add_parser("anth", help="expand a ratio by reciprocal subtraction")
    anth_sub = p_anth.add_subparsers(dest="mode", required=True, metavar="mode")

    p_form = anth_sub.add_parser("form", help="expand the root of a quadratic form")
    p_form.add_argument("A", type=int)
    p_form.add_argument("B", type=int)
    p_form.add_argument("C", type=int)
    p_form.add_argument("--kind", choices=("excess", "defect"), required=True)
    common(p_form, trace=True)
    p_form.set_defaults(func=_cmd_anth)

    p_sqrt = anth_sub.add_parser("sqrt", help="expand sqrt(N) : 1")
    p_sqrt.add_argument("N", type=int)
    common(p_sqrt, trace=True)
    p_sqrt.set_defaults(func=_cmd_anth)

    p_rat = anth_sub.add_parser("rational", help="expand M : N by Euclidean division")
    p_rat.add_argument("M", type=int)
    p_rat.add_argument("N", type=int)
    common(p_rat)
    p_rat.set_defaults(func=_cmd_anth)

    p_surd = anth_sub.add_parser("surd", help="expand (U + V*sqrt(D))/W : 1")
    for name in ("U", "V", "W", "D"):
        p_surd.add_argument(name, type=int)
    common(p_surd, trace=True)
    p_surd.set_defaults(func=_cmd_anth)

    p_conv = sub.add_parser(
        "convergents", help="side and diameter numbers with remainders"
    )
    p_conv.add_argument(
        "source", nargs="*", metavar="sqrt N",
        help="expand sqrt(N) : 1 for the quotients and exact remainders",
    )
    p_conv.add_argument(
        "--quotients", help="comma separated quotients to use instead of a field"
    )
    p_conv.add_argument(
        "--count", type=int,
        help="quotients to use, one row each after row 0 (default 5, or all given quotients)",
    )
    common(p_conv)
    # None marks --max-steps as not given, which --quotients requires
    p_conv.set_defaults(func=_cmd_convergents, max_steps=None)

    p_theo = sub.add_parser("theodorus", help="survey sqrt(N) : 1 for N = 2..max")
    p_theo.add_argument("--max", type=int, default=17)
    common(p_theo)
    p_theo.set_defaults(func=_cmd_theodorus)

    p_ratio = sub.add_parser("ratio", help="proportion verdicts for magnitudes")
    ratio_sub = p_ratio.add_subparsers(dest="mode", required=True, metavar="mode")

    p_eq = ratio_sub.add_parser("eq", help="compare two ratios by their expansions")
    p_eq.add_argument(
        "magnitudes", nargs=4, metavar="MAG",
        help="magnitude literal: 'u,v,w,D', 'p/q' or an integer",
    )
    common(p_eq)
    p_eq.set_defaults(func=_cmd_ratio)

    p_cross = ratio_sub.add_parser("cross", help="compare by exact cross products")
    p_cross.add_argument("magnitudes", nargs=4, metavar="MAG")
    p_cross.add_argument("--json", action="store_true", help="emit a JSON report")
    p_cross.set_defaults(func=_cmd_ratio)

    p_mixed = ratio_sub.add_parser(
        "mixed", help="compare a magnitude ratio with a number ratio"
    )
    p_mixed.add_argument("A")
    p_mixed.add_argument("B")
    p_mixed.add_argument("M", type=int)
    p_mixed.add_argument("N", type=int)
    common(p_mixed)
    p_mixed.set_defaults(func=_cmd_ratio)
    # _negative_number_matcher is a private attribute of argparse, read when
    # an option is added and while parsing, so it is set after the last
    # add_argument.  The transcript's negative-literal entries fail if it
    # stops working, and CI replays them on CPython 3.10 to 3.14
    for sp in (p_conv, p_eq, p_cross, p_mixed):
        sp._negative_number_matcher = _NEGATIVE_LITERAL

    p_verify = sub.add_parser("verify", help="run the seeded self verification suites")
    p_verify.add_argument(
        "--suite", choices=("engine", "ratio", "areas", "all"), default="all"
    )
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", action="store_true", help="emit a JSON report")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    global _input_digits
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return EXIT_OK if code == 0 else EXIT_USAGE
    lift = hasattr(sys, "set_int_max_str_digits")  # an older Python has no limit
    if lift:
        _input_digits = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: what is left goes to devnull, so the flush at
        # exit raises nothing ("Note on SIGPIPE" in Python's signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except DomainError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print("internal invariant violated: %s" % exc, file=sys.stderr)
        return EXIT_FAILED
    finally:
        if lift:
            sys.set_int_max_str_digits(_input_digits)


if __name__ == "__main__":
    sys.exit(main())
