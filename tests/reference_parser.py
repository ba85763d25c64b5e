"""The argparse parser the CLI used before its command table, kept as a reference.

tests/test_cli.py parses each fuzzed argv with this parser and with
cli._parse: both must accept it with equal attributes or both refuse it.
The copy is frozen: it builds the command line as the CLI read it when
argparse parsed it, handlers and defaults included, and changes only if
the CLI's grammar is meant to change.
"""

from __future__ import annotations

import argparse
import re

from anthyphairesis import __version__
from anthyphairesis.cli import _cmd_anth, _cmd_convergents, _cmd_ratio, _cmd_theodorus, _cmd_verify
from anthyphairesis.engine import _MAX_STEPS

# argparse reads an argument that starts with '-' as an option unless it
# looks like a negative number, which to argparse is only '-5' or '-.5'.
# The ratio and convergents parsers take anything that starts with '-'
# and a digit for an argument.
_NEGATIVE_LITERAL = re.compile(r"^-\d")


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
    # add_argument
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
