"""Record the CLI transcript that tests/test_cli_transcript.py checks, or replay it.

    PYTHONPATH=src python tests/cli_transcript.py

runs every argv of ARGVS in-process through cli.main and rewrites
tests/cli_transcript.json with its exit code, stdout and stderr.  Run it
only after an intended output change, and list each argv whose entry
changed with the change that made it.

    python tests/cli_transcript.py --check anthyph
    PYTHONPATH=src python tests/cli_transcript.py --check "python -m anthyphairesis.cli"

runs every recorded entry as a process of the given command, split as a
shell would, followed by the entry's argv, and compares its exit code,
stdout and stderr with the recorded ones.  For each entry that differs it
prints the argv and the field, with both exit codes or with the first
differing line as recorded and as run.  It exits 1 if any entry differs,
else 0.  Against the installed `anthyph` this also checks what the
in-process test cannot see: the console-script wrapper, the process exit
code and the installed package.  This mode imports nothing of the package.

The corpus: the README commands in text and --json, one argv of each
bench cli_session form, `verify --json --trials 3` for each suite at
seeds 0 and 1, `verify` of every suite, every `ratio eq`, `mixed` and
`cross` case (rational and irrational ratios, above and below 1, equal
and unequal, distinct fields), a surd below its conjugate (a `defect-`
form), literals that start with '-', the budget and input errors the
program reports itself, and the help and usage errors of its parser.  The
parser's wording is fixed and never wrapped, so no entry depends on the
Python version or on the terminal width.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import shlex
import subprocess
import sys
from pathlib import Path

PATH = Path(__file__).with_name("cli_transcript.json")

_BIG_PRIME = str(10**31 + 57)  # a prime radicand that Miller-Rabin tells from p*q

ARGVS: tuple[tuple[str, ...], ...] = tuple(tuple(a.split()) for a in (
    # README, text and --json
    "anth sqrt 2 --trace",
    "anth sqrt 2 --trace --json",
    "anth form 5 13 7 --kind defect --trace",
    "anth form 5 13 7 --kind defect --trace --json",
    "convergents sqrt 2",
    "convergents sqrt 2 --json",
    "theodorus --max 8",
    "theodorus --max 8 --json",
    "ratio eq 0,1,1,2 1 2 0,1,1,2",
    "ratio eq 0,1,1,2 1 2 0,1,1,2 --json",
    "verify --suite areas --trials 50",
    "verify --suite areas --trials 50 --json",
    # checks of the installed entry point
    "--version",
    "anth sqrt 2 --json",
    "verify --suite areas --trials 1",
    "ratio eq 11,1,18,139 1 7,1,15,139 1 --max-steps 0",
    "ratio mixed 11,1,18,139 1 3 1 --max-steps 0",
    "ratio cross 0,1,1,2 1 2 0,1,1,2",
    "anth sqrt 1",
    "ratio eq 0,1,1,2 1 0,1,1,3 1",
    "verify --suite all --trials 100",
    "convergents --quotients 1,2,3 --max-steps 0",
    "theodorus --max 3 --max-steps 1",
    # one argv of each cli_session form (bench/gen.py)
    "anth sqrt 895",
    "anth sqrt 4292 --json --trace",
    "anth form 6 314 3884 --kind defect",
    "anth surd -5 4 5 3 --json",
    "anth rational 591400508 251610957",
    "convergents sqrt 24 --json",
    "theodorus --max 200 --json",
    "ratio eq 222,2,2,37 1,3,2,37 74,6,12,37 0,1,3,37",
    "ratio cross 84,12,6,19 2,2,3,19 122,16,3,19 4,2,3,19",
    "ratio mixed 20,15,31,409 4,3,1,409 5 31",
    "verify --suite engine --trials 2 --seed 895423",
    "anth sqrt 1097893273231",
    # verify reports
    "verify --suite engine --trials 3 --json",
    "verify --suite engine --trials 3 --seed 1 --json",
    "verify --suite ratio --trials 3 --json",
    "verify --suite ratio --trials 3 --seed 1 --json",
    "verify --suite areas --trials 3 --json",
    "verify --suite areas --trials 3 --seed 1 --json",
    "verify --suite ratio --trials 2",
    "verify --trials 0",
    # expansions and their budget and input errors
    "anth sqrt 0",
    "anth sqrt -5",
    "anth sqrt 4",
    "anth sqrt 12",
    "anth sqrt 12 --json",
    "anth sqrt 3 --max-steps 2",
    "anth sqrt 7 --trace --max-steps 2",
    "anth sqrt 3 --max-steps -1",
    "anth sqrt 10000000000000061 --max-steps 10",
    "anth sqrt 10000000000000061 --max-steps 10 --json",
    "anth form 1 0 1 --kind excess",
    "anth form 4 0 1 --kind excess",
    # a square discriminant: Euclid's division, and a trace of the start form alone
    "anth form 5 12 7 --kind defect --trace",
    "anth form 5 12 7 --kind defect --trace --json",
    "anth rational 0 2",
    "anth rational 2 0",
    "anth rational -1 2",
    "anth rational 1 1",
    "anth rational 3 2 --max-steps -1",
    "anth surd 0 1 2 2",
    "anth surd 0 1 2 2 --trace --json",
    "anth surd 3 -1 1 2 --trace",
    "anth surd 3 -1 1 2 --json",
    "anth surd 2 0 3 1",
    "anth surd 0 1 2 2 --max-steps -1",
    "anth surd 3 0 2 1 --max-steps -1",
    "anth surd 0 1 0 2",
    "anth surd 0 1 1 -2",
    "anth surd 0 1 1 " + _BIG_PRIME,
    # (10**12 + 39)**3: a prime power past 1009**3, split by one Fermat gcd
    "anth surd 0 1 1 1000000000117000000004563000000059319",
    # the root is the value given, not a split of the minimal form's disc
    "anth surd 0 1000000000039 1 2 --max-steps 5",
    "convergents --quotients 1,2,2",
    "convergents --quotients 3,1,4,1,5 --count 3 --json",
    "convergents --quotients 1,2,2 --max-steps -1",
    "convergents --quotients 1,2,3 --max-steps 0 --json",
    "convergents sqrt 2 --count -1",
    "convergents sqrt 3 --max-steps 2",
    "convergents sqrt 2 --count 4 --max-steps 3",
    "convergents sqrt 2 --count 3 --max-steps 3",
    "convergents sqrt 4 --count 3",
    "convergents sqrt 1 --count 1",
    # two 16-digit prime factors: the remainders take sqrt(N) unsplit
    "convergents sqrt 1000000000000128000000000003367 --max-steps 10",
    "theodorus --max 1",
    "theodorus --max 5 --max-steps 1",
    "theodorus --max 5 --max-steps 1 --json",
    # ratio eq: rational, irrational, above and below 1, distinct fields
    "ratio eq 1 2 3 6",
    "ratio eq 1 2 2 3",
    "ratio eq 1/2 1 3 6 --json",
    "ratio eq 2 1 0,1,1,2 1",
    "ratio eq 0,1,1,2 1 1 0,1,1,2",
    "ratio eq 1 0,1,1,2 2 0,2,1,2",
    "ratio eq 0,2,1,8 2 0,1,1,2 1",
    "ratio eq 1,1,1,5 2 1,1,2,5 1 --json",
    "ratio eq 0,1,1,1000000000039 1 0,2,1,1000000000039 2 --max-steps 20",
    "ratio eq 3 1,1,1,2 0,1,1,3 0,1,1,2",
    "ratio eq 11,1,18,139 1 7,1,15,139 1 --max-steps 1",
    "ratio eq 0,1,1,2 1 2 0,1,1,2 --max-steps -1",
    "ratio eq 2 1,1,1,2 3 1",
    "ratio eq 2 1,1,1,2 3 1 --max-steps -1",
    "ratio eq 0,1,1,2 2 1 1 --max-steps 0",
    # ratio mixed
    "ratio mixed 3 2 3 2",
    "ratio mixed 3 2 2 3 --json",
    "ratio mixed 0,1,1,2 1 3 2",
    "ratio mixed 0,1,1,1000000000039 1 3 1 --max-steps 20",
    "ratio mixed 1,1,1,2 0,1,1,3 2 1",
    "ratio mixed 0,1,1,2 0,1,1,3 3 1 --max-steps -1",
    "ratio mixed 2 1 0 1",
    # ratio cross
    "ratio cross 1 2 3 6",
    "ratio cross 1 2 2 3 --json",
    "ratio cross 0,1,1,2 1 0,1,1,3 1",
    # magnitude literals: malformed, and well formed with a bad value
    "ratio eq 1,1,1 1 2 3",
    "ratio eq x 1 2 3",
    "ratio eq 1/0 1 2 3",
    "ratio eq 0,1,0,2 1 2 0,1,1,2",
    "ratio eq 0,1,1,-2 1 2 3",
    "ratio eq -1 1 2 3",
    "ratio eq 0/1 1 2 3",
    "ratio mixed 0,1,0,2 1 1 1",
    "ratio cross 1 0 2 3",
    "ratio eq 0,1,1," + _BIG_PRIME + " 1 2 3",
    # literals that start with '-' reach the literal parser, not the option parser
    "ratio eq -1,1,1,2 1 0,1,1,2 1",
    "ratio cross -1,1,1,2 1 0,1,1,2 1",
    "ratio mixed -1,1,1,2 1 2 5 --json",
    "ratio mixed -1/2 1 1 2",
    "ratio eq -1/2 1 2 3",
    "convergents --quotients -1,2",
    # help and usage errors of the command line parser
    "",
    "-h",
    "frobnicate",
    "anth sqrt x",
    "verify --suite bogus",
    "anth form 1 2 3",
    "theodorus --ma 5",
    "ratio eq -h",
))


def run(argv) -> dict:
    """argv, exit code, stdout and stderr of one in-process CLI run."""
    import anthyphairesis.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _first_difference(recorded: str, ran: str) -> str:
    """Number, recorded text and run text of the first line where two outputs differ.

    Lines keep their ends, so '' stands only for a line past the end.
    """
    lines = itertools.zip_longest(recorded.splitlines(True), ran.splitlines(True), fillvalue="")
    i, (x, y) = next((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1])
    return "line %d %r -> %r" % (i, x, y)


def replay(cmd: list[str], entries: list[dict], env: dict | None = None) -> list[str]:
    """A line for each field of each entry that running cmd + argv does not reproduce."""
    report = []
    for entry in entries:
        proc = subprocess.run(
            cmd + entry["argv"], capture_output=True, env=env, timeout=600
        )
        name = " ".join(entry["argv"])
        if proc.returncode != entry["exit"]:
            report.append("%s exit %d -> %d" % (name, entry["exit"], proc.returncode))
        for field, data in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            ran = data.decode("utf-8", "replace")
            if ran != entry[field]:
                where = _first_difference(entry[field], ran)
                report.append("%s %s %s" % (name, field, where))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Record the CLI transcript or replay it.")
    parser.add_argument(
        "--check", metavar="CMD",
        help="replay the recorded entries through this command instead of recording",
    )
    args = parser.parse_args(argv)
    if args.check is not None:
        entries = json.loads(PATH.read_text())
        report = replay(shlex.split(args.check), entries)
        for line in report:
            print(line, file=sys.stderr)
        if report:
            return 1
        print("%d entries match" % len(entries), file=sys.stderr)
        return 0
    entries = [run(argv) for argv in ARGVS]
    PATH.write_text(json.dumps(entries, indent=1) + "\n")
    print("wrote %d entries to %s" % (len(entries), PATH), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
