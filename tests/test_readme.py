"""The README's command examples against the CLI.

Every fenced block of README.md whose first line is `$ anthyph ...` runs
in-process through cli.main.  The command must exit 0, and its stdout
must match the lines that follow the command, where a line `...` stands
for any run of lines, the empty run included.
"""

import re
import shlex
from pathlib import Path

import pytest

from cli_transcript import run

README = Path(__file__).resolve().parent.parent / "README.md"
PROMPT = "$ anthyph "


def _blocks():
    """(argv, expected lines) of each README block that starts with a command."""
    blocks = []
    for body in re.findall(r"^```[a-z]*\n(.*?)^```$", README.read_text(), re.M | re.S):
        first, *rest = body.splitlines()
        if first.startswith(PROMPT):
            blocks.append((tuple(shlex.split(first[len(PROMPT):])), rest))
    return blocks


BLOCKS = _blocks()


def _matches(want, got):
    """Whether the lines got match want, where a '...' line matches any run."""
    if not want:
        return not got
    if want[0] == "...":
        return any(_matches(want[1:], got[i:]) for i in range(len(got) + 1))
    return bool(got) and got[0] == want[0] and _matches(want[1:], got[1:])


def test_readme_shows_every_command_form():
    assert [argv[:2] for argv, _ in BLOCKS] == [
        ("anth", "sqrt"),
        ("anth", "form"),
        ("convergents", "sqrt"),
        ("theodorus", "--max"),
        ("ratio", "eq"),
        ("verify", "--suite"),
    ]


@pytest.mark.parametrize("argv, want", BLOCKS, ids=[" ".join(a) for a, _ in BLOCKS])
def test_readme_block_matches_the_cli(argv, want):
    got = run(argv)
    assert (got["exit"], got["stderr"]) == (0, "")
    assert _matches(want, got["stdout"].splitlines()), got["stdout"]


@pytest.mark.parametrize(
    "want, got, ok",
    [
        (["a", "...", "d"], ["a", "b", "c", "d"], True),
        (["a", "...", "b"], ["a", "b"], True),
        (["...", "c"], ["a", "b", "c"], True),
        (["..."], [], True),
        (["a", "...", "d"], ["a", "b", "c"], False),
        (["a", "b"], ["a", "b", "c"], False),
        (["a", "c"], ["a", "b"], False),
    ],
)
def test_ellipsis_matches_any_run_of_lines(want, got, ok):
    assert _matches(want, got) is ok
