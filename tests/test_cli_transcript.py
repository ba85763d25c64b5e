"""The CLI's bytes against the checked-in transcript tests/cli_transcript.json.

Every recorded argv runs in-process through cli.main, and its exit code,
stdout and stderr must equal the recorded ones byte for byte.  A change
that moves the output of every run alike passes the tests that compare
two runs of one process; it fails here.  tests/cli_transcript.py holds
the corpus, rewrites the transcript and replays it through a command.
"""

import copy
import json
import os
import sys
from pathlib import Path

import pytest

from cli_transcript import ARGVS, PATH, replay, run

SRC = str(Path(__file__).resolve().parent.parent / "src")

ENTRIES = json.loads(PATH.read_text())


def test_transcript_records_the_corpus():
    assert [tuple(e["argv"]) for e in ENTRIES] == list(ARGVS)
    assert len(set(ARGVS)) == len(ARGVS)


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_bytes_match_the_transcript(entry):
    assert run(entry["argv"]) == entry


# the replay's comparison, on a few entries run as processes: the full
# replay, every entry through the installed entry point, runs in CI
def _replay(entries):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return replay([sys.executable, "-m", "anthyphairesis.cli"], entries, env)


def _entry(*argv):
    return copy.deepcopy(next(e for e in ENTRIES if e["argv"] == list(argv)))


def test_replay_passes_the_recorded_entries():
    entries = [_entry("convergents", "sqrt", "2", "--json"), _entry("anth", "sqrt", "0")]
    assert _replay(entries) == []


def test_replay_names_the_entry_field_and_line_of_a_changed_byte():
    entry = _entry("convergents", "sqrt", "2", "--json")
    lines = entry["stdout"].splitlines(True)
    assert lines[12] == '        "q": "1",\n'
    lines[12] = '        "q": "2",\n'
    entry["stdout"] = "".join(lines)
    assert _replay([entry]) == [
        "convergents sqrt 2 --json stdout line 13 "
        "'        \"q\": \"2\",\\n' -> '        \"q\": \"1\",\\n'"
    ]


def test_replay_names_a_changed_exit_code():
    entry = _entry("anth", "sqrt", "0")
    assert entry["exit"] == 1
    entry["exit"] = 0
    assert _replay([entry]) == ["anth sqrt 0 exit 0 -> 1"]
