"""The CLI's bytes against the checked-in transcript tests/cli_transcript.json.

Every recorded argv runs in-process through cli.main, and its exit code,
stdout and stderr must equal the recorded ones byte for byte.  A change
that moves the output of every run alike passes the tests that compare
two runs of one process; it fails here.  tests/cli_transcript.py holds
the corpus and rewrites the transcript.
"""

import json

import pytest

from cli_transcript import ARGVS, PATH, run

ENTRIES = json.loads(PATH.read_text())


def test_transcript_records_the_corpus():
    assert [tuple(e["argv"]) for e in ENTRIES] == list(ARGVS)
    assert len(set(ARGVS)) == len(ARGVS)


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_bytes_match_the_transcript(entry):
    assert run(entry["argv"]) == entry
