"""What importing the package and its command line front end loads.

Each check runs in a fresh interpreter, since this test process has
long since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anthyphairesis

SRC = str(Path(__file__).resolve().parent.parent / "src")

# a command that only expands or compares needs none of these
UNUSED_BY_COMMANDS = (
    "dataclasses",
    "inspect",
    "json",
    "anthyphairesis.properties",
    "anthyphairesis.areas",
)


def _fresh(code: str):
    """The value printed by code, run in a new interpreter with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_cli_import_leaves_the_unused_modules_unloaded():
    new = _fresh(
        "import sys; bare = set(sys.modules); import anthyphairesis.cli; "
        "print(sorted(set(sys.modules) - bare))"
    )
    assert "anthyphairesis.cli" in new and "anthyphairesis.engine" in new
    assert [m for m in UNUSED_BY_COMMANDS if m in new] == []


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from anthyphairesis import *", namespace)
    assert set(anthyphairesis.__all__) <= set(namespace)
    for name in anthyphairesis.__all__:
        assert namespace[name] is getattr(anthyphairesis, name)


def test_lazy_names_are_listed_and_load_on_first_read():
    before, listed, after, same = _fresh(
        "import sys, anthyphairesis as a; m = 'anthyphairesis.properties'; "
        "before = m in sys.modules; names = dir(a); suites = a.SUITES; "
        "print((before, [n for n in ('SUITES', 'run_suite', 'check_ii4', 'areas') "
        "if n in names], m in sys.modules, suites is sys.modules[m].SUITES))"
    )
    assert before is False
    assert listed == ["SUITES", "run_suite", "check_ii4", "areas"]
    assert after is True and same is True


def test_unknown_names_still_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        anthyphairesis.no_such_name
