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

TESTS = Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

# a command that only expands or compares needs none of these
UNUSED_BY_COMMANDS = (
    "dataclasses",
    "inspect",
    "json",
    "fractions",
    "decimal",
    "numbers",
    "anthyphairesis.properties",
    "anthyphairesis.areas",
)

# no import of the package or its front end, and no command, verify
# included, may load these
NEVER_AT_IMPORT = ("typing", "fractions", "decimal", "numbers")


def _fresh(code: str, *flags: str, path: str = SRC):
    """The value printed by code, run in a new interpreter with path on sys.path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = path + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
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


@pytest.mark.parametrize("module", ["anthyphairesis", "anthyphairesis.cli"])
def test_import_without_site_loads_no_typing_or_fractions(module):
    # -S: no site, so no .pth file preloads typing or re before the import
    before, after = _fresh(
        "import sys; names = %r; before = [m for m in names if m in sys.modules]; "
        "import %s; print((before, [m for m in names if m in sys.modules]))"
        % (NEVER_AT_IMPORT, module),
        "-S",
    )
    assert before == [] and after == []


def test_no_command_loads_fractions():
    # every transcript argv in one interpreter: the commands that expand or
    # compare, then one verify run, whose suites compute in QuadSurd pairs
    code = (
        "import json, sys; from cli_transcript import PATH, run; "
        "entries = json.loads(PATH.read_text()); "
        "others = [e for e in entries if e['argv'][0] != 'verify']; "
        "same = all(run(e['argv']) == e for e in others); "
        "after_others = 'fractions' in sys.modules; "
        "verify = next(e for e in entries if e['argv'][0] == 'verify'); "
        "same = same and run(verify['argv']) == verify; "
        "print((len(others), same, after_others, 'fractions' in sys.modules))"
    )
    count, same, after_others, after_verify = _fresh(
        code, path=SRC + os.pathsep + str(TESTS)
    )
    assert count > 90 and same is True
    assert after_others is False
    assert after_verify is False


def test_rational_values_match_fraction_before_it_is_loaded():
    # str, == and the hash of every rational need no Fraction: the hash
    # follows Python's numeric-hash recipe on the reduced pair
    code = """
import random, sys
from anthyphairesis import QuadSurd, as_surd

M = sys.hash_info.modulus  # a denominator M, or 2M, has the infinite hash
rng = random.Random(2020)
pairs = [(-7, 3), (0, 1), (0, 9), (12, 1), (-1, 1), (1, 1), (-2, 1), (M, 1), (-M, 1),
         (5, M), (-5, M), (M + 1, M), (1, 2 * M), (-3, 2 * M), (1, M * M),
         (2**64 + 1, 2**63)]
pairs += [(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(1000)]
pairs += [(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(1000)]
xs = [QuadSurd(p, 0, q) for p, q in pairs]
strs = [str(x) for x in xs]
eqs = [x == QuadSurd(3 * p, 0, 3 * q) and (q != 1 or x == p) for (p, q), x in zip(pairs, xs)]
hashes = [hash(x) for x in xs]
unloaded = 'fractions' not in sys.modules
from fractions import Fraction
fs = [Fraction(p, q) for p, q in pairs]
print((
    unloaded,
    all(eqs),
    strs == [str(f) for f in fs],
    hashes == [hash(f) for f in fs],
    hashes == [hash(x) for x in xs],
    all(x == f and f == x and x == as_surd(f) for x, f in zip(xs, fs)),
))
"""
    assert _fresh(code) == (True,) * 6


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


def test_dir_lists_the_lazy_names_in_process():
    names = dir(anthyphairesis)
    assert names == sorted(set(names))
    assert {"areas", "properties", "SUITES", "check_ii4", "ExpansionTrace"} <= set(names)


def test_unknown_names_still_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        anthyphairesis.no_such_name


def test_verify_checks_its_trials_before_loading_the_suites():
    code = """
import contextlib, io, sys
from anthyphairesis import cli
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main(["verify", "--trials", "0"])
print((code, err.getvalue(), [m for m in %r if m in sys.modules]))
""" % (("anthyphairesis.properties", "anthyphairesis.areas", "fractions"),)
    assert _fresh(code) == (1, "error: verify: --trials must be >= 1\n", [])


def test_indeterminate_error_is_not_exported():
    # every verdict is decided and a truncated expansion is flagged, so no
    # budget error is left to raise
    with pytest.raises(AttributeError, match="IndeterminateError"):
        anthyphairesis.IndeterminateError
    assert "IndeterminateError" not in anthyphairesis.__all__
