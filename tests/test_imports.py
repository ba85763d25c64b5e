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

# no import of the package or its front end may load these; only verify
# loads fractions, and decimal and numbers with it
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


def test_only_verify_loads_fractions():
    # every transcript argv in one interpreter: the commands that expand or
    # compare, then one verify run, which reads Fractions from the suites
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
    assert after_verify is True


def test_rational_values_match_fraction_before_it_is_loaded():
    # str, == and the hash of an integer need no Fraction; the hash of any
    # other rational builds one, importing fractions on first use
    code = """
import random, sys
from anthyphairesis import QuadSurd, QuadraticForm, EXCESS

M = sys.hash_info.modulus  # a denominator M has the infinite hash
rng = random.Random(2020)
pairs = [(-7, 3), (0, 1), (0, 9), (12, 1), (-1, 1), (-2, 1), (M, 1), (-M, 1),
         (5, M), (-5, M), (M + 1, M), (1, M * M), (2**64 + 1, 2**63)]
pairs += [(rng.randint(-10**40, 10**40), rng.randint(1, 10**40)) for _ in range(40)]
pairs += [(rng.randint(-50, 50), rng.randint(1, 50)) for _ in range(40)]
xs = [QuadSurd(p, 0, q) for p, q in pairs]
strs = [str(x) for x in xs]
eqs = [x == QuadSurd(3 * p, 0, 3 * q) and (q != 1 or x == p) for (p, q), x in zip(pairs, xs)]
int_hashes = [hash(x) for x in xs if x.w == 1]
unloaded = 'fractions' not in sys.modules
hashes = [hash(x) for x in xs]
from fractions import Fraction
fs = [Fraction(p, q) for p, q in pairs]
print((
    unloaded,
    all(eqs),
    strs == [str(f) for f in fs],
    hashes == [hash(f) for f in fs],
    int_hashes == [hash(f) for f in fs if f.denominator == 1],
    all(x == f and f == x and x == QuadSurd._coerce(f) for x, f in zip(xs, fs)),
    {type(x.as_fraction()) for x in xs} == {Fraction},
    [x.as_fraction() for x in xs] == fs,
    type(QuadraticForm(EXCESS, 2, 3, 2).root_fraction()) is Fraction,
    QuadraticForm(EXCESS, 4, 0, 9).root_fraction() == Fraction(3, 2),
))
"""
    assert _fresh(code) == (True,) * 10


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
