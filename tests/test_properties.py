"""The seeded verification harness itself: determinism and accounting."""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from anthyphairesis import (
    AREA,
    LINE,
    PASS,
    PROPOSITIONS,
    VACUOUS,
    DomainError,
    PropertyResult,
    SUITES,
    check_proposition,
    properties,
    ratios,
    run_property,
    run_suite,
)
from anthyphairesis.properties import _constructive_inputs

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestSuitesRegistry:
    def test_shape(self):
        assert set(SUITES) == {"engine", "ratio", "areas"}
        assert len(SUITES["engine"]) == 10
        assert len(SUITES["ratio"]) == 22
        assert len(SUITES["areas"]) == 8
        names = [name for props in SUITES.values() for name, _ in props]
        assert len(names) == len(set(names))
        assert all(name.replace("_", "").isalnum() for name in names)


def _record_draws(trials, seed):
    seen = []

    def probe(rng):
        seen.append(rng.random())
        return PASS

    run_property("engine", "probe", probe, trials, seed)
    return seen


class TestRunProperty:
    def test_substreams_do_not_depend_on_trial_count(self):
        assert _record_draws(5, 3) == _record_draws(10, 3)[:5]

    def test_seed_changes_the_draws(self):
        assert _record_draws(5, 3) != _record_draws(5, 4)

    def test_assertion_failures_are_counted(self):
        def bad(rng):
            raise AssertionError("always wrong")

        result = run_property("engine", "bad", bad, 7, 0)
        assert result == PropertyResult("engine", "bad", 7, 0, 0, 7, "always wrong")

    def test_crashes_count_as_failures(self):
        def crash(rng):
            raise ValueError("boom")

        result = run_property("engine", "crash", crash, 3, 0)
        assert result.failed == 3 and result.passed == 0
        assert result.first_failure == "ValueError: boom"

    def test_vacuous_trials_are_not_passes(self):
        def shy(rng):
            return VACUOUS

        result = run_property("engine", "shy", shy, 4, 0)
        assert result.vacuous == 4 and result.passed == 0 and result.failed == 0
        assert result.first_failure is None


class TestOptimizedInterpreter:
    """`python -O` strips assert statements, so no property may rely on one."""

    # disc_invariance sees each successor with B one too large: a wrong
    # discriminant, as a broken step would give
    BROKEN_STEP = (
        "import sys\n"
        "from anthyphairesis import cli, properties\n"
        "from anthyphairesis.engine import QuadraticForm\n"
        "real = properties.excess_step\n"
        "def wrong(form):\n"
        "    k, g = real(form)\n"
        "    return k, QuadraticForm(g.kind, g.A, g.B + 1, g.C)\n"
        "properties.excess_step = wrong\n"
        "sys.exit(cli.main(['verify', '--suite', 'engine', '--trials', '5']))\n"
    )

    def _verify(self, *flags):
        env = dict(os.environ)
        env.pop("PYTHONOPTIMIZE", None)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, *flags, "-c", self.BROKEN_STEP],
            capture_output=True, text=True, env=env, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_a_failing_property_fails_under_dash_o(self):
        plain = self._verify()
        optimized = self._verify("-O")
        assert optimized == plain
        code, out, err = optimized
        assert code == 2 and err == ""
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
        assert rows["engine/disc_invariance"] == "passed 0 vacuous 0 failed 5".split()
        assert "first failure: discriminant drifted: " in out
        assert out.endswith("result: fail (10 properties, 5 trials each, seed 0, 5 failures)\n")

    def test_no_property_uses_an_assert_statement(self):
        tree = ast.parse(Path(properties.__file__).read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == []


class TestRunSuite:
    def test_validation(self):
        with pytest.raises(DomainError):
            run_suite("bogus", 10, 0)
        with pytest.raises(DomainError):
            run_suite("engine", 0, 0)

    @pytest.mark.parametrize(
        "trials, seed, msg",
        [
            (2.5, 1, "trials must be an integer, got 2.5"),
            (True, 0, "trials must be an integer, got True"),
            (3, 1.5, "seed must be an integer, got 1.5"),
            (3, "7", "seed must be an integer, got '7'"),
            (3, False, "seed must be an integer, got False"),
        ],
    )
    def test_trials_and_seed_must_be_ints(self, trials, seed, msg):
        with pytest.raises(DomainError) as info:
            run_suite("areas", trials, seed)
        assert str(info.value) == "run_suite: " + msg
        name, fn = SUITES["areas"][0]
        with pytest.raises(DomainError) as info:
            run_property("areas", name, fn, trials, seed)
        assert str(info.value) == "run_property: " + msg

    def test_deterministic_for_a_fixed_seed(self):
        assert run_suite("engine", 10, 7) == run_suite("engine", 10, 7)

    @pytest.mark.parametrize("seed", (0, 5))
    @pytest.mark.parametrize("suite", ("engine", "ratio", "areas"))
    def test_all_properties_pass(self, suite, seed):
        for result in run_suite(suite, 25, seed):
            assert result.failed == 0, "%s/%s: %s" % (
                suite,
                result.name,
                result.first_failure,
            )
            assert result.passed + result.vacuous == result.trials == 25
            assert result.passed > 0, "%s/%s never hit its hypotheses" % (
                suite,
                result.name,
            )


class TestConstructiveInputs:
    """The check_* inputs are filled in from the rule that check_proposition evaluates."""

    @pytest.mark.parametrize("name", sorted(PROPOSITIONS))
    def test_inputs_satisfy_hypotheses_and_conclusion(self, name):
        for seed in range(300):
            mags = _constructive_inputs(name, random.Random(seed))
            assert tuple(m.role for m in mags) == PROPOSITIONS[name]
            report = check_proposition(name, mags)
            assert report.hypotheses_hold and report.conclusion_holds, (name, seed)

    @pytest.mark.parametrize(
        "roles, rule",
        [
            # invertendo: a : b = c : d gives b : a = d : c
            ((LINE,) * 4, ratios._Rule((((0, 1), (2, 3)),), ((1, 0), (3, 2)))),
            # separando on areas: a rule with a condition that a draw can miss
            ((AREA,) * 4, ratios._RULES["separando_pairs"][1]),
        ],
        ids=["invertendo", "area_separando"],
    )
    def test_a_rule_added_to_the_table_gets_inputs(self, monkeypatch, roles, rule):
        monkeypatch.setitem(ratios._RULES, "added", (roles, rule))
        monkeypatch.setitem(ratios.PROPOSITIONS, "added", roles)
        for seed in range(100):
            mags = _constructive_inputs("added", random.Random(seed))
            report = check_proposition("added", mags)
            assert report.hypotheses_hold and report.conclusion_holds, seed

    def test_unknown_name_is_refused(self):
        with pytest.raises(DomainError, match="no generator for proposition 'bogus'"):
            _constructive_inputs("bogus", random.Random(0))
