"""The seeded verification harness itself: determinism and accounting."""

import random

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
    ratios,
    run_property,
    run_suite,
)
from anthyphairesis.properties import _constructive_inputs


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
