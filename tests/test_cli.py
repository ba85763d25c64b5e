"""End to end command line behaviour: output shape and exit codes."""

import contextlib
import io
import itertools
import json
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import anthyphairesis.cli as cli
from anthyphairesis import InternalInvariantError, __version__, exactarith, properties


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnth:
    def test_sqrt2_human(self, capsys):
        code, out, err = run(capsys, "anth", "sqrt", "2")
        assert code == 0 and err == ""
        assert "form       : excess(1, 0, 2)" in out
        assert "expansion  : [1; (2)]" in out
        assert "preperiod  : [1]" in out
        assert "period     : [2]" in out
        assert "truncated  : no" in out
        assert "steps      : 2" in out

    def test_sqrt2_trace(self, capsys):
        code, out, _ = run(capsys, "anth", "sqrt", "2", "--trace")
        assert code == 0
        assert "t=0    excess(1, 0, 2)  k=1" in out
        assert "t=1    excess(1, 2, 1)  k=2" in out
        assert "(repeat of t=1)" in out

    def test_sqrt2_json(self, capsys):
        code, out, err = run(capsys, "anth", "sqrt", "2", "--json")
        assert code == 0 and err == ""
        state_102 = {"kind": "excess", "A": "1", "B": "0", "C": "2", "disc": "8"}
        state_121 = {"kind": "excess", "A": "1", "B": "2", "C": "1", "disc": "8"}
        assert json.loads(out) == {
            "command": "anth sqrt",
            "input": {"radicand": "2"},
            "result": {
                "kind": "excess",
                "A": "1",
                "B": "0",
                "C": "2",
                "disc": "8",
                "quotients": ["1", "2"],
                "states": [state_102, state_121, state_121],
                "preperiod": ["1"],
                "period": ["2"],
                "truncated": False,
            },
            "version": __version__,
        }

    def test_square_radicand_is_finite(self, capsys):
        code, out, _ = run(capsys, "anth", "sqrt", "4")
        assert code == 0
        assert "expansion  : [2]" in out
        assert "period     : -" in out
        assert "root       : 2" in out

    def test_bad_radicand(self, capsys):
        code, out, err = run(capsys, "anth", "sqrt", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_form_modes(self, capsys):
        code, out, _ = run(capsys, "anth", "form", "5", "13", "7", "--kind", "defect")
        assert code == 0 and "expansion  : [1, 1; (5)]" in out
        code, out, _ = run(capsys, "anth", "form", "1", "2", "1", "--kind", "excess")
        assert code == 0 and "expansion  : [(2)]" in out
        code, out, _ = run(capsys, "anth", "form", "2", "4", "1", "--kind", "defect")
        assert code == 0 and "expansion  : [1, 1; (2)]" in out

    def test_form_with_square_disc_is_euclidean(self, capsys):
        code, out, _ = run(capsys, "anth", "form", "1", "5", "6", "--kind", "defect")
        assert code == 0 and "expansion  : [3]" in out

    def test_form_root_below_one(self, capsys):
        code, _, err = run(capsys, "anth", "form", "3", "1", "1", "--kind", "excess")
        assert code == 1 and err.startswith("error: ")

    def test_rational(self, capsys):
        code, out, _ = run(capsys, "anth", "rational", "17", "5")
        assert code == 0
        assert "ratio      : 17 : 5" in out
        assert "expansion  : [3, 2, 2]" in out
        code, _, err = run(capsys, "anth", "rational", "0", "5")
        assert code == 1 and err.startswith("error: ")

    def test_surd_above_one_uses_a_form(self, capsys):
        code, out, _ = run(capsys, "anth", "surd", "1", "1", "2", "5", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["kind"] == "excess"
        assert doc["result"]["A"] == "1" and doc["result"]["B"] == "1"
        assert doc["result"]["period"] == ["1"] and doc["result"]["preperiod"] == []

    def test_surd_below_one(self, capsys):
        code, out, _ = run(capsys, "anth", "surd", "-1", "1", "1", "2")
        assert code == 0 and "expansion  : [0; (2)]" in out

    def test_surd_rational_value(self, capsys):
        code, out, _ = run(capsys, "anth", "surd", "2", "0", "3", "1", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == {
            "kind": "rational",
            "preperiod": ["0", "1", "2"],
            "period": None,
            "truncated": False,
        }

    def test_surd_must_be_positive(self, capsys):
        code, _, err = run(capsys, "anth", "surd", "1", "-1", "1", "2")
        assert code == 1 and err.startswith("error: ")

    def test_radicand_past_the_factoring_budget_is_an_error(self, capsys):
        # a radicand the user supplies is factored at the edge, within the budget
        start = time.process_time()
        code, out, err = run(
            capsys, "anth", "surd", "0", "1", "1", "1000000000000128000000000003367"
        )
        assert time.process_time() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("error: square_free_split: radicand 1000000000000128000000000003367 ")

    def test_root_display_falls_back_past_the_factoring_budget(self, capsys):
        code, out, err = run(capsys, "anth", "sqrt", "12")
        assert code == 0 and err == ""
        assert "root       : 2*sqrt(3) ~ 3.464101\n" in out
        # two 16-digit prime factors: the root prints over its discriminant, 4 * N
        n = 1000000000000128000000000003367
        start = time.process_time()
        code, out, err = run(capsys, "anth", "sqrt", str(n), "--max-steps", "10")
        assert time.process_time() - start < 1.0
        assert code == 3 and err == ""
        assert (
            "root       : (sqrt(4000000000000512000000000013468))/2 ~ 1000000000000063.999999\n"
            in out
        )
        head = list(itertools.islice(sympy.continued_fraction_iterator(sympy.sqrt(n)), 10))
        assert "preperiod  : %s\n" % head in out
        assert "steps      : 10\n" in out

    def test_json_factors_no_root_it_does_not_print(self, capsys, monkeypatch):
        calls = []
        real = exactarith.square_free_split
        monkeypatch.setattr(
            exactarith, "square_free_split", lambda n: calls.append(n) or real(n)
        )
        code, out, _ = run(capsys, "anth", "sqrt", "12", "--json")
        assert code == 0 and calls == []
        assert json.loads(out)["result"]["period"] == ["2", "6"]
        code, out, _ = run(capsys, "anth", "sqrt", "12")
        assert code == 0 and calls == [48]
        assert "root       : 2*sqrt(3) ~ 3.464101\n" in out

    @pytest.mark.parametrize(
        "argv, name",
        [
            (("ratio", "eq", "2", "1,1,1,2", "3", "1", "--max-steps", "-1"), "ratio_eq"),
            (("anth", "surd", "0", "1", "2", "2", "--max-steps", "-1"), "anth_of_ratio"),
            (("anth", "surd", "2", "0", "3", "1", "--max-steps", "-1"), "anth_of_ratio"),
            (("anth", "rational", "3", "2", "--max-steps", "-1"), "anth_of_ratio"),
            # these two spend no budget, and reject a bad one before parsing
            (("ratio", "cross", "1", "2", "x", "6", "--max-steps", "-1"), "ratio cross"),
            (("convergents", "--quotients", "1,x", "--max-steps", "-1"), "convergents"),
        ],
        ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5"],
    )
    def test_negative_budget_is_an_error(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: %s: max_steps must be >= 0\n" % name

    def test_truncation_exit_code(self, capsys):
        code, out, _ = run(capsys, "anth", "sqrt", "139", "--max-steps", "2", "--trace")
        assert code == 3
        assert "truncated  : yes" in out
        assert "step budget exhausted" in out


class TestConvergents:
    def test_sqrt2_default_five_rows(self, capsys):
        code, out, _ = run(capsys, "convergents", "sqrt", "2", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert len(rows) == 6
        assert [r["p"] for r in rows] == ["0", "1", "2", "5", "12", "29"]
        assert [r["q"] for r in rows] == ["1", "1", "3", "7", "17", "41"]
        assert rows[0]["k"] is None and rows[0]["remainder"] == "b"
        assert rows[0]["value"] == {"u": "1", "v": "0", "w": "1", "D": "1"}
        assert rows[1]["remainder"] == "a - b"
        assert rows[1]["value"] == {"u": "-1", "v": "1", "w": "1", "D": "2"}
        assert rows[2]["remainder"] == "3*b - 2*a"
        assert rows[2]["value"] == {"u": "3", "v": "-2", "w": "1", "D": "2"}
        assert rows[3]["remainder"] == "5*a - 7*b"
        assert rows[3]["value"] == {"u": "-7", "v": "5", "w": "1", "D": "2"}

    def test_sqrt2_table(self, capsys):
        code, out, _ = run(capsys, "convergents", "sqrt", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "expansion  : [1; (2)]"
        assert lines[1].split() == ["n", "k", "p", "q", "remainder", "value"]
        assert lines[2].split() == ["0", "-", "0", "1", "b", "1"]

    def test_exact_termination_leaves_a_blank_value(self, capsys):
        code, out, _ = run(capsys, "convergents", "sqrt", "4", "--count", "1", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert rows[1]["value"] is None  # remainder is exactly zero there

    def test_finite_expansion_cannot_fill_the_count(self, capsys):
        code, _, err = run(capsys, "convergents", "sqrt", "4", "--count", "3")
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("budget, got", [("2", 2), ("0", 0)])
    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_truncated_expansion_short_of_the_count_is_undecided(
        self, capsys, budget, got, json_flag
    ):
        code, out, err = run(capsys, "convergents", "sqrt", "3", "--max-steps", budget, *json_flag)
        assert code == 3 and out == ""
        assert err == (
            "undecided: convergents: sqrt(3) gave only %d quotients within max_steps %s, "
            "5 requested (raise --max-steps)\n" % (got, budget)
        )

    def test_truncated_expansion_with_enough_quotients_prints_its_rows(self, capsys):
        code, out, err = run(capsys, "convergents", "sqrt", "3", "--max-steps", "2", "--count", "2")
        assert code == 0 and err == ""
        assert out.splitlines() == [
            "expansion  : [1, 1, ...]",
            "n  k  p  q  remainder  value",
            "0  -  0  1  b          1",
            "1  1  1  1  a - b      -1 + sqrt(3)",
            "2  1  1  2  2*b - a    2 - sqrt(3)",
        ]

    def test_explicit_quotients(self, capsys):
        code, out, _ = run(capsys, "convergents", "--quotients", "1,2,2", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert [r["p"] for r in rows] == ["0", "1", "2", "5"]
        assert all(r["value"] is None for r in rows)

    def test_quotient_errors(self, capsys):
        code, _, err = run(capsys, "convergents", "--quotients", "1,2", "--count", "3")
        assert code == 1 and "without a period" in err
        code, _, err = run(capsys, "convergents", "--quotients", "1,x")
        assert code == 1 and err.startswith("error: ")
        code, _, err = run(capsys, "convergents", "--quotients", "0,2")
        assert code == 1 and err.startswith("error: ")
        code, _, err = run(capsys, "convergents", "--quotients", "1,2", "--count", "0")
        assert code == 1 and err.startswith("error: ")
        code, _, err = run(capsys, "convergents", "sqrt", "2", "--quotients", "1,2")
        assert code == 1 and "not both" in err
        code, _, err = run(capsys, "convergents", "sqrt")
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("quotients", ["1,0", "2,-1", "0,2", "0", "3,1,0"])
    def test_nonpositive_quotient_names_convergents(self, capsys, quotients):
        code, out, err = run(capsys, "convergents", "--quotients", quotients)
        assert code == 1 and out == ""
        assert err == "error: convergents: quotients must be integers >= 1\n"


class TestTheodorus:
    def test_survey_rows(self, capsys):
        code, out, _ = run(capsys, "theodorus", "--max", "4", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert [r["n"] for r in rows] == ["2", "3", "4"]
        assert rows[0]["preperiod"] == ["1"] and rows[0]["period"] == ["2"]
        assert rows[0]["disc"] == "8" and rows[0]["state_space"] == "1"
        assert rows[0]["commensurable"] is False
        assert rows[1]["period"] == ["1", "2"]
        assert rows[2]["period"] is None and rows[2]["state_space"] is None
        assert rows[2]["commensurable"] is True

    def test_table_shape(self, capsys):
        code, out, _ = run(capsys, "theodorus", "--max", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["N", "expansion", "period", "disc", "states", "commensurable"]
        assert lines[3].split() == ["4", "[2]", "-", "16", "-", "yes"]

    def test_max_validation(self, capsys):
        code, _, err = run(capsys, "theodorus", "--max", "1")
        assert code == 1 and err.startswith("error: ")


class TestRatio:
    def test_eq_equal(self, capsys):
        code, out, _ = run(capsys, "ratio", "eq", "0,1,1,2", "1", "2", "0,1,1,2")
        assert code == 0 and "verdict    : equal" in out

    def test_eq_unequal_across_fields(self, capsys):
        code, out, _ = run(capsys, "ratio", "eq", "0,1,1,2", "1", "0,1,1,3", "1")
        assert code == 0 and "verdict    : unequal" in out

    def test_cross_equal(self, capsys):
        code, out, _ = run(capsys, "ratio", "cross", "0,1,1,2", "1", "2", "0,1,1,2")
        assert code == 0 and "verdict    : equal" in out
        code, out, _ = run(capsys, "ratio", "cross", "3/2", "1", "3", "2")
        assert code == 0 and "verdict    : equal" in out

    def test_cross_distinct_fields_is_an_error(self, capsys):
        code, out, err = run(capsys, "ratio", "cross", "0,1,1,2", "1", "0,1,1,3", "1")
        assert code == 1 and out == ""
        assert "distinct quadratic fields" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("eq", "3", "1,1,1,2", "0,1,1,3", "0,1,1,2"),
                "ratio_eq: values lie in distinct quadratic fields (sqrt(3) vs sqrt(2))",
            ),
            (
                ("mixed", "1,1,1,2", "0,1,1,3", "2", "1"),
                "mixed_ratio_eq: values lie in distinct quadratic fields (sqrt(2) vs sqrt(3))",
            ),
        ],
    )
    def test_ratio_across_fields_names_the_function(self, capsys, argv, message):
        for flags in ((), ("--json",)):
            code, out, err = run(capsys, "ratio", *argv, *flags)
            assert (code, out, err) == (1, "", "error: %s\n" % message)

    def test_mixed(self, capsys):
        code, out, _ = run(capsys, "ratio", "mixed", "17/5", "1", "17", "5")
        assert code == 0 and "verdict    : equal" in out
        code, out, _ = run(capsys, "ratio", "mixed", "0,1,1,2", "1", "3", "2")
        assert code == 0 and "verdict    : unequal" in out

    def test_bad_magnitude_literal(self, capsys):
        code, _, err = run(capsys, "ratio", "eq", "1,2", "1", "1", "1")
        assert code == 1 and "magnitude literal" in err
        code, _, err = run(capsys, "ratio", "eq", "1/0", "1", "1", "1")
        assert code == 1 and err.startswith("error: ")
        code, _, err = run(capsys, "ratio", "eq", "0,1,0,2", "1", "1", "1")
        assert code == 1 and err.startswith("error: ")

    def test_truncation_is_undecided(self, capsys):
        # two states of the sqrt(139) cycle share three quotients; one step
        # buys two lockstep rounds, which leave the verdict open
        code, _, err = run(
            capsys, "ratio", "eq", "11,1,18,139", "1", "7,1,15,139", "1",
            "--max-steps", "1",
        )
        assert code == 3 and err.startswith("undecided: ")

    def test_verdicts_come_from_the_lockstep(self, capsys, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a verdict compared two expansions")

        monkeypatch.setattr(cli.ContinuedFraction, "__eq__", refuse)
        # sqrt(10**12 + 39) has period 532572, far past the default budget,
        # so its shown expansion is truncated while the verdict is decided
        big = "0,1,1,1000000000039"
        cases = [
            (("eq", "0,1,1,2", "1", "2", "0,1,1,2"), "equal"),
            (("eq", "0,1,1,2", "1", "0,1,1,3", "1"), "unequal"),
            (("eq", "3/2", "1", "3", "2"), "equal"),
            (("mixed", "17/5", "1", "17", "5"), "equal"),
            (("mixed", "0,1,1,2", "1", "3", "2"), "unequal"),
            (("mixed", big, "1", "3", "1"), "unequal"),
            (("eq", big, "1", "0,2,1,1000000000039", "2"), "equal"),
        ]
        for argv, verdict in cases:
            code, out, err = run(capsys, "ratio", *argv)
            assert code == 0 and err == "", argv
            lhs, _, last = out.splitlines()
            assert last == "verdict    : " + verdict, argv
            assert lhs.endswith(", ...]") == (big in argv), argv
        code, out, _ = run(capsys, "ratio", "mixed", big, "1", "3", "1", "--json")
        result = json.loads(out)["result"]
        assert code == 0 and result["verdict"] == "unequal"
        assert result["lhs"]["truncated"] is True and result["lhs"]["period"] is None
        assert result["rhs"] == {"preperiod": ["3"], "period": None, "truncated": False}

    def test_mixed_rejects_bad_numbers(self, capsys):
        code, out, err = run(capsys, "ratio", "mixed", "0,1,1,2", "1", "0", "2")
        assert code == 1 and out == ""
        assert err == "error: mixed_ratio_eq: m and n must be integers >= 1\n"

    def test_eq_json_round(self, capsys):
        code, out, _ = run(capsys, "ratio", "eq", "0,1,1,2", "1", "2", "0,1,1,2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "ratio eq"
        assert doc["result"]["verdict"] == "equal"
        assert doc["result"]["lhs"] == {"preperiod": ["1"], "period": ["2"], "truncated": False}


class TestVerify:
    def test_single_suite_ok(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "areas", "--trials", "5", "--seed", "1")
        assert code == 0 and err == ""
        last = out.splitlines()[-1]
        assert last.startswith("result: ok (8 properties, 5 trials each, seed 1")

    def test_engine_suite_count(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "engine", "--trials", "3")
        assert code == 0
        assert "(10 properties, 3 trials each, seed 0, 0 failures)" in out

    def test_all_suites_json_is_byte_stable(self, capsys):
        argv = ("verify", "--suite", "all", "--trials", "5", "--json")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["result"]["verdict"] == "ok"
        assert len(doc["result"]["rows"]) == 40
        assert all(r["trials"] == "5" for r in doc["result"]["rows"])
        assert all(r["failed"] == "0" for r in doc["result"]["rows"])

    def test_trials_validation(self, capsys):
        code, _, err = run(capsys, "verify", "--trials", "0")
        assert code == 1 and err.startswith("error: ")

    def test_unknown_suite_is_usage(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 1 and "invalid choice" in err

    def test_internal_invariant_maps_to_failure_exit(self, capsys, monkeypatch):
        def boom(*_args, **_kw):
            raise InternalInvariantError("forced for the exit code contract")

        monkeypatch.setattr(properties, "run_suite", boom)
        code, _, err = run(capsys, "verify", "--suite", "areas", "--trials", "1")
        assert code == 2 and err.startswith("internal invariant violated: ")


class TestTopLevel:
    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.strip() == "anthyph " + __version__

    def test_no_command_is_usage(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "usage" in err

    def test_unknown_command_is_usage(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1


# -- fuzzing over a bounded argv grammar ---------------------------------------

_INT = st.integers(-5, 60).map(str)
_MAGNITUDE = st.one_of(
    _INT,
    st.lists(st.integers(-3, 13), min_size=4, max_size=4).map(lambda t: ",".join(map(str, t))),
    st.tuples(st.integers(-3, 9), st.integers(-1, 9)).map(lambda t: "%d/%d" % t),
    st.sampled_from(["", "x", "1,2", "1/", "/2", "1,,2,3", "1/2/3", "0,1,0,2", "1.5"]),
)


def _opt(flag, values):
    return values.map(lambda v: [flag, v])


_JSON = st.just(["--json"])
_TRACE = st.just(["--trace"])
_STEPS = _opt("--max-steps", _INT)
_KIND = _opt("--kind", st.sampled_from(["excess", "defect", "mixed"]))
_COUNT = _opt("--count", _INT)
_QUOTIENTS = _opt("--quotients", st.lists(st.integers(-1, 9).map(str), max_size=4).map(",".join))
_MAX = _opt("--max", st.integers(-2, 60).map(str))
_SEED = _opt("--seed", _INT)
_SUITE = _opt("--suite", st.sampled_from(["engine", "ratio", "areas", "all", "bogus"]))
_OPTIONS = [_JSON, _TRACE, _STEPS, _KIND, _COUNT, _QUOTIENTS, _MAX, _SEED, _SUITE]


def _command(head, positional, options):
    return st.tuples(st.just(head), st.tuples(*positional).map(list),
                     st.lists(st.one_of(*options), max_size=3))


_ARGV = st.one_of(
    _command(["anth", "form"], [_INT] * 3, [_JSON, _TRACE, _STEPS, _KIND]),
    _command(["anth", "sqrt"], [_INT], [_JSON, _TRACE, _STEPS]),
    _command(["anth", "rational"], [_INT] * 2, [_JSON, _STEPS]),
    _command(["anth", "surd"], [_INT] * 4, [_JSON, _TRACE, _STEPS]),
    _command(["convergents"], [], [_JSON, _STEPS, _COUNT, _QUOTIENTS]),
    _command(["convergents", "sqrt"], [_INT], [_JSON, _STEPS, _COUNT, _QUOTIENTS]),
    _command(["theodorus"], [], [_JSON, _STEPS, _MAX]),
    _command(["ratio", "eq"], [_MAGNITUDE] * 4, [_JSON, _STEPS]),
    _command(["ratio", "cross"], [_MAGNITUDE] * 4, [_JSON, _STEPS]),
    _command(["ratio", "mixed"], [_MAGNITUDE] * 2 + [_INT] * 2, [_JSON, _STEPS]),
    # verify always bounds --trials: its default of 100 is too slow to fuzz
    _command(["verify", "--trials"], [st.integers(-1, 2).map(str)], [_JSON, _SEED, _SUITE]),
    # wrong arity, unknown commands and options of other commands
    st.tuples(
        st.sampled_from([["anth"], ["anth", "form"], ["anth", "sqrt"], ["convergents"],
                         ["theodorus"], ["ratio"], ["ratio", "eq"], ["ratio", "mixed"],
                         ["bogus"], []]),
        st.lists(_MAGNITUDE, max_size=5),
        st.lists(st.one_of(*_OPTIONS), max_size=3),
    ),
)


@settings(max_examples=300, deadline=None)
@given(_ARGV)
def test_fuzzed_argv_exits_with_a_documented_code(parts):
    head, positional, options = parts
    argv = head + positional + [tok for opt in options for tok in opt]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)  # any escaping exception fails the test
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_FAILED, cli.EXIT_UNDECIDED), argv
