"""End to end command line behaviour: output shape and exit codes."""

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import anthyphairesis.cli as cli
from anthyphairesis import (
    ExpansionTrace,
    InternalInvariantError,
    __version__,
    exactarith,
    properties,
)


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("anth", "sqrt", "1"),
            ("anth", "form", "1", "0", "1", "--kind", "excess"),
            ("convergents", "sqrt", "1", "--count", "1"),
        ],
    )
    def test_sqrt_one_expands_to_one(self, capsys, argv):
        # sqrt(1) : 1 is the rational ratio 1 : 1, as `anth rational 1 1` prints
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        assert "expansion  : [1]\n" in out

    def test_bad_radicand(self, capsys):
        code, out, err = run(capsys, "anth", "sqrt", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("anth", "sqrt", "0"), "anth sqrt: N must be >= 1, got 0"),
            (("anth", "sqrt", "-5"), "anth sqrt: N must be >= 1, got -5"),
            (("anth", "sqrt", "0", "--json", "--max-steps", "-1"), "anth sqrt: N must be >= 1, got 0"),
            (("convergents", "sqrt", "0"), "convergents: N must be >= 1, got 0"),
            (("convergents", "sqrt", "-5", "--json"), "convergents: N must be >= 1, got -5"),
        ],
    )
    def test_radicand_below_one_names_the_command(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "argv",
        [("0", "2"), ("2", "0"), ("-1", "2"), ("0", "0", "--json"), ("0", "2", "--max-steps", "-1")],
    )
    def test_rational_below_one_names_the_command(self, capsys, argv):
        code, out, err = run(capsys, "anth", "rational", *argv)
        assert (code, out, err) == (1, "", "error: anth rational: M and N must be >= 1\n")

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

    def test_surd_prints_the_value_it_was_given_as_its_root(self, capsys):
        # the radicand the user gives is split once, the minimal form's disc never
        exactarith.square_free_split.cache_clear()
        code, out, err = run(capsys, "anth", "surd", "1", "1", "1", "9223372036854775783")
        assert code == 3 and err == ""
        assert exactarith.square_free_split.cache_info().misses == 1
        assert "root       : 1 + sqrt(9223372036854775783) ~ 3037000500.976049\n" in out

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
            # the verdict takes no budget: the printed expansion rejects it
            (("ratio", "eq", "2", "1,1,1,2", "3", "1", "--max-steps", "-1"), "anth_of_ratio"),
            (("anth", "surd", "0", "1", "2", "2", "--max-steps", "-1"), "anth_of_ratio"),
            (("anth", "surd", "2", "0", "3", "1", "--max-steps", "-1"), "anth_of_ratio"),
            (("anth", "rational", "3", "2", "--max-steps", "-1"), "anth_of_ratio"),
            # cross products take no budget, so the option is a usage error
            (("ratio", "cross", "1", "2", "3", "6", "--max-steps", "1"), None),
            # convergents spends a budget only on 'sqrt N'
            (("convergents", "sqrt", "2", "--max-steps", "-1"), "run_anthyphairesis"),
            (("ratio", "mixed", "0,1,1,2", "1", "3", "1", "--max-steps", "-1"), "anth_of_ratio"),
        ],
        ids=["argv0", "argv1", "argv2", "argv3", "argv4", "argv5", "argv6"],
    )
    def test_negative_budget_is_an_error(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        if name is None:
            assert "unrecognized arguments: --max-steps 1" in err
        else:
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

    def test_root_falls_back_past_the_factoring_budget(self, capsys):
        # two 16-digit prime factors: the rows take sqrt(n) with n unsplit
        n = 1000000000000128000000000003367
        start = time.process_time()
        code, out, err = run(capsys, "convergents", "sqrt", str(n), "--max-steps", "10", "--json")
        assert time.process_time() - start < 1.0
        assert code == 0 and err == ""
        rows = json.loads(out)["result"]["rows"]
        assert rows[2]["remainder"] == "1000000000000064*b - a"
        assert rows[2]["value"] == {"u": "1000000000000064", "v": "-1", "w": "1", "D": str(n)}
        # its square has the rational root n, taken by isqrt and never split
        code, out, err = run(capsys, "convergents", "sqrt", str(n * n), "--count", "1", "--json")
        assert code == 0 and err == ""
        rows = json.loads(out)["result"]["rows"]
        assert [r["p"] for r in rows] == ["0", "1"] and rows[1]["value"] is None

    def test_finite_expansion_cannot_fill_the_count(self, capsys):
        code, _, err = run(capsys, "convergents", "sqrt", "4", "--count", "3")
        assert code == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("4", "--count", "3"), "sqrt(4) has only 1 quotients, 3 requested"),
            (("9", "--count", "2", "--json"), "sqrt(9) has only 1 quotients, 2 requested"),
            (("4", "--max-steps", "0"), "sqrt(4) has only 1 quotients, 5 requested"),
        ],
    )
    def test_short_finite_expansion_names_convergents(self, capsys, argv, message):
        code, out, err = run(capsys, "convergents", "sqrt", *argv)
        assert (code, out, err) == (1, "", "error: convergents: %s\n" % message)

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

    @pytest.mark.parametrize(
        "argv, count, budget",
        [(("--max-steps", "3"), "4", "3"), ((), "1000000000", "10000")],
    )
    def test_periodic_count_past_the_budget_is_undecided(self, capsys, argv, count, budget):
        # refused before head(count) unrolls the period into count quotients
        start = time.process_time()
        code, out, err = run(capsys, "convergents", "sqrt", "2", "--count", count, *argv)
        assert time.process_time() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (
            "undecided: convergents: count %s for sqrt(2) exceeds max_steps %s "
            "(raise --max-steps)\n" % (count, budget)
        )

    def test_periodic_count_at_the_budget_prints_its_rows(self, capsys):
        code, out, err = run(capsys, "convergents", "sqrt", "2", "--count", "3", "--max-steps", "3")
        assert code == 0 and err == ""
        assert [ln.split()[0] for ln in out.splitlines()[2:]] == ["0", "1", "2", "3"]

    def test_count_help_says_it_counts_quotients(self):
        # --count 3 prints rows 0 to 3 (the test above), one row per quotient
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        (count,) = [a for a in sub.choices["convergents"]._actions if a.dest == "count"]
        assert count.help == (
            "quotients to use, one row each after row 0 (default 5, or all given quotients)"
        )

    def test_explicit_quotients(self, capsys):
        code, out, _ = run(capsys, "convergents", "--quotients", "1,2,2", "--json")
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert [r["p"] for r in rows] == ["0", "1", "2", "5"]
        assert all(r["value"] is None for r in rows)

    @pytest.mark.parametrize("budget", ["0", "-1", "10000", "x"])
    def test_given_quotients_take_no_budget(self, capsys, budget):
        for quotients in ("1,2,3", "1,x"):
            code, out, err = run(
                capsys, "convergents", "--quotients", quotients, "--max-steps", budget, "--json"
            )
            if budget == "x":  # argparse rejects the value first
                assert code == 1 and "invalid int value: 'x'" in err
            else:
                assert (code, out) == (1, "")
                assert err == "error: convergents: --max-steps applies to 'sqrt N' only\n"

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

    @pytest.mark.parametrize(
        "argv",
        [
            ("sqrt", "2", "--count", "-1"),
            ("sqrt", "2", "--count", "0"),
            ("sqrt", "3", "--count", "-1", "--max-steps", "2"),
            ("--quotients", "1,2", "--count", "-1"),
            ("--quotients", "1,2", "--count", "0", "--json"),
        ],
    )
    def test_count_below_one_names_convergents(self, capsys, argv):
        code, out, err = run(capsys, "convergents", *argv)
        assert (code, out, err) == (1, "", "error: convergents: count must be >= 1\n")

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
        assert (code, err) == (1, "error: QuadSurd: denominator w must be nonzero\n")
        code, _, err = run(capsys, "ratio", "eq", "1/2/3", "1", "1", "1")
        assert code == 1 and "magnitude literal '1/2/3'" in err
        code, _, err = run(capsys, "ratio", "eq", "0,1,0,2", "1", "1", "1")
        assert code == 1 and err.startswith("error: ")

    def test_literal_may_start_with_a_minus(self, capsys):
        # argparse would take '-1,1,1,2' and '-1/2' for options
        code, out, err = run(capsys, "ratio", "eq", "-1,1,1,2", "1", "0,1,1,2", "1")
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "lhs        : [0; (2)]", "rhs        : [1; (2)]", "verdict    : unequal"
        ]
        assert run(capsys, "ratio", "eq", "--", "-1,1,1,2", "1", "0,1,1,2", "1")[1] == out
        for mode in ("eq", "cross", "mixed"):
            code, out, err = run(capsys, "ratio", mode, "-1/2", "1", "1", "2")
            assert (code, out) == (1, "")
            assert err == "error: Magnitude: value must be positive, got -1/2\n"
            # -h and --max-steps keep their meaning
            code, out, _ = run(capsys, "ratio", mode, "-h")
            assert code == 0 and out.startswith("usage: ")
        code, _, err = run(
            capsys, "ratio", "eq", "-1,1,1,2", "1", "0,1,1,2", "1", "--max-steps", "-1"
        )
        assert (code, err) == (1, "error: anth_of_ratio: max_steps must be >= 0\n")

    def test_truncated_expansions_beside_a_decided_verdict(self, capsys):
        # two states of the sqrt(139) cycle share three quotients; the budget
        # truncates the printed expansions and never the verdict
        for budget, shown in (("0", "[...]"), ("1", "[1, ...]")):
            code, out, err = run(
                capsys, "ratio", "eq", "11,1,18,139", "1", "7,1,15,139", "1",
                "--max-steps", budget,
            )
            assert (code, err) == (0, "")
            assert out.splitlines() == [
                "lhs        : " + shown,
                "rhs        : " + shown,
                "verdict    : unequal",
            ]
        code, out, err = run(
            capsys, "ratio", "mixed", "11,1,18,139", "1", "1", "1", "--max-steps", "0"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["lhs        : [...]", "rhs        : [1]", "verdict    : unequal"]

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

    def test_failures_are_reported_with_exit_2(self, capsys, monkeypatch):
        def wrong(rng):
            raise AssertionError("always wrong")

        def crash(rng):
            raise ValueError("boom")

        props = [("fine", lambda rng: properties.PASS), ("wrong", wrong), ("crash", crash)]
        monkeypatch.setitem(properties.SUITES, "areas", props)
        argv = ("verify", "--suite", "areas", "--trials", "3", "--seed", "7")
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_FAILED and err == ""
        assert out == (
            "areas/fine   passed 3    vacuous 0    failed 0\n"
            "areas/wrong  passed 0    vacuous 0    failed 3\n"
            "               first failure: always wrong\n"
            "areas/crash  passed 0    vacuous 0    failed 3\n"
            "               first failure: ValueError: boom\n"
            "result: fail (3 properties, 3 trials each, seed 7, 6 failures)\n"
        )
        code, out, err = run(capsys, *argv, "--json")
        assert code == cli.EXIT_FAILED and err == ""
        result = json.loads(out)["result"]
        assert result["verdict"] == "fail"
        assert [(r["name"], r["failed"], r["first_failure"]) for r in result["rows"]] == [
            ("fine", "0", None),
            ("wrong", "3", "always wrong"),
            ("crash", "3", "ValueError: boom"),
        ]

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


class _Sink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)

    def flush(self):
        pass


class TestStreaming:
    """Each state is made as it is printed, and a closed stdout ends the run."""

    @staticmethod
    def _peak(*argv):
        """Exit code, tracemalloc peak and output size of one in-process run."""
        sink = _Sink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(list(argv))
            return code, tracemalloc.get_traced_memory()[1], sink.size
        finally:
            tracemalloc.stop()

    def test_memory_follows_the_run_not_the_output(self):
        # 10,000 states at the default budget, 1.7 MB of JSON
        argv = ("anth", "sqrt", "1000000000039")
        code, plain, _ = self._peak(*argv)
        assert code == 3
        code, traced, _ = self._peak(*argv, "--trace")
        assert code == 3 and traced <= 1.5 * plain
        code, peak, size = self._peak(*argv, "--json")
        assert code == 3 and size > 10**6 and peak <= 5 * size

    @pytest.mark.parametrize("flag", ["--trace", "--json"])
    def test_a_report_reads_the_derived_quotients_and_repeat_once(self, monkeypatch, flag):
        # a trace derives both from its expansion on each read, so a report
        # that read them once per state would be quadratic in the period
        reads = dict.fromkeys(("quotients", "repeat_at"), 0)
        for name in reads:
            def counted(trace, _get=vars(ExpansionTrace)[name].fget, _name=name):
                reads[_name] += 1
                return _get(trace)

            monkeypatch.setattr(ExpansionTrace, name, property(counted))
        sink = _Sink()
        with contextlib.redirect_stdout(sink):
            code = cli.main(["anth", "sqrt", "1000000007", "--max-steps", "100000", flag])
        # period 12,352: one line or JSON object of 20 characters or more per state
        assert code == 0 and sink.size > 20 * 12_352
        assert 1 <= reads["quotients"] <= 2 and reads["repeat_at"] <= 2, reads

    def test_a_reader_that_closes_stdout_early_gets_no_traceback(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        argv = [sys.executable, "-m", "anthyphairesis.cli", "anth", "sqrt", "1000000000039",
                "--max-steps", "100000", "--trace"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        ) as proc:
            assert proc.stdout.readline() == b"form       : excess(1, 0, 1000000000039)\n"
            proc.stdout.close()  # megabytes of trace are still to come
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
        assert code == 1 and err == b""  # no BrokenPipeError traceback


class TestDigitLimit:
    """Output integers past CPython's int-to-str digit limit (4300 by default).

    main lifts the limit while a command runs and restores it after; an
    input integer past it is still refused, parsing being quadratic.
    """

    @staticmethod
    def _digits(n):
        """str(n) past the digit limit, which the test lifts for itself."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @staticmethod
    def _limit():
        return getattr(sys, "get_int_max_str_digits", lambda: None)()

    def test_a_form_past_the_limit_prints_exactly(self, capsys):
        u = 10**2200 + 1
        limit = self._limit()
        code, out, err = run(capsys, "anth", "surd", str(u), "1", "1", "2")
        assert (code, err) == (0, "")
        assert self._limit() == limit
        c = self._digits(u * u - 2)  # the minimal form's C, 4401 digits
        assert len(c) == 4401 and "%s)\n" % c in out

    def test_convergents_past_the_limit_print_exactly(self, capsys):
        k = 10**100
        limit = self._limit()
        code, out, err = run(capsys, "convergents", "--quotients", ",".join([str(k)] * 45))
        assert (code, err) == (0, "")
        assert self._limit() == limit
        p0, p1, q0, q1 = 0, 1, 1, k  # rows 0 and 1
        for _ in range(44):
            p0, p1, q0, q1 = p1, k * p1 + p0, q1, k * q1 + q0
        last = out.splitlines()[-1].split()
        assert len(self._digits(q1)) > 4400
        assert last[:4] == ["45", str(k), self._digits(p1), self._digits(q1)]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("ratio", "eq", "{}", "1", "2", "3"),
             "ratio: magnitude literal '{}' must be 'u,v,w,D', 'p/q' or an integer"),
            (("ratio", "mixed", "1/{}", "1", "2", "3"),
             "ratio: magnitude literal '1/{}' must be 'u,v,w,D', 'p/q' or an integer"),
            (("convergents", "sqrt", "{}"), "convergents: N must be an integer"),
            (("convergents", "--quotients", "1,{}"),
             "convergents: --quotients must be comma separated integers"),
        ],
    )
    def test_an_input_past_the_limit_is_refused(self, capsys, argv, message):
        big = "1" * (sys.get_int_max_str_digits() + 1)
        limit = self._limit()
        code, out, err = run(capsys, *(a.format(big) for a in argv))
        assert (code, out, err) == (1, "", "error: %s\n" % message.format(big))
        assert self._limit() == limit

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_argparse_refuses_an_input_past_the_limit(self, capsys):
        big = "1" * (sys.get_int_max_str_digits() + 1)
        code, out, err = run(capsys, "anth", "sqrt", big)
        assert (code, out) == (1, "") and "invalid int value" in err

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
    def test_a_raised_limit_admits_a_longer_input_and_is_kept(self, capsys):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit + 100)
        try:
            big = "1" * (limit + 1)
            code, out, err = run(capsys, "ratio", "eq", big, "1", "2", "3")
            assert (code, err) == (0, "") and out.endswith("verdict    : unequal\n")
            assert sys.get_int_max_str_digits() == limit + 100
        finally:
            sys.set_int_max_str_digits(limit)


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
    # cross takes no --max-steps: _STEPS there exercises the usage error
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
