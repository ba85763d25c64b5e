"""The public value types: repr, equality, hashing, immutability, pickling.

These pins describe what callers see of each value type, independently
of how the classes are written.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from anthyphairesis import (
    AREA,
    DEFECT,
    EXCESS,
    LINE,
    AreaIdentityReport,
    ContinuedFraction,
    DomainError,
    ExpansionTrace,
    Magnitude,
    PropReport,
    PropertyResult,
    QuadSurd,
    QuadraticForm,
    SideDiameter,
    check_ii4,
    check_proposition,
    convergents,
    line,
    run_anthyphairesis,
)
from anthyphairesis.ratios import _Rule, cross_product_eq

ROOT5 = QuadSurd(1, 2, 3, 5)
FORM = QuadraticForm(EXCESS, 1, 0, 7)
SQRT7_CF, SQRT7_TRACE = run_anthyphairesis(FORM)
RULE = _Rule((((0, 1), (2, 3)),), ((0, 2), (1, 3)))
REPORT = check_proposition("alternando", [line(2), line(4), line(3), line(6)])


def _values():
    """One value of each type, built twice: (first, equal twin)."""

    def build():
        return [
            QuadSurd(1, 2, 3, 5),
            QuadSurd(7),
            QuadraticForm(EXCESS, 1, 0, 7),
            QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True),
            ContinuedFraction((2,), (1, 1, 1, 4)),
            ContinuedFraction((1, 2, 3)),
            SideDiameter((0, 1, 2), (1, 1, 3)),
            ExpansionTrace((2, 1), QuadraticForm(EXCESS, 1, 0, 7), (1, 5)),
            Magnitude(QuadSurd(0, 1, 1, 2)),
            Magnitude(Fraction(3, 2), AREA),
            PropReport("alternando", True, True, ContinuedFraction((2,)), None),
            _Rule((((0, 1), (2, 3)),), ((0, 2), (1, 3))),
            AreaIdentityReport("square_of_sum", QuadSurd(9), QuadSurd(9), True),
        ]

    return list(zip(build(), build()))


VALUES = _values()
FROZEN = [a for a, _ in VALUES]
IDS = [type(a).__name__ for a, _ in VALUES]


class TestRepr:
    @pytest.mark.parametrize(
        "value, text",
        [
            (ROOT5, "QuadSurd(u=1, v=2, w=3, d=5)"),
            (QuadSurd(0, 2, 1, 8), "QuadSurd(u=0, v=4, w=1, d=2)"),
            (QuadSurd(Fraction(3, 4).numerator, 0, 4), "QuadSurd(u=3, v=0, w=4, d=1)"),
            (FORM, "QuadraticForm(kind='excess', A=1, B=0, C=7, smaller_root=False)"),
            (
                QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True),
                "QuadraticForm(kind='defect', A=1, B=6, C=7, smaller_root=True)",
            ),
            (
                ContinuedFraction((2,), (1, 1, 1, 4)),
                "ContinuedFraction(preperiod=(2,), period=(1, 1, 1, 4), truncated=False)",
            ),
            (
                ContinuedFraction((True, 2)),
                "ContinuedFraction(preperiod=(1, 2), period=None, truncated=False)",
            ),
            (
                run_anthyphairesis(FORM, 2)[0],
                "ContinuedFraction(preperiod=(2, 1), period=None, truncated=True)",
            ),
            (convergents((1, 2, 2), 3), "SideDiameter(p=(0, 1, 2, 5), q=(1, 1, 3, 7))"),
            (
                SQRT7_TRACE,
                "ExpansionTrace(quotients=(2, 1, 1, 1, 4), start=QuadraticForm("
                "kind='excess', A=1, B=0, C=7, smaller_root=False), repeat_at=(1, 5))",
            ),
            (
                line(QuadSurd(0, 1, 1, 2)),
                "Magnitude(value=QuadSurd(u=0, v=1, w=1, d=2), role='line')",
            ),
            (Magnitude(3, AREA), "Magnitude(value=QuadSurd(u=3, v=0, w=1, d=1), role='area')"),
            (
                REPORT,
                "PropReport(proposition='alternando', hypotheses_hold=True, "
                "conclusion_holds=True, lhs_cf=ContinuedFraction(preperiod=(0, 1, 2), "
                "period=None, truncated=False), rhs_cf=ContinuedFraction("
                "preperiod=(0, 1, 2), period=None, truncated=False))",
            ),
            (
                RULE,
                "_Rule(hypotheses=(((0, 1), (2, 3)),), conclusion=((0, 2), (1, 3)), "
                "condition=None)",
            ),
            (
                check_ii4(1, 2),
                "AreaIdentityReport(identity='square_of_sum', lhs=QuadSurd(u=9, v=0, w=1, "
                "d=1), rhs=QuadSurd(u=9, v=0, w=1, d=1), holds=True)",
            ),
            (
                PropertyResult("engine", "p", 3, 1, 2, 0),
                "PropertyResult(suite='engine', name='p', trials=3, vacuous=1, passed=2, "
                "failed=0, first_failure=None)",
            ),
        ],
    )
    def test_exact_text(self, value, text):
        assert repr(value) == text

    def test_rule_condition_shows_the_function(self):
        rule = _Rule((), (0, 1), cross_product_eq)
        assert repr(rule) == (
            "_Rule(hypotheses=(), conclusion=(0, 1), condition=%r)" % (cross_product_eq,)
        )

    def test_str_is_not_repr(self):
        assert str(ROOT5) == "(1 + 2*sqrt(5))/3"
        assert str(FORM) == "excess(1, 0, 7)"
        assert str(SQRT7_CF) == "[2; (1, 1, 1, 4)]"
        assert str(line(2)) == "line 2"


class TestEquality:
    @pytest.mark.parametrize("a, b", VALUES, ids=IDS)
    def test_equal_values_are_equal_and_hash_alike(self, a, b):
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("a", FROZEN, ids=IDS)
    def test_other_types_are_unequal(self, a):
        for other in (None, "x", (), object()):
            assert a != other and not (a == other)
        if not isinstance(a, QuadSurd):
            assert a != 7 and not (a == 7)

    def test_distinct_values_of_one_type_are_unequal(self):
        for i, (a, _) in enumerate(VALUES):
            for b, _ in VALUES[i + 1:]:
                if type(a) is type(b):
                    assert a != b

    def test_every_field_takes_part(self):
        assert QuadraticForm(DEFECT, 1, 6, 7) != QuadraticForm(DEFECT, 1, 6, 7, True)
        assert QuadraticForm(EXCESS, 1, 0, 7) != QuadraticForm(EXCESS, 1, 0, 6)
        assert SideDiameter((0, 1), (1, 1)) != SideDiameter((0, 1), (1, 2))
        assert ExpansionTrace((2,), FORM) != ExpansionTrace((2,), FORM, (0, 1))
        assert line(2) != Magnitude(2, AREA)
        assert _Rule((), (0, 1)) != _Rule((), (0, 1), cross_product_eq)
        base = ("alternando", True, True, None, None)
        for i, other in enumerate(("fundamental", False, False, SQRT7_CF, SQRT7_CF)):
            changed = list(base)
            changed[i] = other
            assert PropReport(*base) != PropReport(*changed)
        assert AreaIdentityReport("x", QuadSurd(1), QuadSurd(1), True) != AreaIdentityReport(
            "x", QuadSurd(1), QuadSurd(1), False
        )

    def test_quadsurd_equals_numbers(self):
        assert QuadSurd(3) == 3 and 3 == QuadSurd(3)
        assert QuadSurd(3, 0, 4) == Fraction(3, 4)
        assert hash(QuadSurd(3)) == hash(3)
        assert hash(QuadSurd(3, 0, 4)) == hash(Fraction(3, 4))
        assert QuadSurd(1) != True  # noqa: E712  a bool is not a number here
        assert ROOT5 != 1 and ROOT5 != Fraction(1, 3)

    def test_magnitude_equality_reads_the_coerced_value(self):
        assert Magnitude(2) == Magnitude(QuadSurd(2)) == Magnitude(Fraction(4, 2))
        assert hash(Magnitude(2)) == hash(Magnitude(QuadSurd(2)))

    def test_truncated_expansion_is_unequal_even_to_itself(self):
        cut = run_anthyphairesis(FORM, 2)[0]
        assert cut != cut and not (cut == cut)
        assert hash(cut) == hash(run_anthyphairesis(FORM, 2)[0])
        # fields compare as a tuple, which tries identity first
        report = PropReport("x", True, False, cut, cut)
        assert report == report
        assert report != PropReport("x", True, False, cut, run_anthyphairesis(FORM, 2)[0])

    def test_reports_hold_equal_expansions(self):
        assert REPORT == check_proposition("alternando", [line(2), line(4), line(3), line(6)])
        assert hash(REPORT) == hash(
            check_proposition("alternando", [line(2), line(4), line(3), line(6)])
        )

    def test_property_result_compares_fields_and_is_unhashable(self):
        a = PropertyResult("engine", "p", 3, 1, 2, 0)
        assert a == PropertyResult("engine", "p", 3, 1, 2, 0, None)
        assert a != PropertyResult("engine", "p", 3, 1, 2, 0, "boom")
        assert a != ("engine", "p", 3, 1, 2, 0, None)
        with pytest.raises(TypeError):
            hash(a)


class TestImmutability:
    @pytest.mark.parametrize("value", FROZEN, ids=IDS)
    def test_assignment_and_deletion_raise(self, value):
        before = repr(value)
        for name in ("u", "kind", "preperiod", "p", "quotients", "value", "holds", "other"):
            with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match="cannot delete field %r" % name):
                delattr(value, name)
        assert repr(value) == before

    def test_property_result_is_mutable(self):
        r = PropertyResult("engine", "p", 0, 0, 0, 0)
        r.trials += 2
        r.passed = 2
        r.first_failure = "x"
        assert (r.trials, r.passed, r.first_failure) == (2, 2, "x")
        assert r == PropertyResult("engine", "p", 2, 0, 2, 0, "x")


class TestCopyAndPickle:
    @pytest.mark.parametrize("a, b", VALUES, ids=IDS)
    def test_round_trips(self, a, b):
        for clone in (
            pickle.loads(pickle.dumps(a)),
            pickle.loads(pickle.dumps(a, protocol=0)),
            copy.copy(a),
            copy.deepcopy(a),
        ):
            assert type(clone) is type(a)
            assert clone == b and hash(clone) == hash(b)
            assert repr(clone) == repr(a)

    def test_clones_keep_their_behaviour(self):
        x = pickle.loads(pickle.dumps(ROOT5))
        assert x * 3 - 1 == QuadSurd(0, 2, 1, 5) and x.floor() == 1
        with pytest.raises(AttributeError):
            x.u = 2
        cut = pickle.loads(pickle.dumps(run_anthyphairesis(FORM, 2)[0]))
        assert cut.truncated and cut != cut and str(cut) == "[2, 1, ...]"
        trace = copy.deepcopy(SQRT7_TRACE)
        assert trace.states == SQRT7_TRACE.states
        assert len(trace.states) == 6 and trace.states[0] == FORM

    def test_traced_states_survive_a_round_trip(self):
        _, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 13))
        states = trace.states
        clone = pickle.loads(pickle.dumps(trace))
        assert clone == trace and clone.states == states

    def test_property_result_round_trips(self):
        r = PropertyResult("ratio", "p", 4, 1, 3, 0, None)
        for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert clone == r and clone is not r
        clone.failed = 1
        assert r.failed == 0


class TestConstruction:
    def test_positional_keyword_and_defaults(self):
        assert QuadSurd(5) == QuadSurd(u=5, v=0, w=1, d=1) == QuadSurd(5, w=1)
        assert QuadSurd(1, 1, d=2) == QuadSurd(u=1, v=1, w=1, d=2)
        assert QuadraticForm(EXCESS, 1, 0, 7) == QuadraticForm(kind=EXCESS, A=1, B=0, C=7)
        assert not QuadraticForm(EXCESS, 1, 0, 7).smaller_root
        assert QuadraticForm(DEFECT, 1, 6, 7, True) == QuadraticForm(
            DEFECT, 1, 6, 7, smaller_root=True
        )
        cf = ContinuedFraction((1, 2))
        assert (cf.period, cf.truncated) == (None, False)
        assert ContinuedFraction(preperiod=(), period=(1,)) == ContinuedFraction((), (1,))
        assert ContinuedFraction((1,), truncated=True).truncated
        assert SideDiameter(p=(0,), q=(1,)) == SideDiameter((0,), (1,))
        assert ExpansionTrace((2,), FORM).repeat_at is None
        assert ExpansionTrace(quotients=(2,), start=FORM, repeat_at=(0, 1)).repeat_at == (0, 1)
        assert Magnitude(2).role == LINE and Magnitude(value=2, role=AREA).role == AREA
        assert _Rule((), (0, 1)).condition is None
        assert PropertyResult("a", "b", 1, 0, 1, 0).first_failure is None

    def test_fields_are_stored_normalized(self):
        x = QuadSurd(2, 4, -6, 12)  # (2 + 8*sqrt(3))/-6
        assert (x.u, x.v, x.w, x.d) == (-1, -4, 3, 3)
        assert ContinuedFraction([1, 2], [3]).preperiod == (1, 2)
        assert ContinuedFraction([1, 2], [3]).period == (3,)
        assert type(ContinuedFraction((True,)).preperiod[0]) is int
        assert Magnitude(Fraction(1, 2)).value == QuadSurd(1, 0, 2)
        assert type(Magnitude(Fraction(1, 2)).value) is QuadSurd

    @pytest.mark.parametrize(
        "build",
        [
            lambda: QuadSurd(),
            lambda: QuadSurd(1, 2, 3, 4, 5),
            lambda: QuadSurd(1, x=2),
            lambda: QuadraticForm(EXCESS, 1, 0),
            lambda: ContinuedFraction(),
            lambda: SideDiameter((0,)),
            lambda: ExpansionTrace((1,)),
            lambda: Magnitude(),
            lambda: PropReport("x", True, True, None),
            lambda: AreaIdentityReport("x", QuadSurd(1), QuadSurd(1)),
            lambda: PropertyResult("a", "b", 1, 0, 1),
        ],
    )
    def test_wrong_arity_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: QuadSurd(1.0), "QuadSurd: component u must be an int"),
            (lambda: QuadSurd(1, True), "QuadSurd: component v must be an int"),
            (lambda: QuadSurd(1, 1, 0, 2), "QuadSurd: denominator w must be nonzero"),
            (lambda: QuadSurd(1, 1, 0, -2), "QuadSurd: denominator w must be nonzero"),
            (lambda: QuadSurd(1, 1, 1, 0), "QuadSurd: radicand d must be >= 1, got 0"),
            (lambda: QuadraticForm("odd", 1, 0, 2), "QuadraticForm: unknown kind 'odd'"),
            (lambda: QuadraticForm(EXCESS, 1, True, 2), "QuadraticForm: B must be an int"),
            (lambda: QuadraticForm(EXCESS, 0, 0, 2), "QuadraticForm: A and C must be >= 1"),
            (lambda: QuadraticForm(EXCESS, 1, -1, 2), "QuadraticForm: excess form needs B >= 0"),
            (lambda: QuadraticForm(DEFECT, 1, 0, 2), "QuadraticForm: defect form needs B >= 1"),
            (
                lambda: QuadraticForm(DEFECT, 1, 2, 1),
                r"QuadraticForm: defect form needs B\^2 - 4\*A\*C > 0 \(real roots\)",
            ),
            (
                lambda: QuadraticForm(EXCESS, 1, 0, 2, True),
                "QuadraticForm: smaller_root applies to defect only",
            ),
            (
                lambda: ContinuedFraction((1, 0)),
                r"ContinuedFraction: quotients must be positive \(head may be 0\)",
            ),
            (
                lambda: ContinuedFraction((1,), (2,), True),
                "ContinuedFraction: a truncated expansion has no period",
            ),
            (lambda: ContinuedFraction((1,), ()), "ContinuedFraction: period must be nonempty"),
            (lambda: ContinuedFraction((), (0,)), "ContinuedFraction: period entries must be >= 1"),
            (lambda: ContinuedFraction(()), "ContinuedFraction: empty expansion"),
            (
                lambda: SideDiameter((0, 1), (1,)),
                "SideDiameter: p and q must be nonempty, equal length",
            ),
            (lambda: SideDiameter((1,), (1,)), "SideDiameter: seeds must be p0 = 0, q0 = 1"),
            (lambda: Magnitude(1, "volume"), "Magnitude: role must be 'line' or 'area'"),
            (lambda: Magnitude(0), "Magnitude: value must be positive, got 0"),
            (lambda: Magnitude(1.5), "cannot interpret 1.5 as an exact quadratic value"),
        ],
    )
    def test_validation_messages(self, build, message):
        with pytest.raises(DomainError, match=message):
            build()

    def test_unchecked_types_store_what_they_are_given(self):
        report = PropReport("x", 1, 0, "lhs", None)
        assert (report.hypotheses_hold, report.conclusion_holds, report.lhs_cf) == (1, 0, "lhs")
        area = AreaIdentityReport("x", 1, 2, None)
        assert (area.lhs, area.rhs, area.holds) == (1, 2, None)
