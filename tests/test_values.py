"""The public value types: repr, equality, hashing, immutability, pickling.

These pins describe what callers see of each value type, independently
of how the classes are written.
"""

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import anthyphairesis
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
from anthyphairesis._value import _rebuild
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
            ExpansionTrace(ContinuedFraction((2,), (1, 1, 1, 4)), QuadraticForm(EXCESS, 1, 0, 7)),
            Magnitude(QuadSurd(0, 1, 1, 2)),
            Magnitude(Fraction(3, 2), AREA),
            PropReport("alternando", True, True, QuadSurd(0, 1, 1, 2), None),
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
                "ExpansionTrace(expansion=ContinuedFraction(preperiod=(2,), "
                "period=(1, 1, 1, 4), truncated=False), start=QuadraticForm("
                "kind='excess', A=1, B=0, C=7, smaller_root=False))",
            ),
            (
                line(QuadSurd(0, 1, 1, 2)),
                "Magnitude(value=QuadSurd(u=0, v=1, w=1, d=2), role='line')",
            ),
            (Magnitude(3, AREA), "Magnitude(value=QuadSurd(u=3, v=0, w=1, d=1), role='area')"),
            (
                REPORT,
                "PropReport(proposition='alternando', hypotheses_hold=True, "
                "conclusion_holds=True, lhs=QuadSurd(u=2, v=0, w=3, d=1), "
                "rhs=QuadSurd(u=2, v=0, w=3, d=1))",
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
        two = ContinuedFraction((2,))
        assert ExpansionTrace(two, FORM) != ExpansionTrace(ContinuedFraction((), (2,)), FORM)
        assert ExpansionTrace(two, FORM) != ExpansionTrace(two, QuadraticForm(EXCESS, 1, 0, 6))
        assert line(2) != Magnitude(2, AREA)
        assert _Rule((), (0, 1)) != _Rule((), (0, 1), cross_product_eq)
        base = ("alternando", True, True, None, None)
        for i, other in enumerate(("fundamental", False, False, ROOT5, ROOT5)):
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

    def test_a_trace_holds_the_expansion_its_run_returns(self):
        for form, budget in ((QuadraticForm(EXCESS, 1, 0, 4), 10), (FORM, 2), (FORM, 10)):
            cf, trace = run_anthyphairesis(form, budget)
            assert trace.expansion is cf and trace.start is form
        # truncated expansions equal nothing, so neither do their traces
        cut, again = run_anthyphairesis(FORM, 2)[1], run_anthyphairesis(FORM, 2)[1]
        assert cut != again and hash(cut) == hash(again)

    def test_a_truncated_trace_equals_nothing_not_even_itself(self):
        # fields compare one by one: a tuple of them would take the very
        # expansion as equal to itself, and so make t == t and a shallow
        # copy equal, while a deep copy or a pickle round trip is not
        _, t = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 7), 2)
        assert t.expansion.truncated and t.expansion != t.expansion
        for other in (t, copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert not (other == t) and other != t and not (t == other)
        _, whole = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 7))
        for other in (whole, copy.copy(whole), copy.deepcopy(whole),
                      pickle.loads(pickle.dumps(whole))):
            assert other == whole and not (other != whole)

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


def test_only_surds_and_expansions_override_field_equality():
    """Record and Frozen compare and hash by fields; two types differ.

    QuadSurd equals ints and Fractions and hashes a rational as its
    Fraction; a truncated ContinuedFraction equals nothing.  Every other
    value type inherits its __eq__ and __hash__ from the _value module.
    """
    from anthyphairesis import _value, areas, cli, engine, exactarith, properties, ratios

    types = {
        obj
        for module in (areas, cli, engine, exactarith, properties, ratios)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, _value.Record)
        and obj.__module__ == module.__name__
    }
    assert {QuadraticForm, Magnitude, PropReport, PropertyResult} <= types
    overriding = {t for t in types if "__eq__" in vars(t) or "__hash__" in vars(t)}
    assert overriding == {QuadSurd, ContinuedFraction}


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

    # protocol-2 pickles written by an earlier version of the package: each
    # names _value._rebuild and the class, so both must keep their names
    OLD_PICKLES = [
        (
            b"\x80\x02canthyphairesis._value\n_rebuild\nq\x00canthyphairesis.engine\n"
            b"QuadraticForm\nq\x01(X\x06\x00\x00\x00defectq\x02K\x01K\x06K\x07\x88tq\x03"
            b"\x86q\x04Rq\x05.",
            QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True),
        ),
        (
            b"\x80\x02canthyphairesis._value\n_rebuild\nq\x00canthyphairesis.engine\n"
            b"ContinuedFraction\nq\x01K\x02\x85q\x02(K\x01K\x01K\x01K\x04tq\x03\x89"
            b"\x87q\x04\x86q\x05Rq\x06.",
            ContinuedFraction((2,), (1, 1, 1, 4)),
        ),
        (
            b"\x80\x02canthyphairesis._value\n_rebuild\nq\x00canthyphairesis.engine\n"
            b"ContinuedFraction\nq\x01K\x02K\x01\x86q\x02N\x88\x87q\x03\x86q\x04Rq\x05.",
            ContinuedFraction((2, 1), truncated=True),
        ),
        (
            b"\x80\x02canthyphairesis._value\n_rebuild\nq\x00canthyphairesis.engine\n"
            b"ExpansionTrace\nq\x01(K\x02K\x01K\x01K\x01K\x04tq\x02h\x00"
            b"canthyphairesis.engine\nQuadraticForm\nq\x03(X\x06\x00\x00\x00excessq\x04"
            b"K\x01K\x00K\x07\x89tq\x05\x86q\x06Rq\x07K\x01K\x05\x86q\x08\x87q\t\x86q\n"
            b"Rq\x0b.",
            ExpansionTrace(ContinuedFraction((2,), (1, 1, 1, 4)), FORM),
        ),
        (
            b"\x80\x02canthyphairesis._value\n_rebuild\nq\x00canthyphairesis.ratios\n"
            b"Magnitude\nq\x01h\x00canthyphairesis.exactarith\nQuadSurd\nq\x02(K\x01K\x02"
            b"K\x03K\x05tq\x03\x86q\x04Rq\x05X\x04\x00\x00\x00areaq\x06\x86q\x07\x86q\x08"
            b"Rq\t.",
            Magnitude(ROOT5, AREA),
        ),
    ]

    @pytest.mark.parametrize(
        "data, fresh", OLD_PICKLES, ids=[type(v).__name__ for _, v in OLD_PICKLES]
    )
    def test_pickles_of_earlier_versions_load(self, data, fresh):
        old = pickle.loads(data)
        assert type(old) is type(fresh)
        # by fields, not ==: a truncated expansion equals nothing, itself included
        fields = [getattr(old, name) for name in old._fields]
        assert fields == [getattr(fresh, name) for name in fresh._fields]
        assert hash(old) == hash(fresh)
        if isinstance(fresh, ExpansionTrace):
            assert old == fresh == SQRT7_TRACE
            assert (old.quotients, old.repeat_at) == ((2, 1, 1, 1, 4), (1, 5))
            assert old.states == fresh.states == SQRT7_TRACE.states

    @pytest.mark.parametrize(
        "form, budget",
        [(QuadraticForm(EXCESS, 1, 0, 4), 10), (FORM, 2), (FORM, 10)],
        ids=["euclid", "truncated", "periodic"],
    )
    def test_the_earlier_trace_layout_converts(self, form, budget):
        # (quotients, start, repeat_at): repeat_at splits the period off, and
        # without one a square discriminant means Euclid's finite expansion
        cf, trace = run_anthyphairesis(form, budget)
        old = _rebuild(ExpansionTrace, (trace.quotients, form, trace.repeat_at))
        assert old.expansion._values() == cf._values() and old.start is form
        assert (old.quotients, old.repeat_at) == (trace.quotients, trace.repeat_at)
        assert old.states == trace.states and hash(old) == hash(trace)

    def test_another_field_count_is_refused(self):
        with pytest.raises(TypeError, match="^QuadraticForm has 5 fields, not 2$"):
            _rebuild(QuadraticForm, (EXCESS, 1))

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
        assert ExpansionTrace(ContinuedFraction((2,)), FORM).repeat_at is None
        periodic = ExpansionTrace(expansion=ContinuedFraction((), (2,)), start=FORM)
        assert (periodic.quotients, periodic.repeat_at) == ((2,), (0, 1))
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
            lambda: ExpansionTrace(ContinuedFraction((1,))),
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

    @pytest.mark.parametrize("flag", ["no", 0, 1])
    def test_flags_must_be_bools(self, flag):
        with pytest.raises(DomainError, match="^QuadraticForm: smaller_root must be a bool$"):
            QuadraticForm(DEFECT, 1, 6, 7, smaller_root=flag)
        with pytest.raises(DomainError, match="^ContinuedFraction: truncated must be a bool$"):
            ContinuedFraction((1, 2), truncated=flag)

    def test_unchecked_types_store_what_they_are_given(self):
        report = PropReport("x", 1, 0, "lhs", None)
        assert (report.hypotheses_hold, report.conclusion_holds, report.lhs) == (1, 0, "lhs")
        area = AreaIdentityReport("x", 1, 2, None)
        assert (area.lhs, area.rhs, area.holds) == (1, 2, None)


class TestStorage:
    """A frozen value stores each field through its slot's setter, bound once per class."""

    def test_no_module_stores_a_field_by_name(self):
        found = []
        for path in sorted(Path(anthyphairesis.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"
                ):
                    found.append((path.name, node.lineno, "object.__setattr__"))
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.FunctionDef, ast.alias)):
                    name = node.name
                if name in ("_set", "_slot_setters"):
                    found.append((path.name, node.lineno, name))
        assert found == []

    def test_a_subclass_without_slots_stores_through_inherited_ones(self):
        class Sub(QuadSurd):
            pass

        x = _rebuild(Sub, (1, 2, 3, 5))
        assert type(x) is Sub and (x.u, x.v, x.w, x.d) == (1, 2, 3, 5)
        assert vars(x) == {}  # in the inherited slots, not the instance dict
