"""Form state machines, expansions, convergents and form recovery."""

import ast
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import anthyphairesis
from anthyphairesis import engine, exactarith
from anthyphairesis import (
    DEFECT,
    EXCESS,
    MIXED,
    ContinuedFraction,
    DomainError,
    InternalInvariantError,
    QuadSurd,
    QuadraticForm,
    anth_of_ratio,
    canonicalize_cf,
    convergents,
    defect_step,
    euclid_cf,
    excess_step,
    is_perfect_square,
    line,
    minimal_form,
    period_to_form,
    ratio_eq,
    remainder,
    run_anthyphairesis,
    state_space_size,
    surd_cf,
)


class TestQuadraticForm:
    def test_coefficient_validation(self):
        with pytest.raises(DomainError):
            QuadraticForm(EXCESS, 0, 1, 1)
        with pytest.raises(DomainError):
            QuadraticForm(EXCESS, 1, -1, 1)
        with pytest.raises(DomainError):
            QuadraticForm(DEFECT, 1, 0, 1)
        with pytest.raises(DomainError):
            QuadraticForm(DEFECT, 1, 2, 1)  # disc 0: no real surd root
        with pytest.raises(DomainError):
            QuadraticForm(EXCESS, 1, 1, 1, smaller_root=True)
        for bad in ((True, 0, 2), (1, True, 2), (1, 0, True)):
            with pytest.raises(DomainError):
                QuadraticForm(EXCESS, *bad)

    def test_disc(self):
        assert QuadraticForm(EXCESS, 1, 0, 2).disc == 8
        assert QuadraticForm(DEFECT, 1, 3, 1).disc == 5
        assert QuadraticForm(MIXED, 1, 2, 7).disc == 32

    def test_roots(self):
        assert QuadraticForm(EXCESS, 1, 0, 2).root() == QuadSurd(0, 1, 1, 2)
        assert QuadraticForm(DEFECT, 1, 3, 1).root() == QuadSurd(3, 1, 2, 5)
        assert QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True).root() == QuadSurd(
            3, -1, 1, 2
        )
        assert QuadraticForm(MIXED, 1, 2, 7).root() == QuadSurd(-1, 2, 1, 2)

    def test_a_square_discriminant_root_factors_nothing(self, monkeypatch):
        # past the split budget, yet a square: its root is read off isqrt
        splits = []
        real = exactarith.square_free_split
        monkeypatch.setattr(
            exactarith, "square_free_split", lambda n: splits.append(n) or real(n)
        )
        r = 10**12 + 39
        form = QuadraticForm(EXCESS, 1, 0, r * r)
        assert form.root() == r and form.root().is_rational
        assert splits == []

    def test_expandability(self):
        assert QuadraticForm(EXCESS, 1, 0, 2).is_expandable
        assert not QuadraticForm(EXCESS, 3, 1, 1).is_expandable  # root below 1
        assert QuadraticForm(DEFECT, 5, 13, 7).is_expandable
        assert QuadraticForm(DEFECT, 2, 4, 1).is_expandable  # root exactly tangent case
        assert QuadraticForm(MIXED, 1, 2, 7).is_expandable
        assert not QuadraticForm(MIXED, 1, 2, 2).is_expandable  # root (-1+sqrt(3)) < 1
        assert QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True).is_expandable
        assert not QuadraticForm(DEFECT, 2, 4, 1, smaller_root=True).is_expandable

    def test_str_tags(self):
        assert str(QuadraticForm(EXCESS, 1, 0, 2)) == "excess(1, 0, 2)"
        assert str(QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True)) == "defect-(1, 6, 7)"

    def test_json_kind_is_the_printed_tag(self):
        from anthyphairesis import cli

        forms = [QuadraticForm(kind, 1, 6, 7) for kind in (EXCESS, DEFECT, MIXED)]
        forms.append(QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True))
        tags = [cli._form_json(form)["kind"] for form in forms]
        assert tags == ["excess", "defect", "mixed", "defect-"]
        assert tags == [str(form).partition("(")[0] for form in forms]


class TestEuclid:
    def test_goldens(self):
        assert euclid_cf(17, 5) == ContinuedFraction((3, 2, 2))
        assert euclid_cf(7, 7) == ContinuedFraction((1,))
        assert euclid_cf(2, 1) == ContinuedFraction((2,))
        assert euclid_cf(1, 2) == ContinuedFraction((0, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            euclid_cf(0, 3)
        with pytest.raises(DomainError):
            euclid_cf(3, 0)

    def test_quotients_are_ints_or_rejected(self):
        # the result skips the validating constructor: a float never reaches it
        for m, n in ((3.0, 2), (3, 2.0), (3.5, 1.5)):
            with pytest.raises(DomainError, match="ints or Fractions"):
                euclid_cf(m, n)
        cf = euclid_cf(Fraction(7, 2), 1)
        assert cf == ContinuedFraction((3, 2))
        assert all(type(k) is int for k in cf.preperiod)

    def test_bools_are_rejected(self):
        # QuadSurd refuses a bool component, and so does Euclid
        for m, n in ((True, 1), (3, True), (Fraction(7, 2), False)):
            with pytest.raises(
                DomainError, match=r"^euclid_cf: arguments must be ints or Fractions$"
            ):
                euclid_cf(m, n)

    @settings(deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_reconstructs_the_fraction(self, m, n):
        cf = euclid_cf(m, n)
        value = Fraction(cf.preperiod[-1])
        for k in reversed(cf.preperiod[:-1]):
            value = k + 1 / value
        assert value == Fraction(m, n)
        # Euclid's output is already canonical: no trailing quotient 1
        assert canonicalize_cf(cf) == cf


class TestContinuedFraction:
    def test_validation(self):
        with pytest.raises(DomainError):
            ContinuedFraction(())
        with pytest.raises(DomainError):
            ContinuedFraction((1,), ())
        with pytest.raises(DomainError):
            ContinuedFraction((1, 0))  # inner quotient 0
        with pytest.raises(DomainError):
            ContinuedFraction((-1,))
        with pytest.raises(DomainError):
            ContinuedFraction((1,), (2,), truncated=True)
        ContinuedFraction((0, 2))  # leading 0 is fine
        ContinuedFraction((), None, truncated=True)  # nothing seen yet

    def test_quotient_types_and_messages(self):
        # bool is an int: True counts as 1, and False as 0 (a head only)
        assert ContinuedFraction((True, True), (True,)) == ContinuedFraction((1, 1), (1,))
        assert ContinuedFraction((False, 2)).preperiod == (0, 2)
        pre_msg = "quotients must be positive \\(head may be 0\\)"
        for pre in ((1, False), (-1,), (2, -1), (1, 1.0), (1.0,), ("x",), ("x", -1), (1, "x")):
            with pytest.raises(DomainError, match=pre_msg):
                ContinuedFraction(pre)
        for per in ((False,), (-1,), (2, 0), (1.0,), ("x",), (1, "x")):
            with pytest.raises(DomainError, match="period entries must be >= 1"):
                ContinuedFraction((1,), per)

    def test_quotients_are_stored_as_ints(self):
        cf = ContinuedFraction((False, True), (True,))
        assert str(cf) == "[0, 1; (1)]"
        assert cf == ContinuedFraction((0, 1), (1,))
        assert hash(cf) == hash(ContinuedFraction((0, 1), (1,)))
        for cf in (cf, ContinuedFraction([True, 2], [3, True]), ContinuedFraction((True,))):
            assert all(type(k) is int for k in cf.preperiod + (cf.period or ()))

    def test_head(self):
        cf = ContinuedFraction((1,), (2,))
        assert cf.head(5) == (1, 2, 2, 2, 2)
        assert cf.head(0) == ()
        fin = ContinuedFraction((3, 2, 2))
        assert fin.head(2) == (3, 2)
        with pytest.raises(DomainError):
            fin.head(4)
        with pytest.raises(DomainError, match="^head: n must be >= 0$"):
            cf.head(-1)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, "2", None])
    def test_head_takes_only_an_int(self, n):
        with pytest.raises(DomainError, match="^head: n must be an integer, got "):
            ContinuedFraction((1, 2), (3,)).head(n)

    def test_head_equals_the_element_by_element_unroll(self):
        cfs = [
            ContinuedFraction((1,), (2,)),
            ContinuedFraction((), (1, 2, 3)),
            ContinuedFraction((0, 2), (7, 1)),
            run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 139))[0],
            run_anthyphairesis(QuadraticForm(DEFECT, 83, 260, 197))[0],
        ]
        for cf in cfs:
            pre, per = cf.preperiod, cf.period
            unrolled = []
            for n in range(len(pre) + 3 * len(per) + 1):
                head = cf.head(n)
                assert type(head) is tuple and head == tuple(unrolled), (cf, n)
                unrolled.append(pre[n] if n < len(pre) else per[(n - len(pre)) % len(per)])

    def test_finite_means_neither_periodic_nor_truncated(self):
        cut = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 7), 2)[0]
        for cf, finite, periodic in (
            (ContinuedFraction((3, 2, 2)), True, False),
            (ContinuedFraction((1,), (2,)), False, True),
            (cut, False, False),
        ):
            assert (cf.is_finite, cf.is_periodic) == (finite, periodic), cf

    def test_truncated_equality_is_never_true(self):
        t = ContinuedFraction((1, 2), None, truncated=True)
        assert t != t
        assert t != ContinuedFraction((1, 2))
        assert ContinuedFraction((1, 2)) != t

    def test_str(self):
        assert str(ContinuedFraction((1,), (2,))) == "[1; (2)]"
        assert str(ContinuedFraction((), (1,))) == "[(1)]"
        assert str(ContinuedFraction((3, 2, 2))) == "[3, 2, 2]"
        assert str(ContinuedFraction((1, 2), None, truncated=True)) == "[1, 2, ...]"


class TestCanonicalize:
    def test_finite_trailing_one_folds(self):
        assert canonicalize_cf(ContinuedFraction((1, 2, 1))) == ContinuedFraction((1, 3))
        assert canonicalize_cf(ContinuedFraction((2, 1))) == ContinuedFraction((3,))
        assert canonicalize_cf(ContinuedFraction((1, 1))) == ContinuedFraction((2,))
        assert canonicalize_cf(ContinuedFraction((1,))) == ContinuedFraction((1,))
        # a cascade: [1, 1, 1] -> [1, 2]
        assert canonicalize_cf(ContinuedFraction((1, 1, 1))) == ContinuedFraction((1, 2))

    def test_periodic_primitive_word(self):
        got = canonicalize_cf(ContinuedFraction((), (1, 2, 1, 2)))
        assert got == ContinuedFraction((), (1, 2))

    def test_preperiod_absorbed_into_period(self):
        got = canonicalize_cf(ContinuedFraction((1, 2), (2, 2)))
        assert got == ContinuedFraction((1,), (2,))
        got = canonicalize_cf(ContinuedFraction((1, 2), (1, 2)))
        assert got == ContinuedFraction((), (1, 2))

    def test_truncated_passes_through(self):
        t = ContinuedFraction((1, 1), None, truncated=True)
        assert canonicalize_cf(t) is t

    quotient = st.integers(1, 4)

    @settings(deadline=None)
    @given(
        st.lists(quotient, max_size=5),
        st.one_of(st.none(), st.lists(quotient, min_size=1, max_size=4)),
    )
    def test_idempotent(self, pre, per):
        if per is None and not pre:
            return
        cf = ContinuedFraction(tuple(pre), None if per is None else tuple(per))
        once = canonicalize_cf(cf)
        assert canonicalize_cf(once) == once


class TestExcessStep:
    def test_sqrt2_chain(self):
        form = QuadraticForm(EXCESS, 1, 0, 2)
        k, nxt = excess_step(form)
        assert (k, nxt) == (1, QuadraticForm(EXCESS, 1, 2, 1))
        k, again = excess_step(nxt)
        assert (k, again) == (2, nxt)

    def test_golden_form_is_a_fixed_point(self):
        form = QuadraticForm(EXCESS, 1, 1, 1)
        assert excess_step(form) == (1, form)

    def test_rejects_wrong_kind_square_disc_and_small_root(self):
        with pytest.raises(DomainError):
            excess_step(QuadraticForm(DEFECT, 5, 13, 7))
        with pytest.raises(DomainError):
            excess_step(QuadraticForm(EXCESS, 1, 0, 4))
        with pytest.raises(DomainError):
            excess_step(QuadraticForm(EXCESS, 3, 1, 1))


class TestDefectStep:
    def test_defect_to_mixed(self):
        k, nxt = defect_step(QuadraticForm(DEFECT, 5, 13, 7))
        assert (k, nxt) == (1, QuadraticForm(MIXED, 1, 3, 5))

    def test_mixed_to_excess(self):
        k, nxt = defect_step(QuadraticForm(MIXED, 1, 3, 5))
        assert (k, nxt) == (1, QuadraticForm(EXCESS, 1, 5, 1))

    def test_defect_to_excess(self):
        k, nxt = defect_step(QuadraticForm(DEFECT, 1, 3, 1))
        assert (k, nxt) == (2, QuadraticForm(EXCESS, 1, 1, 1))

    def test_defect_to_excess_with_zero_middle(self):
        k, nxt = defect_step(QuadraticForm(DEFECT, 3, 6, 1))
        assert (k, nxt) == (1, QuadraticForm(EXCESS, 2, 0, 3))

    def test_defect_to_conjugate_defect(self):
        # both roots of 10x^2 - 49x + 59 lie strictly between 2 and 3
        k, nxt = defect_step(QuadraticForm(DEFECT, 10, 49, 59))
        assert (k, nxt) == (2, QuadraticForm(DEFECT, 1, 9, 10, smaller_root=True))

    def test_conjugate_defect_steps_to_larger_root(self):
        k, nxt = defect_step(QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True))
        assert (k, nxt) == (1, QuadraticForm(DEFECT, 2, 4, 1))

    def test_rejects_excess_square_disc_and_small_root(self):
        with pytest.raises(DomainError):
            defect_step(QuadraticForm(EXCESS, 1, 0, 2))
        with pytest.raises(DomainError):
            defect_step(QuadraticForm(DEFECT, 1, 5, 6))  # disc 1
        with pytest.raises(DomainError):
            defect_step(QuadraticForm(DEFECT, 2, 4, 1, smaller_root=True))

    def test_quotient_is_floor_of_root(self):
        # one rule x = k + 1/y for every kind, through either public step
        kinds = ((EXCESS, False), (MIXED, False), (DEFECT, False), (DEFECT, True))
        rng = random.Random(4)
        stepped = dict.fromkeys(kinds, 0)
        while min(stepped.values()) < 60:
            kind, smaller = rng.choice(kinds)
            a, b, c = rng.randint(1, 20), rng.randint(0, 40), rng.randint(1, 20)
            try:
                form = QuadraticForm(kind, a, b, c, smaller_root=smaller)
            except DomainError:
                continue
            if is_perfect_square(form.disc):
                continue
            x = form.root()
            assert form.is_expandable == (x > 1), form
            if not form.is_expandable:
                continue
            k, nxt = (excess_step if kind == EXCESS else defect_step)(form)
            assert k == x.floor()
            assert nxt.root() == (x - k).inverse()
            assert nxt.disc == form.disc
            stepped[kind, smaller] += 1

    def test_impossible_states_are_invariant_errors(self):
        # only a bug reaches these, so the private rule is driven directly
        with pytest.raises(InternalInvariantError):
            engine._step(3, 1, 1, 1, 3)  # excess(3, 1, 1): root below 1, k = 0
        with pytest.raises(InternalInvariantError):
            engine._step(1, 0, 4, 1, 4)  # square disc 16: k = 2 is a root
        for triple in ((1, 2, 0, 1), (1, 2, 3, -1), (1, -2, -3, 1)):
            with pytest.raises(InternalInvariantError):
                engine._form(*triple)


def _seen_dict_run(form, max_steps):
    """The recurrence the anchored loop replaced: every excess state hashed."""
    j = math.isqrt(form.disc)
    triple = engine._triple(form)
    quotients, states, seen = [], [form], {}
    while True:
        cur, pos = states[-1], len(quotients)
        if cur.kind == EXCESS:
            if cur in seen:
                i = seen[cur]
                cf = canonicalize_cf(ContinuedFraction(quotients[:i], quotients[i:]))
                return cf, tuple(quotients), (i, pos), tuple(states)
            seen[cur] = pos
        if pos >= max_steps:
            cf = ContinuedFraction(quotients, None, truncated=True)
            return cf, tuple(quotients), None, tuple(states)
        k, *triple = engine._step(*triple, j)
        quotients.append(k)
        states.append(engine._form(*triple))


def _is_symmetric(period):
    """Whether the reversed period is a rotation of it (no engine code)."""
    word = tuple(period)
    return any((word + word)[i:i + len(word)] == word[::-1] for i in range(len(word)))


def _first_centre(period):
    """The least h >= -2 with q[i] == q[h - i] around the period, or None."""
    p = len(period)
    for h in range(-2, p - 2):
        if all(period[i] == period[(h - i) % p] for i in range(p)):
            return h
    return None


def _assert_as_oracle(form, budget):
    """One run against the seen-dict recurrence: result, trace and states.

    The result skips the validating constructor, so it is also checked
    to be what that constructor would build from the same quotients.
    """
    cf, trace = run_anthyphairesis(form, budget)
    want_cf, *want = _seen_dict_run(form, budget)
    assert (str(cf), cf.truncated) == (str(want_cf), want_cf.truncated), (form, budget)
    assert [trace.quotients, trace.repeat_at, trace.states] == want, (form, budget)
    per = cf.period
    assert type(cf.preperiod) is tuple and (per is None or type(per) is tuple)
    assert all(type(k) is int for k in cf.preperiod + (per or ())), (form, budget)
    if not cf.truncated:
        public = ContinuedFraction(cf.preperiod, per, cf.truncated)
        assert cf == public and hash(cf) == hash(public), (form, budget)
    return cf, trace


class TestRunAnthyphairesis:
    def test_sqrt2_full_report(self):
        cf, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 2))
        assert cf == ContinuedFraction((1,), (2,))
        assert trace.quotients == (1, 2)
        assert trace.states == (
            QuadraticForm(EXCESS, 1, 0, 2),
            QuadraticForm(EXCESS, 1, 2, 1),
            QuadraticForm(EXCESS, 1, 2, 1),
        )
        assert trace.repeat_at == (1, 2)

    def test_defect_chain_goldens(self):
        cf, trace = run_anthyphairesis(QuadraticForm(DEFECT, 5, 13, 7))
        assert cf == ContinuedFraction((1, 1), (5,))
        assert trace.states[0:2] == (
            QuadraticForm(DEFECT, 5, 13, 7),
            QuadraticForm(MIXED, 1, 3, 5),
        )
        cf, _ = run_anthyphairesis(QuadraticForm(DEFECT, 7, 20, 14))
        assert cf == ContinuedFraction((1, 1, 1, 1), (2,))

    def test_conjugate_defect_runs(self):
        cf, _ = run_anthyphairesis(QuadraticForm(DEFECT, 1, 6, 7, smaller_root=True))
        assert cf == surd_cf(QuadSurd(3, -1, 1, 2))
        assert cf == ContinuedFraction((1, 1, 1), (2,))

    def test_square_disc_falls_back_to_euclid(self):
        cf, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 4))
        assert cf == ContinuedFraction((2,))
        assert trace.states == (QuadraticForm(EXCESS, 1, 0, 4),)
        assert trace.repeat_at is None
        cf, _ = run_anthyphairesis(QuadraticForm(EXCESS, 2, 3, 2))
        assert cf == ContinuedFraction((2,))
        # Euclid's division steps no form: the trace holds the start form alone
        form = QuadraticForm(DEFECT, 5, 12, 7)
        cf, trace = run_anthyphairesis(form)
        assert trace.quotients == (1, 2, 2) and cf == ContinuedFraction((1, 2, 2))
        assert trace.states == (form,)
        assert trace.repeat_at is None

    def test_square_disc_runs_expand_the_fraction_root(self):
        # every form with coefficients up to 30 and a square discriminant:
        # its root as a Fraction, refused below 1 and else expanded by a
        # Euclid of this test's own on that Fraction
        too_small = "run_anthyphairesis: designated root of %s must exceed 1"
        kinds = ((EXCESS, False), (DEFECT, False), (DEFECT, True))
        checked = 0
        for (kind, smaller), A, B, C in itertools.product(
            kinds, range(1, 31), range(31), range(1, 31)
        ):
            disc = B * B + (4 if kind == EXCESS else -4) * A * C
            if disc < 1 or math.isqrt(disc) ** 2 != disc or (kind == DEFECT and B < 1):
                continue
            form = QuadraticForm(kind, A, B, C, smaller)
            j = math.isqrt(disc)
            x = Fraction(B - j if smaller else B + j, 2 * A)
            qs, y = [], x
            while True:
                qs.append(math.floor(y))
                if y == qs[-1]:
                    break
                y = 1 / (y - qs[-1])
            for budget in (0, 10_000):
                if x < 1:
                    with pytest.raises(DomainError, match="^%s$" % re.escape(too_small % form)):
                        run_anthyphairesis(form, budget)
                    continue
                cf, trace = run_anthyphairesis(form, budget)
                assert cf == ContinuedFraction(tuple(qs)), form
                assert trace.quotients == cf.preperiod
                assert trace.states == (form,) and trace.repeat_at is None
            checked += 1
        assert checked > 300

    def test_rational_root_of_one_expands_to_one(self):
        # sqrt(1) : 1 is 1 : 1; the square-discriminant route takes it
        # before the "exceeds 1" test that every irrational root must pass
        for form in (
            QuadraticForm(EXCESS, 1, 0, 1),
            QuadraticForm(EXCESS, 2, 1, 1),  # 2x^2 = x + 1
            QuadraticForm(DEFECT, 1, 3, 2, smaller_root=True),  # roots 1 and 2
        ):
            for budget in (0, 10_000):
                cf, trace = run_anthyphairesis(form, budget)
                assert cf == euclid_cf(1, 1) == ContinuedFraction((1,))
                assert trace.states == (form,) and trace.repeat_at is None
        message = r"run_anthyphairesis: designated root of excess\(4, 0, 1\) must exceed 1"
        with pytest.raises(DomainError, match=message):
            run_anthyphairesis(QuadraticForm(EXCESS, 4, 0, 1))  # root 1/2
        # the triple-comparison oracle still takes no rational root
        assert not QuadraticForm(EXCESS, 1, 0, 1).is_expandable
        with pytest.raises(DomainError, match="must exceed 1"):
            same_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 2), QuadraticForm(EXCESS, 1, 0, 1))

    def test_truncation(self):
        cf, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 139), max_steps=2)
        assert cf.truncated
        assert cf.preperiod == (11, 1)
        assert trace.repeat_at is None
        cf, _ = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 2), max_steps=0)
        assert cf.truncated and cf.preperiod == ()

    def test_trace_visits_every_kind(self):
        cf, trace = run_anthyphairesis(QuadraticForm(DEFECT, 3, 13, 13, smaller_root=True))
        assert str(cf) == "[1, 1, 1; (3)]"
        assert trace.quotients == (1, 1, 1, 3)
        assert trace.repeat_at == (3, 4)
        assert [str(st) for st in trace.states] == [
            "defect-(3, 13, 13)",
            "defect(3, 7, 3)",
            "mixed(1, 1, 3)",
            "excess(1, 3, 1)",
            "excess(1, 3, 1)",
        ]

    def test_square_root_is_taken_once_per_run(self, monkeypatch):
        # one isqrt of the discriminant both tests for a square and steps
        roots = []
        real = engine.isqrt
        monkeypatch.setattr(engine, "isqrt", lambda n: roots.append(n) or real(n))
        cf, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 1000003))
        assert len(trace.quotients) > 400 and not cf.truncated
        assert roots == [4 * 1000003]
        del roots[:]
        excess_step(QuadraticForm(EXCESS, 1, 0, 1000003))
        defect_step(QuadraticForm(DEFECT, 5, 13, 7))
        assert roots == [4 * 1000003, 29]

    def test_agrees_with_the_seen_dict_recurrence(self):
        forms = [
            QuadraticForm(EXCESS, 1, 0, n) for n in range(2, 400) if not is_perfect_square(n)
        ]
        kinds = ((EXCESS, False), (MIXED, False), (DEFECT, False), (DEFECT, True))
        rng = random.Random(6)
        drawn = dict.fromkeys(kinds, 0)
        while min(drawn.values()) < 100:
            kind, smaller = rng.choice(kinds)
            lim = rng.choice((12, 60, 400))
            a, b, c = rng.randint(1, lim), rng.randint(0, 2 * lim), rng.randint(1, lim)
            try:
                form = QuadraticForm(kind, a, b, c, smaller_root=smaller)
            except DomainError:
                continue
            expandable = form.is_expandable and not is_perfect_square(form.disc)
            if expandable and drawn[kind, smaller] < 100:
                forms.append(form)
                drawn[kind, smaller] += 1
        for form in forms:
            for budget in (0, 1, 3, 50, 10_000):
                _, trace = _assert_as_oracle(form, budget)
                if trace.repeat_at is not None:
                    # Galois: the cycle starts at the first excess state or one step later
                    first_excess = next(
                        t for t, st in enumerate(trace.states) if st.kind == EXCESS
                    )
                    assert trace.repeat_at[0] <= first_excess + 1, form

    def test_states_are_built_only_when_read(self, monkeypatch):
        # the engine builds its forms through _form, never the public __init__
        built = [0]
        real = engine._form

        def counting(a, b, c, s):
            form = real(a, b, c, s)
            built[0] += type(form) is QuadraticForm
            return form

        monkeypatch.setattr(engine, "_form", counting)
        form = QuadraticForm(EXCESS, 1, 0, 1000003)
        cf, trace = run_anthyphairesis(form)
        assert len(trace.quotients) > 400 and not cf.truncated
        assert built[0] == 0
        states = trace.states
        assert len(states) == len(trace.quotients) + 1 and states[0] is form
        assert built[0] == len(trace.quotients)  # start is the caller's form
        # not cached: a second read replays the run again and builds as many forms
        assert trace.states == states
        assert built[0] == 2 * len(trace.quotients)
        walk = [form]
        for _ in trace.quotients:
            walk.append(excess_step(walk[-1])[1])
        assert states == tuple(walk)

    def test_loop_invariants_are_still_checked(self, monkeypatch):
        # a stepping bug is the only way in, so the private rule is replaced
        root2 = QuadraticForm(EXCESS, 1, 0, 2)  # excess, not reduced: 8 >= (0 + 2)^2
        monkeypatch.setattr(engine, "_step", lambda a, b, c, s, j: (1, 1, 0, 2, 1))
        with pytest.raises(InternalInvariantError, match="not reduced"):
            run_anthyphairesis(root2)
        monkeypatch.setattr(engine, "_step", lambda a, b, c, s, j: (1, 1, 2, 0, 1))
        with pytest.raises(InternalInvariantError, match="sign pattern"):
            run_anthyphairesis(root2)

    # each breaks one clause of the chain's test (c > 0 and s > 0) or (c < 0 and b > 0)
    @pytest.mark.parametrize("pattern", [
        (1, 1, 1, -1),  # c > 0, b > 0, s < 0
        (1, -1, 1, -1),  # c > 0, b < 0, s < 0
        (1, -1, -1, 1),  # c < 0, b < 0, s > 0
        (1, 0, -1, 1),  # c < 0, b == 0
        (1, 1, 0, 1),  # c == 0, s > 0
        (1, 1, 0, -1),  # c == 0, b > 0
        (1, 1, 1, 0),  # c > 0, b > 0, no selector
    ])
    def test_defect_chain_refuses_an_impossible_sign_pattern(self, monkeypatch, pattern):
        # only the first step is broken; any later one is the real rule
        real = engine._step
        calls = []

        def first_broken(a, b, c, s, j):
            calls.append(1)
            return (1,) + pattern if len(calls) == 1 else real(a, b, c, s, j)

        monkeypatch.setattr(engine, "_step", first_broken)
        with pytest.raises(InternalInvariantError, match="impossible sign pattern"):
            run_anthyphairesis(QuadraticForm(DEFECT, 1, 3, 1))  # the chain steps first
        assert len(calls) == 1

    def test_the_default_budget_is_10_000_quotients(self):
        # sqrt(10^12 + 39) has period 532,572, so each default run is cut at the budget
        n = 10**12 + 39
        x = QuadSurd(0, 1, 1, n)
        cf, _ = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, n))
        ratio = anth_of_ratio(line(x), line(1))
        oracle = surd_cf(x)
        for got in (cf, ratio, oracle):
            assert got.truncated and len(got.preperiod) == 10_000
        assert cf.preperiod == ratio.preperiod == oracle.preperiod

    def test_output_is_canonical_without_canonicalize(self, monkeypatch):
        want = {
            QuadraticForm(DEFECT, 7, 20, 14): ((1, 1, 1, 1), (2,)),
            QuadraticForm(EXCESS, 1, 0, 139): (
                (11,), (1, 3, 1, 3, 7, 1, 1, 2, 11, 2, 1, 1, 7, 3, 1, 3, 1, 22)
            ),
        }
        for form, (pre, per) in want.items():
            assert canonicalize_cf(ContinuedFraction(pre, per)) == ContinuedFraction(pre, per)

        def refuse(cf):
            raise AssertionError("run_anthyphairesis called canonicalize_cf")

        monkeypatch.setattr(engine, "canonicalize_cf", refuse)
        for form, (pre, per) in want.items():
            cf, _ = run_anthyphairesis(form)
            assert (cf.preperiod, cf.period, cf.truncated) == (pre, per, False), form

    def test_results_skip_the_validating_constructor(self, monkeypatch):
        sqrt139 = QuadraticForm(EXCESS, 1, 0, 139)  # anchor at 1, period 18, 9 stepped
        mirrored = QuadraticForm(DEFECT, 83, 260, 197)
        walked = QuadraticForm(DEFECT, 9, 122, 266, smaller_root=True)
        runs = [
            (QuadraticForm(EXCESS, 1, 0, 1000003), 10_000),
            (mirrored, 10_000),
            (walked, 10_000),
            (sqrt139, 0),
            (sqrt139, 5),  # inside the stepped half
            (sqrt139, 15),  # inside the mirrored half
            (walked, 10),
            (QuadraticForm(EXCESS, 2, 3, 2), 10_000),  # square discriminant: Euclid
        ]
        want = [run_anthyphairesis(form, budget)[0] for form, budget in runs]
        below_one = [(line(1), line(QuadSurd(0, 1, 1, 2)), budget) for budget in (0, 1, 10_000)]
        below_one.append((line(2), line(7), 10_000))
        want_below = [anth_of_ratio(*args) for args in below_one]
        assert _is_symmetric(want[1].period) and want[1].preperiod
        assert not _is_symmetric(want[2].period) and want[2].preperiod
        assert [cf.truncated for cf in want[3:7]] == [True] * 4

        def refuse(self, *args, **kwargs):
            raise AssertionError("ContinuedFraction validated an engine result")

        monkeypatch.setattr(ContinuedFraction, "__init__", refuse)
        got = [run_anthyphairesis(form, budget)[0] for form, budget in runs]
        got_below = [anth_of_ratio(*args) for args in below_one]
        for cf, w in zip(got + got_below, want + want_below):
            assert (cf.preperiod, cf.period, cf.truncated) == (w.preperiod, w.period, w.truncated)
        assert [str(cf) for cf in got_below] == ["[...]", "[0, ...]", "[0, 1; (2)]", "[0, 3, 2]"]
        # the oracle still builds its results through the public constructor
        with pytest.raises(AssertionError, match="validated"):
            surd_cf(QuadSurd(0, 1, 1, 2))

    def test_preperiod_that_repeats_the_period_end_is_an_invariant_error(self, monkeypatch):
        # sqrt(2) stepped by a rule that always answers k = 2 and the
        # anchor (1, 2, 1): the quotients [2, 2] would end the preperiod
        # with the period's last entry, which a true expansion never does
        monkeypatch.setattr(engine, "_step", lambda a, b, c, s, j: (2, 1, 2, 1, 1))
        with pytest.raises(InternalInvariantError, match="preperiod"):
            run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 2))

    def test_rejects_unexpandable(self):
        with pytest.raises(DomainError):
            run_anthyphairesis(QuadraticForm(EXCESS, 3, 1, 1))
        with pytest.raises(DomainError):
            run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 2), max_steps=-1)


class TestMirroredCycle:
    """The reduced cycle stops at its second centre of symmetry and mirrors the rest."""

    def test_every_sqrt_below_2000(self):
        for n in range(2, 2000):
            if not is_perfect_square(n):
                cf, _ = _assert_as_oracle(QuadraticForm(EXCESS, 1, 0, n), 10_000)
                # the period of sqrt(N) is a palindrome followed by 2*a0
                assert cf.period[-1] == 2 * cf.preperiod[0]
                assert cf.period[:-1] == cf.period[-2::-1]

    def test_symmetric_families(self):
        symmetric = 0
        for n in range(1, 500):
            for a, b in ((2, 0), (1, 1), (3, 3)):
                form = QuadraticForm(EXCESS, a, b, n)
                if form.is_expandable and not is_perfect_square(form.disc):
                    symmetric += _is_symmetric(_assert_as_oracle(form, 10_000)[0].period)
        assert symmetric > 1000

    def test_periods_one_and_two(self):
        for form, period in (
            (QuadraticForm(EXCESS, 1, 0, 2), (2,)),
            (QuadraticForm(EXCESS, 1, 0, 3), (1, 2)),
            (QuadraticForm(EXCESS, 1, 1, 1), (1,)),
        ):
            for budget in range(5):
                _assert_as_oracle(form, budget)
            assert _assert_as_oracle(form, 10_000)[0].period == period

    def test_every_anchor_on_a_symmetric_cycle(self):
        # a reduced start is its own anchor, so the centres fall at every
        # offset from it, odd and even
        for n in (7, 13, 19, 46, 139, 151):
            _, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, n))
            for start in trace.states[1:]:
                for budget in (0, 1, 2, 3, 5, 10_000):
                    _assert_as_oracle(start, budget)

    def test_non_symmetric_cycles_walk_the_full_period(self):
        rng = random.Random(1029)
        walked = 0
        for form in _expandable_forms(rng, 1500, 400):
            if form.kind == EXCESS:
                continue
            for budget in (0, 3, 50, 10_000):
                cf, _ = _assert_as_oracle(form, budget)
            walked += not _is_symmetric(cf.period)
        assert walked > 100

    def test_every_budget_across_the_mirrored_half(self):
        forms = [
            QuadraticForm(EXCESS, 1, 0, 139),
            QuadraticForm(EXCESS, 1, 0, 1000003),
            QuadraticForm(EXCESS, 3, 3, 2),
            QuadraticForm(DEFECT, 7, 200, 1234),
        ]
        _, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 151))
        forms += trace.states[3:5]
        for form in forms:
            cf, _ = run_anthyphairesis(form)
            anchor_at, p = len(cf.preperiod), len(cf.period)
            for budget in range(max(anchor_at + p // 2 - 2, 0), anchor_at + p + 2):
                _assert_as_oracle(form, budget)
        # a first centre late in the period: from budget 0 up, the budget runs
        # out before it (phase 1), on the step that finds it (the jump to
        # rev(anchor) past the reflected quotients) and on the way to the second
        late = [QuadraticForm(DEFECT, 7, 200, 1234)] + list(trace.states[3:5])
        for form in late:
            cf, _ = run_anthyphairesis(form)
            assert _first_centre(cf.period) >= 12, form
            for budget in range(len(cf.preperiod) + len(cf.period) + 2):
                _assert_as_oracle(form, budget)
        # cycles with no centre: the walk runs to the full-period return, and a
        # budget below it is cut by the same test after the loop
        for form in (
            QuadraticForm(DEFECT, 2, 23, 7),  # period 4
            QuadraticForm(DEFECT, 64, 656, 223),  # period 54
            QuadraticForm(DEFECT, 26, 49, 3),  # preperiod 2, period 23
            QuadraticForm(MIXED, 2, 23, 29),  # period 7
            QuadraticForm(EXCESS, 2, 15, 12),  # its own anchor, period 6
        ):
            cf, _ = run_anthyphairesis(form)
            assert not _is_symmetric(cf.period), form
            for budget in range(len(cf.preperiod) + len(cf.period) + 2):
                _assert_as_oracle(form, budget)

    def test_cycle_step_invariant_is_checked(self, monkeypatch):
        # a wrong square root is the only way in.  excess(1, 2, 1) is its own
        # anchor and its own reverse, so its walk starts in phase 2; the one
        # _step (on its reverse) passes, and the cycle loop raises.  excess(1,
        # 8, 3) is its own anchor with its first centre at 0, so its walk
        # starts in phase 1, which raises on the first step.
        for form, first, big in (
            (QuadraticForm(EXCESS, 1, 2, 1), -2, "k=51, leading coefficient 2498"),
            (QuadraticForm(EXCESS, 1, 8, 3), 0, "k=54, leading coefficient 2481"),
        ):
            assert _first_centre(run_anthyphairesis(form)[0].period) == first
            monkeypatch.setattr(engine, "isqrt", lambda n: 100)  # k too big
            with pytest.raises(InternalInvariantError, match=big):
                run_anthyphairesis(form)
            monkeypatch.setattr(engine, "isqrt", lambda n: 0)  # k too small
            with pytest.raises(InternalInvariantError, match="k=0"):
                run_anthyphairesis(form)
            monkeypatch.undo()

    def test_the_walk_stops_at_the_second_centre(self, monkeypatch):
        # a walk to the full-period return gives the same results as a half
        # walk, only slower, so the steps are counted on the budget iterator
        # that both phases of the cycle walk draw on
        drawn = []
        real = engine.repeat

        def counting(item, times):
            for x in real(item, times):
                drawn.append(x)
                yield x

        monkeypatch.setattr(engine, "repeat", counting)

        def walk(form):
            del drawn[:]
            cf, _ = run_anthyphairesis(form)
            assert not cf.truncated, form
            return cf.period, len(drawn)

        for n in range(2, 2000):
            if not is_perfect_square(n):
                period, taken = walk(QuadraticForm(EXCESS, 1, 0, n))
                assert taken <= (len(period) + 1) // 2, n
        rng = random.Random(3)
        forms = []
        for _ in range(20_000):
            kind = rng.choice((EXCESS, DEFECT, MIXED))
            a, b, c = rng.randint(1, 30), rng.randint(0, 300), rng.randint(1, 300)
            smaller = kind == DEFECT and rng.choice((False, True))
            try:
                forms.append(QuadraticForm(kind, a, b, c, smaller_root=smaller))
            except DomainError:
                pass
        forms += _expandable_forms(random.Random(1029), 600, 400)
        symmetric = walked = 0
        for form in forms:
            if not form.is_expandable or is_perfect_square(form.disc):
                continue
            period, taken = walk(form)
            if _is_symmetric(period):
                symmetric += 1
                assert taken <= (len(period) + 1) // 2 + 1, form
            else:
                walked += 1
                assert taken == len(period), form
        assert symmetric > 10_000 and walked > 2000


def _expandable_forms(rng, count, lim):
    """Seeded expandable forms of every kind, primitive or not."""
    kinds = ((EXCESS, False), (MIXED, False), (DEFECT, False), (DEFECT, True))
    out = []
    while len(out) < count:
        kind, smaller = rng.choice(kinds)
        a, b, c = rng.randint(1, lim), rng.randint(0, 2 * lim), rng.randint(1, lim)
        try:
            form = QuadraticForm(kind, a, b, c, smaller_root=smaller)
        except DomainError:
            continue
        if form.is_expandable and not is_perfect_square(form.disc):
            out.append(form)
    return out


def test_engine_forms_pass_the_public_checks():
    """Every form the engine builds equals its rebuild by the public constructor.

    The engine builds its forms through _form, which skips the public
    checks; the public rebuild raises if any of them fails.  The
    forms: trace states, excess_step and defect_step successors and
    minimal_form results, of all four kinds.
    """
    rng = random.Random(18)
    kinds = set()
    for form in _expandable_forms(rng, 400, 60):
        _, trace = run_anthyphairesis(form, rng.choice((5, 50, 10_000)))
        step = excess_step if form.kind == EXCESS else defect_step
        built = list(trace.states[1:])
        built += [step(form)[1], minimal_form(form.root())]
        for f in built:
            again = QuadraticForm(f.kind, f.A, f.B, f.C, f.smaller_root)
            assert f == again and type(f.smaller_root) is bool, f
            assert all(type(x) is int for x in (f.A, f.B, f.C)), f
            kinds.add((f.kind, f.smaller_root))
    assert kinds == {(EXCESS, False), (MIXED, False), (DEFECT, False), (DEFECT, True)}
    for a in (0, -1):  # no form has a leading coefficient below 1
        with pytest.raises(InternalInvariantError, match="sign pattern"):
            engine._form(a, 1, 1, 1)


def _count_steps(monkeypatch):
    """A list that records every engine step from now on."""
    steps = []
    real = engine._step
    monkeypatch.setattr(engine, "_step", lambda *t: steps.append(t) or real(*t))
    return steps


def _primitive(form):
    """A form's signed triple (a, b, c, s) divided by its content."""
    a, b, c, s = engine._triple(form)
    h = math.gcd(a, b, c)
    return a // h, b // h, c // h, s


def same_anthyphairesis(f, g):
    """Whether two forms' designated roots have the same expansion.

    The triple-comparison verdict that value equality replaced, kept as
    an oracle.  A root has exactly one primitive triple, its signed
    triple divided by its content: the form its eventually periodic
    expansion is generated by, as period_to_form rebuilds one from a
    period.  An expansion determines its root, so two expansions are
    equal exactly when the primitive triples are.  A root that does not
    exceed 1, or a square discriminant (a rational root), is a
    DomainError.
    """
    for form in (f, g):
        if not form.is_expandable:
            raise DomainError(
                "same_anthyphairesis: designated root of %s must exceed 1" % (form,)
            )
    if is_perfect_square(f.disc) or is_perfect_square(g.disc):
        raise DomainError(
            "same_anthyphairesis: a square discriminant has a rational root; "
            "compare the fractions"
        )
    return _primitive(f) == _primitive(g)


def _lockstep(f, g, max_steps):
    """The stepping verdict the triple comparison replaced, kept as an oracle.

    Both primitive triples are stepped together for 2 * max_steps rounds
    and the pair is unequal at the first round whose quotients differ.
    None means undecided: no difference within the budget.  That cannot
    happen when both expansions close within max_steps, because two
    eventually periodic words with periods p1, p2 that agree on
    max(preperiod) + p1 + p2 quotients are equal (Fine-Wilf).
    """
    triples = [_primitive(f), _primitive(g)]
    (a1, b1, c1, s1), (a2, b2, c2, s2) = triples
    disc = b1 * b1 + 4 * a1 * c1
    if b2 * b2 + 4 * a2 * c2 != disc:
        return False  # a step keeps the discriminant
    if triples[0] == triples[1]:
        return True
    j = math.isqrt(disc)
    for _ in range(2 * max_steps):
        k1, a1, b1, c1, s1 = engine._step(a1, b1, c1, s1, j)
        k2, a2, b2, c2, s2 = engine._step(a2, b2, c2, s2, j)
        if k1 != k2:
            return False
    return None


def _verdict_forms(rng):
    """Seeded forms of every kind, scaled copies, and sqrt(N) cycle states."""
    forms = _expandable_forms(rng, 300, 9)
    for n in (2, 3, 7, 13, 19, 46, 139):
        _, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, n))
        forms += trace.states[1:]
    return forms + [
        QuadraticForm(f.kind, 3 * f.A, 3 * f.B, 3 * f.C, f.smaller_root) for f in forms[:40]
    ]


def _verdict_pairs(rng, forms, extra):
    """Every pair within one primitive discriminant, and extra random pairs."""
    by_disc: dict[int, list] = {}
    for f in forms:
        g = math.gcd(f.A, f.B, f.C)
        by_disc.setdefault(f.disc // (g * g), []).append(f)
    pairs = [(f, g) for group in by_disc.values() for f in group for g in group]
    return pairs + [tuple(rng.sample(forms, 2)) for _ in range(extra)]


class TestSameAnthyphairesis:
    def test_agrees_with_full_expansion_equality(self):
        """The triple comparison against two whole expansions and the lockstep.

        Pairs come from one discriminant (the states of seven sqrt(N)
        expansions, and seeded forms of every kind, scaled or not) and
        from different ones.  The verdict takes no budget and must equal
        full-expansion equality on every pair.  The lockstep oracle must
        agree wherever it decides, and must decide whenever both
        expansions close within its budget.
        """
        rng = random.Random(20261018)
        forms = _verdict_forms(rng)
        pairs = _verdict_pairs(rng, forms, 500)
        budgets = (0, 1, 3, 50, 10_000)
        cfs = {(f, n): run_anthyphairesis(f, n)[0] for f in forms for n in budgets}
        outcomes = set()
        for f, g in pairs:
            truth = cfs[f, 10_000] == cfs[g, 10_000]
            assert not cfs[f, 10_000].truncated and not cfs[g, 10_000].truncated
            assert same_anthyphairesis(f, g) == truth, (f, g)
            outcomes.add(truth)
            for steps in budgets:
                closed = not (cfs[f, steps].truncated or cfs[g, steps].truncated)
                lock = _lockstep(f, g, steps)
                if lock is None:
                    assert not closed, (f, g, steps)
                    outcomes.add("undecided")
                else:
                    assert lock == truth, (f, g, steps)
        assert outcomes == {True, False, "undecided"}

    def test_agrees_with_sympy(self):
        """An oracle outside the engine: the two roots as sympy surds.

        r = (b + s*sqrt(D)) / (2a) from each form's signed triple; the
        roots are equal exactly when their difference expands to 0.
        """
        rng = random.Random(1829)
        forms = _verdict_forms(rng)
        kinds = {(f.kind, f.smaller_root) for f in forms}
        assert kinds == {(EXCESS, False), (MIXED, False), (DEFECT, False), (DEFECT, True)}
        roots = {}
        for f in forms:
            a, b, c, s = engine._triple(f)
            roots[f] = (b + s * sympy.sqrt(b * b + 4 * a * c)) / (2 * a)
        verdicts = set()
        for f, g in _verdict_pairs(rng, forms, 300):
            want = sympy.expand(roots[f] - roots[g]) == 0
            assert same_anthyphairesis(f, g) == want, (f, g)
            verdicts.add(want)
        assert verdicts == {True, False}

    def test_value_equality_agrees_with_the_triples(self):
        """The library's verdict, x == y, against the moved triple comparison.

        Seeded values above 1 in seven fields; equal pairs built as
        (x * z) / z with z in the field or rational, so the two sides are
        normalized along different paths; unequal pairs of one field and
        pairs of two fields, which compare unequal and raise nothing.
        ratio_eq on x : 1 and y : 1 must give the same verdict.
        """
        rng = random.Random(20261019)
        fields = (2, 3, 5, 6, 13, 139, 1000003)

        def above_one(d):
            while True:
                u, v, w = rng.randint(-50, 50), rng.randint(-20, 20) or 1, rng.randint(1, 30)
                x = QuadSurd(u, v, w, d)
                if x > 1:
                    return x

        values = [above_one(d) for d in fields for _ in range(40)]
        pairs = []
        for x in values:
            v = rng.choice((0, rng.randint(-5, 5)))
            z = QuadSurd(rng.randint(-9, 9), v, rng.randint(1, 9), x.d)
            if not z.is_zero:
                pairs.append((x, (x * z) / z))
            pairs.append((x, rng.choice(values)))
        pairs += [tuple(rng.sample(values, 2)) for _ in range(1500)]
        seen = set()
        for x, y in pairs:
            want = same_anthyphairesis(minimal_form(x), minimal_form(y))
            assert (x == y) == want, (x, y)
            assert ratio_eq(line(x), line(1), line(y), line(1)) == want, (x, y)
            seen.add((want, x.d == y.d))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_equal_roots_are_equal_before_a_step(self, monkeypatch):
        steps = _count_steps(monkeypatch)
        big = QuadraticForm(EXCESS, 1, 0, 10**12 + 39)
        assert same_anthyphairesis(big, big)
        # excess(2, 0, 4) is twice excess(1, 0, 2): same root sqrt(2)
        root2 = QuadraticForm(EXCESS, 1, 0, 2)
        assert same_anthyphairesis(QuadraticForm(EXCESS, 2, 0, 4), root2)
        # a step keeps the discriminant: 4 * 3 against 4 * 2
        assert not same_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 3), root2)
        assert steps == []

    def test_unequal_roots_take_no_step(self, monkeypatch):
        # states of the sqrt(139) cycle whose words begin (1, 3, 1, 3, ...)
        # and (1, 3, 1, 22, ...): the lockstep needed 4 rounds to tell them apart
        f, g = QuadraticForm(EXCESS, 18, 22, 1), QuadraticForm(EXCESS, 15, 14, 6)
        steps = _count_steps(monkeypatch)
        assert not same_anthyphairesis(f, g)
        assert steps == []
        assert _lockstep(f, g, 1) is None and _lockstep(f, g, 2) is False
        assert len(steps) == 2 * (2 + 4)

    def test_rejects_what_it_cannot_step(self):
        root2 = QuadraticForm(EXCESS, 1, 0, 2)
        with pytest.raises(TypeError):
            same_anthyphairesis(root2, root2, 10)  # no step budget to give
        with pytest.raises(DomainError, match="must exceed 1"):
            same_anthyphairesis(root2, QuadraticForm(EXCESS, 3, 1, 1))
        with pytest.raises(DomainError, match="square discriminant"):
            same_anthyphairesis(root2, QuadraticForm(EXCESS, 1, 0, 4))
        with pytest.raises(DomainError, match="square discriminant"):
            same_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 4), root2)


class TestSurdCf:
    def test_oracle_agreement_on_sample(self):
        rng = random.Random(11)
        for _ in range(100):
            a = rng.randint(1, 20)
            b = rng.randint(0, 30)
            c = rng.randint(1, 20)
            form = QuadraticForm(EXCESS, a, b, c)
            if is_perfect_square(form.disc) or not form.is_expandable:
                continue
            cf, _ = run_anthyphairesis(form)
            assert cf == surd_cf(form.root())

    def test_below_one_gets_head_zero(self):
        cf = surd_cf(QuadSurd(-1, 1, 1, 2))  # sqrt(2) - 1
        assert cf == ContinuedFraction((0,), (2,))

    def test_rational_input(self):
        assert surd_cf(Fraction(17, 5)) == euclid_cf(17, 5)
        assert surd_cf(3) == ContinuedFraction((3,))

    def test_golden_ratio(self):
        assert surd_cf(QuadSurd(1, 1, 2, 5)) == ContinuedFraction((), (1,))

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            surd_cf(QuadSurd(0))
        with pytest.raises(DomainError):
            surd_cf(QuadSurd(1, -1, 1, 2))

    def test_truncation(self):
        cf = surd_cf(QuadSurd(0, 1, 1, 139), max_steps=2)
        assert cf.truncated and cf.preperiod == (11, 1)

    @pytest.mark.parametrize("x", [QuadSurd(0, 1, 1, 2), Fraction(3, 2), QuadSurd(-1, 1, 1, 2)])
    def test_negative_budget_is_rejected(self, x):
        with pytest.raises(DomainError, match=r"^surd_cf: max_steps must be >= 0$"):
            surd_cf(x, -1)

    @pytest.mark.parametrize("n, period", [(10**6 + 3, 458), (10**9 + 7, 12352)])
    def test_agrees_with_engine_on_large_fields(self, n, period):
        cf, trace = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, n), max_steps=100_000)
        assert len(cf.preperiod) == 1 and len(cf.period) == period
        assert trace.repeat_at == (1, period + 1)  # anchored after the head quotient
        assert surd_cf(QuadSurd(0, 1, 1, n), max_steps=100_000) == cf

    def test_agrees_with_sympy(self):
        pre, period = sympy.continued_fraction_periodic(0, 1, 10**6 + 3)
        cf, _ = run_anthyphairesis(QuadraticForm(EXCESS, 1, 0, 10**6 + 3))
        assert (cf.preperiod, cf.period) == ((pre,), tuple(period))

    def test_output_is_canonical_without_canonicalize(self, monkeypatch):
        """The first repeated tail value gives the canonical pair by itself."""

        def refuse(cf):
            raise AssertionError("surd_cf called canonicalize_cf")

        monkeypatch.setattr(engine, "canonicalize_cf", refuse)
        rng = random.Random(30)
        below = above = 0
        while below < 150 or above < 150:
            d = rng.choice((2, 3, 5, 6, 7, 10, 13, 19, 29, 94))
            v = rng.choice((-3, -2, -1, 1, 2, 3))
            x = QuadSurd(rng.randint(-20, 20), v, rng.randint(1, 12), d)
            if not x > 0:
                continue
            if x < 1:
                below += 1
            else:
                above += 1
            assert surd_cf(x) == anth_of_ratio(line(x), line(1)), x

    def test_only_the_oracle_property_calls_it(self):
        """surd_cf is an oracle: no production path may expand with it."""
        uses, importers = [], set()
        for path in sorted(Path(anthyphairesis.__file__).parent.glob("*.py")):
            if path.name == "engine.py":
                continue
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.ImportFrom):
                        if any(alias.name == "surd_cf" for alias in node.names):
                            importers.add(path.stem)
                    elif (isinstance(node, ast.Name) and node.id == "surd_cf") or (
                        isinstance(node, ast.Attribute) and node.attr == "surd_cf"
                    ):
                        uses.append((path.stem, getattr(top, "name", None)))
        assert uses == [("properties", "_prop_oracle_agreement")]
        assert importers == {"__init__", "properties"}


class TestConvergents:
    def test_sqrt2_table(self):
        sd = convergents((1, 2, 2), 3)
        assert sd.p == (0, 1, 2, 5)
        assert sd.q == (1, 1, 3, 7)

    def test_count_zero(self):
        sd = convergents((), 0)
        assert sd.p == (0,) and sd.q == (1,)

    def test_a_true_quotient_is_stored_as_an_int(self):
        sd = convergents([True, 2], 2)
        assert (sd.p, sd.q) == ((0, 1, 2), (1, 1, 3))
        assert all(type(k) is int for k in sd.p + sd.q)

    @pytest.mark.parametrize("count", [2.0, True, "2", None])
    def test_count_takes_only_an_int(self, count):
        with pytest.raises(DomainError, match="^convergents: count must be an integer, got "):
            convergents([1, 2, 3], count)

    def test_needs_enough_quotients(self):
        with pytest.raises(DomainError):
            convergents((1, 2), 3)
        with pytest.raises(DomainError):
            convergents((1, 0, 2), 3)

    def test_determinant_alternates(self):
        sd = convergents((1, 2, 2, 2, 2, 2), 6)
        for n in range(1, 7):
            assert sd.q[n] * sd.p[n - 1] - sd.p[n] * sd.q[n - 1] == (-1) ** n

    def test_remainders_sqrt2(self):
        sd = convergents((1, 2, 2), 3)
        a, b = QuadSurd(0, 1, 1, 2), 1
        assert remainder(0, a, b, sd) == 1
        assert remainder(1, a, b, sd) == QuadSurd(-1, 1, 1, 2)
        assert remainder(2, a, b, sd) == QuadSurd(3, -2, 1, 2)
        assert remainder(3, a, b, sd) == QuadSurd(-7, 5, 1, 2)

    def test_remainder_preconditions(self):
        sd = convergents((1, 2, 2), 3)
        with pytest.raises(DomainError):
            remainder(4, QuadSurd(0, 1, 1, 2), 1, sd)
        with pytest.raises(DomainError, match="^remainder: n must be >= 0$"):
            remainder(-1, QuadSurd(0, 1, 1, 2), 1, sd)
        with pytest.raises(DomainError):
            remainder(1, 1, QuadSurd(0, 1, 1, 2), sd)  # needs a > b
        # convergents of the wrong expansion produce a nonpositive remainder
        wrong = convergents((3, 3, 3), 3)
        with pytest.raises(DomainError):
            remainder(1, QuadSurd(0, 1, 1, 2), 1, wrong)

    @pytest.mark.parametrize("n", [1.0, True, "1", None])
    def test_remainder_takes_only_an_int(self, n):
        sd = convergents((1, 2, 2), 3)
        with pytest.raises(DomainError, match="^remainder: n must be an integer, got "):
            remainder(n, QuadSurd(0, 1, 1, 2), 1, sd)


class TestPeriodToForm:
    def test_goldens(self):
        assert period_to_form([2]) == QuadraticForm(EXCESS, 1, 2, 1)
        assert period_to_form([1]) == QuadraticForm(EXCESS, 1, 1, 1)
        assert period_to_form([1, 2]) == QuadraticForm(EXCESS, 2, 2, 1)

    def test_round_trip_examples(self):
        for per in ((2,), (1,), (1, 2), (3, 1, 2), (4, 4, 4)):
            form = period_to_form(per)
            cf, _ = run_anthyphairesis(form)
            assert cf == canonicalize_cf(ContinuedFraction((), per))
            assert cf.preperiod == ()

    def test_rejects_bad_periods(self):
        with pytest.raises(DomainError):
            period_to_form([])
        with pytest.raises(DomainError):
            period_to_form([1, 0])


def _state_space_brute(disc: int) -> int:
    count = 0
    for b in range(1, math.isqrt(disc) + 1):
        rest = disc - b * b
        if rest < 4 or rest % 4:
            continue
        m = rest // 4
        count += sum(1 for a in range(1, m + 1) if m % a == 0)
    return count


class TestStateSpace:
    def test_goldens(self):
        assert state_space_size(8) == 1
        assert state_space_size(5) == 1
        assert state_space_size(12) == 2
        assert state_space_size(1) == 0
        assert state_space_size(4) == 0

    def test_matches_brute_enumeration(self):
        for disc in range(5, 1200):
            assert state_space_size(disc) == _state_space_brute(disc), disc
        assert state_space_size(4_000_000) == 37666
        assert state_space_size(4_000_001) == 15430

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            state_space_size(0)

    @pytest.mark.parametrize("disc", [8.0, True, "8"])
    def test_takes_only_an_int(self, disc):
        msg = "state_space_size: discriminant must be an integer, got %r" % (disc,)
        with pytest.raises(DomainError, match="^%s$" % re.escape(msg)):
            state_space_size(disc)


class TestMinimalForm:
    def test_goldens(self):
        assert minimal_form(QuadSurd(0, 1, 1, 2)) == QuadraticForm(EXCESS, 1, 0, 2)
        assert minimal_form(QuadSurd(1, 1, 2, 5)) == QuadraticForm(EXCESS, 1, 1, 1)
        assert minimal_form(QuadSurd(3, 1, 2, 5)) == QuadraticForm(DEFECT, 1, 3, 1)
        assert minimal_form(QuadSurd(3, -1, 1, 2)) == QuadraticForm(
            DEFECT, 1, 6, 7, smaller_root=True
        )
        assert minimal_form(QuadSurd(-1, 2, 1, 2)) == QuadraticForm(MIXED, 1, 2, 7)

    def test_rational_returns_fraction(self):
        # a rational has no form: the caller expands it with euclid_cf
        with pytest.raises(DomainError, match=r"minimal_form: 7/2 is rational; use euclid_cf"):
            minimal_form(Fraction(7, 2))
        with pytest.raises(DomainError, match=r"minimal_form: 5 is rational; use euclid_cf"):
            minimal_form(5)

    def test_rejects_at_most_one(self):
        with pytest.raises(DomainError):
            minimal_form(1)
        with pytest.raises(DomainError):
            minimal_form(QuadSurd(-1, 1, 1, 2))

    def test_round_trip_form_root_form(self):
        rng = random.Random(5)
        checked = 0
        while checked < 300:
            kind = rng.choice((EXCESS, DEFECT, DEFECT, MIXED))
            a = rng.randint(1, 12)
            b = rng.randint(0 if kind == EXCESS else 1, 25)
            c = rng.randint(1, 12)
            smaller = kind == DEFECT and rng.random() < 0.3
            if math.gcd(math.gcd(a, b), c) != 1:
                continue  # only primitive forms are recovered verbatim
            try:
                form = QuadraticForm(kind, a, b, c, smaller_root=smaller)
            except DomainError:
                continue
            if is_perfect_square(form.disc) or not form.is_expandable:
                continue
            assert minimal_form(form.root()) == form
            checked += 1

    def test_non_primitive_form_reduces(self):
        # excess(2, 0, 4) has root sqrt(2); recovery yields the primitive form
        root = QuadraticForm(EXCESS, 2, 0, 4).root()
        assert minimal_form(root) == QuadraticForm(EXCESS, 1, 0, 2)
