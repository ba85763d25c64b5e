"""Proportion calculus: ratio equality, cross products, propositions."""

import random
from fractions import Fraction

import pytest

from anthyphairesis import engine
from anthyphairesis import (
    AREA,
    LINE,
    ContinuedFraction,
    DomainError,
    IndeterminateError,
    Magnitude,
    PROPOSITIONS,
    QuadSurd,
    anth_of_ratio,
    as_surd,
    check_proposition,
    commensurable_pure,
    cross_product_eq,
    euclid_cf,
    is_perfect_square,
    line,
    mixed_ratio_eq,
    ratio_eq,
    rectangle,
    run_anthyphairesis,
    square_ratio_witness,
    surd_cf,
)

SQRT2 = QuadSurd(0, 1, 1, 2)
SQRT3 = QuadSurd(0, 1, 1, 3)
GOLDEN = QuadSurd(1, 1, 2, 5)
# two states of the sqrt(139) cycle: their words (1, 3, 1, 3, 7, ...) and
# (1, 3, 1, 22, ...) share the prefix (1, 3, 1)
X139 = QuadSurd(11, 1, 18, 139)
Y139 = QuadSurd(7, 1, 15, 139)
BIG = QuadSurd(0, 1, 1, 10**12 + 39)  # period 532572


class TestMagnitude:
    def test_positivity_and_role(self):
        with pytest.raises(DomainError):
            line(0)
        with pytest.raises(DomainError):
            line(QuadSurd(1, -1, 1, 2))  # 1 - sqrt(2) < 0
        with pytest.raises(DomainError):
            Magnitude(QuadSurd(1), "volume")

    def test_add_sub_same_role_only(self):
        a, b = line(3), line(1)
        assert (a + b).value == 4
        assert (a - b).value == 2
        with pytest.raises(DomainError):
            a + rectangle(line(1), line(1))
        with pytest.raises(DomainError):
            a - rectangle(line(1), line(1))
        with pytest.raises(DomainError):
            b - a  # difference must stay positive

    def test_rectangle(self):
        r = rectangle(line(SQRT2), line(SQRT2))
        assert r.role == AREA and r.value == 2
        with pytest.raises(DomainError):
            rectangle(r, line(1))

    def test_str(self):
        assert str(line(SQRT2)) == "line sqrt(2)"


class TestAnthOfRatio:
    def test_quadratic_ratio_uses_the_form_engine(self):
        assert anth_of_ratio(line(SQRT2), line(1)) == ContinuedFraction((1,), (2,))
        assert anth_of_ratio(line(GOLDEN), line(1)) == ContinuedFraction((), (1,))

    def test_ratio_below_one_gets_head_zero(self):
        cf = anth_of_ratio(line(1), line(SQRT2))
        assert cf == ContinuedFraction((0, 1), (2,))

    def test_rational_ratio_is_euclidean(self):
        assert anth_of_ratio(line(3), line(2)) == ContinuedFraction((1, 2))
        assert anth_of_ratio(line(Fraction(1, 2)), line(1)) == ContinuedFraction((0, 2))

    def test_scaling_leaves_the_expansion_alone(self):
        base = anth_of_ratio(line(SQRT2), line(1))
        assert anth_of_ratio(line(QuadSurd(0, 3, 1, 2)), line(3)) == base

    def test_requires_magnitudes_of_one_role(self):
        with pytest.raises(DomainError):
            anth_of_ratio(line(1), rectangle(line(1), line(1)))
        with pytest.raises(DomainError):
            anth_of_ratio(SQRT2, line(1))

    def test_cross_field_pair_has_no_ratio(self):
        with pytest.raises(DomainError):
            anth_of_ratio(line(SQRT2), line(SQRT3))

    @pytest.mark.parametrize(
        "call, caller",
        [
            (lambda: anth_of_ratio(line(SQRT2), line(SQRT3)), "anth_of_ratio"),
            (
                lambda: ratio_eq(line(3), line(1 + SQRT2), line(SQRT3), line(SQRT2)),
                "ratio_eq",
            ),
            (lambda: mixed_ratio_eq(line(1 + SQRT2), line(SQRT3), 2, 1), "mixed_ratio_eq"),
            (
                lambda: PROPOSITIONS["alternando"][1](
                    [line(SQRT2), line(SQRT3), line(1), line(1)], 100
                ),
                "check_proposition",
            ),
        ],
    )
    def test_cross_field_ratio_error_names_the_caller(self, call, caller):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) in (
            "%s: values lie in distinct quadratic fields (sqrt(%d) vs sqrt(%d))"
            % (caller, p, q) for p, q in ((2, 3), (3, 2))
        )

    @pytest.mark.parametrize("a, b", [(SQRT2, 1), (1, SQRT2), (3, 2)])
    def test_negative_budget_is_rejected_for_every_ratio(self, a, b):
        with pytest.raises(DomainError):
            anth_of_ratio(line(a), line(b), max_steps=-1)

    def test_one_path_matches_the_oracle(self):
        """The form engine, head 0 included, against the generic recurrence."""
        rng = random.Random(20261018)
        values = [GOLDEN.inverse(), SQRT2, as_surd(Fraction(1, 2)), as_surd(7)]
        for _ in range(60):
            d = rng.choice((2, 3, 5, 7, 13, 19, 31, 46, 94, 139, 1009))
            x = QuadSurd(rng.randint(-40, 40), rng.randint(1, 9), rng.randint(1, 40), d)
            if not x > 0:
                x = -x + QuadSurd(rng.randint(0, 2))
            values += [x, x.inverse(), as_surd(Fraction(rng.randint(1, 99), rng.randint(1, 99)))]
        kinds = {(x > 1, x.is_rational) for x in values}
        assert kinds == {(True, False), (False, False), (True, True), (False, True)}
        for x in values:
            for steps in (0, 1, 2, 3, 10_000):
                got = anth_of_ratio(line(x), line(1), steps)
                want = surd_cf(x, steps)
                assert (got.preperiod, got.period, got.truncated) == (
                    want.preperiod, want.period, want.truncated,
                ), (x, steps)
        golden = anth_of_ratio(line(1), line(GOLDEN))
        assert (golden.preperiod, golden.period) == ((0,), (1,))


class TestRatioEq:
    def test_goldens(self):
        assert ratio_eq(line(SQRT2), line(1), line(2), line(SQRT2))
        assert not ratio_eq(line(GOLDEN), line(1), line(SQRT2), line(1))

    def test_distinct_fields_compare_unequal(self):
        # sqrt(2):1 expands [1; (2)], sqrt(3):1 expands [1; (1, 2)]
        assert not ratio_eq(line(SQRT2), line(1), line(SQRT3), line(1))

    def test_truncation_is_undecided(self):
        # the verdict needs 4 lockstep rounds, and max_steps buys 2 * max_steps
        pairs = (line(X139), line(1), line(Y139), line(1))
        with pytest.raises(IndeterminateError):
            ratio_eq(*pairs, max_steps=1)
        for steps in (2, 3, 10_000):
            assert not ratio_eq(*pairs, max_steps=steps)


class TestCrossProductEq:
    def test_goldens(self):
        assert cross_product_eq(line(SQRT2), line(1), line(2), line(SQRT2))
        assert not cross_product_eq(line(SQRT2), line(1), line(3), line(2))

    def test_rationals_join_any_field(self):
        assert cross_product_eq(line(SQRT2), line(1), line(2), line(SQRT2))
        assert not cross_product_eq(line(2), line(1), line(3), line(1))

    def test_distinct_fields_are_rejected(self):
        with pytest.raises(DomainError):
            cross_product_eq(line(SQRT2), line(1), line(SQRT3), line(1))

    def test_role_mismatch_rejected(self):
        with pytest.raises(DomainError):
            cross_product_eq(line(1), line(1), rectangle(line(1), line(1)), line(1))

    def test_matches_ratio_eq_on_random_same_field_pairs(self):
        rng = random.Random(7)
        for _ in range(150):
            d = rng.choice((1, 2, 3, 5))
            x = QuadSurd(rng.randint(0, 3), rng.randint(0 if d > 1 else 1, 2), rng.randint(1, 3), d)
            if not x > 0:
                continue
            b1 = QuadSurd(rng.randint(1, 4))
            b2 = QuadSurd(rng.randint(1, 4))
            c = line(b2 * x) if rng.random() < 0.5 else line(b2 * x + 1)
            pairs = (line(b1 * x), line(b1), c, line(b2))
            assert ratio_eq(*pairs) == cross_product_eq(*pairs)


class TestMixedRatioEq:
    def test_goldens(self):
        assert mixed_ratio_eq(line(17), line(5), 17, 5)
        assert mixed_ratio_eq(line(Fraction(17, 5)), line(1), 17, 5)
        assert not mixed_ratio_eq(line(SQRT2), line(1), 3, 2)
        assert not mixed_ratio_eq(line(17), line(5), 7, 2)

    def test_rejects_bad_numbers(self):
        with pytest.raises(DomainError):
            mixed_ratio_eq(line(1), line(1), 0, 2)
        with pytest.raises(DomainError):
            mixed_ratio_eq(line(1), line(1), 2, -1)
        with pytest.raises(DomainError):
            mixed_ratio_eq(line(1), line(1), True, True)
        with pytest.raises(DomainError):
            mixed_ratio_eq(line(1), line(1), 1, False)


def _prefixed(prefix, z):
    """The value whose expansion is prefix followed by that of z > 1."""
    for k in reversed(prefix):
        z = z.inverse() + k
    return z


def _full_expansion_eq(a, b, c, d, steps):
    """Equality of two whole expansions, the lockstep's oracle; None if either is truncated."""
    lhs, rhs = anth_of_ratio(a, b, steps), anth_of_ratio(c, d, steps)
    if lhs.truncated or rhs.truncated:
        return None
    return lhs == rhs


def _ratio_value(rng, d):
    while True:
        x = QuadSurd(rng.randint(-40, 40), rng.randint(1, 9), rng.randint(1, 40), d)
        if x > 0:
            return x


def _ratio_pairs(rng):
    """Seeded value pairs: equal, unequal, long shared prefix, rational, mixed fields."""
    fields = (2, 3, 5, 7, 13, 46, 139, 1009)
    out = []
    for _ in range(60):
        d = rng.choice(fields)
        x = _ratio_value(rng, d)
        out.append((x, x))
        out.append((x, _ratio_value(rng, d)))
        other = rng.choice([e for e in fields if e != d])
        out.append((x, _ratio_value(rng, other)))
        q = as_surd(Fraction(rng.randint(1, 99), rng.randint(1, 99)))
        out.append((x, q))
        out.append((q, q if rng.random() < 0.5 else q + Fraction(1, rng.randint(1, 9))))
        # the cycle states X139, Y139 behind a common prefix of 0 to 40 quotients
        prefix = [rng.randint(1, 9) for _ in range(rng.randint(0, 40))]
        out.append((_prefixed(prefix, X139), _prefixed(prefix, Y139)))
    return out


class TestLockstep:
    """Verdicts step two forms together and stop at the first disagreement."""

    def test_agrees_with_full_expansion_equality(self):
        rng = random.Random(1829)
        outcomes = set()
        for x, y in _ratio_pairs(rng):
            s, t = _ratio_value(rng, 2 if x.is_rational else x.d), as_surd(rng.randint(1, 5))
            a, b, c, d = line(x * s), line(s), line(y * t), line(t)
            # both orientations, and each ratio below 1 against one above
            for pairs in ((a, b, c, d), (b, a, d, c), (a, b, d, c), (c, d, a, b)):
                truth = _full_expansion_eq(*pairs, 100_000)
                assert truth is not None
                for steps in (0, 1, 3, 10_000):
                    want = _full_expansion_eq(*pairs, steps)
                    try:
                        got = ratio_eq(*pairs, max_steps=steps)
                    except IndeterminateError:
                        assert want is None, (pairs, steps)
                        outcomes.add("undecided")
                        continue
                    assert got == truth, (pairs, steps)
                    outcomes.add(got if want is not None else "decided early")
        assert outcomes == {True, False, "undecided", "decided early"}

    def test_mixed_agrees_with_full_expansion_equality(self):
        rng = random.Random(1830)
        for _ in range(300):
            m, n = rng.randint(1, 30), rng.randint(1, 30)
            d = rng.choice((1, 2, 5, 139))
            b = _ratio_value(rng, d)
            x = as_surd(Fraction(m, n)) if rng.random() < 0.5 else _ratio_value(rng, d)
            a = x * b
            if rng.random() < 0.3:
                m, n = rng.randint(1, 30), rng.randint(1, 30)
            for steps in (0, 1, 3, 10_000):
                lhs = anth_of_ratio(line(a), line(b), steps)
                want = None if lhs.truncated else lhs == euclid_cf(m, n)
                got = mixed_ratio_eq(line(a), line(b), m, n, max_steps=steps)
                assert got == (x == Fraction(m, n))
                assert want is None or got == want

    def test_decides_what_full_expansion_could_not(self):
        x, one = line(BIG), line(1)
        assert anth_of_ratio(x, one).truncated  # its period outruns the default budget
        assert not mixed_ratio_eq(x, one, 3, 1)
        assert ratio_eq(x, one, line(2 * BIG), line(2))
        report = check_proposition("alternando", [x, one, line(2 * BIG), line(2)])
        assert report.hypotheses_hold and report.conclusion_holds
        assert report.lhs_cf == report.rhs_cf == ContinuedFraction((0, 2))

    def test_verdict_costs_its_first_disagreement(self, monkeypatch):
        steps = []
        real = engine._step
        monkeypatch.setattr(engine, "_step", lambda *t: steps.append(t) or real(*t))
        x, one, two = line(BIG), line(1), line(2)
        assert not mixed_ratio_eq(x, one, 3, 1)  # irrational against a number
        assert ratio_eq(x, one, line(2 * BIG), two)  # one form, before any step
        assert ratio_eq(one, x, two, line(2 * BIG))  # below 1: the reciprocals
        assert not ratio_eq(x, one, one, x)  # above 1 against below 1
        assert steps == []
        for prefix in ([], [2, 1, 5], [1] * 30):
            # shared prefix: the given quotients, then (1, 3, 1)
            a, c = line(_prefixed(prefix, X139)), line(_prefixed(prefix, Y139))
            steps.clear()
            assert not ratio_eq(a, one, c, one)
            assert len(steps) <= 2 * (len(prefix) + 3 + 1)

    def test_shown_pair_only_is_expanded(self, monkeypatch):
        runs = []
        real = run_anthyphairesis
        monkeypatch.setattr(
            "anthyphairesis.ratios.run_anthyphairesis",
            lambda form, n: runs.append(form) or real(form, n),
        )
        # the hypothesis pair x : 1, 2x : 2 holds and is not shown
        report = check_proposition("alternando", [line(BIG), line(1), line(2 * BIG), line(2)])
        assert report.conclusion_holds and runs == []
        # plus_unit shows its conclusion (x + 1) : 1 on both sides: one expansion
        mags = _lines(X139, 1, 2 * X139, 2)
        report = check_proposition("plus_unit", mags)
        assert report.conclusion_holds and report.lhs_cf == report.rhs_cf
        assert len(runs) == 1

    @pytest.mark.parametrize("check", ["check_proposition", "ratio_eq", "mixed_ratio_eq"])
    def test_negative_budget_is_a_caller_error(self, check):
        mags = _lines(2, 1, 4, 2)
        calls = {
            "check_proposition": lambda: check_proposition("alternando", mags, max_steps=-1),
            "ratio_eq": lambda: ratio_eq(*mags, max_steps=-1),
            "mixed_ratio_eq": lambda: mixed_ratio_eq(mags[0], mags[1], 2, 1, max_steps=-1),
        }
        with pytest.raises(DomainError, match="%s: max_steps must be >= 0" % check):
            calls[check]()


class TestCommensurability:
    def test_goldens(self):
        assert commensurable_pure(1, 1)
        assert commensurable_pure(9, 4)
        assert commensurable_pure(8, 2)  # reduces to 4 : 1
        assert not commensurable_pure(1, 2)
        assert not commensurable_pure(2, 3)

    def test_witness_goldens(self):
        assert square_ratio_witness(9, 4) == (3, 2)
        assert square_ratio_witness(8, 2) == (2, 1)
        assert square_ratio_witness(2, 1) is None
        assert square_ratio_witness(50, 2) == (5, 1)

    def test_witness_certifies_the_relation(self):
        rng = random.Random(3)
        for _ in range(500):
            a = rng.randint(1, 300)
            c = rng.randint(1, 300)
            w = square_ratio_witness(c, a)
            assert (w is not None) == commensurable_pure(a, c)
            assert (w is not None) == is_perfect_square(a * c)
            if w is not None:
                m, n = w
                assert c * n * n == a * m * m

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            commensurable_pure(0, 1)
        with pytest.raises(DomainError):
            square_ratio_witness(1, 0)


def _lines(*values):
    return [line(v) for v in values]


def _areas(*values):
    return [Magnitude(v, AREA) for v in values]


S2 = SQRT2
S2_2 = QuadSurd(0, 2, 1, 2)  # 2*sqrt(2)
S2_3 = QuadSurd(0, 3, 1, 2)  # 3*sqrt(2)


# one constructive instance per proposition: hypotheses and conclusion hold
CONSTRUCTIVE = {
    "transitivity": _lines(S2, 1, S2_2, 2, S2_3, 3),
    "fundamental": _lines(S2, 1, 2, S2),
    "v9_cancel": _lines(S2, 1, 1),
    "alternando": _lines(S2_2, 2, S2, 1),
    "ex_aequali": _lines(S2_2, 2, 1, QuadSurd(0, 6, 1, 2), 6, 3),
    "perturbed": _lines(S2_2, 2, 1, 4, 2, S2),
    "componendo_pairs": _lines(S2, 1, S2_2, 2),
    "separando_pairs": _lines(S2_2, 2, S2, 1),
    "plus_unit": _lines(S2, 1, S2_2, 2),
    "minus_unit": _lines(QuadSurd(2, 1, 1, 2), 1, QuadSurd(4, 2, 1, 2), 2),
    "topics_scaling": _lines(S2, 1, Fraction(3, 2)),
    "area_v9": _areas(S2_2, S2, S2),
    "area_alternando": _areas(S2_2, QuadSurd(2), S2, QuadSurd(1)),
    "area_ex_aequali": _areas(S2_2, QuadSurd(2), QuadSurd(1), QuadSurd(0, 6, 1, 2), QuadSurd(6), QuadSurd(3)),
    "area_mixed_ex_aequali": _areas(S2_2, QuadSurd(2), QuadSurd(1)) + _lines(S2, 1, Fraction(1, 2)),
    "area_perturbed": _areas(S2_2, QuadSurd(2), QuadSurd(1), QuadSurd(4), QuadSurd(2), S2),
    "area_mixed_perturbed": _areas(S2_2, QuadSurd(2), QuadSurd(1)) + _lines(S2_2, S2, 1),
}

# same arity, first hypothesis broken
BROKEN = {
    "transitivity": _lines(S2, 1, S2, 1, 2, 1),
    "fundamental": _lines(S2, 1, 3, 1),
    "v9_cancel": _lines(S2, 1, 2),
    "alternando": _lines(S2, 1, 3, 1),
    "ex_aequali": _lines(S2, 1, 1, 3, 1, 1),
    "perturbed": _lines(S2, 1, 1, 1, 1, 3),
    "componendo_pairs": _lines(S2, 1, 3, 1),
    "separando_pairs": _lines(S2, 1, S2_2, 2),  # proportional but not ordered
    "plus_unit": _lines(S2, 1, 3, 1),
    "minus_unit": _lines(S2, 1, S2_2, 2),  # remainder does not exceed consequent
    "topics_scaling": _lines(S2, 1, SQRT3),  # the rectangles do not exist
    "area_v9": _areas(S2_2, S2, QuadSurd(1)),
    "area_alternando": _areas(S2, QuadSurd(1), QuadSurd(3), QuadSurd(1)),
    "area_ex_aequali": _areas(S2, QuadSurd(1), QuadSurd(1), QuadSurd(3), QuadSurd(1), QuadSurd(1)),
    "area_mixed_ex_aequali": _areas(S2, QuadSurd(1), QuadSurd(1)) + _lines(3, 1, 1),
    "area_perturbed": _areas(S2, QuadSurd(1), QuadSurd(1), QuadSurd(1), QuadSurd(1), QuadSurd(3)),
    "area_mixed_perturbed": _areas(S2, QuadSurd(1), QuadSurd(1)) + _lines(1, 1, 3),
}

R2 = ContinuedFraction((1,), (2,))  # sqrt(2) : 1
R3 = ContinuedFraction((3,))  # 3 : 1

# the expansions each BROKEN report shows: its first unequal hypothesis
# pair, its first hypothesis pair when a condition fails, or None when
# there is no hypothesis pair to show
BROKEN_SHOWN = {
    "transitivity": (R2, ContinuedFraction((2,))),
    "fundamental": (None, None),
    "v9_cancel": (R2, ContinuedFraction((0, 1), (2,))),
    "alternando": (R2, R3),
    "ex_aequali": (R2, R3),
    "perturbed": (R2, ContinuedFraction((0, 3))),
    "componendo_pairs": (R2, R3),
    "separando_pairs": (R2, R2),  # the ordering fails, not the proportion
    "plus_unit": (R2, R3),
    "minus_unit": (R2, R2),  # the remainder condition fails
    "topics_scaling": (None, None),
    "area_v9": (ContinuedFraction((2,)), ContinuedFraction((2,), (1, 4))),
    "area_alternando": (R2, R3),
    "area_ex_aequali": (R2, R3),
    "area_mixed_ex_aequali": (R2, R3),
    "area_perturbed": (R2, ContinuedFraction((0, 3))),
    "area_mixed_perturbed": (R2, ContinuedFraction((0, 3))),
}


class TestPropositions:
    def test_registry_shape(self):
        assert len(PROPOSITIONS) == 17
        for name, (roles, fn) in PROPOSITIONS.items():
            assert len(roles) in (3, 4, 6)
            assert set(roles) <= {LINE, AREA}
            assert callable(fn)
        assert set(CONSTRUCTIVE) == set(PROPOSITIONS) == set(BROKEN)

    @pytest.mark.parametrize("name", sorted(PROPOSITIONS))
    def test_constructive_instance_passes(self, name):
        report = check_proposition(name, CONSTRUCTIVE[name])
        assert report.proposition == name
        assert report.hypotheses_hold, name
        assert report.conclusion_holds, name
        assert report.lhs_cf is not None and report.rhs_cf is not None
        assert report.lhs_cf == report.rhs_cf or name in ("v9_cancel", "area_v9")

    @pytest.mark.parametrize("name", sorted(PROPOSITIONS))
    def test_broken_hypothesis_is_reported_not_raised(self, name):
        report = check_proposition(name, BROKEN[name])
        assert not report.hypotheses_hold
        assert not report.conclusion_holds
        assert (report.lhs_cf, report.rhs_cf) == BROKEN_SHOWN[name]

    def test_cross_field_hypothesis_reports_missing_expansions(self):
        report = check_proposition("fundamental", _lines(S2, 1, SQRT3, 1))
        assert report == check_proposition("fundamental", _lines(S2, 1, SQRT3, 1))
        assert not report.hypotheses_hold
        assert report.lhs_cf is None and report.rhs_cf is None

    def test_cross_field_conclusion_ratio_fails_the_hypotheses(self):
        # 2*sqrt(2) : sqrt(2) and 2*sqrt(3) : sqrt(3) are both 2 : 1, but
        # alternation would need a ratio across fields
        mags = _lines(S2_2, S2, QuadSurd(0, 2, 1, 3), SQRT3)
        report = check_proposition("alternando", mags)
        assert not report.hypotheses_hold
        assert report.lhs_cf == ContinuedFraction((2,))

    def test_cross_field_sum_fails_componendo(self):
        mags = _lines(S2_2, S2, QuadSurd(0, 2, 1, 3), SQRT3)
        report = check_proposition("componendo_pairs", mags)
        assert not report.hypotheses_hold
        assert report.lhs_cf == ContinuedFraction((2,))

    def test_cross_field_ex_aequali_conclusion(self):
        mags = _lines(S2, 1, SQRT3, QuadSurd(0, 2, 1, 2), 2, QuadSurd(0, 2, 1, 3))
        report = check_proposition("ex_aequali", mags)
        assert not report.hypotheses_hold
        assert report.lhs_cf == ContinuedFraction((1,), (2,))

    def test_caller_errors_are_raised(self):
        with pytest.raises(DomainError):
            check_proposition("nope", [])
        with pytest.raises(DomainError):
            check_proposition("fundamental", _lines(1, 1, 1))
        with pytest.raises(DomainError):
            check_proposition("fundamental", _lines(1, 1, 1) + [SQRT2])
        with pytest.raises(DomainError):
            check_proposition("area_v9", _lines(1, 1, 1))

    def test_truncation_propagates(self):
        # the lockstep decides both verdicts; the shown pair is only
        # truncated by the budget, and that raises nothing
        big = QuadSurd(0, 1, 1, 139)
        mags = _lines(big, 1, QuadSurd(0, 2, 1, 139), 2)
        report = check_proposition("fundamental", mags, max_steps=2)
        assert report.hypotheses_hold and report.conclusion_holds
        for cf in (report.lhs_cf, report.rhs_cf):
            assert cf.truncated and cf.preperiod == (11, 1)

    def test_failed_condition_needs_no_expansion(self):
        # sqrt(139) : 1 against 3*sqrt(139) : 2 fails the cross product,
        # which decides the report before any truncated expansion is asked for
        mags = _lines(QuadSurd(0, 1, 1, 139), 1, QuadSurd(0, 3, 1, 139), 2)
        report = check_proposition("fundamental", mags, max_steps=2)
        assert not report.hypotheses_hold and not report.conclusion_holds
        assert report.lhs_cf is None and report.rhs_cf is None
