"""Square-and-gnomon identities and the two application constructions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthyphairesis import (
    DomainError,
    QuadSurd,
    apply_in_defect,
    apply_in_excess,
    check_ii4,
    check_ii5,
    check_ii6,
    mean_proportional,
)

positive_fractions = st.fractions(min_value=Fraction(1, 100), max_value=100)


class TestIdentityChecks:
    def test_ii4_golden(self):
        rep = check_ii4(3, 2)
        assert rep.identity == "square_of_sum"
        assert rep.lhs == 25 and rep.rhs == 25 and rep.holds

    def test_ii5_golden(self):
        rep = check_ii5(10, 3)
        assert rep.identity == "gnomon_within"
        assert rep.lhs == 21 and rep.rhs == 21 and rep.holds

    def test_ii6_golden(self):
        rep = check_ii6(10, 3)
        assert rep.identity == "gnomon_beyond"
        assert rep.lhs == 64 and rep.rhs == 64 and rep.holds

    def test_fraction_inputs(self):
        assert check_ii4(Fraction(1, 2), Fraction(3, 4)).holds
        assert check_ii5(Fraction(7, 3), Fraction(1, 3)).holds
        assert check_ii6(Fraction(7, 3), Fraction(9, 2)).holds

    def test_ii5_needs_an_interior_cut_below_the_midpoint(self):
        with pytest.raises(DomainError):
            check_ii5(10, 5)
        with pytest.raises(DomainError):
            check_ii5(10, 6)

    def test_nonpositive_segments_rejected(self):
        for fn in (check_ii4, check_ii5, check_ii6):
            with pytest.raises(DomainError):
                fn(0, 1)
            with pytest.raises(DomainError):
                fn(4, Fraction(-1, 2))

    @settings(deadline=None)
    @given(positive_fractions, positive_fractions)
    def test_ii4_and_ii6_hold_everywhere(self, a, b):
        assert check_ii4(a, b).holds
        assert check_ii6(a, b).holds

    @settings(deadline=None)
    @given(positive_fractions, st.integers(3, 50))
    def test_ii5_holds_on_interior_cuts(self, a, k):
        assert check_ii5(a, a / k).holds


_ALL = (check_ii4, check_ii5, check_ii6, apply_in_defect, apply_in_excess, mean_proportional)


class TestSegments:
    def test_a_rational_quadsurd_is_a_segment(self):
        assert check_ii4(QuadSurd(1, 0, 2), QuadSurd(3)).lhs == Fraction(49, 4)
        assert check_ii5(QuadSurd(7, 0, 3), Fraction(1, 3)).holds
        assert check_ii6(7, QuadSurd(9, 0, 2)).holds
        assert apply_in_defect(QuadSurd(10), QuadSurd(4)) == 2
        assert apply_in_excess(QuadSurd(3), 2) == 1
        assert mean_proportional(QuadSurd(1), Fraction(4)) == QuadSurd(0, 1, 1, 3)
        assert apply_in_defect(4, mean_proportional(2, 4)) == 2

    def test_defect_application_takes_the_mean_proportional_itself(self):
        assert apply_in_defect(5, mean_proportional(4, 5)) == 1

    @pytest.mark.parametrize("fn", _ALL)
    @pytest.mark.parametrize("bad", [0.5, "1/2", True, QuadSurd(0, 1, 1, 2)])
    def test_anything_else_is_refused_naming_the_function(self, fn, bad):
        msg = "%s: argument must be an int, a Fraction or a rational QuadSurd, got %r" % (
            fn.__name__, bad,
        )
        for args in ((bad, 8), (8, bad)):
            with pytest.raises(DomainError) as info:
                fn(*args)
            assert str(info.value) == msg


class TestApplications:
    def test_defect_golden_rational(self):
        assert apply_in_defect(10, 4) == 2
        assert apply_in_defect(10, 5) == 5  # boundary: the midpoint

    def test_defect_golden_surd(self):
        assert apply_in_defect(4, 1) == QuadSurd(2, -1, 1, 3)

    def test_defect_needs_a_small_enough_square(self):
        with pytest.raises(DomainError):
            apply_in_defect(10, 6)
        with pytest.raises(DomainError):
            apply_in_defect(10, 0)

    def test_excess_golden(self):
        assert apply_in_excess(10, 6) == QuadSurd(-5, 1, 1, 61)
        assert apply_in_excess(2, 2) == QuadSurd(-1, 1, 1, 5)
        assert apply_in_excess(3, 2) == Fraction(1)

    def test_defining_products(self):
        rng = random.Random(13)
        for _ in range(500):
            a = Fraction(rng.randint(1, 60), rng.randint(1, 9))
            m = a / 2 * Fraction(rng.randint(1, 8), 8)
            x = apply_in_defect(a, m)
            assert x * (a - x) == m * m
            assert 0 < x <= a / 2
            y = apply_in_excess(a, m)
            assert y * (a + y) == m * m
            assert y > 0


class TestMeanProportional:
    def test_goldens(self):
        assert mean_proportional(1, 4) == QuadSurd(0, 1, 1, 3)
        assert mean_proportional(2, 4) == 2

    def test_bounds(self):
        with pytest.raises(DomainError):
            mean_proportional(4, 4)
        with pytest.raises(DomainError):
            mean_proportional(5, 4)
        with pytest.raises(DomainError):
            mean_proportional(0, 4)

    def test_defect_application_recovers_the_smaller_cut(self):
        # x = 4 cuts a = 5 with mean 2; re-applying chooses the cut 1
        m = mean_proportional(4, 5)
        assert m == 2
        assert apply_in_defect(5, Fraction(2)) == 1

    def test_square_equals_rectangle(self):
        rng = random.Random(17)
        for _ in range(500):
            a = Fraction(rng.randint(2, 50), rng.randint(1, 7))
            x = a * Fraction(rng.randint(1, 7), 8)
            m = mean_proportional(x, a)
            assert m * m == x * (a - x)
            assert m > 0
