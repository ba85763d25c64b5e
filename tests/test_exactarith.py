"""Exact quadratic arithmetic: normal forms, ordering, floor.

The heavy checks compare against a 200-bit mpmath evaluation; the gap
between distinct representable values at the tested component sizes is
far above the oracle's rounding error, so disagreement means a bug.
"""

import random
import re
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anthyphairesis import (
    DomainError,
    QuadSurd,
    as_surd,
    exactarith,
    is_perfect_square,
    isqrt,
    line,
    ratio_eq,
    rational_sqrt,
    square_free_split,
    surd_cf,
)

ORACLE_TRIALS = 10_000


def mpval(x: QuadSurd) -> mpmath.mpf:
    return (x.u + x.v * mpmath.sqrt(x.d)) / x.w


class TestNormalization:
    def test_rational_collapse(self):
        assert QuadSurd(2, 0, 4) == QuadSurd(1, 0, 2)
        assert QuadSurd(2, 0, 4, 7).d == 1  # v == 0 forgets the field

    def test_square_part_extraction(self):
        x = QuadSurd(0, 2, 2, 8)  # 2*sqrt(8)/2 = 2*sqrt(2)
        assert (x.u, x.v, x.w, x.d) == (0, 2, 1, 2)

    def test_perfect_square_radicand_folds(self):
        assert QuadSurd(1, 1, 1, 9) == 4
        assert QuadSurd(1, 1, 1, 9).is_rational

    def test_negative_denominator_flips(self):
        x = QuadSurd(1, 1, -2, 2)
        assert (x.u, x.v, x.w) == (-1, -1, 2)

    def test_gcd_reduction(self):
        x = QuadSurd(2, 4, 6, 5)
        assert (x.u, x.v, x.w, x.d) == (1, 2, 3, 5)

    def test_zero_normal_form(self):
        assert QuadSurd(0, 0, 5, 3) == QuadSurd(0)
        assert QuadSurd(0).is_zero

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            QuadSurd(1, 1, 0, 2)

    def test_nonpositive_radicand_rejected(self):
        with pytest.raises(DomainError):
            QuadSurd(1, 1, 1, -2)
        with pytest.raises(DomainError):
            QuadSurd(1, 1, 1, 0)

    def test_non_int_component_rejected(self):
        with pytest.raises(DomainError):
            QuadSurd(1.5, 0, 1, 1)  # type: ignore[arg-type]
        for bad in ((True, 1, 1, 2), (1, True, 1, 2), (1, 1, True, 2), (1, 1, 1, True)):
            with pytest.raises(DomainError):
                QuadSurd(*bad)

    def test_int_subclass_component_accepted(self):
        class MyInt(int):
            pass

        assert QuadSurd(MyInt(3), 1, 2, 5) == QuadSurd(3, 1, 2, 5)
        assert QuadSurd(3, MyInt(1), MyInt(2), MyInt(5)) == QuadSurd(3, 1, 2, 5)

    def test_equality_is_value_equality(self):
        assert QuadSurd(1, 1, 2, 5) == QuadSurd(2, 2, 4, 5)
        assert QuadSurd(3, 0, 1) == 3
        assert QuadSurd(1, 0, 2) == Fraction(1, 2)
        assert hash(QuadSurd(3, 0, 1)) == hash(Fraction(3))
        assert Fraction(1, 2) == QuadSurd(1, 0, 2) and 3 == QuadSurd(3)
        for x in (QuadSurd(1), QuadSurd(0, 1, 1, 2)):
            for other in (True, 1.0, None, "1"):
                assert x != other and other != x
        assert QuadSurd(0, 1, 1, 2) != 1 and QuadSurd(1, 1, 2, 5) != Fraction(1, 2)


class TestIntegerHelpers:
    def test_isqrt(self):
        assert isqrt(0) == 0
        assert isqrt(10**40) == 10**20
        assert isqrt(10**40 - 1) == 10**20 - 1
        with pytest.raises(DomainError):
            isqrt(-1)

    def test_is_perfect_square(self):
        squares = {n * n for n in range(50)}
        for n in range(500):
            assert is_perfect_square(n) == (n in squares)
        assert not is_perfect_square(-4)

    def test_square_free_split(self):
        assert square_free_split(1) == (1, 1)
        assert square_free_split(4) == (2, 1)
        assert square_free_split(8) == (2, 2)
        assert square_free_split(12) == (2, 3)
        assert square_free_split(360) == (6, 10)
        for n in range(1, 400):
            s, d = square_free_split(n)
            assert s * s * d == n
            # d squarefree: no prime square divides it
            for p in (2, 3, 5, 7, 11, 13, 17, 19):
                assert d % (p * p) != 0

    def test_square_free_split_matches_sympy(self):
        """Against sympy.factorint, up to just below 2**63.

        Trial division stops at the cube root of what is left, so the
        cases that decide correctness are p*p, p*q and p*p*q with p and
        q near that root, where the cofactor test has to tell them apart.
        """
        assert square_free_split(4 * (10**16 + 61)) == (2, 10**16 + 61)
        p = sympy.prevprime(10**5)
        q = sympy.nextprime(10**5)
        r = sympy.nextprime(q)
        big = sympy.nextprime(10**7)
        near_cap = sympy.prevprime(3 * 10**9) * sympy.nextprime(3 * 10**9)  # < 2**63
        cases = [p * p, p * q, p * p * q, p * q * q, p * q * r, big * big,
                 big * sympy.nextprime(big), 6 * big * big, 10**16 + 61, near_cap]
        rng = random.Random(20261017)
        cases += [int(10 ** rng.uniform(0, 18)) for _ in range(40)]
        for n in cases:
            s, d = 1, 1
            for prime, e in sympy.factorint(n).items():
                s *= prime ** (e // 2)
                d *= prime ** (e % 2)
            assert square_free_split(n) == (s, d), n

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == QuadSurd(2, 0, 3)
        assert rational_sqrt(2) == QuadSurd(0, 1, 1, 2)
        assert rational_sqrt(0) == 0
        with pytest.raises(DomainError):
            rational_sqrt(Fraction(-1, 2))

    def test_rational_sqrt_takes_only_ints_and_fractions(self):
        # a float, a string or a bool is no exact rational argument
        for x in (0.5, 0.1, "2/9", True, False):
            msg = "rational_sqrt: argument must be an int or a Fraction, got %r" % (x,)
            with pytest.raises(DomainError, match="^%s$" % re.escape(msg)):
                rational_sqrt(x)


class TestArithmetic:
    def test_golden_ratio_satisfies_its_equation(self):
        phi = QuadSurd(1, 1, 2, 5)
        assert phi * phi == phi + 1

    def test_conjugate_product(self):
        assert QuadSurd(-1, 1, 1, 2) * QuadSurd(1, 1, 1, 2) == 1

    def test_inverse_golden(self):
        assert QuadSurd(-1, 1, 1, 2).inverse() == QuadSurd(1, 1, 1, 2)
        x = QuadSurd(3, 2, 7, 5)
        assert x * x.inverse() == 1

    def test_inverse_of_zero_rejected(self):
        with pytest.raises(DomainError):
            QuadSurd(0).inverse()

    def test_mixed_operand_kinds(self):
        x = QuadSurd(0, 1, 1, 2)
        assert x + 1 == QuadSurd(1, 1, 1, 2)
        assert 1 + x == QuadSurd(1, 1, 1, 2)
        assert x * Fraction(1, 2) == QuadSurd(0, 1, 2, 2)
        assert 3 - x == QuadSurd(3, -1, 1, 2)
        assert (2 / x) == x  # 2/sqrt(2) = sqrt(2)

    def test_distinct_fields_rejected(self):
        with pytest.raises(DomainError):
            QuadSurd(0, 1, 1, 2) + QuadSurd(0, 1, 1, 3)
        # rationals join any field
        assert QuadSurd(1, 0, 2) + QuadSurd(0, 1, 1, 3) == QuadSurd(1, 2, 2, 3)
        root2, root3 = QuadSurd(0, 1, 1, 2), QuadSurd(0, 1, 1, 3)
        fields = r"^values lie in distinct quadratic fields \(sqrt\(2\) vs sqrt\(3\)\)$"
        for x, y in ((root2, root3), (root2 + 1, root3 - 1)):
            with pytest.raises(DomainError, match=fields):
                x / y

    def test_division_by_zero_rejected(self):
        surd, zero = QuadSurd(1, 1, 1, 2), QuadSurd(0)
        for x, y in ((surd, 0), (surd, zero), (zero, 0), (Fraction(1, 2), zero)):
            with pytest.raises(DomainError, match="^inverse: value is zero$"):
                x / y

    def test_division_is_multiplication_by_the_inverse(self):
        """x / y, normalized once, against x * y.inverse(), normalized twice.

        Seeded operands of six fields, each side rational in about a third
        of the pairs, and int and Fraction operands on either side.
        """
        rng = random.Random(1604)

        def value(d):
            u, w = rng.randint(-60, 60), rng.randint(1, 40)
            v = 0 if rng.random() < 0.35 else rng.randint(-30, 30)
            return QuadSurd(u, v, w, d)

        kinds = set()
        for _ in range(4000):
            d = rng.choice((2, 3, 5, 13, 139, 1000003))
            x, y = value(d), value(d)
            if y.is_zero:
                continue
            kinds.add((x.is_rational, y.is_rational))
            assert x / y == x * y.inverse(), (x, y)
            k = rng.choice((rng.randint(-9, 9) or 1, Fraction(rng.randint(-9, 9) or 1, 7)))
            assert x / k == x * as_surd(k).inverse(), (x, k)
            assert k / y == as_surd(k) * y.inverse(), (k, y)
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}


class TestOrdering:
    def test_sign_cases(self):
        assert as_surd(QuadSurd(0)).sign() == 0
        assert as_surd(QuadSurd(1, 1, 1, 2)).sign() == 1
        assert as_surd(QuadSurd(-1, -1, 1, 2)).sign() == -1
        assert as_surd(QuadSurd(-1, 1, 1, 2)).sign() == 1  # sqrt(2) > 1
        assert as_surd(QuadSurd(1, -1, 1, 2)).sign() == -1  # 1 < sqrt(2)
        assert as_surd(QuadSurd(3, -2, 1, 2)).sign() == 1  # 3 > 2*sqrt(2)

    def test_comparisons(self):
        r2 = QuadSurd(0, 1, 1, 2)
        assert r2 < Fraction(3, 2)
        assert r2 > Fraction(7, 5)
        phi = QuadSurd(1, 1, 2, 5)
        assert phi > Fraction(8, 5)
        assert phi < Fraction(13, 8)

    def test_floor_goldens(self):
        assert as_surd(QuadSurd(0, 1, 1, 2)).floor() == 1
        assert as_surd(QuadSurd(1, 1, 2, 5)).floor() == 1
        assert as_surd(QuadSurd(3, -1, 1, 2)).floor() == 1
        assert as_surd(QuadSurd(0, -1, 1, 2)).floor() == -2
        assert as_surd(QuadSurd(-1, -1, 2, 2)).floor() == -2
        assert as_surd(Fraction(-7, 2)).floor() == -4
        assert as_surd(5).floor() == 5

    def test_decimal_rendering(self):
        assert QuadSurd(0, 1, 1, 2).decimal() == "1.414213"
        assert QuadSurd(1, 1, 2, 5).decimal() == "1.618033"
        assert QuadSurd(0, -1, 1, 2).decimal() == "-1.414214"
        assert QuadSurd(5, 0, 2).decimal(2) == "2.50"


class TestDisplay:
    def test_str_forms(self):
        assert str(QuadSurd(0, 1, 1, 2)) == "sqrt(2)"
        assert str(QuadSurd(1, 1, 2, 5)) == "(1 + sqrt(5))/2"
        assert str(QuadSurd(3, -2, 1, 2)) == "3 - 2*sqrt(2)"
        assert str(QuadSurd(0, -1, 1, 5)) == "-sqrt(5)"
        assert str(QuadSurd(3, 0, 2)) == "3/2"

    def test_as_surd_rejects_junk(self):
        with pytest.raises(DomainError):
            as_surd("sqrt(2)")  # type: ignore[arg-type]


# -- randomized oracle comparisons -------------------------------------------


def test_floor_matches_bignum_oracle():
    rng = random.Random(20260815)
    with mpmath.workprec(200):
        for _ in range(ORACLE_TRIALS):
            u = rng.randint(-(10**6), 10**6)
            v = rng.choice([-1, 1]) * rng.randint(1, 10**6)
            w = rng.randint(1, 10**6)
            d = rng.randint(2, 10**3)
            x = QuadSurd(u, v, w, d)
            if x.is_rational:  # the radicand collapsed to a square
                assert x.floor() == x.as_fraction().numerator // x.as_fraction().denominator
                continue
            assert x.floor() == int(mpmath.floor(mpval(x)))


def test_arithmetic_matches_bignum_oracle():
    """Random expression chains evaluated exactly and in 200-bit floats.

    Five operations on single-digit atoms keep the accumulated rounding
    error far below 2^-90, while any component-level arithmetic bug
    displaces the exact value by much more than that.
    """
    rng = random.Random(9292)
    ops = ("add", "sub", "mul", "div")
    eps = mpmath.mpf(2) ** -90
    with mpmath.workprec(200):
        for _ in range(ORACLE_TRIALS // 5):
            d = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23])
            acc = QuadSurd(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), d)
            acc_mp = mpval(acc)
            for _ in range(5):
                rhs = QuadSurd(
                    rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), d
                )
                op = rng.choice(ops)
                if op == "add":
                    acc, acc_mp = acc + rhs, acc_mp + mpval(rhs)
                elif op == "sub":
                    acc, acc_mp = acc - rhs, acc_mp - mpval(rhs)
                elif op == "mul":
                    acc, acc_mp = acc * rhs, acc_mp * mpval(rhs)
                elif not rhs.is_zero:
                    acc, acc_mp = acc / rhs, acc_mp / mpval(rhs)
            assert mpmath.almosteq(mpval(acc), acc_mp, rel_eps=eps, abs_eps=eps)


def test_sign_matches_bignum_oracle():
    rng = random.Random(777)
    with mpmath.workprec(200):
        for _ in range(ORACLE_TRIALS):
            x = QuadSurd(
                rng.randint(-(10**3), 10**3),
                rng.randint(-(10**3), 10**3),
                rng.randint(1, 10**3),
                rng.randint(1, 10**3),
            )
            if x.is_zero:
                assert x.sign() == 0
                continue
            approx = mpval(x)
            # the gap analysis keeps exact values away from oracle noise
            assert abs(approx) > mpmath.mpf(2) ** -150
            assert x.sign() == (1 if approx > 0 else -1)


# -- algebraic laws ------------------------------------------------------------

small = st.integers(min_value=-30, max_value=30)
denom = st.integers(min_value=1, max_value=12)
field = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 30])


@st.composite
def surds(draw):
    return QuadSurd(draw(small), draw(small), draw(denom), draw(field))


@settings(deadline=None)
@given(surds(), surds())
def test_addition_commutes(x, y):
    if x.is_rational or y.is_rational or x.d == y.d:
        assert x + y == y + x
        assert x * y == y * x


@settings(deadline=None)
@given(surds(), surds(), surds())
def test_ring_laws(x, y, z):
    fields = {t.d for t in (x, y, z) if not t.is_rational}
    if len(fields) > 1:
        return
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(deadline=None)
@given(surds())
def test_sub_and_neg_agree(x):
    assert x - x == 0
    assert x + (-x) == 0
    assert -(-x) == x


@settings(deadline=None)
@given(surds())
def test_inverse_round_trip(x):
    if x.is_zero:
        with pytest.raises(DomainError):
            x.inverse()
    else:
        assert x * x.inverse() == 1
        assert x.inverse().inverse() == x


def _nonneg_by_integers(uu: int, vv: int, d: int) -> bool:
    """Independent check of u + v*sqrt(d) >= 0 using integers only."""
    if vv >= 0:
        return uu >= 0 or uu * uu <= vv * vv * d
    return uu >= 0 and uu * uu >= vv * vv * d


@settings(deadline=None)
@given(surds())
def test_floor_bounds_certified_independently(x):
    f = x.floor()
    # f <= x  <=>  (u - f*w) + v*sqrt(d) >= 0
    assert _nonneg_by_integers(x.u - f * x.w, x.v, x.d)
    # x < f + 1  <=>  ((f+1)*w - u) - v*sqrt(d) > 0, check >= and != separately
    assert _nonneg_by_integers((f + 1) * x.w - x.u, -x.v, x.d)
    assert x != f + 1


@settings(deadline=None)
@given(surds(), surds())
def test_comparison_trichotomy(x, y):
    if not (x.is_rational or y.is_rational) and x.d != y.d:
        return
    assert (x < y) + (x == y) + (x > y) == 1


@settings(deadline=None)
@given(surds(), surds())
@example(QuadSurd(3, 0, 2), QuadSurd(1, 1, 1, 2))
@example(QuadSurd(1, 1, 1, 2), QuadSurd(3, 0, 2))
@example(QuadSurd(-7, 0, 3), QuadSurd(5))
def test_comparison_is_the_sign_of_the_difference(x, y):
    if not (x.is_rational or y.is_rational) and x.d != y.d:
        with pytest.raises(DomainError):
            x._cmp(y)
        return
    assert x._cmp(y) == (x - y).sign() == -y._cmp(x)
    if y.is_rational:  # the same operand as a Fraction, and as an int
        assert x._cmp(y.as_fraction()) == x._cmp(y)
        assert x._cmp(y.u // y.w) == (x - y.u // y.w).sign()


def test_comparisons_build_no_values(monkeypatch):
    x, y = QuadSurd(1, 2, 3, 7), QuadSurd(-5, 1, 2, 7)
    built = []
    real = QuadSurd._settle
    monkeypatch.setattr(
        QuadSurd, "_settle", lambda self, *t: built.append(t) or real(self, *t)
    )
    assert x > 1 and x >= 0 and y < 1 and not x < y and x > y and y <= x
    assert x.floor() == 2 and y.floor() == -2
    assert built == []


def test_floor_makes_no_comparison(monkeypatch):
    """The floor is read off one integer square root, never corrected by sign tests."""
    rng = random.Random(909)
    calls = []
    real = QuadSurd._cmp
    monkeypatch.setattr(
        QuadSurd, "_cmp", lambda self, other: calls.append(other) or real(self, other)
    )
    for _ in range(500):
        d = rng.choice([2, 3, 5, 6, 7, 10, 1_000_003, 1_000_000_007])
        x = QuadSurd(
            rng.randint(-(2**80), 2**80),
            rng.choice([-1, 1]) * rng.randint(1, 2**80),
            rng.randint(1, 2**80),
            d,
        )
        f = x.floor()
        assert not x.is_rational and calls == []
        assert _nonneg_by_integers(x.u - f * x.w, x.v, x.d)
        assert not _nonneg_by_integers(x.u - (f + 1) * x.w, x.v, x.d)


# -- results of arithmetic skip the factoring of their radicand -----------------


@settings(deadline=None)
@given(surds(), surds())
def test_arithmetic_results_are_in_normal_form(x, y):
    """Results built without re-factoring equal a full public rebuild.

    The conjugate product and x - x collapse to rationals, and so does
    x*x whenever u == 0, e.g. sqrt(6)*sqrt(6).
    """
    if not (x.is_rational or y.is_rational) and x.d != y.d:
        y = QuadSurd(y.u, y.v, y.w, x.d)
    conj = QuadSurd(x.u, -x.v, x.w, x.d)
    results = [-x, x + y, x - y, x * y, x * x, x * conj, x - x]
    if not y.is_zero:
        results += [x / y, y.inverse()]
    for r in results:
        again = QuadSurd(r.u, r.v, r.w, r.d)
        assert (r.u, r.v, r.w, r.d) == (again.u, again.v, again.w, again.d)
        assert (r.d == 1) == (r.v == 0)


def test_arithmetic_never_factors_again(monkeypatch):
    calls = []
    real = exactarith.square_free_split

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(exactarith, "square_free_split", counting)
    x = QuadSurd(0, 1, 7, 1000003)
    a, b = line(QuadSurd(0, 1, 1, 1000003)), line(1000003)
    c, d = line(QuadSurd(0, 2, 1, 1000003)), line(2000006)
    assert calls == [1000003] * 3  # each caller-supplied radicand, once
    calls.clear()
    assert surd_cf(x).preperiod == (142,)
    assert ratio_eq(a, b, c, d)  # below 1: head 0, then the reciprocal's form
    assert x.decimal() == "142.857357"
    assert (1 / x - x.inverse()).is_zero  # inverse, division, negation
    assert calls == []


class TestSplitMemo:
    """square_free_split remembers its last splits; __wrapped__ is the uncached oracle."""

    def test_memo_equals_the_uncached_split(self):
        split, oracle = square_free_split, square_free_split.__wrapped__
        for n in range(1, 300_001):
            assert split(n) == oracle(n), n
        rng = random.Random(20261018)
        seen = [int(10 ** rng.uniform(0, 16)) for _ in range(40)]
        # repeats from a short window, as the values of one field ask for
        for n in seen + [rng.choice(seen[-8:]) for _ in range(200)]:
            assert split(n) == oracle(n), n

    def test_results_are_immutable_int_pairs(self):
        s, d = result = square_free_split(360)
        assert result == (6, 10) and type(result) is tuple
        assert type(s) is int and type(d) is int

    def test_errors_are_raised_on_every_call(self):
        square_free_split.cache_clear()
        for _ in range(3):
            with pytest.raises(
                DomainError, match="square_free_split: argument must be >= 1, got 0"
            ):
                square_free_split(0)
        assert square_free_split.cache_info().currsize == 0

    def test_an_equal_value_of_another_type_is_split_apart(self):
        assert square_free_split(4) == (2, 1)
        with pytest.raises(TypeError):
            square_free_split(4.0)  # as the uncached split does
        assert square_free_split(True) == square_free_split.__wrapped__(True)

    def test_one_field_is_factored_once(self):
        square_free_split.cache_clear()
        rng = random.Random(7)
        for _ in range(500):
            u, v, w = rng.randint(-99, 99), rng.randint(1, 99), rng.randint(1, 99)
            x = QuadSurd(u, v, w, 1000003)
            assert x == QuadSurd._in_field(u, v, w, 1000003)
        info = square_free_split.cache_info()
        assert (info.misses, info.hits) == (1, 499)

    def test_memo_stays_bounded(self):
        for n in range(10**6, 10**6 + 100):
            square_free_split(n)
        info = square_free_split.cache_info()
        assert info.maxsize == 32 and info.currsize <= info.maxsize
