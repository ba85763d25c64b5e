"""Exact quadratic arithmetic: normal forms, ordering, floor.

The heavy checks compare against a 200-bit mpmath evaluation; the gap
between distinct representable values at the tested component sizes is
far above the oracle's rounding error, so disagreement means a bug.
"""

import math
import operator
import random
import re
import sys
import time
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

        A cofactor free of the primes below 1000 is settled by one isqrt
        below 1009**3 and by Miller-Rabin and rho above, so the cases
        that decide correctness are p*p, p*q and p*p*q with p and q
        around 10**5 and 10**7, where the cofactor test has to tell them
        apart.
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
            assert square_free_split(n) == _sympy_split(n), n

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(4, 9)) == QuadSurd(2, 0, 3)
        assert rational_sqrt(2) == QuadSurd(0, 1, 1, 2)
        assert rational_sqrt(0) == 0
        with pytest.raises(DomainError):
            rational_sqrt(Fraction(-1, 2))

    def test_rational_sqrt_takes_a_rational_quadsurd(self):
        assert rational_sqrt(QuadSurd(4, 0, 9)) == QuadSurd(2, 0, 3)
        assert rational_sqrt(QuadSurd(1, 0, 2)) == QuadSurd(0, 1, 2, 2)
        msg = (
            "rational_sqrt: argument must be an int, a Fraction or a rational "
            "QuadSurd, got QuadSurd(u=0, v=1, w=1, d=2)"
        )
        with pytest.raises(DomainError, match="^%s$" % re.escape(msg)):
            rational_sqrt(QuadSurd(0, 1, 1, 2))

    @pytest.mark.parametrize(
        "fn, x", [(f, x) for f in (isqrt, is_perfect_square, square_free_split)
                  for x in (2.0, 12.0, True, "4", Fraction(4))]
    )
    def test_number_theory_helpers_take_only_ints(self, fn, x):
        msg = "%s: argument must be an integer, got %r" % (fn.__name__, x)
        with pytest.raises(DomainError, match="^%s$" % re.escape(msg)):
            fn(x)

    def test_rational_sqrt_takes_only_ints_and_fractions(self):
        # a float, a string or a bool is no exact rational argument
        for x in (0.5, 0.1, "2/9", True, False):
            msg = (
                "rational_sqrt: argument must be an int, a Fraction or a rational "
                "QuadSurd, got %r" % (x,)
            )
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

    def test_inverse_is_the_conjugate_over_the_norm(self):
        """1/x has the normal form of (w*u - w*v*sqrt(d)) / (u^2 - v^2*d)."""
        rng = random.Random(2611)
        for _ in range(2000):
            d = rng.choice((2, 3, 5, 13, 139, 1000003))
            v = 0 if rng.random() < 0.3 else rng.randint(-30, 30)
            x = QuadSurd(rng.randint(-60, 60), v, rng.randint(1, 40), d)
            if x.is_zero:
                continue
            u, v, w, d = x.u, x.v, x.w, x.d
            expected = exactarith._in_field(w * u, -w * v, u * u - v * v * d, d)
            y = x.inverse()
            assert (y.u, y.v, y.w, y.d) == (expected.u, expected.v, expected.w, expected.d), x

    def test_a_rational_minus_one_hashes_as_minus_one(self):
        # the numeric-hash recipe gives -1 here, which hash() turns into -2
        for x in (QuadSurd(-1), QuadSurd(-3, 0, 3), -QuadSurd(1)):
            assert x.__hash__() == -1
            assert hash(x) == hash(-1) == hash(Fraction(-1)) == -2

    def test_a_denominator_without_inverse_hashes_as_its_fraction(self):
        # w a multiple of the hash modulus M: Python's recipe hashes u/w as +-inf
        m = sys.hash_info.modulus
        for u, w in ((1, m), (-3, 2 * m), (5, 7 * m)):
            assert hash(QuadSurd(u, 0, w)) == hash(Fraction(u, w)), (u, w)
        assert hash(QuadSurd(1, 0, m)) == sys.hash_info.inf

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
                assert x.floor() == math.floor(Fraction(x.u, x.w))
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
        assert x._cmp(Fraction(y.u, y.w)) == x._cmp(y)
        assert x._cmp(y.u // y.w) == (x - y.u // y.w).sign()


def test_comparisons_build_no_values(monkeypatch):
    x, y = QuadSurd(1, 2, 3, 7), QuadSurd(-5, 1, 2, 7)
    built = []
    real = exactarith._settle
    monkeypatch.setattr(
        exactarith, "_settle", lambda x, *t: built.append(t) or real(x, *t)
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
        assert square_free_split(4) == (2, 1) and square_free_split(1) == (1, 1)
        for x in (4.0, True):  # refused, as by the uncached split, not read from the memo
            for split in (square_free_split, square_free_split.__wrapped__):
                with pytest.raises(DomainError, match="must be an integer, got %r" % x):
                    split(x)

    def test_one_field_is_factored_once(self):
        square_free_split.cache_clear()
        rng = random.Random(7)
        for _ in range(500):
            u, v, w = rng.randint(-99, 99), rng.randint(1, 99), rng.randint(1, 99)
            x = QuadSurd(u, v, w, 1000003)
            assert x == exactarith._in_field(u, v, w, 1000003)
        info = square_free_split.cache_info()
        assert (info.misses, info.hits) == (1, 499)

    def test_memo_stays_bounded(self):
        for n in range(10**6, 10**6 + 100):
            square_free_split(n)
        info = square_free_split.cache_info()
        assert info.maxsize == 32 and info.currsize <= info.maxsize


# the divisor limit of the trial-division split, which the oracle keeps
_OLD_DIVISOR_LIMIT = 1 << 21


def _split_testing_every_candidate(n: int) -> tuple[int, int]:
    """The trial-division split, before divisors were tested once.

    It computes the exponent of every candidate, 0 for a non-divisor, and
    raises past the divisor limit that split had.
    """
    radicand = n
    s = d = 1
    for p in (2, 3):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    f, step = 5, 2
    while f * f * f <= n:
        if f > _OLD_DIVISOR_LIMIT:
            raise DomainError(
                "square_free_split: radicand %d cannot be split by trial division "
                "below %d" % (radicand, _OLD_DIVISOR_LIMIT)
            )
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        s *= f ** (e // 2)
        if e % 2:
            d *= f
        f += step
        step = 6 - step
    r = math.isqrt(n)
    if r * r == n:
        s *= r
    else:
        d *= n
    return s, d


class TestSplitTestsEachDivisorOnce:
    """The split seeks an exponent only for a divisor; the old loop is the oracle."""

    SMALL_PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]

    def test_agrees_below_100000(self):
        split = square_free_split.__wrapped__
        for n in range(1, 100_000):
            assert split(n) == _split_testing_every_candidate(n), n

    def test_agrees_on_seeded_radicands_below_10_to_the_18(self):
        """3,000 seeded n < 10**18.

        A third are log-uniform.  The rest are a log-uniform cofactor
        below 10**12 times up to four small prime powers (exponents 1 to
        4), so the exponent loop runs on squares, cubes and fourth powers
        of several divisors of one radicand.
        """
        split = square_free_split.__wrapped__
        rng = random.Random(27)
        drawn = 0
        powers = 0
        while drawn < 3000:
            if drawn % 3 == 0:
                n = int(10 ** rng.uniform(0, 18))
            else:
                n = int(10 ** rng.uniform(0, 12))
                for _ in range(rng.randint(1, 4)):
                    e = rng.randint(1, 4)
                    powers += e > 1
                    n *= rng.choice(self.SMALL_PRIMES) ** e
                if n >= 10**18:
                    continue
            assert split(n) == _split_testing_every_candidate(n), n
            drawn += 1
        assert powers > 1000

    def test_past_the_rho_budget_the_error_names_the_radicand(self):
        # the trial-division split gave up on the prime 10**31 + 57; Miller-
        # Rabin now answers it, and two 16-digit primes outrun the rho budget
        n = 10**31 + 57
        with pytest.raises(DomainError, match="cannot be split by trial division"):
            _split_testing_every_candidate(n)
        assert square_free_split.__wrapped__(n) == (1, n)
        n = 1000000000000037 * 1000000000000091
        with pytest.raises(DomainError) as new:
            square_free_split.__wrapped__(n)
        assert str(new.value) == (
            "square_free_split: radicand %d is not split within the budget of 262144 steps" % n
        )

    def test_the_rho_budget_stays_cheap_on_a_long_radicand(self):
        # a step on these 1,330 bits counts as 11 steps: charged one to
        # one, the budget would take over 1 s here
        n = sympy.nextprime(10**200) * sympy.nextprime(3 * 10**200)
        start = time.process_time()
        with pytest.raises(DomainError, match="square_free_split: radicand %d " % n):
            square_free_split.__wrapped__(n)
        assert time.process_time() - start < 1.0

    def test_a_failing_split_of_4300_digits_stays_cheap(self):
        # Miller-Rabin's exponentiations are charged to the budget as well:
        # one on these 14,284 bits costs more than all of it, so the split
        # raises before it runs one, where each took seconds uncharged
        n = random.Random(36).randrange(10**4299, 10**4300) | 1
        start = time.process_time()
        with pytest.raises(DomainError, match="square_free_split: radicand %d " % n):
            square_free_split.__wrapped__(n)
        assert time.process_time() - start < 0.5

    def test_primes_split_below_2_to_the_1456(self):
        # a prime pays for thirteen bases and the Lucas test, fifteen
        # exponentiations, and from 1457 bits up they cost more than the budget
        below, above = 2**1456 - 827, 2**1456 + 303
        assert sympy.isprime(below) and sympy.isprime(above)
        assert square_free_split.__wrapped__(3 * below) == (1, 3 * below)
        with pytest.raises(DomainError, match="square_free_split: radicand %d " % above):
            square_free_split.__wrapped__(above)

    @pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                        reason="no int-to-str digit limit below 5,000 digits")
    def test_an_int_past_the_digit_limit_is_named_by_its_bits(self):
        # the int a message names is printed in decimal up to the digit limit
        # and by its bit length past it, where "%d" raises ValueError
        n = random.Random(37).randrange(10**4999, 10**5000) | 1
        past = "<int of %d bits>" % n.bit_length()
        with pytest.raises(DomainError) as split:
            QuadSurd(0, 1, 1, n)
        assert str(split.value) == (
            "square_free_split: radicand %s is not split within the budget of 262144 steps" % past
        )
        with pytest.raises(DomainError) as negative:
            QuadSurd(0, 1, 1, -n)
        assert str(negative.value) == "QuadSurd: radicand d must be >= 1, got -" + past
        with pytest.raises(DomainError) as root:
            isqrt(-n)
        assert str(root.value) == "isqrt: argument must be >= 0, got -" + past
        with pytest.raises(DomainError) as root:
            isqrt(-(10**4299))  # 4,300 digits, at the limit
        assert str(root.value) == "isqrt: argument must be >= 0, got -1" + "0" * 4299


def _sympy_split(n: int) -> tuple[int, int]:
    """(s, d) with n = s*s*d, d squarefree, read off sympy.factorint."""
    s = d = 1
    for p, e in sympy.factorint(n).items():
        s *= p ** (e // 2)
        d *= p ** (e % 2)
    return s, d


_P, _Q = 1000003, 1000033
PSI_12 = 318665857834031151167461  # strong pseudoprime to the bases 2 to 37
PSI_13 = 3317044064679887385961981  # strong pseudoprime to the bases 2 to 41


class TestSplitOnAdversarialRadicands:
    """The split against sympy where a primality test or a factor bound could slip."""

    @pytest.mark.parametrize("n", [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to the bases 2 to 23
        561, 41041, 825265,  # Carmichael numbers
        997 * 1009, 1009 * 1009, 1009 * 1013, 1009**3, 1009**2 * 1013,  # the 1009 boundary
        _P**3, _P**2 * _Q,
        7 * 10000000000000000051**2,  # 7 * p*p, p a 20-digit prime
        10**31 + 57,
        2**63 - 25,
        # prime powers, split by one Fermat gcd: 10**12 + 39, 10**15 + 37
        # and 10**30 + 57 are the primes next to 10**12, 10**15 and 10**30
        (10**12 + 39) ** 3, (10**12 + 39) ** 5,
        7 * (10**15 + 37) ** 4, 6 * (10**30 + 57) ** 3,
        1093**3, 7 * 3511**5,  # powers of the Wieferich primes to base 2
    ])
    def test_equals_sympy(self, n):
        assert square_free_split.__wrapped__(n) == _sympy_split(n)

    @pytest.mark.parametrize("n", [PSI_12, PSI_13])
    def test_a_strong_pseudoprime_to_the_bases_is_never_taken_for_a_prime(self, n):
        assert not exactarith._is_probable_prime(n)
        try:
            got = square_free_split.__wrapped__(n)
        except DomainError as e:  # both factors are near 10**12, past the rho budget
            assert str(e).startswith("square_free_split: radicand %d " % n)
        else:
            assert got == _sympy_split(n) != (1, n)

    def test_the_bases_stop_only_below_their_bound(self):
        """Each psi_t is composite and a strong probable prime to the first t bases."""
        bases = [a for a, _ in exactarith._MILLER_RABIN]
        assert bases == list(sympy.primerange(2, 42))
        for t, (_, psi) in enumerate(exactarith._MILLER_RABIN, 1):
            assert not sympy.isprime(psi)
            assert sympy.ntheory.primetest.mr(psi, bases[:t])
        assert exactarith._MILLER_RABIN[-1][1] == PSI_13

    def test_the_strong_lucas_test_equals_sympys(self):
        lucas = sympy.ntheory.primetest.is_strong_lucas_prp
        for n in range(1011, 60_000, 2):
            if not is_perfect_square(n):
                assert exactarith._is_strong_lucas_probable_prime(n) == lucas(n), n
        rng = random.Random(35)
        for _ in range(200):
            n = rng.randrange(PSI_13, 10**40) | 1
            if not is_perfect_square(n):
                assert exactarith._is_strong_lucas_probable_prime(n) == lucas(n), n

    def test_primes_past_psi_13_are_found_prime(self):
        p = sympy.nextprime(PSI_13)
        assert exactarith._is_probable_prime(p)
        assert square_free_split.__wrapped__(p * p * 3) == (p, 3)
        assert square_free_split.__wrapped__(_P * p) == (1, _P * p)

    def test_a_ten_digit_factor_splits_within_the_budget(self):
        p, q = sympy.nextprime(10**9), sympy.nextprime(10**20)
        assert square_free_split.__wrapped__(p * q * q) == (q, p)


_FIELDS = r"^values lie in distinct quadratic fields \(sqrt\(2\) vs sqrt\(3\)\)$"
_BINARY = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _as_surd_route(op, x, y):
    """op on x and y both coerced by as_surd first: the path an operand took before."""
    return _BINARY[op](as_surd(x), as_surd(y))


class _Sub(QuadSurd):
    __slots__ = ()


class TestOperandTable:
    """Each operator on each kind of operand equals its as_surd route.

    A QuadSurd operand, or one of a subclass, is used as it is, an int or
    a Fraction is coerced, a bool or any other type is refused, and
    values of two fields raise one message.
    """

    ROOT2 = QuadSurd(3, 5, 7, 2)
    OPERANDS = {
        "same field": QuadSurd(-2, 9, 4, 2),
        "rational QuadSurd": QuadSurd(-5, 0, 3),
        "int": 4,
        "Fraction": Fraction(-7, 3),
        "subclass": _Sub(-2, 9, 4, 2),
    }

    @pytest.mark.parametrize("op", list(_BINARY))
    @pytest.mark.parametrize("kind", list(OPERANDS))
    def test_result_equals_the_as_surd_route(self, op, kind):
        x, y = self.ROOT2, self.OPERANDS[kind]
        for left, right in ((x, y), (y, x)):
            got = _BINARY[op](left, right)
            want = _as_surd_route(op, left, right)
            assert type(got) is type(want) and got == want, (left, op, right)
            if type(got) is QuadSurd:
                assert (got.u, got.v, got.w, got.d) == (want.u, want.v, want.w, want.d)

    def test_seeded_operands_equal_the_as_surd_route(self):
        # x is rational in one draw in 19 (v == 0), so rational meets rational too
        rng = random.Random(2727)
        for _ in range(2000):
            d = rng.choice((2, 3, 13, 1000003))
            x = QuadSurd(rng.randint(-40, 40), rng.randint(-9, 9), rng.randint(1, 30), d)
            y = rng.choice((
                QuadSurd(rng.randint(-40, 40), rng.randint(-9, 9), rng.randint(1, 30), d),
                QuadSurd(rng.randint(-40, 40), 0, rng.randint(1, 30)),
                rng.randint(-40, 40),
                Fraction(rng.randint(-40, 40), rng.randint(1, 30)),
            ))
            for op in _BINARY:
                for left, right in ((x, y), (y, x)):
                    if op == "/" and as_surd(right).is_zero:
                        continue
                    assert _BINARY[op](left, right) == _as_surd_route(op, left, right)

    def test_a_coerced_int_is_its_public_build(self):
        class MyInt(int):
            pass

        for n in (0, 1, -1, -37, 10**40, -(10**40), MyInt(7), MyInt(-5)):
            got, want = exactarith._coerce(n), QuadSurd(n)
            assert type(got) is QuadSurd, n
            fields = [(type(f), f) for f in (got.u, got.v, got.w, got.d)]
            assert fields == [(type(f), f) for f in (want.u, want.v, want.w, want.d)], n
            assert got == want and hash(got) == hash(want) == hash(n), n
        assert exactarith._coerce(True) is None and exactarith._coerce(False) is None

    REFUSED = (True, False, 1.5, "2", None, 1j)

    @pytest.mark.parametrize("op", list(_BINARY))
    def test_a_bool_is_refused(self, op):
        # as is every operand that is not a QuadSurd, an int or a Fraction
        for other in self.REFUSED:
            for left, right in ((self.ROOT2, other), (other, self.ROOT2)):
                with pytest.raises(TypeError):
                    _BINARY[op](left, right)
            assert (self.ROOT2 == other) is False and (other != self.ROOT2) is True

    @pytest.mark.parametrize("op", list(_BINARY))
    def test_distinct_fields_raise_one_message(self, op):
        root3 = QuadSurd(1, 1, 2, 3)
        for x in (QuadSurd(0, 1, 1, 2), self.ROOT2):
            with pytest.raises(DomainError, match=_FIELDS):
                _BINARY[op](x, root3)

    def test_equality_across_fields_is_false(self):
        assert QuadSurd(0, 1, 1, 2) != QuadSurd(0, 1, 1, 3)
        assert QuadSurd(1, 0, 2) == Fraction(1, 2) and QuadSurd(2) == 2

    def test_magnitude_refuses_as_before(self):
        cases = (
            (True, "cannot interpret True as an exact quadratic value"),
            (0, "Magnitude: value must be positive, got 0"),
            (QuadSurd(0), "Magnitude: value must be positive, got 0"),
            (-3, "Magnitude: value must be positive, got -3"),
            (Fraction(-1, 2), "Magnitude: value must be positive, got -1/2"),
            (QuadSurd(1, -1, 1, 2), "Magnitude: value must be positive, got 1 - sqrt(2)"),
        )
        for value, msg in cases:
            with pytest.raises(DomainError, match="^%s$" % re.escape(msg)):
                line(value)
        assert line(QuadSurd(-1, 1, 1, 2)).value == QuadSurd(-1, 1, 1, 2)
        assert type(line(Fraction(3, 2)).value) is QuadSurd
