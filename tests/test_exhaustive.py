"""Every expandable form of two small boxes against a PQa recurrence.

A seeded draw can miss the one state a fault needs; a box walks them
all.  The oracle, expand_pqd, is a copy of bench/oracle.py's: a plain
integer recurrence on (P, Q) that shares no code with the package, kept
here so that tier 1 imports nothing from bench/.  A third box gives the
proportion verdicts on every pair of reduced roots of one field.
"""

import math
from collections import defaultdict

from anthyphairesis import (
    DEFECT,
    EXCESS,
    QuadraticForm,
    QuadSurd,
    anth_of_ratio,
    cross_product_eq,
    line,
    ratio_eq,
    run_anthyphairesis,
    square_free_split,
)


def expand_pqd(p: int, q: int, d: int) -> tuple:
    """(preperiod, period) of (p + sqrt(d)) / q for a non-square d >= 2, q != 0.

    The recurrence stops at the first repeated state (P, Q); distinct
    states are distinct complete quotients, so that gives the shortest
    preperiod and the primitive period.
    """
    if (d - p * p) % q:
        # scale so that q divides d - p^2, as the recurrence requires
        p, d, q = p * abs(q), d * q * q, q * abs(q)
    r = math.isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    qs: list[int] = []
    while (p, q) not in seen:
        seen[(p, q)] = len(qs)
        a = (p + r + (1 if q < 0 else 0)) // q
        qs.append(a)
        p = a * q - p
        q = (d - p * p) // q
    i = seen[(p, q)]
    return tuple(qs[:i]), tuple(qs[i:])


def _is_square(n: int) -> bool:
    return math.isqrt(n) ** 2 == n


def _check(form: QuadraticForm, p: int, q: int, d: int) -> None:
    cf, _ = run_anthyphairesis(form)
    assert not cf.truncated and (cf.preperiod, cf.period) == expand_pqd(p, q, d), form


def test_every_excess_form_below_disc_1500():
    """A*x^2 = B*x + C with B^2 + 4AC < 1500, not a square: root (B + sqrt(D))/(2A)."""
    count = 0
    for b in range(39):
        for a in range(1, (1499 - b * b) // 4 + 1):
            for c in range(1, (1499 - b * b) // (4 * a) + 1):
                d = b * b + 4 * a * c
                if _is_square(d):
                    continue
                form = QuadraticForm(EXCESS, a, b, c)
                if form.is_expandable:
                    _check(form, b, 2 * a, d)
                    count += 1
    assert count == 32_949


def test_every_defect_form_with_a_below_30_b_below_120_c_below_60():
    """A*x^2 + C = B*x, both roots (B -+ sqrt(D))/(2A), D = B^2 - 4AC not a square."""
    count = 0
    for a in range(1, 30):
        for b in range(1, 120):
            for c in range(1, 60):
                d = b * b - 4 * a * c
                if d < 1:
                    break
                if _is_square(d):
                    continue
                larger = QuadraticForm(DEFECT, a, b, c)
                if not larger.is_expandable:
                    continue  # nor is the smaller root above 1
                _check(larger, b, 2 * a, d)
                count += 1
                smaller = QuadraticForm(DEFECT, a, b, c, smaller_root=True)
                if smaller.is_expandable:
                    _check(smaller, -b, -2 * a, d)
                    count += 1
    assert count == 141_064


def test_every_pair_of_reduced_roots_of_one_field_below_disc_500():
    """ratio_eq, cross_product_eq and equal expansions agree on every pair x : 1, y : 1.

    x and y run over the roots (b + sqrt(D))/(2a) of the reduced excess
    triples (a, b, c), x > 1 and -1 < x' < 0, of every non-square
    D = b^2 + 4ac < 500, scaled triples included.  Roots are paired
    within one squarefree part of D, so a root of (2a, 2b, 2c) meets the
    equal root of (a, b, c), and the roots over D = 5, 20 and 45 meet.
    """
    one = line(1)
    fields = defaultdict(list)
    for disc in range(2, 500):
        j = math.isqrt(disc)
        if j * j == disc:
            continue
        for b in range(j + 1):
            m, r = divmod(disc - b * b, 4)
            if r:
                continue
            for a in range(1, m + 1):
                # x > 1: sqrt(D) > 2a - b; x' > -1: sqrt(D) < b + 2a
                if m % a == 0 and b + j >= 2 * a and disc < (b + 2 * a) ** 2:
                    x = line(QuadSurd(b, 1, 2 * a, disc))
                    fields[square_free_split(disc)[1]].append((x, anth_of_ratio(x, one)))
    roots = pairs = equal = 0
    for group in fields.values():
        roots += len(group)
        for x, x_cf in group:
            for y, y_cf in group:
                verdict = ratio_eq(x, one, y, one)
                assert verdict == cross_product_eq(x, one, y, one) == (x_cf == y_cf), (x, y)
                pairs += 1
                equal += verdict
    assert (roots, pairs) == (2114, 42_496)
    assert roots < equal < pairs
