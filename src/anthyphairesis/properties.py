"""Seeded self-verification suites behind the `verify` command.

Each property is a small randomized check; a trial draws its own RNG
substream from (seed, suite, property, index), so results are
reproducible for a fixed seed no matter how trials are batched.
Properties return "pass" or "vacuous" (hypotheses missed) and signal
failure by raising AssertionError; any other exception also counts as
a failure, because properties must not crash on their own inputs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction

from . import areas as ar
from ._value import Record
from .engine import (
    DEFECT,
    EXCESS,
    ContinuedFraction,
    QuadraticForm,
    canonicalize_cf,
    convergents,
    defect_step,
    euclid_cf,
    excess_step,
    remainder,
    run_anthyphairesis,
    period_to_form,
    state_space_size,
    surd_cf,
)
from .errors import DomainError
from .exactarith import QuadSurd, as_surd, is_perfect_square
from .ratios import (
    AREA,
    PROPOSITIONS,
    Magnitude,
    anth_of_ratio,
    check_proposition,
    commensurable_pure,
    cross_product_eq,
    line,
    mixed_ratio_eq,
    ratio_eq,
    rectangle,
    square_ratio_witness,
)

PASS = "pass"
VACUOUS = "vacuous"

_FIELDS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)


class PropertyResult(Record):
    """Aggregated outcome of one property over many trials."""

    __slots__ = _fields = (
        "suite", "name", "trials", "vacuous", "passed", "failed", "first_failure"
    )

    def __init__(
        self,
        suite: str,
        name: str,
        trials: int,
        vacuous: int,
        passed: int,
        failed: int,
        first_failure: str | None = None,
    ) -> None:
        self.suite = suite
        self.name = name
        self.trials = trials
        self.vacuous = vacuous
        self.passed = passed
        self.failed = failed
        self.first_failure = first_failure


# -- shared generators -------------------------------------------------------


def _small_surd(rng: random.Random, d: int) -> QuadSurd:
    """Positive value in the field of sqrt(d) with tiny components."""
    u = rng.randint(0, 4)
    v = rng.randint(0, 2)
    if u == 0 and v == 0:
        v = 1
    return QuadSurd(u, v, rng.randint(1, 3), d if v else 1)


def _small_ratio(rng: random.Random, d: int) -> QuadSurd:
    """Value > 1 with tiny components, usually irrational.

    Ratios are chosen first and pairs built around them: this keeps the
    discriminants of every expanded value small, which is what keeps
    period lengths testable.
    """
    if rng.random() < 0.2:
        return as_surd(Fraction(rng.randint(2, 9), rng.randint(1, 4)) + 1)
    u = rng.randint(0, 3)
    w = rng.randint(1, 2)
    x = QuadSurd(u, 1, w, d)
    if not x > 1:
        x = x + 2
    return x


def _scalar(rng: random.Random, d: int) -> QuadSurd:
    """Positive scaling factor: a small rational or a small surd."""
    if rng.random() < 0.7:
        return as_surd(Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    return _small_surd(rng, d)


def _random_excess(rng: random.Random) -> QuadraticForm:
    while True:
        a = rng.randint(1, 25)
        b = rng.randint(0, 40)
        c = rng.randint(1, 25)
        if a >= b + c:
            continue
        if is_perfect_square(b * b + 4 * a * c):
            continue
        return QuadraticForm(EXCESS, a, b, c)


def _random_defect(rng: random.Random) -> QuadraticForm:
    while True:
        b = rng.randint(3, 40)
        a = rng.randint(1, max(1, b // 2))
        cmax = (b * b - 1) // (4 * a)
        if cmax < 1:
            continue
        c = rng.randint(1, cmax)
        disc = b * b - 4 * a * c
        if disc < 1 or is_perfect_square(disc):
            continue
        form = QuadraticForm(DEFECT, a, b, c)
        if form.is_expandable:
            return form


def _random_square_disc_excess(rng: random.Random) -> QuadraticForm:
    while True:
        b = rng.randint(0, 20)
        j = b + 2 * rng.randint(1, 10)  # same parity as b, strictly larger
        m = (j * j - b * b) // 4
        divs = [x for x in range(1, m + 1) if m % x == 0]
        a = rng.choice(divs)
        c = m // a
        if a < b + c:
            return QuadraticForm(EXCESS, a, b, c)


# -- engine suite ------------------------------------------------------------


def _prop_disc_invariance(rng: random.Random) -> str:
    form = _random_excess(rng)
    disc = form.disc
    cur = form
    for _ in range(100):
        k, cur = excess_step(cur)
        assert k >= 1, "quotient below 1"
        assert cur.A >= 1 and cur.B >= 1 and cur.C >= 1, "nonpositive coefficient"
        assert cur.disc == disc, "discriminant drifted: %d -> %d" % (disc, cur.disc)
    return PASS


def _prop_pigeonhole_recurrence(rng: random.Random) -> str:
    form = _random_excess(rng)
    cf, trace = run_anthyphairesis(form, max_steps=50_000)
    assert trace.repeat_at is not None, "no recurrence found for %s" % (form,)
    _, j = trace.repeat_at
    bound = state_space_size(form.disc) + 1
    assert j <= bound, "recurrence after %d steps exceeds bound %d" % (j, bound)
    return PASS


def _prop_quotients_positive(rng: random.Random) -> str:
    form = _random_excess(rng) if rng.random() < 0.5 else _random_defect(rng)
    cf, trace = run_anthyphairesis(form, max_steps=50_000)
    assert not cf.truncated, "unexpected truncation"
    assert all(k >= 1 for k in trace.quotients), "nonpositive quotient emitted"
    return PASS


def _prop_defect_reaches_excess(rng: random.Random) -> str:
    form = _random_defect(rng)
    disc = form.disc
    cur = form
    steps = 0
    while cur.kind != EXCESS:
        assert steps <= form.B, "defect chain did not shrink"
        k, cur = defect_step(cur)
        assert k >= 1
        assert cur.disc == disc, "discriminant changed across the defect chain"
        steps += 1
    return PASS


def _prop_determinant_alternates(rng: random.Random) -> str:
    qs = [rng.randint(1, 5) for _ in range(rng.randint(1, 8))]
    sd = convergents(qs, len(qs))
    for n in range(1, len(qs) + 1):
        det = sd.q[n] * sd.p[n - 1] - sd.p[n] * sd.q[n - 1]
        assert det == (-1) ** n, "determinant at n=%d is %d" % (n, det)
    return PASS


def _prop_remainder_recurrence(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    b = _small_surd(rng, d)
    x = _small_ratio(rng, d)
    if x.is_rational:
        return VACUOUS  # exact termination would zero a remainder
    a = b * x
    cf = anth_of_ratio(line(a), line(b), max_steps=2_000)
    if cf.truncated:
        return VACUOUS
    count = 6
    qs = cf.head(count)
    sd = convergents(qs, count)
    rem = [remainder(n, a, b, sd) for n in range(count + 1)]
    for n in range(1, count + 1):
        assert rem[n] < rem[n - 1], "remainders are not strictly decreasing"
    for n in range(2, count + 1):
        assert rem[n] == rem[n - 2] - rem[n - 1] * qs[n - 1], (
            "remainder recurrence broken at n=%d" % n
        )
    return PASS


def _prop_oracle_agreement(rng: random.Random) -> str:
    form = _random_excess(rng)
    cf, _ = run_anthyphairesis(form, max_steps=50_000)
    oracle = surd_cf(form.root(), max_steps=50_000)
    assert cf == oracle, "engine and generic expansions disagree on %s" % (form,)
    assert cf.head(50) == oracle.head(50), "leading quotients disagree"
    return PASS


def _prop_period_roundtrip(rng: random.Random) -> str:
    per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    form = period_to_form(per)
    cf, _ = run_anthyphairesis(form, max_steps=10_000)
    want = ContinuedFraction((), per)
    assert cf == canonicalize_cf(want), "period %r did not round-trip: %s" % (per, cf)
    assert cf.preperiod == (), "round trip is not purely periodic"
    return PASS


def _prop_pell_identity(rng: random.Random) -> str:
    qs = [1] + [2] * 20
    sd = convergents(qs, 20)
    for n in range(21):
        assert sd.q[n] ** 2 - 2 * sd.p[n] ** 2 == (-1) ** n, "Pell identity failed"
    return PASS


def _prop_rational_fallback(rng: random.Random) -> str:
    form = _random_square_disc_excess(rng)
    cf, _ = run_anthyphairesis(form)
    fr = form.root_fraction()
    assert cf.is_finite, "square discriminant must give a finite expansion"
    assert cf == euclid_cf(fr.numerator, fr.denominator), "fallback mismatch"
    return PASS


# -- ratio suite -------------------------------------------------------------


def _pair_with_ratio(rng: random.Random, d: int, x: QuadSurd) -> tuple[Magnitude, Magnitude]:
    b = _small_surd(rng, d)
    return line(b * x), line(b)


def _prop_fundamental_equivalence(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    x1 = _small_ratio(rng, d)
    x2 = x1 if rng.random() < 0.4 else _small_ratio(rng, d)
    a, b = _pair_with_ratio(rng, d, x1)
    c, dd = _pair_with_ratio(rng, d, x2)
    by_anth = ratio_eq(a, b, c, dd)
    by_cross = cross_product_eq(a, b, c, dd)
    assert by_anth == by_cross, (
        "expansion equality and cross products disagree: %s vs %s" % (by_anth, by_cross)
    )
    return PASS


def _prop_scaling_invariance(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    x = _small_ratio(rng, d)
    a, b = _pair_with_ratio(rng, d, x)
    t = _scalar(rng, d)
    scaled = anth_of_ratio(line(a.value * t), line(b.value * t), max_steps=50_000)
    plain = anth_of_ratio(a, b, max_steps=50_000)
    assert scaled == plain, "scaling by %s changed the expansion" % (t,)
    return PASS


def _prop_equivalence_relation(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    x = _small_ratio(rng, d)
    a, b = _pair_with_ratio(rng, d, x)
    c, dd = _pair_with_ratio(rng, d, x)
    e, f = _pair_with_ratio(rng, d, x)
    assert ratio_eq(a, b, a, b), "reflexivity failed"
    assert ratio_eq(a, b, c, dd) == ratio_eq(c, dd, a, b), "symmetry failed"
    if ratio_eq(a, b, c, dd) and ratio_eq(c, dd, e, f):
        assert ratio_eq(a, b, e, f), "transitivity failed"
    return PASS


def _prop_mixed_ratio(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    b = _small_surd(rng, d)
    m, n = rng.randint(1, 30), rng.randint(1, 30)
    a = b * Fraction(m, n)
    assert mixed_ratio_eq(line(a), line(b), m, n), (
        "ratio %d:%d was not recognized against its own multiples" % (m, n)
    )
    other_m, other_n = rng.randint(1, 30), rng.randint(1, 30)
    want = Fraction(other_m, other_n) == Fraction(m, n)
    got = mixed_ratio_eq(line(a), line(b), other_m, other_n)
    assert got == want, "mixed proportion verdict disagrees with the fractions"
    return PASS


def _prop_commensurable_routes(rng: random.Random) -> str:
    a = rng.randint(1, 300)
    c = rng.randint(1, 300)
    verdict = commensurable_pure(a, c)  # self-checks the two routes
    witness = square_ratio_witness(c, a)
    assert (witness is not None) == verdict, "witness disagrees with verdict"
    if witness is not None:
        m, n = witness
        assert c * n * n == a * m * m, "witness does not satisfy C*n^2 == A*m^2"
    return PASS


# area propositions draw their line counterpart's magnitudes and turn each
# area slot into the rectangle of that line with one shared side
_AREA_BASE = {
    "area_v9": "v9_cancel",
    "area_alternando": "alternando",
    "area_ex_aequali": "ex_aequali",
    "area_mixed_ex_aequali": "ex_aequali",
    "area_perturbed": "perturbed",
    "area_mixed_perturbed": "perturbed",
}


def _constructive_inputs(name: str, rng: random.Random) -> list[Magnitude]:
    """Magnitudes satisfying the named proposition's hypotheses."""
    if name not in PROPOSITIONS:
        raise DomainError("no generator for proposition %r" % name)
    base = _AREA_BASE.get(name, name)
    d = rng.choice(_FIELDS)
    x = _small_ratio(rng, d)
    y = _small_ratio(rng, d)
    t = _scalar(rng, d)
    b = _small_surd(rng, d)
    e = _small_surd(rng, d)
    r = _small_surd(rng, d)

    if base == "transitivity":
        dd, f = _small_surd(rng, d), _small_surd(rng, d)
        values = [b * x, b, dd * x, dd, f * x, f]
    elif base in ("fundamental", "plus_unit"):
        dd = _small_surd(rng, d)
        values = [b * x, b, dd * x, dd]
    elif base == "v9_cancel":
        values = [b * x, b, b]
    elif base in ("alternando", "componendo_pairs"):
        dd = b * t
        values = [b * x, b, dd * x, dd]
    elif base == "ex_aequali":
        c = _small_surd(rng, d)
        f = _small_surd(rng, d)
        values = [c * y * x, c * y, c, f * y * x, f * y, f]
    elif base == "perturbed":
        c = _small_surd(rng, d)
        # a/b = e/f = x and b/c = d/e = y
        values = [c * y * x, c * y, c, e * y, e, e / x]
    elif base == "separando_pairs":
        small = b * Fraction(1, rng.randint(2, 4))
        values = [b * x, b, small * x, small]
    elif base == "minus_unit":
        big = x + 2  # ratio beyond 2 keeps a - b > b
        dd = _small_surd(rng, d)
        values = [b * big, b, dd * big, dd]
    else:  # topics_scaling
        values = [b * x, b, e]
    roles = PROPOSITIONS[name]
    return [
        rectangle(line(v), line(r)) if role == AREA else line(v)
        for v, role in zip(values, roles)
    ]


def _make_checker_property(name: str) -> Callable[[random.Random], str]:
    def prop(rng: random.Random) -> str:
        mags = _constructive_inputs(name, rng)
        report = check_proposition(name, mags)
        if not report.hypotheses_hold:
            raise AssertionError(
                "%s: constructed hypotheses were not recognized" % name
            )
        assert report.conclusion_holds, "%s: conclusion failed under hypotheses" % name
        return PASS

    prop.__name__ = "prop_" + name
    return prop


# -- areas suite -------------------------------------------------------------


def _rat(rng: random.Random, hi: int = 30) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def _prop_square_of_sum(rng: random.Random) -> str:
    rep = ar.check_ii4(_rat(rng), _rat(rng))
    assert rep.holds, "square-of-sum identity failed"
    return PASS


def _prop_gnomon_within(rng: random.Random) -> str:
    a = _rat(rng)
    x = a * Fraction(1, rng.randint(3, 9))
    if not x < a / 2:
        return VACUOUS
    rep = ar.check_ii5(a, x)
    assert rep.holds, "interior gnomon identity failed"
    return PASS


def _prop_gnomon_beyond(rng: random.Random) -> str:
    rep = ar.check_ii6(_rat(rng), _rat(rng))
    assert rep.holds, "exterior gnomon identity failed"
    return PASS


def _prop_defect_application(rng: random.Random) -> str:
    a = _rat(rng)
    m = (a / 2) * Fraction(rng.randint(1, 4), 4)
    x = ar.apply_in_defect(a, m)
    assert x * (as_surd(a) - x) == as_surd(m * m), "defect product mismatch"
    assert x > 0, "defect cut not positive"
    assert not x > as_surd(a / 2), "defect cut is not the smaller one"
    return PASS


def _prop_excess_application(rng: random.Random) -> str:
    a, m = _rat(rng), _rat(rng)
    x = ar.apply_in_excess(a, m)
    assert x * (as_surd(a) + x) == as_surd(m * m), "excess product mismatch"
    assert x > 0, "excess extension not positive"
    return PASS


def _prop_mean_proportional_roundtrip(rng: random.Random) -> str:
    a = _rat(rng)
    x = a * Fraction(rng.randint(1, 7), 8)
    if not x < a:
        return VACUOUS
    m = ar.mean_proportional(x, a)
    if m * m != as_surd(x * (a - x)):
        raise AssertionError("mean proportional square mismatch")
    small = x if x <= a - x else a - x
    if m.is_rational:
        got = ar.apply_in_defect(a, m.as_fraction())
        assert got == as_surd(small), "defect application did not recover the cut"
    return PASS


def _prop_distributivity(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    terms = [_small_surd(rng, d) for _ in range(rng.randint(2, 5))]
    b = _small_surd(rng, d)
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    lhs = total * b
    rhs = terms[0] * b
    for t in terms[1:]:
        rhs = rhs + t * b
    assert lhs == rhs, "rectangle distributivity failed"
    return PASS


def _prop_pythagorean_construction(rng: random.Random) -> str:
    a, m = _rat(rng), _rat(rng)
    x = ar.apply_in_excess(a, m)
    half = as_surd(a / 2)
    hyp = x + half  # hypotenuse of the right triangle with legs m, a/2
    assert hyp * hyp == as_surd(m * m) + half * half, "hypotenuse square mismatch"
    return PASS


# -- registry ----------------------------------------------------------------

_ENGINE_PROPS: list[tuple[str, Callable[[random.Random], str]]] = [
    ("disc_invariance", _prop_disc_invariance),
    ("pigeonhole_recurrence", _prop_pigeonhole_recurrence),
    ("quotients_positive", _prop_quotients_positive),
    ("defect_reaches_excess", _prop_defect_reaches_excess),
    ("determinant_alternates", _prop_determinant_alternates),
    ("remainder_recurrence", _prop_remainder_recurrence),
    ("oracle_agreement", _prop_oracle_agreement),
    ("period_roundtrip", _prop_period_roundtrip),
    ("pell_identity", _prop_pell_identity),
    ("rational_fallback", _prop_rational_fallback),
]

_RATIO_PROPS: list[tuple[str, Callable[[random.Random], str]]] = [
    ("fundamental_equivalence", _prop_fundamental_equivalence),
    ("scaling_invariance", _prop_scaling_invariance),
    ("equivalence_relation", _prop_equivalence_relation),
    ("mixed_ratio", _prop_mixed_ratio),
    ("commensurable_routes", _prop_commensurable_routes),
] + [("check_" + name, _make_checker_property(name)) for name in PROPOSITIONS]

_AREAS_PROPS: list[tuple[str, Callable[[random.Random], str]]] = [
    ("square_of_sum", _prop_square_of_sum),
    ("gnomon_within", _prop_gnomon_within),
    ("gnomon_beyond", _prop_gnomon_beyond),
    ("defect_application", _prop_defect_application),
    ("excess_application", _prop_excess_application),
    ("mean_proportional_roundtrip", _prop_mean_proportional_roundtrip),
    ("distributivity", _prop_distributivity),
    ("pythagorean_construction", _prop_pythagorean_construction),
]

SUITES: dict[str, list[tuple[str, Callable[[random.Random], str]]]] = {
    "engine": _ENGINE_PROPS,
    "ratio": _RATIO_PROPS,
    "areas": _AREAS_PROPS,
}


def run_property(
    suite: str, name: str, fn: Callable[[random.Random], str], trials: int, seed: int
) -> PropertyResult:
    result = PropertyResult(suite, name, trials, 0, 0, 0)
    for i in range(trials):
        rng = random.Random("%d:%s:%s:%d" % (seed, suite, name, i))
        try:
            outcome = fn(rng)
        except AssertionError as exc:
            result.failed += 1
            if result.first_failure is None:
                result.first_failure = str(exc) or "assertion failed"
            continue
        except Exception as exc:  # a crashing property is a failing property
            result.failed += 1
            if result.first_failure is None:
                result.first_failure = "%s: %s" % (type(exc).__name__, exc)
            continue
        if outcome == VACUOUS:
            result.vacuous += 1
        else:
            result.passed += 1
    return result


def run_suite(suite: str, trials: int, seed: int) -> list[PropertyResult]:
    """Run every property of one suite; see SUITES for the names."""
    if suite not in SUITES:
        raise DomainError(
            "run_suite: unknown suite %r (known: %s)" % (suite, ", ".join(sorted(SUITES)))
        )
    if trials < 1:
        raise DomainError("run_suite: trials must be >= 1")
    return [run_property(suite, name, fn, trials, seed) for name, fn in SUITES[suite]]
