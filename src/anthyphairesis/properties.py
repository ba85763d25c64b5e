"""Seeded self-verification suites behind the `verify` command.

Each property is a small randomized check; a trial draws its own RNG
substream from (seed, suite, property, index), so results are
reproducible for a fixed seed no matter how trials are batched.
Properties return "pass" or "vacuous" (hypotheses missed) and signal
failure by raising AssertionError explicitly, never by an assert
statement, so that `python -O` strips none of the checks; any other
exception also counts as a failure, because properties must not crash
on their own inputs.

A property raises only on a fact that nothing before it on the same
path has checked: neither its own earlier comparison (an expansion
equal to a finite or purely periodic one is itself finite or purely
periodic) nor the code it calls, whose own guards (a quotient below 1,
a coefficient below 1) raise InternalInvariantError first.
"""

from __future__ import annotations

import random
from collections.abc import Callable

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
from .exactarith import QuadSurd, _require_int, is_perfect_square
from .ratios import (
    _RULES,
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
        return QuadSurd(rng.randint(2, 9), 0, rng.randint(1, 4)) + 1
    u = rng.randint(0, 3)
    w = rng.randint(1, 2)
    x = QuadSurd(u, 1, w, d)
    if not x > 1:
        x = x + 2
    return x


def _scalar(rng: random.Random, d: int) -> QuadSurd:
    """Positive scaling factor: a small rational or a small surd."""
    if rng.random() < 0.7:
        return QuadSurd(rng.randint(1, 4), 0, rng.randint(1, 4))
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
        c = rng.randint(1, (b * b - 1) // (4 * a))
        disc = b * b - 4 * a * c
        if is_perfect_square(disc):
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
        cur = excess_step(cur)[1]
        if cur.B < 1:
            raise AssertionError("nonpositive coefficient")
        if cur.disc != disc:
            raise AssertionError("discriminant drifted: %d -> %d" % (disc, cur.disc))
    return PASS


def _prop_pigeonhole_recurrence(rng: random.Random) -> str:
    form = _random_excess(rng)
    cf, trace = run_anthyphairesis(form, max_steps=50_000)
    if trace.repeat_at is None:
        raise AssertionError("no recurrence found for %s" % (form,))
    _, j = trace.repeat_at
    bound = state_space_size(form.disc) + 1
    if j > bound:
        raise AssertionError("recurrence after %d steps exceeds bound %d" % (j, bound))
    return PASS


def _prop_quotients_positive(rng: random.Random) -> str:
    form = _random_excess(rng) if rng.random() < 0.5 else _random_defect(rng)
    # the engine raises InternalInvariantError where it makes a quotient
    # below 1, so a run that ends has emitted only positive quotients
    cf, _ = run_anthyphairesis(form, max_steps=50_000)
    if cf.truncated:
        raise AssertionError("unexpected truncation")
    return PASS


def _prop_defect_reaches_excess(rng: random.Random) -> str:
    form = _random_defect(rng)
    disc = form.disc
    cur = form
    steps = 0
    while cur.kind != EXCESS:
        if steps > form.B:
            raise AssertionError("defect chain did not shrink")
        cur = defect_step(cur)[1]
        if cur.disc != disc:
            raise AssertionError("discriminant changed across the defect chain")
        steps += 1
    return PASS


def _prop_determinant_alternates(rng: random.Random) -> str:
    qs = [rng.randint(1, 5) for _ in range(rng.randint(1, 8))]
    sd = convergents(qs, len(qs))
    for n in range(1, len(qs) + 1):
        det = sd.q[n] * sd.p[n - 1] - sd.p[n] * sd.q[n - 1]
        if det != (-1) ** n:
            raise AssertionError("determinant at n=%d is %d" % (n, det))
    return PASS


def _prop_remainder_recurrence(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    b = _small_surd(rng, d)
    x = _small_ratio(rng, d)
    if x.is_rational:
        return VACUOUS  # exact termination would zero a remainder
    a = b * x
    cf = anth_of_ratio(line(a), line(b), max_steps=2_000)
    count = 6
    qs = cf.head(count)
    sd = convergents(qs, count)
    rem = [remainder(n, a, b, sd) for n in range(count + 1)]
    for n in range(1, count + 1):
        if not rem[n] < rem[n - 1]:
            raise AssertionError("remainders are not strictly decreasing")
    for n in range(2, count + 1):
        if rem[n] != rem[n - 2] - rem[n - 1] * qs[n - 1]:
            raise AssertionError("remainder recurrence broken at n=%d" % n)
    return PASS


def _prop_oracle_agreement(rng: random.Random) -> str:
    form = _random_excess(rng)
    cf, _ = run_anthyphairesis(form, max_steps=50_000)
    oracle = surd_cf(form.root(), max_steps=50_000)
    if cf != oracle:
        raise AssertionError("engine and generic expansions disagree on %s" % (form,))
    return PASS


def _prop_period_roundtrip(rng: random.Random) -> str:
    per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    form = period_to_form(per)
    cf, _ = run_anthyphairesis(form, max_steps=10_000)
    want = ContinuedFraction((), per)
    if cf != canonicalize_cf(want):
        raise AssertionError("period %r did not round-trip: %s" % (per, cf))
    return PASS


def _prop_pell_identity(rng: random.Random) -> str:
    qs = [1] + [2] * 20
    sd = convergents(qs, 20)
    for n in range(21):
        if sd.q[n] ** 2 - 2 * sd.p[n] ** 2 != (-1) ** n:
            raise AssertionError("Pell identity failed")
    return PASS


def _prop_rational_fallback(rng: random.Random) -> str:
    form = _random_square_disc_excess(rng)
    cf, _ = run_anthyphairesis(form)
    root = form.root()
    if cf != euclid_cf(root.u, root.w):
        raise AssertionError("fallback mismatch")
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
    if by_anth != by_cross:
        raise AssertionError(
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
    if scaled != plain:
        raise AssertionError("scaling by %s changed the expansion" % (t,))
    return PASS


def _prop_equivalence_relation(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    x = _small_ratio(rng, d)
    a, b = _pair_with_ratio(rng, d, x)
    c, dd = _pair_with_ratio(rng, d, x)
    e, f = _pair_with_ratio(rng, d, x)
    if not ratio_eq(a, b, a, b):
        raise AssertionError("reflexivity failed")
    if ratio_eq(a, b, c, dd) != ratio_eq(c, dd, a, b):
        raise AssertionError("symmetry failed")
    if ratio_eq(a, b, c, dd) and ratio_eq(c, dd, e, f) and not ratio_eq(a, b, e, f):
        raise AssertionError("transitivity failed")
    return PASS


def _prop_mixed_ratio(rng: random.Random) -> str:
    d = rng.choice(_FIELDS)
    b = _small_surd(rng, d)
    m, n = rng.randint(1, 30), rng.randint(1, 30)
    a = b * m / n
    if not mixed_ratio_eq(line(a), line(b), m, n):
        raise AssertionError(
            "ratio %d:%d was not recognized against its own multiples" % (m, n)
        )
    other_m, other_n = rng.randint(1, 30), rng.randint(1, 30)
    want = other_m * n == m * other_n
    got = mixed_ratio_eq(line(a), line(b), other_m, other_n)
    if got != want:
        raise AssertionError("mixed proportion verdict disagrees with the fractions")
    return PASS


def _prop_commensurable_routes(rng: random.Random) -> str:
    a = rng.randint(1, 300)
    c = rng.randint(1, 300)
    verdict = commensurable_pure(a, c)  # whether C/A in lowest terms is m^2/n^2
    if verdict != is_perfect_square(a * c):  # the other route: is A*C a square?
        raise AssertionError("verdict disagrees with the product route")
    witness = square_ratio_witness(c, a)
    if witness is not None:
        m, n = witness
        if c * n * n != a * m * m:
            raise AssertionError("witness does not satisfy C*n^2 == A*m^2")
    return PASS


def _constructive_inputs(name: str, rng: random.Random) -> list[Magnitude]:
    """Magnitudes satisfying the named proposition's hypotheses.

    The inputs are read off the proposition's rule in ratios._RULES, whose
    hypothesis terms must be bare slots.  Each hypothesis a : b = c : d in
    turn takes the ratio of a side already built, or draws one, and fills
    the open slots around it: an open consequent is drawn, or is its built
    antecedent divided by the ratio, and an open antecedent is its
    consequent times the ratio.  A rule with a condition and no hypotheses
    builds its conclusion pair so; every slot still open is drawn.  An area
    slot is the rectangle of its value with one shared line, and a draw
    that misses the rule's condition is drawn again.
    """
    if name not in PROPOSITIONS:
        raise DomainError("no generator for proposition %r" % name)
    roles, rule = _RULES[name]
    hypotheses = rule.hypotheses or ((rule.conclusion,) if rule.condition else ())
    while True:
        d = rng.choice(_FIELDS)
        v: dict[int, QuadSurd] = {}
        for hypothesis in hypotheses:
            built = [(p, q) for p, q in hypothesis if p in v and q in v]
            x = v[built[0][0]] / v[built[0][1]] if built else _small_ratio(rng, d)
            for p, q in hypothesis:
                if q not in v:
                    v[q] = v[p] / x if p in v else _small_surd(rng, d)
                if p not in v:
                    v[p] = v[q] * x
        values = [v[i] if i in v else _small_surd(rng, d) for i in range(len(roles))]
        side = line(_small_surd(rng, d)) if AREA in roles else None
        mags = [
            rectangle(line(value), side) if role == AREA else line(value)
            for value, role in zip(values, roles)
        ]
        if rule.condition is None or rule.condition(*mags):
            return mags


def _make_checker_property(name: str) -> Callable[[random.Random], str]:
    def prop(rng: random.Random) -> str:
        mags = _constructive_inputs(name, rng)
        report = check_proposition(name, mags)
        if not report.hypotheses_hold:
            raise AssertionError(
                "%s: constructed hypotheses were not recognized" % name
            )
        if not report.conclusion_holds:
            raise AssertionError("%s: conclusion failed under hypotheses" % name)
        return PASS

    prop.__name__ = "prop_" + name
    return prop


# -- areas suite -------------------------------------------------------------


def _rat(rng: random.Random) -> QuadSurd:
    return QuadSurd(rng.randint(1, 30), 0, rng.randint(1, 30))


def _prop_square_of_sum(rng: random.Random) -> str:
    rep = ar.check_ii4(_rat(rng), _rat(rng))
    if not rep.holds:
        raise AssertionError("square-of-sum identity failed")
    return PASS


def _prop_gnomon_within(rng: random.Random) -> str:
    a = _rat(rng)
    x = a / rng.randint(3, 9)
    rep = ar.check_ii5(a, x)
    if not rep.holds:
        raise AssertionError("interior gnomon identity failed")
    return PASS


def _prop_gnomon_beyond(rng: random.Random) -> str:
    rep = ar.check_ii6(_rat(rng), _rat(rng))
    if not rep.holds:
        raise AssertionError("exterior gnomon identity failed")
    return PASS


def _prop_defect_application(rng: random.Random) -> str:
    a = _rat(rng)
    m = a * rng.randint(1, 4) / 8
    x = ar.apply_in_defect(a, m)
    if not x > 0:
        raise AssertionError("defect cut not positive")
    if x > a / 2:
        raise AssertionError("defect cut is not the smaller one")
    return PASS


def _prop_excess_application(rng: random.Random) -> str:
    a, m = _rat(rng), _rat(rng)
    x = ar.apply_in_excess(a, m)
    if not x > 0:
        raise AssertionError("excess extension not positive")
    return PASS


def _prop_mean_proportional_roundtrip(rng: random.Random) -> str:
    a = _rat(rng)
    x = a * rng.randint(1, 7) / 8
    m = ar.mean_proportional(x, a)
    small = x if x <= a - x else a - x
    if m.is_rational:
        got = ar.apply_in_defect(a, m)
        if got != small:
            raise AssertionError("defect application did not recover the cut")
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
    if lhs != rhs:
        raise AssertionError("rectangle distributivity failed")
    return PASS


def _prop_pythagorean_construction(rng: random.Random) -> str:
    a, m = _rat(rng), _rat(rng)
    x = ar.apply_in_excess(a, m)
    half = a / 2
    hyp = x + half  # hypotenuse of the right triangle with legs m, a/2
    if hyp * hyp != m * m + half * half:
        raise AssertionError("hypotenuse square mismatch")
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
    _require_int(trials, "run_property", "trials")
    _require_int(seed, "run_property", "seed")
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
    _require_int(trials, "run_suite", "trials")
    _require_int(seed, "run_suite", "seed")
    if trials < 1:
        raise DomainError("run_suite: trials must be >= 1")
    return [run_property(suite, name, fn, trials, seed) for name, fn in SUITES[suite]]
