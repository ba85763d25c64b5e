"""Ratio calculus where proportion means equal expansions.

Two pairs of magnitudes are proportional exactly when their
reciprocal-subtraction expansions coincide.  Nothing here relies on an
Archimedean comparison axiom: every verdict comes from exact equality
of values or from exact cross products, and the calculus is
deliberately restricted to pairs whose expansion is finite or
eventually periodic.

In that class four descriptions of a positive ratio determine each
other: its normal form (u + v*sqrt(d))/w, which QuadSurd keeps unique;
its minimal polynomial w^2*x^2 - 2*u*w*x + (u^2 - v^2*d), divided by
its content; the primitive signed triple of that polynomial (its Logos,
the form engine.minimal_form returns and whose steps generate the
expansion); and the expansion itself, a finite one for a rational
ratio (Euclid) and an eventually periodic one for an irrational ratio
(Euler and Lagrange), which in turn determines its value.  So two
ratios have one expansion exactly when their normal forms are equal,
and a verdict is that equality of values: it orders nothing, expands
nothing and takes no step budget.  Whole expansions are for display
only, and anth_of_ratio alone builds them, within its max_steps.  A
PropReport carries the two ratio values it shows, which determine their
expansions, so it needs no budget either.
"""

from __future__ import annotations

import math

from ._value import Frozen, _rebuild, _store
from .engine import (
    ContinuedFraction,
    euclid_cf,
    minimal_form,
    run_anthyphairesis,
    _MAX_STEPS,
    _budget,
)
from .errors import DomainError
from .exactarith import QuadSurd, _require_int, _sign, as_surd, is_perfect_square, isqrt

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: neither module is imported at run time
    from collections.abc import Callable, Sequence
    from fractions import Fraction

    ValueLike = QuadSurd | Fraction | int

LINE = "line"
AREA = "area"


class Magnitude(Frozen):
    """A positive exact value tagged as a line or an area.

    Areas enter the calculus as rectangles, i.e. products of two lines
    of one field; see rectangle().  The tag keeps ratios homogeneous:
    a ratio is always line to line or area to area.

    A QuadSurd value is kept as it is and only an int or a Fraction goes
    through as_surd; the sign is one _sign call on the value's
    components, and both fields are stored with the slots' own setters.
    """

    __slots__ = _fields = ("value", "role")

    def __init__(self, value: ValueLike, role: str = LINE) -> None:
        if role not in (LINE, AREA):
            raise DomainError("Magnitude: role must be %r or %r" % (LINE, AREA))
        val = value if type(value) is QuadSurd else as_surd(value)
        if _sign(val.u, val.v, val.d) < 1:
            raise DomainError("Magnitude: value must be positive, got %s" % val)
        _set_value(self, val)
        _set_role(self, role)

    def __add__(self, other: "Magnitude") -> "Magnitude":
        if not isinstance(other, Magnitude):
            return NotImplemented
        if self.role != other.role:
            raise DomainError("Magnitude: cannot add a %s to a %s" % (other.role, self.role))
        return Magnitude(self.value + other.value, self.role)

    def __sub__(self, other: "Magnitude") -> "Magnitude":
        if not isinstance(other, Magnitude):
            return NotImplemented
        if self.role != other.role:
            raise DomainError(
                "Magnitude: cannot subtract a %s from a %s" % (other.role, self.role)
            )
        return Magnitude(self.value - other.value, self.role)

    def __str__(self) -> str:
        return "%s %s" % (self.role, self.value)


_set_value, _set_role = Magnitude._setters


def line(x: ValueLike) -> Magnitude:
    """A line magnitude from an exact positive value."""
    return Magnitude(x, LINE)


def rectangle(p: Magnitude, q: Magnitude) -> Magnitude:
    """The area contained by two lines."""
    if p.role != LINE or q.role != LINE:
        raise DomainError("rectangle: both sides must be lines")
    return Magnitude(p.value * q.value, AREA)


class PropReport(Frozen):
    """Verdict of one proposition check on concrete magnitudes.

    hypotheses_hold reports the value-level hypotheses (proportions,
    orderings, existence of the needed ratios); conclusion_holds is
    evaluated only under the hypotheses.  Both verdicts compare ratio
    values, which expands nothing.  lhs and rhs are the QuadSurd values
    of the ratio pair shown: the conclusion's sides when they were
    formed, or the first hypothesis pair when the conclusion equates two
    magnitudes.  When the hypotheses fail they are the first unequal
    hypothesis pair, or the first hypothesis pair when a condition, sum,
    difference, rectangle or conclusion ratio cannot be formed; both are
    None when there is no hypothesis pair or a hypothesis ratio does not
    even exist.  A value determines its expansion: the one shown as lhs,
    within a budget n, is anth_of_ratio(line(report.lhs), line(1), n).
    """

    __slots__ = _fields = ("proposition", "hypotheses_hold", "conclusion_holds", "lhs", "rhs")

    def __init__(
        self,
        proposition: str,
        hypotheses_hold: bool,
        conclusion_holds: bool,
        lhs: QuadSurd | None,
        rhs: QuadSurd | None,
    ) -> None:
        _store(self, (proposition, hypotheses_hold, conclusion_holds, lhs, rhs))


def _ratio(a: Magnitude, b: Magnitude, caller: str) -> QuadSurd:
    """The value of the ratio a : b; errors name the public function caller."""
    if not isinstance(a, Magnitude) or not isinstance(b, Magnitude):
        raise DomainError("%s: arguments must be magnitudes" % caller)
    if a.role != b.role:
        raise DomainError("%s: a ratio relates magnitudes of one role" % caller)
    try:
        return a.value / b.value
    except DomainError as exc:  # the two values lie in distinct fields
        raise DomainError("%s: %s" % (caller, exc)) from None


def anth_of_ratio(a: Magnitude, b: Magnitude, max_steps: int = _MAX_STEPS) -> ContinuedFraction:
    """Canonical expansion of the ratio a : b.

    Every irrational ratio runs on the quadratic-form engine.  A ratio
    below 1 is head quotient 0 followed by the expansion of its
    reciprocal b : a; that quotient 0 spends one step of the budget.
    Rational ratios are Euclidean.  The result is truncated when
    max_steps quotients were emitted before any period appeared.
    """
    x = _ratio(a, b, "anth_of_ratio")
    _budget(max_steps, "anth_of_ratio")
    if x.is_rational:  # u/w is reduced, with w >= 1
        return euclid_cf(x.u, x.w)
    if x > 1:
        cf, _ = run_anthyphairesis(minimal_form(x), max_steps)
        return cf
    if max_steps == 0:
        return _rebuild(ContinuedFraction, ((), None, True))
    # no period entry is 0, so the prefixed engine result stays canonical
    # and checked
    tail, _ = run_anthyphairesis(minimal_form(x.inverse()), max_steps - 1)
    return _rebuild(ContinuedFraction, ((0,) + tail.preperiod, tail.period, tail.truncated))


def ratio_eq(a: Magnitude, b: Magnitude, c: Magnitude, d: Magnitude) -> bool:
    """Whether a : b and c : d have the same expansion.

    Equal expansions are equal ratio values (see the module docstring),
    so the verdict compares the two normal forms and expands neither: it
    takes no step budget.
    """
    x = _ratio(a, b, "ratio_eq")
    return x == _ratio(c, d, "ratio_eq")


def cross_product_eq(a: Magnitude, b: Magnitude, c: Magnitude, d: Magnitude) -> bool:
    """Whether a*d == b*c exactly.  All four must share role and field."""
    for m in (a, b, c, d):
        if not isinstance(m, Magnitude):
            raise DomainError("cross_product_eq: arguments must be magnitudes")
        if m.role != a.role:
            raise DomainError("cross_product_eq: magnitudes must share one role")
    fields = {m.value.d for m in (a, b, c, d) if not m.value.is_rational}
    if len(fields) > 1:
        raise DomainError(
            "cross_product_eq: magnitudes lie in distinct quadratic fields (%s)"
            % ", ".join("sqrt(%d)" % d_ for d_ in sorted(fields))
        )
    return a.value * d.value == b.value * c.value


def mixed_ratio_eq(a: Magnitude, b: Magnitude, m: int, n: int) -> bool:
    """Whether the ratio a : b equals the number ratio m : n.

    This is proportion between a magnitude pair and a number pair: the
    expansion of a : b must coincide with the Euclidean expansion of
    m : n, which holds exactly when a : b is the rational u/w with
    u*n == m*w.  An irrational ratio never is.  As for ratio_eq, there
    is no step budget.
    """
    for k in (m, n):
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise DomainError("mixed_ratio_eq: m and n must be integers >= 1")
    x = _ratio(a, b, "mixed_ratio_eq")
    return x.is_rational and x.u * n == m * x.w


def commensurable_pure(a_coeff: int, c_coeff: int) -> bool:
    """Commensurability of a, b tied by A*a^2 = C*b^2.

    The pair is commensurable exactly when C/A in lowest terms has
    square numerator and denominator (equivalently, when A*C is a
    perfect square), that is, when square_ratio_witness finds the m, n
    with C/A = m^2/n^2.
    """
    _require_int(a_coeff, "commensurable_pure", "a_coeff")
    _require_int(c_coeff, "commensurable_pure", "c_coeff")
    if a_coeff < 1 or c_coeff < 1:
        raise DomainError("commensurable_pure: coefficients must be >= 1")
    return square_ratio_witness(c_coeff, a_coeff) is not None


def square_ratio_witness(c_coeff: int, a_coeff: int) -> tuple[int, int] | None:
    """Numbers (m, n) with C/A = m^2/n^2, or None when there are none.

    None certifies incommensurability of the tied pair: it happens
    exactly when A*C is not a perfect square.
    """
    _require_int(c_coeff, "square_ratio_witness", "c_coeff")
    _require_int(a_coeff, "square_ratio_witness", "a_coeff")
    if a_coeff < 1 or c_coeff < 1:
        raise DomainError("square_ratio_witness: coefficients must be >= 1")
    g = math.gcd(c_coeff, a_coeff)
    cr, ar = c_coeff // g, a_coeff // g
    if is_perfect_square(cr) and is_perfect_square(ar):
        return isqrt(cr), isqrt(ar)
    return None


# -- propositions -----------------------------------------------------------
#
# Each proposition is data evaluated by one rule (see PropReport): its
# hypothesis pairs of ratios must be proportional, its optional
# value-level condition must hold, and then its conclusion pair is
# compared.  Slots are named by index; ("+", i, j), ("-", i, j) and
# ("*", i, j) form the sum, the difference and the rectangle of two
# slots.  A ratio is (antecedent, consequent).  A conclusion of two bare
# slots says those magnitudes are equal, not that two ratios are.

_a, _b, _c, _d, _e, _f = range(6)

_Term = int | tuple[str, int, int]
_RatioSpec = tuple[_Term, _Term]


class _Rule(Frozen):
    __slots__ = _fields = ("hypotheses", "conclusion", "condition")

    def __init__(
        self,
        hypotheses: tuple[tuple[_RatioSpec, _RatioSpec], ...],
        conclusion: tuple[_RatioSpec, _RatioSpec] | tuple[int, int],
        condition: Callable[..., bool] | None = None,
    ) -> None:
        _store(self, (hypotheses, conclusion, condition))


def _form(term: _Term, m: Sequence[Magnitude]) -> Magnitude:
    if isinstance(term, int):
        return m[term]
    op, i, j = term
    if op == "+":
        return m[i] + m[j]
    if op == "-":
        return m[i] - m[j]
    return rectangle(m[i], m[j])


def _evaluate(rule: _Rule, m: Sequence[Magnitude]):
    """(hypotheses_hold, conclusion_holds, shown) of one check.

    shown is the pair of ratio values a report shows, or None.
    """
    values: dict[_RatioSpec, QuadSurd] = {}

    def value(spec: _RatioSpec) -> QuadSurd:
        if spec not in values:
            num, den = spec
            values[spec] = _ratio(_form(num, m), _form(den, m), "check_proposition")
        return values[spec]

    def shown(pair: tuple[_RatioSpec, _RatioSpec] | None) -> tuple | None:
        return None if pair is None else (value(pair[0]), value(pair[1]))

    for lhs, rhs in rule.hypotheses:
        if value(lhs) != value(rhs):
            return False, False, shown((lhs, rhs))
    first = rule.hypotheses[0] if rule.hypotheses else None
    try:
        lhs, rhs = rule.conclusion
        if rule.condition is not None and not rule.condition(*m):
            verdict, pair = (False, False), first
        elif isinstance(lhs, int):
            verdict, pair = (True, m[lhs].value == m[rhs].value), first
        else:
            verdict, pair = (True, value(lhs) == value(rhs)), rule.conclusion
    except DomainError:
        # a condition, sum, difference, rectangle or conclusion ratio
        # does not exist for these values: the hypotheses fail
        verdict, pair = (False, False), first
    return verdict + (shown(pair),)


_AB_CD = ((_a, _b), (_c, _d))

_CANCEL = _Rule((((_a, _b), (_a, _c)),), (_b, _c))
_ALTERNANDO = _Rule((_AB_CD,), ((_a, _c), (_b, _d)))
_EX_AEQUALI = _Rule(
    (((_a, _b), (_d, _e)), ((_b, _c), (_e, _f))), ((_a, _c), (_d, _f))
)
_PERTURBED = _Rule(
    (((_a, _b), (_e, _f)), ((_b, _c), (_d, _e))), ((_a, _c), (_d, _f))
)

_L = LINE
_A = AREA
_MIXED = (_A, _A, _A, _L, _L, _L)

_RULES: dict[str, tuple[tuple[str, ...], _Rule]] = {
    "transitivity": (
        (_L,) * 6,
        _Rule((_AB_CD, ((_c, _d), (_e, _f))), ((_a, _b), (_e, _f))),
    ),
    "fundamental": ((_L,) * 4, _Rule((), _AB_CD, cross_product_eq)),
    "v9_cancel": ((_L,) * 3, _CANCEL),
    "alternando": ((_L,) * 4, _ALTERNANDO),
    "ex_aequali": ((_L,) * 6, _EX_AEQUALI),
    "perturbed": ((_L,) * 6, _PERTURBED),
    "componendo_pairs": (
        (_L,) * 4,
        _Rule((_AB_CD,), ((("+", _a, _c), ("+", _b, _d)), (_a, _b))),
    ),
    "separando_pairs": (
        (_L,) * 4,
        _Rule(
            (_AB_CD,),
            ((("-", _a, _c), ("-", _b, _d)), (_a, _b)),
            lambda a, b, c, d: a.value > c.value and b.value > d.value,
        ),
    ),
    "plus_unit": (
        (_L,) * 4,
        _Rule((_AB_CD,), ((("+", _a, _b), _b), (("+", _c, _d), _d))),
    ),
    "minus_unit": (
        (_L,) * 4,
        _Rule(
            (_AB_CD,),
            ((("-", _a, _b), _b), (("-", _c, _d), _d)),
            # the remainders a - b and c - d must still exceed the consequents
            lambda a, b, c, d: a.value - b.value > b.value and c.value - d.value > d.value,
        ),
    ),
    "topics_scaling": (
        (_L,) * 3,
        _Rule((), ((("*", _a, _c), ("*", _b, _c)), (_a, _b))),
    ),
    "area_v9": ((_A,) * 3, _CANCEL),
    "area_alternando": ((_A,) * 4, _ALTERNANDO),
    "area_ex_aequali": ((_A,) * 6, _EX_AEQUALI),
    "area_mixed_ex_aequali": (_MIXED, _EX_AEQUALI),
    "area_perturbed": ((_A,) * 6, _PERTURBED),
    "area_mixed_perturbed": (_MIXED, _PERTURBED),
}

PROPOSITIONS: dict[str, tuple[str, ...]] = {name: roles for name, (roles, _) in _RULES.items()}


def check_proposition(name: str, magnitudes: Sequence[Magnitude]) -> PropReport:
    """Check a named proportion proposition on concrete magnitudes.

    Unknown names, wrong arity and wrong roles are caller errors; every
    value-level hypothesis failure is reported, not raised.  No verdict
    takes a step, and the report holds ratio values, not expansions, so
    there is no step budget.
    """
    if name not in PROPOSITIONS:
        raise DomainError(
            "check_proposition: unknown proposition %r (known: %s)"
            % (name, ", ".join(sorted(PROPOSITIONS)))
        )
    roles, rule = _RULES[name]
    if len(magnitudes) != len(roles):
        raise DomainError(
            "check_proposition: %s takes %d magnitudes, got %d"
            % (name, len(roles), len(magnitudes))
        )
    for i, (mag, role) in enumerate(zip(magnitudes, roles)):
        if not isinstance(mag, Magnitude):
            raise DomainError("check_proposition: input %d is not a Magnitude" % i)
        if mag.role != role:
            raise DomainError(
                "check_proposition: %s needs a %s in slot %d, got a %s"
                % (name, role, i, mag.role)
            )
    try:
        hyp, concl, shown = _evaluate(rule, list(magnitudes))
    except DomainError:
        # a hypothesis ratio does not exist for these values (distinct
        # fields); that is a failed hypothesis, not a caller error
        hyp, concl, shown = False, False, None
    lhs, rhs = shown or (None, None)
    return PropReport(name, hyp, concl, lhs, rhs)
