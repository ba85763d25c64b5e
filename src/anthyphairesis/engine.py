"""Reciprocal-subtraction engine over integer quadratic forms.

Every step applies one rule, x = k + 1/y.  A form is a signed triple
(a, b, c) with root selector s = +-1 and designated root
x = (b + s*sqrt(D)) / (2a) of a*x^2 = b*x + c, a > 0, D = b^2 + 4ac; the
excess, mixed and defect kinds are only sign patterns of it.  A step
emits the quotient k = floor(x); with P(x) = a*x^2 - b*x - c, y solves
P(k)*y^2 = (b - 2*a*k)*y - a, so the successor is (P(k), b - 2*a*k, -a)
with selector -s, negated with s kept when P(k) is negative.  D never
changes and no root is ever evaluated numerically, which is what makes
recurrence detection exact and the periodicity argument a pigeonhole
over the finite set of triples of one discriminant: the Gauss-Lagrange
cycle of reduced forms (Buchmann & Vollmer, Binary Quadratic Forms,
2007, ch. 6).

Recurrence is found without remembering states.  A root x > 1 whose
conjugate lies in (-1, 0) is reduced, and by Galois' theorem (1829) its
expansion is purely periodic.  Only an excess triple can be reduced,
and for it the test is one integer comparison, D < (b + 2a)^2.  Every
excess state has a negative conjugate (x*x' = -c/a), so its successor
is reduced: the cycle starts at the first excess state or one step
later.  A run anchors on that first reduced state, and the first return
to the anchor closes the primitive period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import DomainError, IndeterminateError, InternalInvariantError
from .exactarith import QuadSurd, as_surd, is_perfect_square, isqrt

EXCESS = "excess"
DEFECT = "defect"
MIXED = "mixed"

_KINDS = (EXCESS, DEFECT, MIXED)


@dataclass(frozen=True)
class QuadraticForm:
    """An integer relation pinning down a quadratic ratio a : b.

    kind "excess":  A*a^2 = B*a*b + C*b^2;  signed triple (A, B, C, +).
    kind "mixed":   A*a^2 + B*a*b = C*b^2;  signed triple (A, -B, C, +).
    kind "defect":  A*a^2 + C*b^2 = B*a*b;  signed triple (A, B, -C, +),
                    or (A, B, -C, -) when smaller_root is set.

    The designated root of the signed triple (a, b, c, s) is the root
    (b + s*sqrt(disc)) / (2a) of a*x^2 = b*x + c, disc = b^2 + 4ac > 0,
    and every kind steps by the one rule x = k + 1/y on that triple.

    Mixed and smaller-root defect forms arise only as transient states
    while a defect relation is being driven toward an excess one; the
    public constructors and the CLI only ever hand out excess and
    larger-root defect forms.
    """

    kind: str
    A: int
    B: int
    C: int
    smaller_root: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DomainError("QuadraticForm: unknown kind %r" % (self.kind,))
        for name, x in (("A", self.A), ("B", self.B), ("C", self.C)):
            # exact type first: the engine builds one form per step
            if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
                raise DomainError("QuadraticForm: %s must be an int" % name)
        if self.A < 1 or self.C < 1:
            raise DomainError("QuadraticForm: A and C must be >= 1")
        if self.kind == EXCESS:
            if self.B < 0:
                raise DomainError("QuadraticForm: excess form needs B >= 0")
        elif self.B < 1:
            raise DomainError("QuadraticForm: %s form needs B >= 1" % self.kind)
        if self.kind == DEFECT and self.B * self.B - 4 * self.A * self.C < 1:
            raise DomainError(
                "QuadraticForm: defect form needs B^2 - 4*A*C > 0 (real roots)"
            )
        if self.smaller_root and self.kind != DEFECT:
            raise DomainError("QuadraticForm: smaller_root applies to defect only")

    @property
    def disc(self) -> int:
        a, b, c, _ = _triple(self)
        return b * b + 4 * a * c

    def root(self) -> QuadSurd:
        """The designated root, as an exact value."""
        a, b, _, s = _triple(self)
        return QuadSurd(b, s, 2 * a, self.disc)

    def root_fraction(self) -> Fraction:
        """The designated root when the discriminant is a perfect square."""
        j = isqrt(self.disc)
        if j * j != self.disc:
            raise DomainError("root_fraction: discriminant %d is not a square" % self.disc)
        a, b, _, s = _triple(self)
        return Fraction(b + s * j, 2 * a)

    @property
    def is_expandable(self) -> bool:
        """True when the designated root exceeds 1 (integer tests only)."""
        a, b, c, s = _triple(self)
        # the root exceeds 1 iff s*sqrt(D) > 2a - b; when both sides share
        # a sign, squaring turns that into s*(b + c - a) > 0
        if s * (2 * a - b) < 0:
            return s > 0
        return s * (b + c - a) > 0

    def __str__(self) -> str:
        tag = self.kind
        if self.kind == DEFECT and self.smaller_root:
            tag = "defect-"
        return "%s(%d, %d, %d)" % (tag, self.A, self.B, self.C)


@dataclass(frozen=True, eq=False)
class ContinuedFraction:
    """Quotient sequence of an expansion, possibly eventually periodic.

    A truncated expansion records only what was seen before the step
    budget ran out.  It compares unequal to everything, including
    itself: equality of truncated data is unknown, and pretending
    otherwise is exactly the mistake this type exists to prevent.
    """

    preperiod: tuple[int, ...]
    period: Optional[tuple[int, ...]] = None
    truncated: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "preperiod", tuple(self.preperiod))
        if self.period is not None:
            object.__setattr__(self, "period", tuple(self.period))
        pre, per = self.preperiod, self.period
        for i, k in enumerate(pre):
            if not isinstance(k, int) or k < 0 or (i > 0 and k < 1):
                raise DomainError(
                    "ContinuedFraction: quotients must be positive (head may be 0)"
                )
        if per is not None:
            if self.truncated:
                raise DomainError("ContinuedFraction: a truncated expansion has no period")
            if not per:
                raise DomainError("ContinuedFraction: period must be nonempty when present")
            for k in per:
                if not isinstance(k, int) or k < 1:
                    raise DomainError("ContinuedFraction: period entries must be >= 1")
        elif not pre and not self.truncated:
            raise DomainError("ContinuedFraction: empty expansion")

    @property
    def is_finite(self) -> bool:
        return self.period is None and not self.truncated

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    def head(self, n: int) -> tuple[int, ...]:
        """First n quotients, unrolling the period as far as needed."""
        if n < 0:
            raise DomainError("head: n must be >= 0")
        if n <= len(self.preperiod):
            return self.preperiod[:n]
        if self.period is None:
            raise DomainError(
                "head: expansion has only %d quotients, %d requested"
                % (len(self.preperiod), n)
            )
        out = list(self.preperiod)
        i = 0
        while len(out) < n:
            out.append(self.period[i % len(self.period)])
            i += 1
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContinuedFraction):
            return NotImplemented
        if self.truncated or other.truncated:
            return False
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period, self.truncated))

    def __str__(self) -> str:
        pre = ", ".join(str(k) for k in self.preperiod)
        if self.truncated:
            return "[%s, ...]" % pre if pre else "[...]"
        if self.period is None:
            return "[%s]" % pre
        per = ", ".join(str(k) for k in self.period)
        if pre:
            return "[%s; (%s)]" % (pre, per)
        return "[(%s)]" % per


@dataclass(frozen=True)
class SideDiameter:
    """Parallel convergent rows p and q built from quotients.

    Seeds are p0 = 0, p1 = 1 and q0 = 1, q1 = k0; both rows obey
    x_n = k_{n-1} * x_{n-1} + x_{n-2}.  For the classic ratio of
    diagonal to side these are the side and diameter numbers.
    """

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.p) != len(self.q) or not self.p:
            raise DomainError("SideDiameter: p and q must be nonempty, equal length")
        if self.p[0] != 0 or self.q[0] != 1:
            raise DomainError("SideDiameter: seeds must be p0 = 0, q0 = 1")


@dataclass(frozen=True)
class ExpansionTrace:
    """Step-by-step record of one expansion run.

    states[t] is the form whose quotient is quotients[t]; the final
    state is the first one seen twice (or the frontier if truncated).
    repeat_at = (i, j) says states[i] == states[j] triggered detection.
    The run keeps only the quotients and its start form: states is
    replayed from start on first access, then cached.
    """

    quotients: tuple[int, ...]
    start: QuadraticForm
    repeat_at: Optional[tuple[int, int]] = None

    @cached_property
    def states(self) -> tuple[QuadraticForm, ...]:
        disc = self.start.disc
        if is_perfect_square(disc):
            return (self.start,)
        j = isqrt(disc)
        a, b, c, s = _triple(self.start)
        out = [self.start]
        for _ in self.quotients:
            _, a, b, c, s = _step(a, b, c, s, j)
            out.append(_form(a, b, c, s))
        return tuple(out)


def euclid_cf(m: int, n: int) -> ContinuedFraction:
    """Finite expansion of the ratio m : n by plain Euclidean division."""
    if m < 1 or n < 1:
        raise DomainError("euclid_cf: both arguments must be >= 1")
    qs = []
    while n:
        k, r = divmod(m, n)
        qs.append(k)
        m, n = n, r
    return ContinuedFraction(tuple(qs))


def canonicalize_cf(cf: ContinuedFraction) -> ContinuedFraction:
    """Canonical representative of an expansion, for decidable equality.

    Finite: a trailing quotient 1 is folded into its predecessor, since
    [..., k, 1] and [..., k + 1] name the same ratio.  Periodic: the
    period is cut to its primitive word, then the preperiod is shortened
    by rotating the period while its last entry matches the preperiod's
    last entry.  Truncated input is returned untouched.  Idempotent.
    run_anthyphairesis is canonical by construction and does not call
    this; the oracle surd_cf does.
    """
    if cf.truncated:
        return cf
    if cf.period is None:
        pre = list(cf.preperiod)
        while len(pre) > 1 and pre[-1] == 1:
            pre.pop()
            pre[-1] += 1
        return ContinuedFraction(tuple(pre))
    per = list(cf.period)
    n = len(per)
    for width in range(1, n):
        if n % width == 0 and per[: width] * (n // width) == per:
            per = per[:width]
            break
    pre = list(cf.preperiod)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return ContinuedFraction(tuple(pre), tuple(per))


def _triple(form: QuadraticForm) -> tuple[int, int, int, int]:
    """The signed triple (a, b, c, s) of a form; see the module docstring."""
    if form.kind == EXCESS:
        return form.A, form.B, form.C, 1
    if form.kind == MIXED:
        return form.A, -form.B, form.C, 1
    return form.A, form.B, -form.C, -1 if form.smaller_root else 1


def _form(a: int, b: int, c: int, s: int) -> QuadraticForm:
    """The form whose signed triple is (a, b, c, s), for a > 0."""
    if c > 0 and s > 0:
        if b >= 0:
            return QuadraticForm(EXCESS, a, b, c)
        return QuadraticForm(MIXED, a, -b, c)
    if c < 0 and b > 0:
        return QuadraticForm(DEFECT, a, b, -c, smaller_root=s < 0)
    # c == 0 forces a square discriminant; the other patterns have no root above 1
    raise InternalInvariantError(
        "impossible sign pattern (%d, %d, %d) with selector %+d" % (a, b, c, s)
    )


def _step(a: int, b: int, c: int, s: int, j: int) -> tuple[int, int, int, int, int]:
    """k = floor(x) and the triple of y in x = k + 1/y; j = isqrt(D), D not square."""
    two_a = 2 * a
    k = (b + j) // two_a if s > 0 else (b - j - 1) // two_a
    a1 = (b - a * k) * k + c  # -P(k)
    b1 = two_a * k - b
    if k < 1 or a1 == 0:
        raise InternalInvariantError(
            "step: successor left the positive cone (k=%d, leading coefficient %d)"
            % (k, -a1)
        )
    if a1 > 0:
        return k, a1, b1, a, s
    return k, -a1, -b1, -a, -s


def _checked_step(form: QuadraticForm, name: str, too_small: str) -> tuple[int, QuadraticForm]:
    """One step of a form the caller vetted for kind; shared by both steps."""
    disc = form.disc
    if is_perfect_square(disc):
        raise DomainError(
            "%s: square discriminant %d has a rational root; "
            "use the Euclidean fallback" % (name, disc)
        )
    if not form.is_expandable:
        raise DomainError("%s: %s" % (name, too_small))
    k, a, b, c, s = _step(*_triple(form), isqrt(disc))
    return k, _form(a, b, c, s)


def excess_step(form: QuadraticForm) -> tuple[int, QuadraticForm]:
    """One reciprocal-subtraction step on an excess form.

    Emits k = floor of the root and the successor form, which is again
    excess with the same discriminant.  The root must exceed 1 and the
    discriminant must not be a square (a square discriminant means the
    ratio is of integer to integer; use the Euclidean fallback).
    """
    if form.kind != EXCESS:
        raise DomainError("excess_step: requires an excess form, got %s" % form.kind)
    return _checked_step(
        form, "excess_step", "designated root must exceed 1 (needs A < B + C)"
    )


def defect_step(form: QuadraticForm) -> tuple[int, QuadraticForm]:
    """One step on a defect or mixed form.

    The quotient is the floor of the designated root and the successor is
    the form of y in x = k + 1/y, the one rule every kind steps by; its
    kind is whatever the signs of the new triple say.  The B coefficient
    strictly decreases along a defect chain, so an excess form is reached
    after finitely many steps.
    """
    if form.kind == EXCESS:
        raise DomainError("defect_step: requires a defect or mixed form")
    return _checked_step(form, "defect_step", "designated root must exceed 1")


def run_anthyphairesis(
    form: QuadraticForm, max_steps: int = 10_000
) -> tuple[ContinuedFraction, ExpansionTrace]:
    """Full expansion of a form's designated root, with its state trace.

    A square discriminant routes to the Euclidean algorithm and yields a
    finite expansion.  Otherwise steps are taken until the first reduced
    state recurs (the expansion is then eventually periodic and the
    canonical preperiod/period pair is returned) or the step budget is
    exhausted, in which case the result is flagged truncated.  The run
    holds the quotients, the current triple and the anchor, nothing else.
    """
    if max_steps < 0:
        raise DomainError("run_anthyphairesis: max_steps must be >= 0")
    if not form.is_expandable:
        raise DomainError(
            "run_anthyphairesis: designated root of %s must exceed 1" % (form,)
        )
    disc = form.disc
    if is_perfect_square(disc):
        fr = form.root_fraction()
        cf = euclid_cf(fr.numerator, fr.denominator)
        return cf, ExpansionTrace(cf.preperiod, form, None)

    j = isqrt(disc)
    a, b, c, s = _triple(form)
    quotients: list[int] = []
    anchor: Optional[tuple[int, int, int]] = None  # first reduced triple, s = +1
    anchor_at = 0
    after_excess = False
    while True:
        pos = len(quotients)
        if anchor is None:
            excess = c > 0 and s > 0 and b >= 0
            if excess and disc < (b + 2 * a) ** 2:
                anchor, anchor_at = (a, b, c), pos
            elif after_excess:
                raise InternalInvariantError(
                    "run: state t=%d follows an excess state but is not reduced" % pos
                )
            after_excess = excess
        elif (a, b, c) == anchor:
            # canonical as it stands: the first return closes the primitive
            # period, and the unreduced state before the anchor cannot
            # share the period's last quotient (it would equal that state)
            if anchor_at and quotients[anchor_at - 1] == quotients[-1]:
                raise InternalInvariantError(
                    "run: the preperiod's last quotient repeats the period's last"
                )
            cf = ContinuedFraction(tuple(quotients[:anchor_at]), tuple(quotients[anchor_at:]))
            return cf, ExpansionTrace(tuple(quotients), form, (anchor_at, pos))
        if pos >= max_steps:
            cf = ContinuedFraction(tuple(quotients), None, truncated=True)
            return cf, ExpansionTrace(tuple(quotients), form, None)
        k, a, b, c, s = _step(a, b, c, s, j)
        if not ((c > 0 and s > 0) or (c < 0 and b > 0)):
            _form(a, b, c, s)  # raises: no form has this sign pattern
        quotients.append(k)


def same_anthyphairesis(f: QuadraticForm, g: QuadraticForm, max_steps: int = 10_000) -> bool:
    """Whether two forms' designated roots have the same expansion.

    Proportion as equal anthyphairesis, decided by stepping both forms
    together from their primitive triples (each divided by its content).
    A root has exactly one primitive triple, so equal roots show as
    equal triples before any step.  A step keeps the discriminant, so
    forms of different discriminants are unequal without a step.  Any
    other pair is stepped until the first round whose two quotients
    differ, and is then unequal.

    IndeterminateError is raised only after 2 * max_steps rounds with no
    disagreement.  That decides every pair whose expansions each close
    within max_steps: two eventually periodic words with periods p1, p2
    that agree on max(preperiod) + p1 + p2 quotients are equal
    (Fine-Wilf), and that count is at most 2 * max_steps.  A square
    discriminant (a rational root) is a DomainError: compare fractions.
    """
    if max_steps < 0:
        raise DomainError("same_anthyphairesis: max_steps must be >= 0")
    triples = []
    for form in (f, g):
        if not form.is_expandable:
            raise DomainError(
                "same_anthyphairesis: designated root of %s must exceed 1" % (form,)
            )
        a, b, c, s = _triple(form)
        h = math.gcd(a, b, c)
        triples.append((a // h, b // h, c // h, s))
    (a1, b1, c1, s1), (a2, b2, c2, s2) = triples
    disc = b1 * b1 + 4 * a1 * c1
    other = b2 * b2 + 4 * a2 * c2
    j = isqrt(disc)
    if j * j == disc or is_perfect_square(other):
        raise DomainError(
            "same_anthyphairesis: a square discriminant has a rational root; "
            "compare the fractions"
        )
    if other != disc:
        return False
    if triples[0] == triples[1]:
        return True
    for _ in range(2 * max_steps):
        k1, a1, b1, c1, s1 = _step(a1, b1, c1, s1, j)
        k2, a2, b2, c2, s2 = _step(a2, b2, c2, s2, j)
        if k1 != k2:
            return False
    raise IndeterminateError(
        "%d lockstep rounds without a differing quotient; the proportion is "
        "undecided at this step budget" % (2 * max_steps)
    )


def surd_cf(x: Union[QuadSurd, Fraction, int], max_steps: int = 10_000) -> ContinuedFraction:
    """Expansion of any positive exact value by the generic recurrence.

    This is the form engine's independent oracle: repeatedly split off
    the floor and invert the fractional part, detecting recurrence of
    the exact tail value.  Values below 1 are allowed and give a head
    quotient of 0.
    """
    val = as_surd(x)
    if not val > 0:
        raise DomainError("surd_cf: value must be positive, got %s" % val)
    if val.is_rational:
        fr = val.as_fraction()
        return euclid_cf(fr.numerator, fr.denominator)
    quotients: list[int] = []
    seen: dict[QuadSurd, int] = {}
    cur = val
    while True:
        if cur in seen:
            i = seen[cur]
            return canonicalize_cf(
                ContinuedFraction(tuple(quotients[:i]), tuple(quotients[i:]))
            )
        seen[cur] = len(quotients)
        if len(quotients) >= max_steps:
            return ContinuedFraction(tuple(quotients), None, truncated=True)
        k = cur.floor()
        quotients.append(k)
        cur = (cur - k).inverse()  # fractional part is never 0: cur is irrational


def convergents(quotients: Sequence[int], count: int) -> SideDiameter:
    """Convergent rows p[0..count], q[0..count] from the given quotients.

    Needs quotients k0 .. k_{count-1}; raises if fewer are supplied.
    """
    qs = list(quotients)
    if count < 0:
        raise DomainError("convergents: count must be >= 0")
    if count > len(qs):
        raise DomainError(
            "convergents: %d quotients needed, only %d supplied" % (count, len(qs))
        )
    for k in qs[:count]:
        if not isinstance(k, int) or k < 1:
            raise DomainError("convergents: quotients must be integers >= 1")
    p = [0, 1]
    q = [1, qs[0] if count >= 1 else 1]
    for i in range(2, count + 1):
        p.append(qs[i - 1] * p[-1] + p[-2])
        q.append(qs[i - 1] * q[-1] + q[-2])
    return SideDiameter(tuple(p[: count + 1]), tuple(q[: count + 1]))


def remainder(
    n: int,
    a: Union[QuadSurd, Fraction, int],
    b: Union[QuadSurd, Fraction, int],
    sd: SideDiameter,
) -> QuadSurd:
    """The n-th remainder (-1)^n * (q_n * b - p_n * a) of expanding a : b.

    When sd holds the convergents of the expansion of a : b, this is the
    magnitude left after n subtraction rounds: positive and strictly
    decreasing in n.  A nonpositive result means sd does not belong to
    this pair, which is reported as a domain error.
    """
    av, bv = as_surd(a), as_surd(b)
    if not (av > bv and bv > 0):
        raise DomainError("remainder: requires a > b > 0")
    if n < 0 or n >= len(sd.p):
        raise DomainError("remainder: index %d outside the convergent table" % n)
    e = bv * sd.q[n] - av * sd.p[n]
    if n % 2:
        e = -e
    if not e > 0:
        raise DomainError(
            "remainder: convergents do not match the expansion of this pair "
            "(remainder at n=%d is not positive)" % n
        )
    return e


def period_to_form(period: Sequence[int]) -> QuadraticForm:
    """Excess form whose expansion is purely periodic with this period.

    Built from the convergents of one full period: with n the last index
    of the period, the form is (p_{n+1}, q_{n+1} - p_n, q_n).
    """
    per = list(period)
    if not per:
        raise DomainError("period_to_form: period must be nonempty")
    for k in per:
        if not isinstance(k, int) or k < 1:
            raise DomainError("period_to_form: period entries must be >= 1")
    sd = convergents(per, len(per))
    n = len(per) - 1
    a = sd.p[n + 1]
    b = sd.q[n + 1] - sd.p[n]
    c = sd.q[n]
    if b < 0:
        raise InternalInvariantError("period_to_form: negative middle coefficient")
    return QuadraticForm(EXCESS, a, b, c)


def state_space_size(disc: int) -> int:
    """Number of triples (A, B, C), all >= 1, with B^2 + 4*A*C == disc.

    This is the pigeonhole bound for the excess phase: every excess
    state after the first step lies in this set, so a state must recur
    within state_space_size(disc) + 1 excess steps.  Each term counts
    the divisors A of m = (disc - B^2) / 4 in pairs up to sqrt(m).
    """
    if disc < 1:
        raise DomainError("state_space_size: discriminant must be >= 1")
    count = 0
    b = 1
    while b * b + 4 <= disc:
        rest = disc - b * b
        if rest % 4 == 0:
            m = rest // 4
            r = isqrt(m)
            count += 2 * sum(1 for a in range(1, r + 1) if m % a == 0) - (r * r == m)
        b += 1
    return count


def minimal_form(x: Union[QuadSurd, Fraction, int]) -> Union[QuadraticForm, Fraction]:
    """Primitive form whose designated root is x, for exact x > 1.

    Rational x has no form: the value itself is returned as a Fraction
    and expansion falls to the Euclidean algorithm.  For irrational x
    the form is the signed triple (P, Q, -R) of the minimal polynomial
    P*x^2 - Q*x + R = 0, with P = w^2, Q = 2*u*w, R = u^2 - v^2*d, and
    root selector the sign of v.
    """
    val = as_surd(x)
    if not val > 1:
        raise DomainError("minimal_form: requires x > 1, got %s" % val)
    if val.is_rational:
        return val.as_fraction()
    u, v, w, d = val.u, val.v, val.w, val.d
    p = w * w
    q = 2 * u * w
    r = u * u - v * v * d
    g = math.gcd(math.gcd(p, q), r)
    return _form(p // g, q // g, -r // g, 1 if v > 0 else -1)
