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

Half of a symmetric period is enough.  Galois also showed that -1/x'
expands to the reversed period of x; for a reduced triple (a, b, c)
that root is rev(a, b, c) = (c, b, a).  Number the cycle's states from
the anchor (state 0) and its quotients q[i] likewise, read around the
period.  A centre h is an integer with q[i] == q[h - i] for all i, and a
state equals another exactly when their quotient sequences agree, so
centres show as states:

- h = 2m - 1 when state m is its own reverse, a == c;
- h = 2m when the successor of state m is rev of state m;
- h = -2 when rev(anchor) steps to the anchor, checked once with one
  step whose quotient is the period's last.  Every sqrt(N) has it: its
  anchor is (N - a0^2, 2a0, 1), and rev(anchor) is a0 + sqrt(N).

Two centres differ by a period, and the centres of a primitive period p
are h1 + pZ, so the first two found from -2 upwards, h1 < h2, give
p = h2 - h1 and the unstepped quotients by reflection about h2.  The
cycle walk stops about h2 / 2 steps in: ceil(p/2) + O(1) for sqrt(N)
(h1 = -2) and fewer than p for any symmetric cycle.  A cycle that never
meets its reverse has no centre and is walked to the return, p steps.

The walk holds the outer coefficients doubled, A = 2a and C = 2c, and
the middle one shifted, P = b + j with j = isqrt(D).  The quotient is
k = P // A, and as b1 + j = A*k - b + j, the successor's middle term is
P1 = 2j - P % A; and A1 = C + k*(P - P1) is 2*a1 = 2*((b - a*k)*k + c),
since P - P1 = b - b1 = 2b - A*k.  A step so makes one division, one
remainder and one product, and forms neither b nor A*k.  j is the same
for every state, so the centre and return tests compare A, P and C
where they would compare a, b and c.

A form is checked once, where it enters.  The public QuadraticForm
constructor checks every condition; a public step or run reads the
signed triple of its form once and takes one integer square root.  The
forms the engine builds itself (step successors, minimal_form results,
replayed trace states) go through _form, where each of those conditions
holds by a test or by proof, and skip the public checks.
"""

from __future__ import annotations

import math
from itertools import repeat
from math import isqrt  # every caller here passes an int

from ._value import Frozen, _new, _rebuild, _store
from .errors import DomainError, InternalInvariantError
from .exactarith import QuadSurd, _in_field, _is_fraction, _require_int, as_surd

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: neither module is imported at run time
    from collections.abc import Iterator, Sequence
    from fractions import Fraction

EXCESS = "excess"
DEFECT = "defect"
MIXED = "mixed"

_KINDS = (EXCESS, DEFECT, MIXED)

_MAX_STEPS = 10_000  # the default step budget of every expansion, library and CLI


class QuadraticForm(Frozen):
    """An integer relation pinning down a quadratic ratio a : b.

    kind "excess":  A*a^2 = B*a*b + C*b^2;  signed triple (A, B, C, +).
    kind "mixed":   A*a^2 + B*a*b = C*b^2;  signed triple (A, -B, C, +).
    kind "defect":  A*a^2 + C*b^2 = B*a*b;  signed triple (A, B, -C, +),
                    or (A, B, -C, -) when smaller_root is set.

    The designated root of the signed triple (a, b, c, s) is the root
    (b + s*sqrt(disc)) / (2a) of a*x^2 = b*x + c, disc = b^2 + 4ac > 0,
    and every kind steps by the one rule x = k + 1/y on that triple.

    Mixed and smaller-root defect forms arise as states on the way from
    a defect relation to an excess one, and minimal_form returns them
    for roots whose minimal polynomial has that sign pattern: 3 - sqrt(2)
    is defect-(1, 6, 7) and -1 + 2*sqrt(2) is mixed(1, 2, 7).
    """

    __slots__ = _fields = ("kind", "A", "B", "C", "smaller_root")

    def __init__(self, kind: str, A: int, B: int, C: int, smaller_root: bool = False) -> None:
        if kind not in _KINDS:
            raise DomainError("QuadraticForm: unknown kind %r" % (kind,))
        for name, x in (("A", A), ("B", B), ("C", C)):
            if isinstance(x, bool) or not isinstance(x, int):
                raise DomainError("QuadraticForm: %s must be an int" % name)
        if not isinstance(smaller_root, bool):
            raise DomainError("QuadraticForm: smaller_root must be a bool")
        if A < 1 or C < 1:
            raise DomainError("QuadraticForm: A and C must be >= 1")
        if kind == EXCESS:
            if B < 0:
                raise DomainError("QuadraticForm: excess form needs B >= 0")
        elif B < 1:
            raise DomainError("QuadraticForm: %s form needs B >= 1" % kind)
        if kind == DEFECT and B * B - 4 * A * C < 1:
            raise DomainError(
                "QuadraticForm: defect form needs B^2 - 4*A*C > 0 (real roots)"
            )
        if smaller_root and kind != DEFECT:
            raise DomainError("QuadraticForm: smaller_root applies to defect only")
        _set_kind(self, kind)
        _set_A(self, A)
        _set_B(self, B)
        _set_C(self, C)
        _set_smaller_root(self, smaller_root)

    @property
    def disc(self) -> int:
        a, b, c, _ = _triple(self)
        return _disc(a, b, c)

    def root(self) -> QuadSurd:
        """The designated root, as an exact value; a rational one factors nothing."""
        a, b, c, s = _triple(self)
        disc = _disc(a, b, c)
        j = isqrt(disc)
        if j * j == disc:
            return _in_field(b + s * j, 0, 2 * a, 1)
        return QuadSurd(b, s, 2 * a, disc)

    @property
    def is_expandable(self) -> bool:
        """True when the designated root exceeds 1 (integer tests only)."""
        return _expandable(*_triple(self))

    def __str__(self) -> str:
        return "%s(%d, %d, %d)" % (_tag(self), self.A, self.B, self.C)


_set_kind, _set_A, _set_B, _set_C, _set_smaller_root = QuadraticForm._setters


class ContinuedFraction(Frozen):
    """Quotient sequence of an expansion, possibly eventually periodic.

    The public constructor validates its input and stores the quotients
    as plain int tuples, so True is stored and printed as 1.  The
    engine's own results skip that pass: each of their quotients was
    checked once, where the engine made it.

    A truncated expansion records only what was seen before the step
    budget ran out.  It compares unequal to everything, including
    itself: equality of truncated data is unknown, and pretending
    otherwise is exactly the mistake this type exists to prevent.
    """

    __slots__ = _fields = ("preperiod", "period", "truncated")

    def __init__(
        self,
        preperiod: Sequence[int],
        period: Sequence[int] | None = None,
        truncated: bool = False,
    ) -> None:
        if not isinstance(truncated, bool):
            raise DomainError("ContinuedFraction: truncated must be a bool")
        pre = tuple(preperiod)
        per = None if period is None else tuple(period)
        least = 0  # the head may be 0
        for k in pre:
            if not isinstance(k, int) or k < least:
                raise DomainError(
                    "ContinuedFraction: quotients must be positive (head may be 0)"
                )
            least = 1
        if per is not None:
            if truncated:
                raise DomainError("ContinuedFraction: a truncated expansion has no period")
            if not per:
                raise DomainError("ContinuedFraction: period must be nonempty when present")
            for k in per:
                if not isinstance(k, int) or k < 1:
                    raise DomainError("ContinuedFraction: period entries must be >= 1")
            per = tuple(map(int, per))
        elif not pre and not truncated:
            raise DomainError("ContinuedFraction: empty expansion")
        _store(self, (tuple(map(int, pre)), per, truncated))

    @property
    def is_finite(self) -> bool:
        return self.period is None and not self.truncated

    @property
    def is_periodic(self) -> bool:
        return self.period is not None

    def head(self, n: int) -> tuple[int, ...]:
        """First n quotients, unrolling the period as far as needed."""
        _budget(n, "head", "n")
        pre, per = self.preperiod, self.period
        if n <= len(pre):
            return pre[:n]
        if per is None:
            raise DomainError(
                "head: expansion has only %d quotients, %d requested" % (len(pre), n)
            )
        reps = -(-(n - len(pre)) // len(per))  # ceil: periods needed past pre
        return (pre + per * reps)[:n]

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


class SideDiameter(Frozen):
    """Parallel convergent rows p and q built from quotients.

    Seeds are p0 = 0, p1 = 1 and q0 = 1, q1 = k0; both rows obey
    x_n = k_{n-1} * x_{n-1} + x_{n-2}.  For the classic ratio of
    diagonal to side these are the side and diameter numbers.
    """

    __slots__ = _fields = ("p", "q")

    def __init__(self, p: tuple[int, ...], q: tuple[int, ...]) -> None:
        if len(p) != len(q) or not p:
            raise DomainError("SideDiameter: p and q must be nonempty, equal length")
        if p[0] != 0 or q[0] != 1:
            raise DomainError("SideDiameter: seeds must be p0 = 0, q0 = 1")
        _store(self, (p, q))


class ExpansionTrace(Frozen):
    """Step-by-step record of one expansion run.

    states[t] is the form whose quotient is quotients[t]; the final
    state is the first one seen twice (or the frontier if truncated).
    repeat_at = (i, j) says states[i] == states[j]: i is the anchor and
    j - i the primitive period, which a symmetric cycle knows before it
    has stepped that far.  A square discriminant is expanded by Euclid's
    division, which steps no form: states is then the start form alone.
    The run keeps only the quotients and its start form: states is
    replayed from start on each read.
    """

    __slots__ = _fields = ("quotients", "start", "repeat_at")

    def __init__(
        self,
        quotients: tuple[int, ...],
        start: QuadraticForm,
        repeat_at: tuple[int, int] | None = None,
    ) -> None:
        _store(self, (quotients, start, repeat_at))

    @property
    def states(self) -> tuple[QuadraticForm, ...]:
        return tuple(self._replay())

    def _replay(self) -> Iterator[QuadraticForm]:
        yield self.start
        a, b, c, s = _triple(self.start)
        disc = _disc(a, b, c)
        j = isqrt(disc)
        if j * j != disc:
            for _ in self.quotients:
                _, a, b, c, s = _step(a, b, c, s, j)
                yield _form(a, b, c, s)


def euclid_cf(m: Fraction | int, n: Fraction | int) -> ContinuedFraction:
    """Finite expansion of the ratio m : n by plain Euclidean division.

    m and n are ints or Fractions, so every quotient is an int; each
    after the first is >= 1, and the last is >= 2 unless it is the only
    one, so the result is canonical.  A bool is refused, as QuadSurd
    refuses it.
    """
    for x in (m, n):
        if isinstance(x, bool) or not (isinstance(x, int) or _is_fraction(x)):
            raise DomainError("euclid_cf: arguments must be ints or Fractions")
    if m < 1 or n < 1:
        raise DomainError("euclid_cf: both arguments must be >= 1")
    qs = []
    while n:
        k, r = divmod(m, n)
        qs.append(k)
        m, n = n, r
    return _rebuild(ContinuedFraction, (tuple(qs), None, False))


def canonicalize_cf(cf: ContinuedFraction) -> ContinuedFraction:
    """Canonical representative of an expansion, for decidable equality.

    Finite: a trailing quotient 1 is folded into its predecessor, since
    [..., k, 1] and [..., k + 1] name the same ratio.  Periodic: the
    period is cut to its primitive word, then the preperiod is shortened
    by rotating the period while its last entry matches the preperiod's
    last entry.  Truncated input is returned untouched.  Idempotent.
    Neither run_anthyphairesis nor the oracle surd_cf calls this: each is
    canonical by construction, and calling it could only hide a fault.
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


def _tag(form: QuadraticForm) -> str:
    """The kind as printed and in JSON: a smaller-root defect form is "defect-"."""
    return "defect-" if form.smaller_root else form.kind


def _disc(a: int, b: int, c: int) -> int:
    """The discriminant of the signed triple (a, b, c)."""
    return b * b + 4 * a * c


def _expandable(a: int, b: int, c: int, s: int) -> bool:
    """True when the designated root of the signed triple exceeds 1."""
    # the root exceeds 1 iff s*sqrt(D) > 2a - b; when both sides share
    # a sign, squaring turns that into s*(b + c - a) > 0
    if s * (2 * a - b) < 0:
        return s > 0
    return s * (b + c - a) > 0


def _form(a: int, b: int, c: int, s: int) -> QuadraticForm:
    """The form whose signed triple is (a, b, c, s), built without a recheck.

    Each condition of the public constructor holds by a test here or by
    proof: the coefficients are ints made from ints, A = a >= 1 and C =
    |c| >= 1 are tested, B >= 0 (excess) or B >= 1 (mixed, defect)
    follows from the sign pattern, and a defect form's B^2 - 4*A*C is the
    discriminant b^2 + 4ac, positive for every form and kept by a step.
    So the step successors, minimal_form results and replayed trace
    states built here skip the kind, type, sign and discriminant checks
    and store the five fields with the slots' own setters.
    """
    if a > 0 and (c > 0 and s > 0 or c < 0 and b > 0):
        x = _new(QuadraticForm)
        _set_A(x, a)
        if c < 0:
            _set_kind(x, DEFECT)
            _set_B(x, b)
            _set_C(x, -c)
            _set_smaller_root(x, s < 0)
            return x
        if b >= 0:
            _set_kind(x, EXCESS)
            _set_B(x, b)
        else:
            _set_kind(x, MIXED)
            _set_B(x, -b)
        _set_C(x, c)
        _set_smaller_root(x, False)
        return x
    # c == 0 forces a square discriminant; the other patterns have no root
    # above 1, and a <= 0 none at all
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
    a, b, c, s = _triple(form)
    disc = _disc(a, b, c)
    j = isqrt(disc)
    if j * j == disc:
        raise DomainError(
            "%s: square discriminant %d has a rational root; "
            "use the Euclidean fallback" % (name, disc)
        )
    if not _expandable(a, b, c, s):
        raise DomainError("%s: %s" % (name, too_small))
    k, a, b, c, s = _step(a, b, c, s, j)
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


def _budget(value: int, caller: str, name: str = "max_steps") -> None:
    """Reject a step budget or count that is not an integer >= 0.

    A bool is refused.  Errors name the caller and the argument.
    """
    _require_int(value, caller, name)
    if value < 0:
        raise DomainError("%s: %s must be >= 0" % (caller, name))


def run_anthyphairesis(
    form: QuadraticForm, max_steps: int = _MAX_STEPS
) -> tuple[ContinuedFraction, ExpansionTrace]:
    """Full expansion of a form's designated root, with its state trace.

    A square discriminant routes to the Euclidean algorithm and yields a
    finite expansion; that rational root may be 1, which expands to [1].
    Otherwise steps are taken until the first reduced state recurs (the
    expansion is then eventually periodic and the canonical
    preperiod/period pair is returned) or the step budget is exhausted,
    in which case the result is flagged truncated.  Past the
    anchor the reduced step is inlined on (A, P, C) = (2a, b + j, 2c),
    j = isqrt(D): the quotient is P // A and the successor is
    (C + k*(P - P1), P1, A) with P1 = 2j - P % A.  A symmetric cycle is
    walked only to its second centre and mirrored (see the module
    docstring).  The run still holds O(1) states besides the quotients:
    the current triple, the anchor and at most two centres; the cycle
    steps taken are the period's length when the walk stops.
    """
    _budget(max_steps, "run_anthyphairesis")
    a, b, c, s = _triple(form)
    disc = _disc(a, b, c)
    j = isqrt(disc)
    too_small = "run_anthyphairesis: designated root of %s must exceed 1"
    if j * j == disc:
        # the root is the rational (b + s*j) : 2a, whose pair Euclid expands
        # as it would the reduced pair; it may be 1 itself: sqrt(1) : 1 is [1]
        if b + s * j < 2 * a:
            raise DomainError(too_small % (form,))
        cf = euclid_cf(b + s * j, 2 * a)
        return cf, _rebuild(ExpansionTrace, (cf.preperiod, form, None))
    if not _expandable(a, b, c, s):
        raise DomainError(too_small % (form,))

    pre: list[int] = []
    after_excess = False
    while True:  # defect chain, up to the anchor (the first reduced state)
        excess = c > 0 and s > 0 and b >= 0
        if excess and disc < (b + 2 * a) ** 2:
            break
        if after_excess:
            raise InternalInvariantError(
                "run: state t=%d follows an excess state but is not reduced" % len(pre)
            )
        after_excess = excess
        if len(pre) >= max_steps:
            return _truncated(pre, form)
        k, a, b, c, s = _step(a, b, c, s, j)
        if not ((c > 0 and s > 0) or (c < 0 and b > 0)):
            _form(a, b, c, s)  # raises: no form has this sign pattern
        pre.append(k)

    # reduced cycle: s = +1 throughout, so the rule is inlined.  The
    # anchor's predecessor is rev of the successor of rev(anchor), and
    # that step's quotient is the period's last.
    anchor_at = len(pre)
    last, *rev_next = _step(c, b, a, 1, j)
    centres = [-2] if rev_next == [a, b, c, 1] else []
    period: list[int] = []
    append = period.append
    # the walk holds A = 2a, P = b + j and C = 2c (see the module docstring)
    A, P, C = 2 * a, b + j, 2 * c
    A0, P0, C0 = A, P, C
    j2 = 2 * j
    # the loop steps states 0 .. room, one more than the budget allows, so it
    # needs no budget test of its own: a result that outruns the budget,
    # whether the walk ran out with the period open (room + 1 quotients) or
    # the reflection below lengthened it, is cut to it after the loop.
    # State m is the one stepped while the period holds m quotients.
    room = max_steps - anchor_at
    for _ in repeat(None, room + 1):
        if A == C:  # state m = len(period) is its own reverse: centre 2m - 1
            centres.append(2 * len(period) - 1)
            if len(centres) == 2:
                break
        elif A == A0 and P == P0 and C == C0 and period:
            break  # back at the anchor with no centre: the full period
        k = P // A
        P1 = j2 - P % A
        A1 = C + k * (P - P1)
        if k < 1 or A1 < 2:  # A1 = 2*a1 is even: a1 < 1
            raise InternalInvariantError(
                "step: successor left the positive cone (k=%d, leading coefficient %d)"
                % (k, -(A1 // 2))
            )
        append(k)
        if A1 == C and P1 == P:  # state m + 1 is rev of state m: centre 2m
            centres.append(2 * len(period) - 2)
            if len(centres) == 2:
                break
        A, P, C = A1, P1, A

    if len(centres) == 2:
        # q[i] == q[h - i] for every centre h: two give the primitive period
        # h2 - h1, and reflecting about h2 fills in what was not stepped,
        # q[h2 - n] down to q[max(h1 + 1, 0)]; h2 - n is -1 when the walk
        # stopped at once, with nothing to reflect
        h1, h2 = centres
        n = len(period)
        if h2 >= n:
            period += period[h2 - n : h1 if h1 >= 0 else None : -1]
        if h1 == -2:
            period.append(last)
    if anchor_at + len(period) > max_steps:
        return _truncated((pre + period)[:max_steps], form)
    # canonical as it stands: the primitive period is closed, and the
    # unreduced state before the anchor cannot share the period's last
    # quotient (it would equal that state)
    if anchor_at and pre[-1] == period[-1]:
        raise InternalInvariantError(
            "run: the preperiod's last quotient repeats the period's last"
        )
    # every quotient passed k >= 1 where it was made, in _step or in the
    # cycle loop, so the tuples are stored without a second scan
    cf = _rebuild(ContinuedFraction, (tuple(pre), tuple(period), False))
    quotients = cf.preperiod + cf.period
    return cf, _rebuild(ExpansionTrace, (quotients, form, (anchor_at, len(quotients))))


def _truncated(
    quotients: list[int], form: QuadraticForm
) -> tuple[ContinuedFraction, ExpansionTrace]:
    """The result of a run whose step budget ran out after these quotients."""
    qs = tuple(quotients)
    cf = _rebuild(ContinuedFraction, (qs, None, True))
    return cf, _rebuild(ExpansionTrace, (qs, form, None))


def surd_cf(x: QuadSurd | Fraction | int, max_steps: int = _MAX_STEPS) -> ContinuedFraction:
    """Expansion of any positive exact value by the generic recurrence.

    This is the form engine's independent oracle: repeatedly split off
    the floor and invert the fractional part, detecting recurrence of
    the exact tail value.  Values below 1 are allowed and give a head
    quotient of 0.
    """
    _budget(max_steps, "surd_cf")
    val = as_surd(x)
    if not val > 0:
        raise DomainError("surd_cf: value must be positive, got %s" % val)
    if val.is_rational:
        return euclid_cf(val.u, val.w)
    quotients: list[int] = []
    seen: dict[QuadSurd, int] = {}
    cur = val
    while True:
        if cur in seen:
            # the first tail value seen twice, so the result is canonical: a
            # shorter period, or a preperiod ending in the period's last
            # quotient (two equal tails one step earlier), repeats sooner
            i = seen[cur]
            return ContinuedFraction(tuple(quotients[:i]), tuple(quotients[i:]))
        seen[cur] = len(quotients)
        if len(quotients) >= max_steps:
            return ContinuedFraction(tuple(quotients), None, truncated=True)
        k = cur.floor()
        quotients.append(k)
        cur = (cur - k).inverse()  # fractional part is never 0: cur is irrational


def convergents(quotients: Sequence[int], count: int) -> SideDiameter:
    """Convergent rows p[0..count], q[0..count] from the given quotients.

    Needs quotients k0 .. k_{count-1}; raises if fewer are supplied.  As
    in ContinuedFraction, a quotient True counts as the int 1.
    """
    _budget(count, "convergents", "count")
    qs = list(quotients)
    if count > len(qs):
        raise DomainError(
            "convergents: %d quotients needed, only %d supplied" % (count, len(qs))
        )
    for k in qs[:count]:
        if not isinstance(k, int) or k < 1:
            raise DomainError("convergents: quotients must be integers >= 1")
    p = [0, 1]
    q = [1, int(qs[0]) if count >= 1 else 1]
    for i in range(2, count + 1):
        p.append(qs[i - 1] * p[-1] + p[-2])
        q.append(qs[i - 1] * q[-1] + q[-2])
    return SideDiameter(tuple(p[: count + 1]), tuple(q[: count + 1]))


def remainder(
    n: int,
    a: QuadSurd | Fraction | int,
    b: QuadSurd | Fraction | int,
    sd: SideDiameter,
) -> QuadSurd:
    """The n-th remainder (-1)^n * (q_n * b - p_n * a) of expanding a : b.

    When sd holds the convergents of the expansion of a : b, this is the
    magnitude left after n subtraction rounds: positive and strictly
    decreasing in n.  A nonpositive result means sd does not belong to
    this pair, which is reported as a domain error.
    """
    _budget(n, "remainder", "n")
    av, bv = as_surd(a), as_surd(b)
    if not (av > bv and bv > 0):
        raise DomainError("remainder: requires a > b > 0")
    if n >= len(sd.p):
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
    _require_int(disc, "state_space_size", "discriminant")
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


def minimal_form(x: QuadSurd | Fraction | int) -> QuadraticForm:
    """Primitive form whose designated root is x, for irrational exact x > 1.

    A rational x has no form and is a DomainError; euclid_cf expands it.
    The form is the signed triple (P, Q, -R) of the minimal polynomial
    P*x^2 - Q*x + R = 0, with P = w^2, Q = 2*u*w, R = u^2 - v^2*d, and
    root selector the sign of v.
    """
    val = as_surd(x)
    if not val > 1:
        raise DomainError("minimal_form: requires x > 1, got %s" % val)
    if val.is_rational:
        raise DomainError("minimal_form: %s is rational; use euclid_cf" % val)
    u, v, w, d = val.u, val.v, val.w, val.d
    p = w * w
    q = 2 * u * w
    r = u * u - v * v * d
    g = math.gcd(math.gcd(p, q), r)
    return _form(p // g, q // g, -r // g, 1 if v > 0 else -1)
