"""Rectangle-and-square identities and the two area application problems.

Everything here is stated over exact rationals for the given segments;
the constructed segments themselves may be quadratic surds.  Each check
returns a report carrying both sides of the identity so a caller can
display the arithmetic, not just a verdict.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Frozen
from .errors import DomainError, InternalInvariantError
from .exactarith import QuadSurd, as_surd, rational_sqrt

RationalLike = Fraction | int


class AreaIdentityReport(Frozen):
    """Outcome of one identity check: both sides, evaluated exactly."""

    __slots__ = _fields = ("identity", "lhs", "rhs", "holds")

    def __init__(self, identity: str, lhs: QuadSurd, rhs: QuadSurd, holds: bool) -> None:
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "holds", holds)


def _positive_fraction(name: str, x: RationalLike) -> Fraction:
    fr = Fraction(x)
    if fr <= 0:
        raise DomainError("%s: segment lengths must be positive" % name)
    return fr


def check_ii4(a: RationalLike, b: RationalLike) -> AreaIdentityReport:
    """Square on a whole line: (a + b)^2 = a^2 + b*(b + 2*a)."""
    a = _positive_fraction("check_ii4", a)
    b = _positive_fraction("check_ii4", b)
    lhs = (a + b) ** 2
    rhs = a * a + b * (b + 2 * a)
    return AreaIdentityReport("square_of_sum", as_surd(lhs), as_surd(rhs), lhs == rhs)


def check_ii5(a: RationalLike, x: RationalLike) -> AreaIdentityReport:
    """Gnomon at an interior cut: (a/2)^2 - (a/2 - x)^2 = x*(a - x).

    Needs 0 < x < a/2 so that both squares are on honest segments.
    """
    a = _positive_fraction("check_ii5", a)
    x = _positive_fraction("check_ii5", x)
    if not x < a / 2:
        raise DomainError("check_ii5: requires 0 < x < a/2")
    lhs = (a / 2) ** 2 - (a / 2 - x) ** 2
    rhs = x * (a - x)
    return AreaIdentityReport("gnomon_within", as_surd(lhs), as_surd(rhs), lhs == rhs)


def check_ii6(a: RationalLike, x: RationalLike) -> AreaIdentityReport:
    """Gnomon at an exterior extension: (a/2 + x)^2 = (a/2)^2 + x*(a + x)."""
    a = _positive_fraction("check_ii6", a)
    x = _positive_fraction("check_ii6", x)
    lhs = (a / 2 + x) ** 2
    rhs = (a / 2) ** 2 + x * (a + x)
    return AreaIdentityReport("gnomon_beyond", as_surd(lhs), as_surd(rhs), lhs == rhs)


def apply_in_defect(a: RationalLike, m: RationalLike) -> QuadSurd:
    """Cut x of the line a with x*(a - x) = m^2, taking the smaller cut.

    Solvable exactly when m <= a/2; the boundary m = a/2 gives the
    rational midpoint, otherwise x = a/2 - sqrt((a/2)^2 - m^2).
    """
    a = _positive_fraction("apply_in_defect", a)
    m = _positive_fraction("apply_in_defect", m)
    half = a / 2
    if m > half:
        raise DomainError(
            "apply_in_defect: no real cut, needs m <= a/2 (m=%s, a/2=%s)" % (m, half)
        )
    x = as_surd(half) - rational_sqrt(half * half - m * m)
    if x * (as_surd(a) - x) != as_surd(m * m):
        raise InternalInvariantError("apply_in_defect: defining product failed")
    return x


def apply_in_excess(a: RationalLike, m: RationalLike) -> QuadSurd:
    """Extension x of the line a with x*(a + x) = m^2.

    Always solvable: x = sqrt(m^2 + (a/2)^2) - a/2, the positive root.
    """
    a = _positive_fraction("apply_in_excess", a)
    m = _positive_fraction("apply_in_excess", m)
    half = a / 2
    x = rational_sqrt(m * m + half * half) - as_surd(half)
    if x * (as_surd(a) + x) != as_surd(m * m):
        raise InternalInvariantError("apply_in_excess: defining product failed")
    return x


def mean_proportional(x: RationalLike, a: RationalLike) -> QuadSurd:
    """Side m of the square equal to the rectangle x by (a - x).

    Requires 0 < x < a; then m = sqrt(x*(a - x)) and x solves the
    defect application problem for this m.
    """
    x = _positive_fraction("mean_proportional", x)
    a = _positive_fraction("mean_proportional", a)
    if not x < a:
        raise DomainError("mean_proportional: requires 0 < x < a")
    m = rational_sqrt(x * (a - x))
    if m * m != as_surd(x * (a - x)):
        raise InternalInvariantError("mean_proportional: square does not match rectangle")
    return m
