"""Rectangle-and-square identities and the two area application problems.

Segments are positive rationals, each an int, a Fraction or a rational
QuadSurd, read once into a QuadSurd; the constructed segments may be
quadratic surds.  Each check returns a report carrying both sides of
the identity so a caller can display the arithmetic, not just a verdict.
"""

from __future__ import annotations

from ._value import Frozen, _store
from .errors import DomainError, InternalInvariantError
from .exactarith import QuadSurd, _rational, rational_sqrt

TYPE_CHECKING = False
if TYPE_CHECKING:  # annotations only: fractions is not imported at run time
    from fractions import Fraction


class AreaIdentityReport(Frozen):
    """Outcome of one identity check: both sides, evaluated exactly."""

    __slots__ = _fields = ("identity", "lhs", "rhs", "holds")

    def __init__(self, identity: str, lhs: QuadSurd, rhs: QuadSurd, holds: bool) -> None:
        _store(self, (identity, lhs, rhs, holds))


def _segment(name: str, x: QuadSurd | Fraction | int) -> QuadSurd:
    r = _rational(x, name)
    if r.u <= 0:
        raise DomainError("%s: segment lengths must be positive" % name)
    return r


def check_ii4(a: QuadSurd | Fraction | int, b: QuadSurd | Fraction | int) -> AreaIdentityReport:
    """Square on a whole line: (a + b)^2 = a^2 + b*(b + 2*a)."""
    a = _segment("check_ii4", a)
    b = _segment("check_ii4", b)
    lhs = (a + b) * (a + b)
    rhs = a * a + b * (b + 2 * a)
    return AreaIdentityReport("square_of_sum", lhs, rhs, lhs == rhs)


def check_ii5(a: QuadSurd | Fraction | int, x: QuadSurd | Fraction | int) -> AreaIdentityReport:
    """Gnomon at an interior cut: (a/2)^2 - (a/2 - x)^2 = x*(a - x).

    Needs 0 < x < a/2 so that both squares are on honest segments.
    """
    a = _segment("check_ii5", a)
    x = _segment("check_ii5", x)
    half = a / 2
    if not x < half:
        raise DomainError("check_ii5: requires 0 < x < a/2")
    lhs = half * half - (half - x) * (half - x)
    rhs = x * (a - x)
    return AreaIdentityReport("gnomon_within", lhs, rhs, lhs == rhs)


def check_ii6(a: QuadSurd | Fraction | int, x: QuadSurd | Fraction | int) -> AreaIdentityReport:
    """Gnomon at an exterior extension: (a/2 + x)^2 = (a/2)^2 + x*(a + x)."""
    a = _segment("check_ii6", a)
    x = _segment("check_ii6", x)
    half = a / 2
    lhs = (half + x) * (half + x)
    rhs = half * half + x * (a + x)
    return AreaIdentityReport("gnomon_beyond", lhs, rhs, lhs == rhs)


def apply_in_defect(a: QuadSurd | Fraction | int, m: QuadSurd | Fraction | int) -> QuadSurd:
    """Cut x of the line a with x*(a - x) = m^2, taking the smaller cut.

    Solvable exactly when m <= a/2; the boundary m = a/2 gives the
    rational midpoint, otherwise x = a/2 - sqrt((a/2)^2 - m^2).
    """
    a = _segment("apply_in_defect", a)
    m = _segment("apply_in_defect", m)
    half = a / 2
    if m > half:
        raise DomainError(
            "apply_in_defect: no real cut, needs m <= a/2 (m=%s, a/2=%s)" % (m, half)
        )
    x = half - rational_sqrt(half * half - m * m)
    if x * (a - x) != m * m:
        raise InternalInvariantError("apply_in_defect: defining product failed")
    return x


def apply_in_excess(a: QuadSurd | Fraction | int, m: QuadSurd | Fraction | int) -> QuadSurd:
    """Extension x of the line a with x*(a + x) = m^2.

    Always solvable: x = sqrt(m^2 + (a/2)^2) - a/2, the positive root.
    """
    a = _segment("apply_in_excess", a)
    m = _segment("apply_in_excess", m)
    half = a / 2
    x = rational_sqrt(m * m + half * half) - half
    if x * (a + x) != m * m:
        raise InternalInvariantError("apply_in_excess: defining product failed")
    return x


def mean_proportional(x: QuadSurd | Fraction | int, a: QuadSurd | Fraction | int) -> QuadSurd:
    """Side m of the square equal to the rectangle x by (a - x).

    Requires 0 < x < a; then m = sqrt(x*(a - x)) and x solves the
    defect application problem for this m.
    """
    x = _segment("mean_proportional", x)
    a = _segment("mean_proportional", a)
    if not x < a:
        raise DomainError("mean_proportional: requires 0 < x < a")
    m = rational_sqrt(x * (a - x))
    if m * m != x * (a - x):
        raise InternalInvariantError("mean_proportional: square does not match rectangle")
    return m
