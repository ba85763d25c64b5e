"""Error taxonomy shared by every module.

Two failure modes are kept apart on purpose:

* ``DomainError`` -- the caller violated a stated precondition (bad input).
* ``InternalInvariantError`` -- a branch that the underlying theory rules
  out was reached.  This is a bug in the library, never a caller problem.

A step budget that runs out raises neither: every proportion verdict is
decided whatever the budget, and a truncated expansion is returned
flagged as such.
"""


class DomainError(ValueError):
    """A documented precondition does not hold for the given input."""


class InternalInvariantError(AssertionError):
    """An impossible case was reached; the library itself is at fault."""
