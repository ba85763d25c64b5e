"""Error taxonomy shared by every module.

Three failure modes are kept apart on purpose:

* ``DomainError`` -- the caller violated a stated precondition (bad input).
* ``IndeterminateError`` -- a step budget ran out before an answer was
  reached; the answer is unknown, not false.  No library function raises
  it: every proportion verdict is decided whatever the budget, and a
  truncated expansion is returned flagged as such.  The command line
  raises it, and exits 3, only when ``convergents sqrt N`` is truncated
  below ``--count`` quotients.
* ``InternalInvariantError`` -- a branch that the underlying theory rules
  out was reached.  This is a bug in the library, never a caller problem.
"""


class DomainError(ValueError):
    """A documented precondition does not hold for the given input."""


class IndeterminateError(RuntimeError):
    """A step budget ran out before an answer was reached.

    Only the command line raises it (exit 3), for a ``convergents sqrt N``
    run truncated below ``--count``; no library function does.
    """


class InternalInvariantError(AssertionError):
    """An impossible case was reached; the library itself is at fault."""
