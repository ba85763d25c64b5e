"""Plain slotted value classes.

A value type lists its fields once, as ``__slots__ = _fields = (...)``,
and writes its own ``__init__``.  ``Record`` compares, shows and pickles
an instance as the tuple of its fields, as a dataclass would; ``Frozen``
also refuses assignment and deletion and hashes that tuple, so a frozen
type's ``__init__`` stores its fields with ``object.__setattr__``.  The
hottest types (``QuadSurd``, ``QuadraticForm``, ``ContinuedFraction``,
``Magnitude``) spell their comparisons out instead of looping over
field names.
"""

from __future__ import annotations


def _rebuild(cls: type, values: tuple) -> object:
    """An instance of cls holding values, for pickle and copy; no checks run."""
    x = object.__new__(cls)
    for name, value in zip(cls._fields, values):
        object.__setattr__(x, name, value)
    return x


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __reduce__(self) -> tuple:
        return (_rebuild, (self.__class__, self._values()))


class Frozen(Record):
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self) -> int:
        return hash(self._values())
