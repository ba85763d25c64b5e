"""Plain slotted value classes.

A value type lists its fields once, as ``__slots__ = _fields = (...)``,
and writes its own ``__init__``.  ``Record`` compares, shows and pickles
an instance as the tuple of its fields, as a dataclass would; ``Frozen``
also refuses assignment and deletion and hashes that tuple, so a frozen
type's ``__init__`` stores its fields with ``object.__setattr__``, or,
where many values are built, with its slots' own setters
(``_slot_setters``).
Only a type whose equality is not field equality defines its own
``__eq__`` and ``__hash__``: ``QuadSurd`` equals ints and Fractions and
hashes a rational value as its ``Fraction``, and a truncated
``ContinuedFraction`` equals nothing, not even itself.
"""

from __future__ import annotations

_new = object.__new__
_set = object.__setattr__  # stores a field past Frozen's refusing __setattr__


def _rebuild(cls: type, values: tuple) -> object:
    """An instance of cls holding values, one per field; no checks run.

    Pickle and copy build through it, and so do the library's own
    results, from fields their builder has already checked.
    """
    x = _new(cls)
    for name, value in zip(cls._fields, values):
        _set(x, name, value)
    return x


def _slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each field slot of cls, in field order.

    Each stores one field past Frozen's refusing ``__setattr__`` in about
    half the time of ``object.__setattr__`` by name; the library's own
    builders of its hot value types use them.
    """
    return tuple(cls.__dict__[name].__set__ for name in cls._fields)


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
