"""Plain slotted value classes.

A value type lists its fields once, as ``__slots__ = _fields = (...)``,
and writes its own ``__init__``.  ``Record`` shows and pickles an
instance as the tuple of its fields, as a dataclass would, and compares
it field by field with ``==``, so a record holding a value that equals
nothing, not even itself, equals nothing either; ``Frozen`` also refuses
assignment and deletion and hashes the tuple of its fields.
A frozen value is built one way: each field goes through its slot's own
``__set__``, which stores past Frozen's refusing ``__setattr__``.
``Record`` binds these setters once per class, in field order, as
``cls._setters``.  A type's ``__init__`` hands its checked values to
``_store`` and ``_rebuild`` is ``_store`` on a fresh instance, while the
builders of the most common values (``QuadSurd``, ``QuadraticForm`` and
``Magnitude``) unpack ``cls._setters`` and call one setter per field.
``PropertyResult``, a mutable ``Record``, assigns its fields as any
object does.
Only a type whose equality is not field equality defines its own
``__eq__`` and ``__hash__``: ``QuadSurd`` equals ints and Fractions and
hashes a rational value as its ``Fraction``, and a truncated
``ContinuedFraction`` equals nothing, not even itself.
"""

from __future__ import annotations

_new = object.__new__


def _store(x: object, values: tuple) -> object:
    """x holding values, one per field, stored through its slots' setters."""
    for put, value in zip(x._setters, values):
        put(x, value)
    return x


def _rebuild(cls: type, values: tuple) -> object:
    """An instance of cls holding values, one per field; no checks run.

    Pickle and copy build through it, and so do the library's own
    results, from fields their builder has already checked.  A pickle
    of an earlier layout, with another number of fields, is first
    converted by the class's ``_convert``.
    """
    if len(values) != len(cls._setters):
        values = cls._convert(values)
    return _store(_new(cls), values)


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        # looked up through the MRO, so a subclass without __slots__ stores
        # through the slots it inherits
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    @classmethod
    def _convert(cls, values: tuple) -> tuple:
        """The fields of an instance stored in an earlier layout; none is known."""
        raise TypeError(
            "%s has %d fields, not %d" % (cls.__qualname__, len(cls._fields), len(values))
        )

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # field by field: a tuple of the fields would take a field identical
        # to itself as equal, and a truncated expansion equals nothing
        for name in self._fields:
            if not getattr(self, name) == getattr(other, name):
                return False
        return True

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
