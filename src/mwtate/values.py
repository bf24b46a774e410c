"""Immutable value classes, written out by hand.

``Record`` gives a class of named fields a ``Name(field=value, ...)``
repr and equality on the tuple of the field values, only within one
class.  ``Frozen`` adds hashing on that tuple and an ``AttributeError`` on
assignment, and ``Ordered`` the order of those tuples.  No code is
generated or executed when a class is defined, so importing a layer costs
only its own code.

A subclass names its compared and shown fields in ``_fields``, in order.
When the class is created, ``_fields`` becomes one key, ``_key``, that
reads the tuple of field values; equality, hash and order all compare
that key, and no subclass writes them out again.  A class equal up to an
order, as a ``Page`` is up to the order of its towers and arrows,
declares its own ``_key`` instead.
The report classes share ``Frozen.__init__``, which binds its arguments
to ``_fields`` as a dataclass's would and fills the fields left out from
``_defaults``.  Four kinds keep their own ``__init__``: the value types
built in hot loops, since setting each slot by name is about a third
faster, and some validate their arguments; ``HModule``, ``NormalForm``
and ``GradedGroup``, which normalize their arguments; ``ValidationReport``,
whose ``free_complex`` is a slot but not a field; and the ``Record``
classes, which may change.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Named fields, listed in ``_fields``: a ``Name(field=value, ...)``
    repr and equality on the field values, within one class.  A record
    may change, so it has no hash."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = vars(cls).get("_fields")
        if fields and "_key" not in vars(cls):  # else the key is declared or inherited
            get = attrgetter(*fields)
            cls._key = staticmethod(get if len(fields) > 1 else lambda value: (get(value),))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    __hash__ = None


class Frozen(Record):
    """A record that never changes after ``__init__``, hashed as the tuple
    of its field values; ``__init__`` binds them as a dataclass's would."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = {**self._defaults, **dict(zip(fields, args)), **kwargs}
            if (len(args) > len(fields) or given.keys() != set(fields)
                    or not kwargs.keys().isdisjoint(fields[: len(args)])):
                raise TypeError(
                    f"{type(self).__name__}() takes the fields {', '.join(fields)};"
                    f" got {len(args)} positional arguments and keywords {sorted(kwargs)}"
                )
            args = [given[f] for f in fields]
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Copying and unpickling set the fields past ``__setattr__``."""
        if isinstance(state, tuple):  # (instance dict or None, slot values)
            state = {**(state[0] or {}), **state[1]}
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._key(self))


class Ordered(Frozen):
    """A Frozen class ordered as the tuples of its field values, within
    one class; comparing two classes raises TypeError."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) < self._key(other)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) <= self._key(other)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) > self._key(other)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) >= self._key(other)
        return NotImplemented
