"""The base of sphvar's frozen value records.

Each record is a plain class on this base with its own __init__. Generating
the classes with the standard library's decorator cost about a third of
sphvar's set-up: its import, and the methods it compiles for every class.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A frozen record whose fields are the names in `_fields`.

    A subclass writes its own __init__, which sets each field once with
    object.__setattr__, and declares `__slots__ = _fields` unless cached
    properties need an instance __dict__. Records of one class compare equal when their fields
    do, and hash(record) == hash(tuple of its fields); records of different
    classes never compare equal. Assignment and deletion raise AttributeError.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter of one name returns the value itself, not a 1-tuple
        key = attrgetter(*cls._fields) if cls._fields else lambda record: ()
        single = len(cls._fields) == 1

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            return hash((key(self),) if single else key(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # copy and pickle would otherwise restore slots by assignment
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A copy with the given fields changed, built by the constructor."""
        fields = {f: getattr(self, f) for f in self._fields}
        fields.update(changes)
        return type(self)(**fields)
