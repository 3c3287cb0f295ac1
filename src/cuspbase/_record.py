"""Immutable records: the package's value types on one slotted base.

A subclass names its fields in ``__slots__``, in the order its positional
arguments take; ``_defaults`` maps the trailing optional fields to their
values, and ``_derived`` names the fields that ``__post_init__`` sets
rather than the caller.  A record then behaves as a frozen dataclass would:
keyword or positional init, assignment refused, equality by exact type and
field values, the same repr, ``replace`` and pickling.

The hash covers the type and the fields.  It is computed once, on first
use, and kept in a slot, so a deep expression tree used as a memo key costs
one walk, not one per lookup.  A record holding an unhashable field (a
catalogue's dict) raises TypeError when hashed, as a dataclass does.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ("_hash",)

    _defaults = {}
    _derived = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__slots__
        cls._init_fields = tuple(f for f in cls._fields if f not in cls._derived)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value itself, not a 1-tuple
        cls._values = get if len(cls._fields) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        names = self._init_fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_hash", None)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """Every init field's value, from arguments not all given by position."""
        cls = type(self).__name__
        names = self._init_fields
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in self._defaults:
                values.append(self._defaults[name])
            else:
                raise TypeError(f"{cls}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls}() got unexpected or repeated arguments {sorted(kwargs)}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.__class__, *self._values(self)))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given init fields changed; derived fields are
        derived again."""
        values = {f: getattr(self, f) for f in self._init_fields}
        values.update(changes)
        return self.__class__(**values)

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, f) for f in self._init_fields))
