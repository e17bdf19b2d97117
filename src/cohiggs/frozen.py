"""The base of the immutable value types.

A value class lists its fields in ``__slots__``.  A type with checks
writes its own ``__init__``, with the fields as parameters in slot order,
and sets each checked value once with ``set_slot``.  A plain record, which
checks nothing, writes no ``__init__``: it declares ``__slots__`` and uses
``Frozen``'s constructor, which takes every field by position.  These are
not dataclasses because importing ``dataclasses``, and running its
decorator, took most of the package's import time.
"""

from __future__ import annotations

from operator import attrgetter

# the one way to set a field; plain assignment raises
set_slot = object.__setattr__


class Frozen:
    """What a frozen dataclass has, read from ``__slots__``: a constructor
    taking every field by position, in slot order; equality between
    instances of the same class, field by field in order; a hash over the
    field tuple; the ``Name(field=value, ...)`` repr; and ``AttributeError``
    on assignment or deletion.  Copies and pickles go back through the
    constructor."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # the field tuple, a 1-tuple for a single field
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args: object) -> None:
        names = self.__slots__
        if len(args) != len(names):
            what = self.__class__.__qualname__
            raise TypeError(f"{what}() takes {len(names)} fields but {len(args)} were given")
        for name, value in zip(names, args):
            set_slot(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)
