"""The base of the immutable value types.

A value class lists its fields in ``__slots__``.  A type with checks
writes its own ``__init__``, with the fields as parameters in slot order,
and sets each checked value once with ``set_slot``.  A plain record, which
checks nothing, writes no ``__init__``: it declares ``__slots__``, plus
``_defaults`` if it has optional fields, and uses ``Frozen``'s
constructor.  These are not dataclasses because importing
``dataclasses``, and running its decorator, took most of the package's
import time.
"""

from __future__ import annotations

from operator import attrgetter

# the one way to set a field; plain assignment raises
set_slot = object.__setattr__


class Frozen:
    """What a frozen dataclass has, read from ``__slots__``: a constructor
    taking the fields in slot order, by position or by keyword; equality
    between instances of the same class, field by field in order; a hash
    over the field tuple; the ``Name(field=value, ...)`` repr; and
    ``AttributeError`` on assignment or deletion.  Copies and pickles go
    back through the constructor."""

    __slots__ = ()
    # the values of optional fields, by name; each must be immutable
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        get = attrgetter(*cls.__slots__)
        # the field tuple, a 1-tuple for a single field
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            set_slot(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in slot order, of a call that does not give
        every field by position, with defaults filled in."""
        what, names = f"{cls.__qualname__}()", cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{what} takes {len(names)} fields but {len(args)} were given")
        rest = names[len(args) :]
        if stray := sorted(set(kwargs).difference(rest)):
            raise TypeError(f"{what} got unknown or repeated fields {stray}")
        given = {**cls._defaults, **kwargs}
        if missing := [name for name in rest if name not in given]:
            raise TypeError(f"{what} missing fields {missing}")
        return [*args, *map(given.__getitem__, rest)]

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
