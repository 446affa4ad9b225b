"""The base of the package's immutable record types.

A subclass lists its fields, in order, in ``__slots__`` and sets them in
its ``__init__`` through :meth:`Value._init`; a slot whose name starts with
``_`` holds state derived from the fields and is no field. The subclass
then compares equal only to an instance of its own class with equal fields,
hashes like the tuple of its fields, has the repr ``Name(field=value, ...)``
and refuses to assign or delete attributes. These methods are written once
here because generating them for each class at import time costs every
cold command several milliseconds.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _init(self, *values) -> None:
        """Set the slots, in the order ``__slots__`` names them."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles are rebuilt through __init__, which assigns.
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
