"""Frozen value classes, built without generating code.

A value class is a plain class whose ``__init__`` stores each of its
parameters, possibly converted, as an attribute of the same name; those
parameters, in order, are its fields.  ``__init__`` may also store derived
attributes, which are not fields.  ``value_class`` adds what a frozen
dataclass would have:

- ``__eq__``: instances of one class compare by their field tuples, and
  instances of different classes never compare equal;
- ``__hash__``: the hash of the field tuple;
- ``__repr__``: ``Name(field=value!r, ...)``;
- ``__setattr__`` and ``__delattr__`` raise ``AttributeError``, so an
  ``__init__`` stores each attribute with ``set_attr``;
- ``__match_args__``: the field names.
"""

from operator import attrgetter

#: object.__setattr__, which stores past the frozen __setattr__.  Storing
#: through self.__dict__ instead would give each instance a dict object of
#: its own, larger and slower to read than CPython's inline attribute values.
set_attr = object.__setattr__


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def value_class(cls):
    """Make cls a frozen value class over the parameters of its ``__init__``."""
    code = cls.__init__.__code__
    fields = code.co_varnames[1 : code.co_argcount]
    if len(fields) == 1:
        get = attrgetter(fields[0])

        def values(self):
            return (get(self),)

    else:
        values = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = fields
    return cls
