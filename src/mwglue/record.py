"""Immutable value records, the base of every mwglue value class.

`Record` gives a subclass what `@dataclass(frozen=True)` gave it: fields
from the annotations in the class body, a constructor taking them by
position or keyword with class-level defaults, a `__post_init__` hook,
frozen instances, field-wise equality and hashing, and the dataclass repr.
It does this with plain methods on one base class.  `dataclasses` imports
`inspect` and compiles several generated methods per class through `exec`,
which every short CLI process paid again at import.  Unlike a dataclass, an
instance computes its hash once and keeps it.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Base of a frozen value class whose fields are its annotations.

    Fields come from the class's own annotations, in order, unevaluated
    (every module uses `from __future__ import annotations`); a class
    attribute of the same name is the field's default.  Instances keep their
    fields in `__dict__`, so `functools.cached_property` works; the cached
    values take no part in equality, hashing or repr.  The hash of the
    fields is kept there too, under `_hash`, on the first `hash()`: a value
    class is a cache key, and a `poly.Rational` hashes in Python code.
    `object.__setattr__` stays open to `__post_init__` for normalizing a
    field, before anything hashes the instance.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # on Python >= 3.10 a class's __annotations__ never falls back to a base's
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}
        # the field values as a tuple, the one dataclasses compares and hashes
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value from a call's arguments and the defaults."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = list(args)
        for f in fields[len(args):]:
            if f in kwargs:
                values.append(kwargs.pop(f))
            elif f in self._defaults:
                values.append(self._defaults[f])
            else:
                raise TypeError(f"{name}() missing argument {f!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected arguments {', '.join(map(repr, kwargs))}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        # kept once computed, as cached_property keeps its values; a hash
        # that raises is not kept
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(self._values(self))
            return value

    def __getstate__(self) -> dict:
        # str hashes differ between processes, so a pickle carries no hash
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def _asdict(self) -> dict:
        """The fields by name, shallow: field values are not converted."""
        return {f: getattr(self, f) for f in self._fields}
