"""Frozen records: the one record type of the modules every stage imports.

A subclass lists its fields as class annotations, in order, each with an
optional default; ``__post_init__`` checks the values once they are set.
Equality, hashing and ``repr`` read like those of a frozen dataclass, so
a record's ``repr``, which the cache keys hash, is the dataclass one.
Unlike the ``dataclasses`` decorator, defining a record compiles no
code, and this module imports nothing: a stage process that only checks,
skips or restores its units loads neither ``dataclasses`` nor
``inspect``. It sits apart from ``config`` because ``dates``, which
``config`` imports, defines a record too.
"""


class Record:
    """Immutable fields, set by position or keyword, defaults filling the rest."""

    _fields = ()  # the field names, in order
    _field_defaults = {}  # field name -> default, for the fields with one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # From Python 3.10 on, a class's __annotations__ are its own only.
        cls._fields = tuple(cls.__annotations__)
        cls._field_defaults = {
            name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__
        }

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        if len(args) > len(fields) or not kwargs.keys() <= set(fields) - set(given):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {', '.join(fields)}; "
                f"got {len(args)} positional and {', '.join(kwargs) or 'no'} keyword"
            )
        values = {**self._field_defaults, **given, **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(
                f"{type(self).__qualname__}() is missing {', '.join(missing)}"
            )
        for name in fields:
            self.__dict__[name] = values[name]
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks the fields; a record whose values have a range overrides it."""

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, checked as a new record is."""
        return type(self)(**{**self.__dict__, **changes})

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
