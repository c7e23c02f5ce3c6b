"""Plain records: the package's reports and parameter sets.

A subclass of ``Record`` lists its fields as annotations, in order, with
optional class-level defaults, and gets what a dataclass would give it:
``__init__`` by position or keyword followed by ``__post_init__``, equality
on the field tuple within one class, a ``Name(field=value, ...)`` repr and
``replace(**changes)``, which builds a new record through ``__init__`` and so
runs the validation again.  Every record is a frozen value: it refuses
assignment and deletion and hashes by its fields.  No code is generated or
compiled, so defining a record costs about as much as defining a plain class.
"""

from __future__ import annotations


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)  # its own only, on Python >= 3.10
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, "
                            f"not {len(args)}")
        values = dict(zip(fields, args))
        if kwargs:
            unexpected = [f for f in kwargs if f not in fields or f in values]
            if unexpected:
                raise TypeError(f"{type(self).__name__} got unexpected or repeated "
                                f"fields {unexpected}")
            values.update(kwargs)
        if len(values) < len(fields):
            missing = [f for f in fields if f not in values and f not in self._defaults]
            if missing:
                raise TypeError(f"{type(self).__name__} is missing fields {missing}")
            values = {**self._defaults, **values}
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a record")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
