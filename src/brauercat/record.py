"""Immutable records written out by hand, so that importing the package generates no code."""


class Record:
    """A frozen dataclass's construction, equality, hash, repr and pickling, by the fields
    named in ``__match_args__``; a positional call that gives every field is the fast one."""

    __slots__ = ()
    _defaults: tuple = ()  # the values of the last fields, when they have defaults

    def __init__(self, *args, **kwargs):
        names, defaults = self.__match_args__, self._defaults
        if kwargs or len(args) != len(names):
            values = dict(zip(names[len(names) - len(defaults):], defaults),
                          **dict(zip(names, args)), **kwargs)  # TypeError on a field given twice
            if len(args) > len(names) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}{names} given {len(args)}, {sorted(kwargs)}")
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

