"""``Record``: what ``@dataclass(frozen=True)`` gave each rcpi record, with no ``dataclasses`` and no generated code."""

from __future__ import annotations


class Record:
    """A frozen record.  A subclass's annotations are its fields, in order, and its class attributes their defaults:
    ``_fields`` maps each name to its annotation and ``_defaults`` to its default, if any.  ``__init__`` takes each
    field once, by position or name, then ``__post_init__`` checks the values."""

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__dict__.get("__annotations__", {})
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        given = dict(zip(self._fields, args), **kwargs) if args else kwargs
        values = given if given.keys() == self._fields.keys() else {**self._defaults, **given}
        # A position past the fields, or a name given twice, leaves fewer names than arguments.
        if len(given) < len(args) + len(kwargs) or values.keys() != self._fields.keys():
            raise TypeError(f"{type(self).__name__}() takes the fields {list(self._fields)}, each once and those with "
                            f"a default optional; got {len(args)} positional arguments and the keywords {list(kwargs)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the values; a subclass raises ValueError on a bad one."""

    def replace(self, **changes) -> Record:
        """A copy with ``changes`` applied, built and checked through ``__init__``."""
        return type(self)(**{**self.__dict__, **changes})

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in zip(self._fields, self._values()))})"

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__
