"""Exception types, boundary helpers (`parse_file`, `as_int`) and the `Record`
base of the package's immutable value types, shared across the package.

`Record` stands in for ``@dataclass(frozen=True)``: importing `dataclasses`
pulls in `inspect`, `ast`, `dis` and `tokenize`, and each decorated class
`exec`s its generated methods, which together took more than half of a
fresh ``import mret.cli`` from cached bytecode.  It lives here because
every module that defines a record already imports this one.
"""

from operator import index


class ParseError(ValueError):
    """Malformed input file.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def parse_file(parse, read, path, *args):
    """``parse(read(path), *args)``; parse and decode errors become ParseErrors naming `path`."""
    try:
        return parse(read(path), *args)
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def as_int(value, what: str, *where, least: int | None = None) -> int:
    """`operator.index(value)`, or a ValueError naming `what.format(*where)`,
    also when `least` is given and the integer is below it."""
    try:
        value = index(value)
    except TypeError:
        raise ValueError(f"{what.format(*where)} is not an integer: {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{what.format(*where)} must be at least {least}, got {value}")
    return value


class ScaleLimitError(Exception):
    """An operation was asked to run beyond one of its scale limits.

    Raised instead of truncating the work or running out of time or
    memory: before the work starts, or in progress for a limit on work
    counted as it runs; the CLI maps this to exit code 2.
    """


class Record:
    """An immutable record whose fields are its class's own annotations, in order.

    `__init__` takes the fields positionally or by keyword; a class-level
    value is that field's default.  It then calls `__post_init__`, looked up
    at call time, which may check and normalise the fields in place through
    ``object.__setattr__``.  After that an attribute is neither assigned nor
    deleted.  Records are equal when they are of the same class and their
    fields are; the hash is that of the tuple of fields, and the repr is
    ``Name(field=value, ...)``.  Pickling and copying go through `__dict__`.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **given, **kwargs}
        if (len(args) > len(given) or given.keys() & kwargs.keys()
                or values.keys() != set(cls._fields)):
            raise TypeError(f"{cls.__name__}() takes each of ({', '.join(cls._fields)}) once "
                            f"unless it has a default, got {len(args)} positional arguments "
                            f"and {sorted(kwargs)} by keyword")
        vars(self).update((name, values[name]) for name in cls._fields)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
