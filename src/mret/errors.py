"""Exception types and boundary helpers (`parse_file`, `as_int`) shared across the package."""

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
