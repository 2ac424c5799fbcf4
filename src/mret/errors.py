"""Exception types shared across the package."""


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


class ScaleLimitError(Exception):
    """An exact method was asked to run beyond its edge-count limit.

    Raised instead of silently truncating the search; the CLI maps this
    to exit code 2.
    """
