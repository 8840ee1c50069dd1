"""Exception types shared across the package.

Every failure mode callers are expected to handle has its own class so the
CLI can map them to exit codes without string matching.
"""

from contextlib import contextmanager


class NsnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(NsnError, ValueError):
    """Operands have incompatible or invalid shapes."""


class FormatError(NsnError, ValueError):
    """A byte stream does not start with the expected magic/version."""


class LengthError(NsnError, ValueError):
    """A byte stream is shorter (or longer) than its header promises."""


class ConfigError(NsnError, ValueError):
    """A configuration value is outside its legal domain. ``field`` names
    the config field that holds it, when one does, and the message then
    starts with that name."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def check_ranges(record, rules) -> None:
    """Raise a :class:`ConfigError` for the first ``(field, ok, range)`` of
    ``rules`` that is not ok: "<field> must be <range>, got <value>"."""
    for name, ok, allowed in rules:
        if not ok:
            raise ConfigError(f"{name} must be {allowed}, "
                              f"got {getattr(record, name)}", name)


@contextmanager
def in_file(path):
    """Re-raise a :class:`FormatError` or :class:`LengthError` of the block
    as the same class with ``path`` in front of its message, so that an
    error parsing a file names the file."""
    try:
        yield
    except (FormatError, LengthError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


class ConsistencyError(NsnError, RuntimeError):
    """Two structures that must agree (params/buffers/gradients) do not."""


class DivergenceError(NsnError, ArithmeticError):
    """Training produced a non-finite loss or parameter."""
