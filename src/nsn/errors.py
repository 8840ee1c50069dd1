"""Exception types shared across the package.

Every failure mode callers are expected to handle has its own class so the
CLI can map them to exit codes without string matching.
"""


class NsnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(NsnError, ValueError):
    """Operands have incompatible or invalid shapes."""


class FormatError(NsnError, ValueError):
    """A byte stream does not start with the expected magic/version."""


class LengthError(NsnError, ValueError):
    """A byte stream is shorter (or longer) than its header promises."""


class ConfigError(NsnError, ValueError):
    """A configuration value is outside its legal domain."""


class ConsistencyError(NsnError, RuntimeError):
    """Two structures that must agree (params/cache/gradients) do not."""


class DivergenceError(NsnError, ArithmeticError):
    """Training produced a non-finite loss or parameter."""
