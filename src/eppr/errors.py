"""Exception types shared across the package.

Each carries only its message.  The exception class alone picks the
command-line exit code: 2 for ``ConfigError``, 3 for ``DataError`` and 4
for ``NumericError``.
"""


class EpprError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(EpprError, ValueError):
    """Invalid configuration or invalid arguments to a fitting routine."""


class DataError(EpprError):
    """Problem reading or interpreting an input file, or writing an output."""


class NumericError(EpprError, ArithmeticError):
    """Numerical failure: non-finite inputs or an undefined metric."""
