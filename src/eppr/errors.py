"""Exception types shared across the package."""


class EpprError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(EpprError, ValueError):
    """Invalid configuration or invalid arguments to a fitting routine."""


class DataError(EpprError):
    """Problem reading or interpreting an input file.

    ``code`` distinguishes failure modes programmatically:
    ``missing_file``, ``not_utf8``, ``bad_csv`` (the ``csv`` module
    refused the text, such as a cell over its field limit),
    ``missing_target``, ``no_rows``, ``non_numeric_column``,
    ``too_few_rows``, ``repeated_column`` (a column the reader keeps is
    named twice in the header).
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class NumericError(EpprError, ArithmeticError):
    """Numerical failure: non-finite inputs or an undefined metric."""
