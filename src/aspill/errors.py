"""Exception taxonomy shared across the package.

Every error raised by the library derives from AspillError so callers can
catch the whole family with one clause; the CLI maps them to exit codes.
"""

from __future__ import annotations


class AspillError(Exception):
    """Base class for all errors raised by this package."""


# -- data loading / panel construction -------------------------------------

class DuplicateDateError(AspillError):
    """The same calendar date appears more than once in one input."""


class UnknownColumnError(AspillError):
    """A requested column is not present in the file header."""


class NoUsableRowsError(AspillError):
    """After dropping incomplete rows, nothing is left to analyze."""


class NoOverlapError(AspillError):
    """Panels share no common dates, so an inner join is empty."""


class MalformedCsvError(AspillError):
    """A CSV file is not UTF-8 CSV text, its header repeats a selected column, or a cell is malformed."""


class NonPositiveValueError(AspillError):
    """A log transform was requested for a value that is not strictly positive."""


# -- remote data ------------------------------------------------------------

class MissingCredentialsError(AspillError):
    """A remote fetch was attempted without an API key."""


class SeriesNotFoundError(AspillError):
    """The remote service does not know the requested series id."""


class HttpFetchError(AspillError):
    """The remote service failed at the transport or protocol level."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class MalformedResponseError(AspillError):
    """The remote service answered with a payload we cannot interpret."""


# -- estimation -------------------------------------------------------------

class SeriesTooShortError(AspillError):
    """Not enough observations for the requested regression."""


class InsufficientDataError(AspillError):
    """Too few rows to estimate the requested lag structure."""


class SeriesScaleError(AspillError):
    """A series is too large or too small for its sum of squares to be a positive float."""


class SingularDesignError(AspillError):
    """The regressor matrix is numerically rank deficient."""

    def __init__(self, message: str, condition: float | None = None):
        super().__init__(message)
        self.condition = condition


class DegenerateCovarianceError(AspillError):
    """A covariance matrix violates the positivity needed downstream."""


class AllWindowsFailedError(AspillError):
    """Every rolling window failed to estimate; no index value exists."""


# -- pipeline ---------------------------------------------------------------

class ConfigError(AspillError, ValueError):
    """A run setting is out of range, such as a zero horizon or an unknown criterion."""


class PipelineError(AspillError):
    """A pipeline stage failed; carries every (side, stage, message) triple."""

    def __init__(self, side: str, stage: str, cause: Exception,
                 failures: list[tuple[str, str, str]] | None = None):
        super().__init__(f"{side}/{stage}: {cause}")
        self.side = side
        self.stage = stage
        self.cause = cause
        self.failures = failures if failures is not None else [(side, stage, str(cause))]


class ManifestMismatchError(AspillError):
    """A manifest re-run found inputs that differ from the recorded digest."""
