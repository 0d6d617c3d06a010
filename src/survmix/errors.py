"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes: usage errors exit 1, data/domain
errors exit 2, numerical failures exit 3 (see `survmix.cli`).
"""


class SurvmixError(Exception):
    """Base class for all errors raised by this package."""

    kind = "data"   # what run reports and Cox suite entries call the failure


class DataError(SurvmixError):
    """Malformed or out-of-domain input data (exit code 2)."""


class ParseError(DataError):
    """Unparseable file content; message carries path and row context."""


class DomainError(DataError):
    """Structurally valid data violating a value-domain contract."""


class NumericError(SurvmixError):
    """Numerical failure of an iterative procedure (exit code 3)."""

    kind = "numeric"


class ConvergenceError(NumericError):
    """Iteration limit reached before the convergence test was met."""


class SeparationError(NumericError):
    """Monotone likelihood: a coefficient is diverging because the data
    separate the outcome perfectly along some column."""


class DivergenceError(NumericError):
    """Optimization produced a non-finite objective."""
