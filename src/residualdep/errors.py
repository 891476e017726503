"""Exception types shared across the package, and the checks on numbers and integers.

The CLI maps these onto process exit codes: data problems exit with 3,
numeric-domain problems with 4 (usage errors exit with 2 via argparse).
"""
import numbers


class ResidualDepError(Exception):
    """Base class for all package-specific errors."""


class ParameterDomainError(ResidualDepError, ValueError):
    """A parameter lies outside its admissible range (e.g. copula theta)."""


class DataError(ResidualDepError, ValueError):
    """Input data cannot be used: parse failures, insufficient rows, ..."""


class TieError(DataError):
    """Tied values encountered under the strict tie policy."""


class NumericDomainError(ResidualDepError, ValueError):
    """An operation was evaluated outside its numeric domain."""


class VarianceDomainError(NumericDomainError):
    """a * eta >= 1/2: the asymptotic variance (and hence the CI) is undefined."""


class ConstraintError(NumericDomainError):
    """A structural constraint between tuning parameters is violated."""


class EstimationError(ResidualDepError, RuntimeError):
    """An estimation procedure failed on the given data (degenerate tail, ...)."""


def real(name: str, value, what: str = "a number"):
    """``value``, unless it is a boolean or not a real number (a JSON string is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} is not {what}")
    return value


def integral(name: str, value) -> int:
    """``value`` as an int; a float must be integral (25.0 passes, 2.5 does not), and a
    boolean or a string is not a number."""
    if not isinstance(real(name, value, "an integer"), numbers.Integral) \
            and not float(value).is_integer():
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)
