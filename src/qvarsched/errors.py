"""Exception hierarchy, and the input rules shared across the package, each
with one owner that raises a ValueError naming the field and rejects a bool:
check_integer, check_count (1..COUNT_LIMIT by default), check_seed (>= 0), check_real."""
import math
import numbers
import operator

COUNT_LIMIT = 2**63 - 1  # the largest shots, runs, restarts or max_iterations: a C long


def check_integer(name: str, value) -> int:
    """value as an int; a bool, or anything operator.index rejects, is a ValueError naming it."""
    try:  # operator.index takes a bool as 0 or 1, so a bool is tried as None
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_count(name: str, value, minimum: int = 1, maximum: int | None = COUNT_LIMIT) -> int:
    """value as an int; ValueError unless it is an integer >= minimum and, if maximum is not None, <= it."""
    value = check_integer(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_seed(name: str, value) -> int:
    """value as an int; a seed is an integer >= 0 with no upper bound."""
    return check_count(name, value, minimum=0, maximum=None)


class NonFiniteError(ValueError, ArithmeticError):
    """A real input that is NaN or infinite: bad input and bad arithmetic both."""


def check_real(name: str, value) -> float:
    """value as a float; a bool or a non-real is a ValueError, NaN or +-inf a NonFiniteError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int or Fraction past the float range
        finite = False
    if not finite:
        raise NonFiniteError(f"{name} must be finite, got {value!r}")
    return float(value)


class QvarschedError(Exception):
    """Base class for all package errors."""


class MalformedBitstringError(QvarschedError):
    """Bitstring has the wrong length or contains characters other than 0/1."""


class UnboundParameterError(QvarschedError):
    """A circuit was executed with a named parameter left unbound, or with a
    value for a name it does not have."""


class QubitCountExceededError(QvarschedError):
    """Requested register is larger than the configured maximum."""


def check_qubit_count(qubit_count: int, maximum: int) -> None:
    """Raise QubitCountExceededError when qubit_count is above maximum."""
    if qubit_count > maximum:
        raise QubitCountExceededError(f"{qubit_count} qubits exceeds the maximum of {maximum}")


class NonFiniteObjectiveError(QvarschedError):
    """Objective function returned NaN or infinity."""


class InstanceMismatchError(QvarschedError):
    """Two things that must belong to one instance do not: measurement counts
    and an oracle report, or a circuit and the Instance of an Objective."""


class ParseError(QvarschedError):
    """Problem or experiment file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
