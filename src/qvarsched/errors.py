"""Exception hierarchy and input checks shared across the package."""
import operator

COUNT_LIMIT = 2**63 - 1  # the largest shots, runs, restarts or max_iterations: a C long


def check_integer(name: str, value) -> int:
    """value as an int; anything operator.index rejects is a ValueError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_count(name: str, value: int, minimum: int = 1, maximum: int | None = COUNT_LIMIT):
    """Raise ValueError unless value is an integer >= minimum and, if maximum is not None, <= it."""
    check_integer(name, value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")


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
