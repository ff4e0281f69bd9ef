"""Exception hierarchy shared across the package."""


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
