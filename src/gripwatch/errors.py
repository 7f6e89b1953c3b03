"""Exception hierarchy shared across the package."""


class GripwatchError(Exception):
    """Base class for all gripwatch errors."""


class LengthMismatch(GripwatchError):
    pass


class NonFiniteInput(GripwatchError):
    pass


class BadWindowLength(GripwatchError):
    pass


class OutOfOrderTimestamp(GripwatchError):
    pass


class InvalidConfig(GripwatchError):
    pass


class ParseError(GripwatchError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(GripwatchError):
    pass


class VersionMismatch(GripwatchError):
    pass


class EmptyDataset(GripwatchError):
    pass


class SingleClassDataset(GripwatchError):
    pass


class NonFiniteFeature(GripwatchError):
    pass
