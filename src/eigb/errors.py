"""Exception types shared across the package.

Every error raised on a bad input or a failed numerical contract derives
from :class:`EigbError`, so callers (notably the CLI) can distinguish
usage problems from genuine mathematical violations.
"""


class EigbError(Exception):
    """Base class for all package errors."""


class NotSquare(EigbError):
    pass


class NonFinite(EigbError):
    pass


class NotHermitian(EigbError):
    def __init__(self, defect: float, tolerance: float):
        super().__init__(
            f"hermiticity defect {defect:.3e} exceeds tolerance {tolerance:.3e}"
        )
        self.defect = defect
        self.tolerance = tolerance


class NotPositiveSemidefinite(EigbError):
    def __init__(self, min_eigenvalue: float, threshold: float):
        super().__init__(
            f"minimum eigenvalue {min_eigenvalue:.3e} below PSD threshold "
            f"{-threshold:.3e}"
        )
        self.min_eigenvalue = min_eigenvalue
        self.threshold = threshold


class NoConvergence(EigbError):
    pass


class DimensionMismatch(EigbError):
    pass


class InvalidIndexSequence(EigbError):
    pass


class IndexOutOfRange(EigbError):
    pass


class NotNonnegative(EigbError):
    pass


class NotStable(EigbError):
    pass


class SignConditionViolated(EigbError):
    pass


class NoSignChange(EigbError):
    pass


class NotPositiveDefinite(EigbError):
    pass


class ConsistencyError(EigbError):
    """A relationship the theory guarantees failed numerically."""


class InvalidSpec(EigbError):
    pass


class InvalidCount(EigbError):
    pass


class ParseError(EigbError):
    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class WrongEntryCount(EigbError):
    pass
