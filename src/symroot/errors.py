"""Exception types shared across the package.

Every error raised on purpose derives from SymrootError so callers can
catch one base class at the CLI boundary.  Input-validation errors carry
enough position/context to point at the offending token or argument.
"""

from __future__ import annotations


class SymrootError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOptionError(SymrootError, ValueError):
    """Raised when an option or argument is out of range; also a ValueError."""


class PolynomialSyntaxError(SymrootError):
    """Raised when polynomial text cannot be parsed.

    offset is the byte position of the first offending character.
    """

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ExponentTooLargeError(PolynomialSyntaxError):
    """Raised when an exponent in polynomial text is above MAX_EXPONENT.

    offset is the byte position of the exponent's first digit.
    """


class NotMonicError(SymrootError):
    """Raised when the leading coefficient is not exactly 1."""


class NonIntegerCoefficientError(SymrootError):
    """Raised when a coefficient is not an integer."""


class ZeroDegreeError(SymrootError):
    """Raised when the polynomial has degree 0 (no variable term)."""


class EmptyInputError(SymrootError):
    """Raised when from_coefficients gets an empty coefficient sequence.

    Empty polynomial text raises PolynomialSyntaxError instead.
    """


class DegreeTooSmallError(SymrootError):
    """Raised when an operation needs degree >= 2 but got degree 1."""


class IndexOutOfRangeError(SymrootError):
    """Raised when a letter index does not fit the rule's alphabet."""


class DimensionMismatchError(SymrootError):
    """Raised when a vector length does not match a matrix dimension."""


class EngineOverflowError(SymrootError):
    """Raised when the next rewrite would exceed the word-length cap.

    depth is the iteration index that could not be materialized;
    partial holds the iterates that were completed, so callers can
    still report everything up to the overflow point.
    """

    def __init__(self, message: str, depth: int | None = None, partial: tuple = ()) -> None:
        super().__init__(message)
        self.depth = depth
        self.partial = partial
