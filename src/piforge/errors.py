"""Exception hierarchy.

DomainError covers bad mathematical input (modulus outside [0,1), nonpositive
AGM argument, non-convergent series argument). InsufficientPrecisionError is
raised whenever a requested quantity cannot be distinguished from a degenerate
value at the working precision; it carries a hint of the precision that would
suffice. Nothing in the library ever silently returns a degenerate value.
"""

from __future__ import annotations


class PiforgeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PiforgeError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NonConvergentSeriesError(DomainError):
    """Series argument has |x| >= 1; the sum does not converge."""


class InsufficientPrecisionError(PiforgeError):
    """The working precision cannot resolve the requested quantity.

    Attributes:
        required_bits: a precision (in bits) expected to be sufficient,
            or None when no estimate is available.
    """

    def __init__(self, message: str, required_bits: int | None = None):
        if required_bits is not None:
            message = f"{message} (retry with prec >= {required_bits} bits)"
        super().__init__(message)
        self.required_bits = required_bits


class RootSelectionError(PiforgeError):
    """The Newton iteration for a modular polynomial's root did not settle."""


class DegenerateSystemError(PiforgeError):
    """The linear system for the series coefficients is singular.

    Attributes:
        rank: numerical rank detected before the failure, when known.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class VerificationError(PiforgeError):
    """A computed quantity violated a consistency check it must satisfy."""
