"""Exception hierarchy shared across the package."""


class TorfillError(Exception):
    """Base class for all package errors."""


class InputParseError(TorfillError):
    """Malformed matrix / chain / certificate input."""


class DimensionMismatch(TorfillError):
    """Operands live in tori of different dimensions."""


class NonGenericPoint(TorfillError):
    """Sample point lies on the image of a face; caller should resample."""


class NonSquare(TorfillError):
    """Operation requires a square matrix."""


class PrecisionExhausted(TorfillError):
    """Requested root separation unattainable at the configured precision cap."""


class Unfillable(TorfillError):
    """Candidate boxes exhausted without an exact filling."""


class CandidateSetTooLarge(TorfillError):
    """Candidate simplex enumeration exceeds the configured cap."""


class UnsupportedDimension(TorfillError):
    """Requested base certificate / reduction outside the desk-scale table."""


class NotUnimodular(TorfillError):
    """Word decomposition requires det = 1."""


class VerificationFailure(TorfillError):
    """A certificate failed exact re-verification."""
