"""Exception types raised by the package.

Every error derives from :class:`AbscompatError`; the CLI maps subfamilies to
exit codes (see ``cli.exit_code_for``).
"""


class AbscompatError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(AbscompatError):
    pass


class NotHermitian(AbscompatError):
    pass


class DomainError(AbscompatError, ValueError):
    """A value outside its domain: non-numeric, non-finite or out of range."""


class NegativeSpectrum(AbscompatError):
    pass


class NotCommuting(AbscompatError):
    pass


class NotStrict(AbscompatError):
    """An operand has spectrum touching 0 or 1 where strictness is required."""


class SumExceedsOne(AbscompatError):
    pass


class NotStrictParams(AbscompatError):
    pass


class NotUnitary(AbscompatError):
    pass


class NotProjection(AbscompatError):
    pass


class NotStrictUnitary(AbscompatError):
    pass


class NotStrictProjection(AbscompatError):
    pass


class NotAbsolutelyCompatible(AbscompatError):
    pass


class OddDimension(AbscompatError):
    pass


class PairingFailure(AbscompatError):
    """The two spectral halves of a pair cannot be matched site by site."""


class PostconditionFailure(AbscompatError):
    """A construction finished but its verification checks failed."""


class TraceNotOne(AbscompatError):
    pass


class DetOutOfRange(AbscompatError):
    pass


class OutsideBall(AbscompatError):
    pass


class DegenerateSpec(AbscompatError):
    pass


class SpectralAmbiguity(AbscompatError):
    pass


class NotOnSphere(AbscompatError):
    pass


class EmptyInput(AbscompatError):
    pass


class BadMargin(AbscompatError):
    pass


class UnknownSuite(AbscompatError):
    pass


class ParseError(AbscompatError):
    pass
