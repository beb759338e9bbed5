"""Exception hierarchy shared by all pqk modules."""


class PqkError(Exception):
    """Base class for all pqk errors."""


class DimensionMismatchError(PqkError):
    """Operands have incompatible shapes or dimensions."""


class FrameMismatchError(PqkError):
    """An operation received objects attached to different frames."""


class RankDeficientError(PqkError):
    """A projection matrix does not have full row rank."""


class NotARightInverseError(PqkError):
    """The supplied embedding is not a right inverse of the projection."""


class DegeneratePairingError(PqkError):
    """The operator/frame pairing matrix is singular."""


class MissingActionError(PqkError):
    """A momentum operator has no declared action on a required d.o.f."""


class NotResolvableError(PqkError):
    """The d.o.f. pool cannot separate the given operators."""


class NotPositiveDefiniteError(PqkError):
    """A quadratic form required to be positive definite is not."""


class DivergentError(PqkError):
    """A Gaussian integral does not converge."""


class OrderViolationError(PqkError):
    """A projection was requested along a relation that has no witness, or
    whose witness fails verification."""


class ExtentTooSmallError(PqkError):
    """The quadrature window misses a non-negligible tail mass."""


class EmptyWindowError(PqkError):
    """A state's closed form is 0, or subnormal, on the whole oracle
    evaluation window, so no relative error can be formed."""


class DocumentError(PqkError):
    """A system or state document is malformed; the message names the
    offending field."""
