"""Exception types shared across the library."""


class IETLabError(Exception):
    """Base class for all library errors."""


class NonPositiveLength(IETLabError):
    pass


class LengthSumError(IETLabError):
    pass


class NonBijectivePermutation(IETLabError):
    pass


class ModeMismatch(IETLabError):
    """The lengths cannot be held in the requested arithmetic mode."""


class DomainError(IETLabError):
    """Point outside the domain [0, 1)."""


class FlipUnsupported(IETLabError):
    """Rauzy induction is only defined for oriented transformations."""


class KeaneViolation(IETLabError):
    """The two competing lengths coincide; induction cannot proceed."""


class Reducible(IETLabError):
    pass


class BadCutPoints(IETLabError):
    pass


class ZeroLine(IETLabError):
    """A matrix has an all-zero row or column."""


class SequenceTooShort(IETLabError):
    pass


class ZeroVector(IETLabError):
    pass


class NotPrimitive(IETLabError):
    pass


class NotIrreducible(IETLabError):
    pass


class MaxIterExceeded(IETLabError):
    pass


class PrefixTooShort(IETLabError):
    pass


class ZeroDenominatorEntry(IETLabError):
    pass


class NoRealFixedPoint(IETLabError):
    pass


class RationalFixedPoint(IETLabError):
    """The fixed point is rational (degenerate or square discriminant)."""


class PrecisionLoss(IETLabError):
    """A float cannot carry the answer: a continued-fraction partial
    quotient cannot be trusted at the requested depth, or a value lies
    beyond the float range."""
