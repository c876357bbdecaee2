"""Exception types shared across the package."""


class StabcohError(Exception):
    """Base class for all package-specific errors."""


class PrecisionExhausted(StabcohError):
    """A p-adic rank or torsion decision could not be certified at the
    working precision, or the precision it needs exceeds the ceiling."""


class OutsideAtomClass(StabcohError):
    """The requested operation leaves the closed class of module atoms."""


class NotProjective(StabcohError):
    """Hom was asked for a source module outside the projective class."""


class BudgetExceeded(StabcohError):
    """A bar-complex computation would exceed the configured size budget."""


class NoStabilization(StabcohError):
    """The brute route needs a coefficient precision beyond its ceiling."""


class UnsupportedPrime(StabcohError):
    """The requested table or route is not available at this prime."""


class WindowMismatch(StabcohError):
    """Two bigraded tables cover different (s, t) windows."""


class ModuleExprParseError(StabcohError):
    """A module expression string failed to parse; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
