"""Exception hierarchy shared by all modules.

Exit-code mapping used by the CLI: InvariantViolation -> 1, ParseError
-> 2, DomainError (and subclasses) -> 3, ResourceError -> 4, any other
exception -> 5.
"""


class ToridynError(Exception):
    """Base class for all library errors."""


class DomainError(ToridynError):
    """Invalid argument for an operation (precondition violated)."""


class ParseError(ToridynError):
    """Scenario file could not be parsed."""


class ResourceError(ToridynError):
    """A budget (node count, iteration bound, refinement grid) was exceeded."""


class ComplexStructureError(DomainError):
    """Matrix does not define a complex structure (J^2 != -I)."""


class NotHolomorphicError(DomainError):
    """Endomorphism matrix does not commute with the complex structure."""


class NotSubtorusError(DomainError):
    """Sublattice does not define a subtorus (odd rank or not J-invariant)."""


class NotSurjectiveError(DomainError):
    """Operation requires a surjective endomorphism (det M != 0)."""


class InvarianceViolation(DomainError):
    """A sublattice expected to be invariant is not; carries a witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantViolation(ToridynError):
    """Internal consistency check failed (should be unreachable)."""
