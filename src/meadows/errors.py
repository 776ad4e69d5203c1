"""Exception types shared across the library."""


class MeadowError(Exception):
    """Base class for every error raised by this package."""


class DescriptorMismatch(MeadowError):
    """A value or hom was used with a ring it does not belong to."""


class NotAUnit(MeadowError):
    """Inverse requested for an element with no multiplicative inverse."""


class ValueTooLarge(MeadowError):
    """A ring value has more digits than Python converts to text."""


class TableIncomplete(MeadowError):
    """A table-backed hom has no entry for the given input."""


class InfiniteCarrier(MeadowError):
    """An exhaustive operation was requested on an infinite carrier."""


class RingTooLarge(MeadowError):
    """A finite ring has too many elements to list, or its carrier to tabulate."""


class InvalidBudget(MeadowError):
    """A sample budget is not a positive number of tuples."""


class UnknownNode(MeadowError):
    """A node identifier is not part of the lattice."""


class NotComparable(MeadowError):
    """A transition was requested between incomparable nodes."""


class NotALattice(MeadowError, ValueError):
    """An order lacks a meet, or a unique top or bottom, that was asked for."""


class MissingEdgeHom(MeadowError, KeyError):
    """A cover edge that a transition walks has no hom: a missing entry of
    the edge table, so a ``KeyError`` too."""

    __str__ = MeadowError.__str__  # the message, not quoted as a KeyError's key is


class ValidationFailed(MeadowError):
    """A structure failed validation; carries the full report."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


class InvalidLattice(ValidationFailed):
    """A directed lattice failed validation during a build."""


class AmbiguousInverse(MeadowError):
    """An element has more than one maximal node at which it inverts."""

    def __init__(self, element, maximal):
        self.element = element
        self.maximal = frozenset(maximal)
        super().__init__(f"ambiguous inverse for {element}: maximal nodes {sorted(self.maximal, key=str)}")


class ForeignElement(MeadowError):
    """An element does not belong to the structure it was passed to."""


class NotAZero(MeadowError):
    """Argument must be a component zero."""


class NotLatticeHom(MeadowError):
    """A node map fails to preserve the lattice structure."""


class SquareDoesNotCommute(MeadowError):
    """A ring-map square disagrees with the transition maps."""

    def __init__(self, upper, lower, witness):
        self.upper = upper
        self.lower = lower
        self.witness = witness
        super().__init__(f"square ({upper} -> {lower}) disagrees at {witness}")


class UnitNotPreserved(MeadowError):
    """A candidate hom does not send 1 to 1."""


class NotAHomomorphism(MeadowError):
    """A candidate map violates additivity or multiplicativity."""


class Undecidable(MeadowError):
    """The question cannot be settled exactly for this input."""


class IdealIsWhole(MeadowError):
    """Quotient by the whole structure is not defined."""


class IdealNotKilled(MeadowError):
    """A hom does not vanish on the given ideal."""


class NotSurjective(MeadowError):
    """The operation requires a surjective hom."""


class ZeroRingInput(MeadowError):
    """The zero ring is not accepted here."""


class TargetMismatch(MeadowError):
    """A hom's endpoint does not match the expected ring."""


class CharacteristicMismatch(MeadowError):
    """Gluing requires both top rings to have the given prime characteristic."""


class UnboundVariable(MeadowError):
    """A term variable has no binding in the environment."""


class ReservedIdentifier(MeadowError):
    """'a' names the error constant and cannot be bound."""


class TermSyntaxError(MeadowError):
    """Expression text could not be parsed; carries the offset."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class ParseError(MeadowError):
    """A lattice or ideal file is malformed."""
