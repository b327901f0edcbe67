"""Exception types raised across the package.

Every error is a subclass of SlatError so callers can catch the whole
family at once.  Input problems (bad files, bad expressions, bad labels)
are kept separate from mathematical precondition failures.
"""


class SlatError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(SlatError):
    """Malformed text input: unknown labels, bad tokens, missing sections."""


class CycleError(SlatError):
    """Declared order pairs contain a cycle."""


class NoMeetError(SlatError):
    """Some pair of elements has no greatest lower bound."""


class NoBoundError(SlatError):
    """The order has no global minimum or no global maximum."""


class InvalidSemilatticeError(SlatError):
    """A meet table violates the semilattice laws."""


class BadIndexError(SlatError, IndexError):
    """An element index is negative or past the last element.

    Also an IndexError, so callers that caught the bare IndexError of a
    row lookup past the end still catch it.
    """


class NotSubsetError(SlatError):
    """A candidate cover contains elements outside the constrained set."""


class ZeroSourceError(SlatError):
    """The refinement relation is undefined with source zero."""


class ZeroElementError(SlatError):
    """Zero was passed where a non-zero element is required."""


class NotAFilterError(SlatError):
    """A carrier set fails the filter axioms."""


class BadPairError(SlatError):
    """A pair of elements fails the required strict-order precondition."""


class TheoremViolationError(SlatError):
    """An internal cross-check that must hold on valid inputs failed."""


class SamePointError(SlatError):
    """Two distinct points were required but the same point was given twice."""


class UndecomposableError(SlatError):
    """A point set is not a union of base sets."""


class NotARepresentationError(SlatError):
    """A 0/1 assignment fails the representation laws."""


class BadBasisError(SlatError):
    """A neighbourhood basis lists elements not below its anchor."""


class NotAHomomorphismError(SlatError):
    """A map fails the bounded-semilattice homomorphism laws."""


class PreconditionFailedError(SlatError):
    """An extension precondition fails; the message names the obstruction."""


class ForeignSymbolError(SlatError):
    """A word uses symbols outside the declared alphabet."""


class AlphabetMismatchError(SlatError):
    """Two operands were built over different alphabets."""


class ParseError(SlatError):
    """A clopen expression is syntactically malformed."""


class NotRootedError(SlatError):
    """Some vertex of the graph cannot reach the root."""


class BadDepthError(SlatError):
    """Truncation depth must be a positive integer."""


class TooLargeError(SlatError):
    """Exhaustive enumeration was requested beyond the supported size."""
