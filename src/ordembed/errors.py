"""Exception hierarchy for ordembed.

Every failure mode raised by the library is a subclass of OrdembedError,
so callers (and the CLI) can catch one type and map it to diagnostics.
"""


class OrdembedError(Exception):
    """Base class for all ordembed errors."""


class SpecError(OrdembedError):
    """An order spec violates a structural invariant."""


class DuplicatePair(SpecError):
    pass


class MissingPair(SpecError):
    pass


class EmptyClass(SpecError):
    pass


class IndexOutOfRange(SpecError):
    pass


class NotLinear(SpecError):
    pass


class BadIndex(OrdembedError):
    """A point or base index lies outside [1..n]."""


class NonFiniteEntry(OrdembedError):
    """A matrix passed to a numeric routine contains NaN or infinity."""


class NotPSD(OrdembedError):
    """A Gram matrix has an eigenvalue below the PSD tolerance."""


class DimTooSmall(OrdembedError):
    """A Gram matrix needs more dimensions than the caller allowed."""


class EpsilonExhausted(OrdembedError):
    """The epsilon search ran out of steps without acceptance."""


class DistanceMismatch(OrdembedError):
    """Two point lists are not congruent, so no isometry aligns them."""


class ShapeMismatch(OrdembedError):
    """A config's shape does not match the spec or another config."""


class UnknownName(OrdembedError):
    """Unrecognized gallery family name."""


class BadSize(OrdembedError):
    """A size or numeric setting lies outside its valid range."""
