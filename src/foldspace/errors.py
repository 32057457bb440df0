"""Exception hierarchy for the package.

Everything raised on purpose derives from FoldspaceError so callers (and the
CLI) can map failures to exit codes without fishing for stdlib exceptions.
"""


class FoldspaceError(Exception):
    """Base class for all package errors."""


class GraphStructureError(FoldspaceError):
    """A graph violates a structural invariant (connectivity, valence, rank)."""


class MalformedPathError(FoldspaceError):
    """An edge path is not composable in its graph, or fails a reducedness
    requirement."""


class MalformedMorphismError(FoldspaceError):
    """A morphism has degenerate or unreduced edge images, or inconsistent
    vertex behaviour."""


class NotChangeOfMarkingError(FoldspaceError):
    """A morphism is not a homotopy equivalence: folding its simplicial part
    does not terminate in a graph isomorphism."""


class SequenceError(FoldspaceError):
    """A folding/unfolding sequence is malformed: steps do not compose, a step
    fails validation, or a composite image would cancel."""


class DirectionError(FoldspaceError):
    """An operation requiring one transport direction was applied to a
    sequence loaded with the other."""


class InvalidTrackError(FoldspaceError):
    """A measure track cannot be built or does not suit its analysis: an
    unknown kind, a bad seed entry, the wrong kind or sequence, a track
    that vanishes, or two that are homothetic."""


class DimensionMismatchError(FoldspaceError):
    """A vector or matrix does not match the edge space it is applied to."""


class BudgetExceededError(FoldspaceError):
    """An enumeration or expansion went past its configured budget."""


class ShallowDepthError(FoldspaceError):
    """The requested language window length cannot be produced at this depth."""


class FormatError(FoldspaceError):
    """A graph/morphism/sequence file could not be parsed."""
