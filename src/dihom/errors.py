"""Exception taxonomy shared across the package.

Every error raised by this library derives from :class:`DihomError`, so
callers (including the CLI) can distinguish domain failures from
programming bugs with a single ``except`` clause.  The exceptions are
``ValueError`` from :class:`Poset` when the given relation is not a
strict partial order, the covers have a cycle or a pair mentions something
that is not an element, and from
``replay_collapses`` when a logged step is not a free pair, and the
``KeyError`` that the ``index`` and ``class_of`` lookups raise, as a
mapping does, for something they do not hold.
"""

from __future__ import annotations


class DihomError(Exception):
    """Base class for all errors raised by this package."""


class SizeCapExceeded(DihomError):
    """An enumeration or construction would exceed a configured size cap."""


class ShapeMismatch(DihomError):
    """Map or assignment dimensions do not match the graphs involved."""


class MalformedPartition(DihomError):
    """A vertex partition overlaps, misses a vertex, or is otherwise invalid."""


class InvalidVariant(DihomError):
    """Unknown construction variant selector."""


class InvalidSize(DihomError):
    """A size parameter is outside the defined range of a construction."""


class InvalidVertex(DihomError):
    """A vertex label is out of range for the graph at hand."""


class InvalidRange(DihomError):
    """Numeric arguments violate a documented precondition."""


class EmptyComplex(DihomError):
    """An operation requires a complex with at least one (nonempty) face."""


class FaceNotInComplex(DihomError):
    """The given vertex set is not a face of the complex."""


class InvalidMatching(DihomError):
    """A partial matching is malformed with respect to its poset."""


class NotAcyclic(DihomError):
    """The digraph has a directed cycle (or loop) where none is allowed."""


class EmptyHom(DihomError):
    """There are no homomorphisms between the given graphs."""


class InvalidFold(DihomError):
    """The given vertex pair is not a valid folding."""


class NotAHomomorphism(DihomError):
    """A vertex map that was required to be a homomorphism is not one."""


class HasLoop(DihomError):
    """The digraph has a loop where none is allowed."""


class Disconnected(DihomError):
    """A connectivity precondition failed."""


class ParseError(DihomError):
    """Malformed graph document.

    ``line`` and ``column`` are set for syntax errors; semantic errors
    (such as duplicate edges) identify the offending entry in the message
    instead.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column
