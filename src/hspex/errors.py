"""Exception hierarchy shared by all hspex modules.

Every error raised by the library derives from :class:`HspexError`, so
callers (and the CLI exit-code mapping) can catch one base class.
"""

from __future__ import annotations


class HspexError(Exception):
    """Base class for all hspex errors."""


# --- construction / combinatorial errors ---------------------------------

class WrongArity(HspexError):
    """An edge does not have exactly r vertices."""


class RepeatedVertex(HspexError):
    """An edge repeats a vertex id."""


class OutOfRange(HspexError):
    """A vertex id falls outside [0, n)."""


class NoSuchEdge(HspexError):
    """The named edge is not in the graph."""


class BadCounts(HspexError):
    """Blow-up multiplicities are missing or non-positive."""


class UniformityMismatch(HspexError):
    """Two graphs (or a graph and a family) disagree on uniformity r."""


class BadPartition(HspexError):
    """Not a valid nontrivial integer partition for this use."""


class TooSmall(HspexError):
    """Construction parameters too small to fit (e.g. clique size)."""


class ParseError(HspexError):
    """Malformed .hg text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- numeric errors -------------------------------------------------------

class DimensionMismatch(HspexError):
    """Weight vector length differs from the vertex count."""


class BadP(HspexError):
    """Exponent p outside the open interval (1, inf)."""


class BadConfig(HspexError, ValueError):
    """Settings out of range: a solver tol not finite and positive, starts or
    max_iter not an integer, starts < 1 or max_iter < 0, or a seed anywhere
    that is negative or not an integer."""


class AllZero(HspexError):
    """A weight vector that must be nonzero is identically zero."""


class BadWeights(HspexError):
    """A weight vector that must be nonnegative has a negative or NaN entry."""


class IsolatedVertex(HspexError):
    """An operation requiring minimum degree >= 1 met an isolated vertex."""


class SameVertex(HspexError):
    """Two vertex arguments that must differ are equal."""


# --- structural-predicate errors ------------------------------------------

class TargetMismatch(HspexError):
    """Two partitions do not partition the same integer."""


class EmptyGraph(HspexError):
    """An operation defined only for graphs with at least one edge."""


class BadK(HspexError):
    """Tightness/bridge parameter k outside [1, r-1]."""


class TrivialPartition(HspexError):
    """The partition (r) is not allowed here."""


# --- family / enumeration errors ------------------------------------------

class NotMember(HspexError):
    """The given graph is not a member of the family."""


class BadFamily(HspexError, ValueError):
    """A family or family operation is ill-posed: no forbidden graph, an
    unknown saturation order, or a family the sweeps cannot enumerate."""


class TooLarge(HspexError):
    """Instance exceeds the desk-scale enumeration guard."""


class Infeasible(HspexError):
    """Random-instance parameters cannot produce a valid graph."""


class HypothesisFailed(HspexError):
    """An experiment's theorem hypothesis does not hold for the input."""
