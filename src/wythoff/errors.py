"""Exception types shared across the package.

Every domain error raised by the library derives from WythoffError so CLI
and test code can distinguish bad input from genuine bugs.
"""


class WythoffError(Exception):
    """Base class for all domain errors."""


class ParseError(WythoffError):
    """Malformed inline notation or structured diagram document."""


class NotFiniteType(WythoffError):
    """A diagram component matches no finite reflection family."""


class Degenerate(WythoffError):
    """A decoration has a component with no ringed node."""


class InvalidS(WythoffError):
    """A selection set has a node outside the diagram or a ringless component."""


class BudgetExceeded(WythoffError):
    """Group enumeration or a catalog would exceed its size limit."""


class ToleranceCollision(WythoffError):
    """A result disagrees with an exact count.

    The group enumeration checks the elements it finds against the order
    formulas in exact integers; DedupCollision checks float vertices against
    the coset partition within a tolerance.
    """


class DedupCollision(ToleranceCollision):
    """Vertex dedup produced inconsistent point/coset identification."""


class SubgroupNotContained(WythoffError):
    """Coset computation asked for a subgroup outside the group."""


class SpanDeficient(WythoffError):
    """A ridge's vertices do not span a hyperplane through the origin."""


class SingularSystem(WythoffError):
    """The base-point linear system is singular (internal failure)."""


class UnknownName(WythoffError):
    """A polytope name not present in the catalog."""


class UnsupportedDimension(WythoffError):
    """An export or check was requested in an unsupported dimension."""
