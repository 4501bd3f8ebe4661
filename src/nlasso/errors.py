"""Exception types shared across the package."""


class NLassoError(Exception):
    """Base class for every error raised by this package."""


class InvalidNode(NLassoError):
    """Node id outside the valid range 1..n, or not an integer."""


class InvalidEdge(NLassoError):
    """Malformed edge, e.g. a self-loop."""


class DuplicateEdge(NLassoError):
    """Edge listed more than once after canonical orientation."""


class InvalidWeight(NLassoError):
    """Edge weight that is not strictly positive and finite."""


class DimensionMismatch(NLassoError):
    """Vector length does not match the graph's node or edge count."""


class IsolatedNode(NLassoError):
    """A node of degree zero where positive degree is required."""


class Disconnected(NLassoError):
    """Graph is not connected where a single component is required."""


class NoConvergence(NLassoError):
    """Iteration budget exhausted before the requested tolerance."""


class DualInfeasible(NLassoError):
    """Dual flow violates an edge capacity; the duality gap is undefined."""


class SeedsOutsideCluster(NLassoError):
    """Certificate requires the seed set to be contained in the cluster."""


class CountTooLarge(NLassoError):
    """Requested more samples than the population holds."""


class InvalidOverride(NLassoError):
    """Chain edge override index outside 1..n-1."""


class PgmError(NLassoError):
    """Malformed PGM image file."""
