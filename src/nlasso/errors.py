"""Exception types shared across the package."""


class NLassoError(Exception):
    """Base class for every error raised by this package."""


class _InputError(NLassoError, ValueError):
    """Base of the errors that reject an input: each is also a ValueError."""


class InvalidNode(_InputError):
    """Node id outside the valid range 1..n, or not an integer."""


class InvalidEdge(_InputError):
    """Malformed edge, e.g. a self-loop."""


class DuplicateEdge(_InputError):
    """Edge listed more than once after canonical orientation."""


class InvalidWeight(_InputError):
    """Edge weight that is not strictly positive and finite."""


class DimensionMismatch(_InputError):
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


class CountTooLarge(_InputError):
    """Requested more samples than the population holds."""


class InvalidOverride(_InputError):
    """Chain edge override index outside 1..n-1."""


class PgmError(_InputError):
    """Malformed PGM image file."""
