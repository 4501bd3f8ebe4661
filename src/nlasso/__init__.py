"""Local graph clustering by seeded total-variation minimization.

A primal-dual solver grows a cluster around seed nodes by driving a node
signal toward the cluster indicator; the dual view routes flow from the
seeds to the cluster boundary under per-edge capacities.  The package also
ships flow-based optimality certificates, a spectral (Fiedler vector)
baseline, and generators for chain, block-model and image-grid benchmarks.
"""

from .baselines import (
    NORMALIZED,
    UNNORMALIZED,
    IndicatorError,
    LaplacianOperator,
    fiedler_value,
    fiedler_vector,
    indicator_error,
    laplacian,
)
from .certificates import (
    BoundaryConditionReport,
    ClusterResult,
    KKTReport,
    boundary_conditions,
    extract_cluster,
    kkt_residuals,
    reach_bound_check,
)
from .errors import (
    CountTooLarge,
    DimensionMismatch,
    Disconnected,
    DualInfeasible,
    DuplicateEdge,
    InvalidEdge,
    InvalidNode,
    InvalidOverride,
    InvalidWeight,
    IsolatedNode,
    NLassoError,
    NoConvergence,
    PgmError,
    SeedsOutsideCluster,
)
from .generators import (
    GreyImage,
    SbmSpec,
    chain_graph,
    grid_from_image,
    read_pgm,
    sample_seeds,
    sbm_graph,
    write_pgm,
)
from .graph import (
    Graph,
    build_graph,
    divergence,
    incidence_apply,
    is_connected,
    read_edge_list,
    read_node_set,
    write_node_set,
)
from .objectives import (
    NLassoProblem,
    conjugate_f,
    conjugate_g_feasible,
    duality_gap,
    primal_objective,
    total_variation,
)
from .solver import (
    SolverConfig,
    SolverResult,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
