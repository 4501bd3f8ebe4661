import inspect

import nlasso
from nlasso import Graph, errors, objectives, solver

PUBLIC = {
    # graph
    "Graph", "boundary", "build_graph", "divergence", "incidence_apply",
    "is_connected", "isolated_nodes", "read_edge_list", "read_node_set",
    "write_edge_list", "write_node_set",
    # objectives
    "NLassoProblem", "conjugate_f", "conjugate_g_feasible", "duality_gap",
    "primal_objective", "total_variation",
    # solver
    "HistoryRecord", "SolverConfig", "SolverResult", "run",
    # certificates
    "BoundaryConditionReport", "ClusterResult", "KKTReport",
    "boundary_conditions", "extract_cluster", "kkt_residuals",
    "reach_bound_check",
    # baselines
    "NORMALIZED", "UNNORMALIZED", "IndicatorError", "LaplacianOperator",
    "fiedler_value", "fiedler_vector", "indicator_error", "laplacian",
    # generators
    "GreyImage", "SbmSpec", "chain_graph", "grid_from_image", "read_pgm",
    "sample_seeds", "sbm_graph", "write_pgm",
    # errors
    "CountTooLarge", "DimensionMismatch", "Disconnected", "DualInfeasible",
    "DuplicateEdge", "InvalidEdge", "InvalidNode", "InvalidOverride",
    "InvalidWeight", "IsolatedNode", "NLassoError", "NoConvergence",
    "PgmError", "SeedsOutsideCluster",
}

# the star-augmented dual layout and the single-step solver API
REMOVED = {
    objectives: ("star_augmented_flow", "dual_objective", "dual_feasibility",
                 "DualFeasibilityReport", "_as_augmented_flow", "laplacian_quadratic"),
    errors: ("NotAugmented",),
    solver: ("step", "init_state", "SolverState"),
    Graph: ("out_neighbors", "in_neighbors", "neighbors", "_check_node"),
}


def test_public_surface_is_pinned():
    names = {n for n in nlasso.__all__ if not inspect.ismodule(getattr(nlasso, n))}
    assert names == PUBLIC


def test_removed_names_stay_gone():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert not hasattr(nlasso, name), name
    assert Graph.__hash__ is None
