import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import nlasso
from nlasso import Graph, certificates, errors, generators, graph, objectives, solver

PUBLIC = {
    # graph
    "Graph", "build_graph", "divergence", "incidence_apply", "is_connected",
    "read_edge_list", "read_node_set", "write_node_set",
    # objectives
    "NLassoProblem", "conjugate_f", "conjugate_g_feasible", "duality_gap",
    "primal_objective", "total_variation",
    # solver
    "SolverConfig", "SolverResult", "run",
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

# the settable parameters of the APIs whose options nothing but tests set
SIGNATURES = {
    nlasso.grid_from_image: "(img: 'GreyImage') -> 'Graph'",
    nlasso.read_edge_list: "(path) -> 'Graph'",
    nlasso.read_node_set: "(path, n: 'int') -> 'np.ndarray'",
    nlasso.fiedler_vector: "(g: 'Graph', mode: 'str' = 'unnormalized', tol: 'float' = 1e-10)"
                           " -> 'np.ndarray'",
}

# the star-augmented dual layout, the single-step solver API and the
# edge-list writer, which nothing but tests called; the solver's own byte
# compare and slot-order read-out, folded into its kernels' same_state and
# arrays; the PGM byte lexer, now one regular expression, and the id-set
# check in front of as_node_ids; isolated_nodes, which only the isolated-node
# check called, and the reports' line writer, which only certificates.txt used;
# boundary, whose cut the certificates compute from their membership mask;
# the checked run's history rows and their builder, which nothing but tests
# and tools read
REMOVED = {
    objectives: ("star_augmented_flow", "dual_objective", "dual_feasibility",
                 "DualFeasibilityReport", "_as_augmented_flow", "laplacian_quadratic"),
    errors: ("NotAugmented",),
    solver: ("step", "init_state", "SolverState", "_same_bits", "HistoryRecord",
             "_check_row"),
    solver._Kernel: ("edge_flow", "advance"),
    Graph: ("out_neighbors", "in_neighbors", "neighbors", "_check_node"),
    graph: ("write_edge_list", "_id_set", "isolated_nodes", "boundary"),
    certificates: ("_Report",),
    certificates.KKTReport: ("as_lines",),
    generators: ("_pgm_tokens", "pair_uniform", "_pair_bits"),
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


def test_trimmed_signatures_are_pinned():
    for func, signature in SIGNATURES.items():
        assert str(inspect.signature(func)) == signature, func.__name__
    names = [f.name for f in dataclasses.fields(nlasso.SolverConfig)]
    assert names == ["max_iters"]


def _benchmark_tracer():
    """perfbench/tracer.py, loaded from its file without installing it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_names_the_benchmark_traces_exist():
    # the lookups of Tracer.install: a traced run raises LookupError for a
    # name the package lost, so a rename shows here and not only there
    tracer = _benchmark_tracer()
    missing = [f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names
               if not callable(getattr(importlib.import_module(f"nlasso.{layer}"), name, None))]
    for layer, cls_name, meth in tracer.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"nlasso.{layer}"), cls_name, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{layer}.{cls_name}.{meth}")
    assert tracer.TRACED and tracer.TRACED_METHODS
    assert missing == []
