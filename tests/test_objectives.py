import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nlasso import (
    DimensionMismatch,
    DualInfeasible,
    NLassoProblem,
    build_graph,
    conjugate_f,
    conjugate_g_feasible,
    divergence,
    duality_gap,
    primal_objective,
    total_variation,
)
from nlasso.baselines import laplacian
from oracle import exact_tree_optimum, random_connected_graph, random_tree


def two_node_problem(w=2.0, alpha=0.5, lam=0.1):
    return NLassoProblem(build_graph(2, [(1, 2, w)]), [1], alpha, lam)


def test_problem_validation(weighted_chain):
    with pytest.raises(ValueError):
        NLassoProblem(weighted_chain, [], 0.1, 0.1)
    with pytest.raises(ValueError):
        NLassoProblem(weighted_chain, [1], 0.0, 0.1)
    with pytest.raises(ValueError):
        NLassoProblem(weighted_chain, [1], 0.1, -0.2)
    with pytest.raises(ValueError):
        NLassoProblem(weighted_chain, [1], float("inf"), 0.1)
    with pytest.raises(ValueError):
        NLassoProblem(weighted_chain, [1], 0.1, float("inf"))
    p = NLassoProblem(weighted_chain, [3, 1], 0.1, 0.1)
    assert p.seeds.tolist() == [1, 3]
    assert p.seed_mask[0] and p.seed_mask[2] and not p.seed_mask[1]


def test_tv_constant_zero(weighted_chain):
    assert total_variation(weighted_chain, np.full(100, 0.3)) == 0.0


def test_tv_chain_indicator(weighted_chain):
    x = np.zeros(100)
    x[:4] = 1.0
    # independent route: accumulate w * |x_i - x_j| edge by edge in a loop
    expected = 0.0
    for (i, j), w in zip(weighted_chain.edges, weighted_chain.weights):
        expected += w * abs(x[i - 1] - x[j - 1])
    assert expected == 1.0
    assert total_variation(weighted_chain, x) == pytest.approx(expected, abs=1e-15)


def test_tv_two_node():
    g = build_graph(2, [(1, 2, 2.0)])
    assert total_variation(g, [3.0, 1.0]) == 4.0


def test_tv_absolute_homogeneity(rng):
    g = random_connected_graph(6, rng)
    x = rng.normal(size=6)
    for a in (-2.5, 0.0, 0.7):
        assert total_variation(g, a * x) == pytest.approx(
            abs(a) * total_variation(g, x), rel=1e-12, abs=1e-15)


def laplacian_quadratic(g, x):
    """The quadratic form x' L x of the unnormalized Laplacian."""
    x = np.asarray(x, dtype=np.float64)
    return float(x @ laplacian(g, "unnormalized").apply(x))


def test_laplacian_quadratic_values():
    g = build_graph(2, [(1, 2, 2.0)])
    assert laplacian_quadratic(g, [3.0, 1.0]) == 8.0
    assert laplacian_quadratic(g, [0.5, 0.5]) == 0.0


def test_laplacian_quadratic_scaling(rng):
    g = random_connected_graph(5, rng)
    x = rng.normal(size=5)
    assert laplacian_quadratic(g, 3.0 * x) == pytest.approx(
        9.0 * laplacian_quadratic(g, x), rel=1e-12)


def test_laplacian_quadratic_matches_operator(rng):
    # independent route: the weighted sum of squared differences over edges
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 9)), rng)
        x = rng.normal(size=g.n)
        diffs = x[g.src] - x[g.dst]
        expected = float(np.sum(g.weights * diffs * diffs))
        assert laplacian_quadratic(g, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_primal_at_zero_and_one(chain_problem):
    n, ns = 100, 1
    assert primal_objective(chain_problem, np.zeros(n)) == ns / 2.0
    assert primal_objective(chain_problem, np.ones(n)) == pytest.approx(
        chain_problem.alpha * (n - ns) / 2.0, rel=1e-12)


def test_primal_chain_indicator(chain_problem):
    x = np.zeros(100)
    x[:4] = 1.0
    # seeds fit exactly, three non-seed ones, one unit jump across {4, 5}
    expected = 0.0 + 0.5 * chain_problem.alpha * 3.0 + chain_problem.lam * 1.0
    assert expected == pytest.approx(0.2075, abs=1e-15)
    assert primal_objective(chain_problem, x) == pytest.approx(expected, rel=1e-14)


def test_primal_midpoint_convexity(rng):
    g = random_connected_graph(7, rng)
    p = NLassoProblem(g, [2, 5], 0.3, 0.4)
    for _ in range(20):
        a = rng.normal(size=7)
        b = rng.normal(size=7)
        mid = primal_objective(p, (a + b) / 2.0)
        avg = (primal_objective(p, a) + primal_objective(p, b)) / 2.0
        assert mid <= avg + 1e-12


def dual_value(p, y):
    """Dual value of a base flow: -conjugate_f(-divergence(y))."""
    return -conjugate_f(p, -divergence(p.graph, y))


def test_dual_objective_trivials(chain_problem, rng):
    # zero flow has dual value 0; no flow, feasible or not, beats |seeds| / 2:
    # Fenchel-Young at x = 0 gives -f*(z) <= f(0) = |seeds| / 2 for every z
    g = chain_problem.graph
    assert dual_value(chain_problem, np.zeros(g.num_edges)) == 0.0
    for _ in range(20):
        y = rng.normal(size=g.num_edges)
        assert dual_value(chain_problem, y) <= 0.5


def test_dual_feasibility_zero_flow(chain_problem):
    g = chain_problem.graph
    y = np.zeros(g.num_edges)
    assert conjugate_g_feasible(chain_problem, y)
    assert np.all(divergence(g, y) == 0.0)


def test_dual_feasibility_unbalanced_edge():
    # one unit on edge (1, 2) leaves node 1 and arrives at node 2; the node
    # demands it meets sum to zero, so conservation holds by construction
    p = two_node_problem(w=1.0, lam=5.0)
    y = np.array([1.0])
    assert conjugate_g_feasible(p, y)
    div = divergence(p.graph, y)
    assert div.tolist() == [1.0, -1.0]
    # seed node 1 sees z = -1, node 2 sees z = 1: f* = (1/2 - 1) + 1 / (2 alpha)
    assert dual_value(p, y) == -0.5


def test_dual_feasibility_capacity_violation(chain_problem):
    g = chain_problem.graph
    cap = chain_problem.capacities
    y = np.zeros(g.num_edges)
    y[7] = cap[7] * (1.0 + 1e-3)
    assert not conjugate_g_feasible(chain_problem, y)
    with pytest.raises(DualInfeasible, match=f"{cap[7] * 1e-3:.3e}"):
        duality_gap(chain_problem, np.zeros(g.n), y)
    y[7] = -y[7]
    assert not conjugate_g_feasible(chain_problem, y)


def test_conjugate_f_values(chain_problem):
    assert conjugate_f(chain_problem, np.zeros(100)) == 0.0
    z = np.zeros(100)
    z[0] = 1.0  # node 1 is the seed
    assert conjugate_f(chain_problem, z) == 1.5


def test_conjugate_f_fenchel_inequality(rng):
    g = random_connected_graph(6, rng)
    p = NLassoProblem(g, [3], 0.7, 0.2)
    for _ in range(30):
        z = rng.normal(size=6)
        w = rng.normal(size=6)
        fw = primal_objective(p, w) - p.lam * total_variation(g, w)
        assert conjugate_f(p, z) >= float(z @ w) - fw - 1e-10


def test_conjugate_f_matches_numerical_supremum(rng):
    # the fidelity is separable, so maximize z_i w - f_i(w) per coordinate
    g = random_connected_graph(5, rng)
    p = NLassoProblem(g, [2], 0.35, 0.1)
    for _ in range(5):
        z = rng.normal(size=5)
        total = 0.0
        for i in range(5):
            if p.seed_mask[i]:
                neg = lambda w, zi=z[i]: -(zi * w - 0.5 * (w - 1.0) ** 2)
            else:
                neg = lambda w, zi=z[i]: -(zi * w - 0.5 * p.alpha * w ** 2)
            res = minimize_scalar(neg, bounds=(-1e3, 1e3), method="bounded",
                                  options={"xatol": 1e-10})
            total += -res.fun
        assert conjugate_f(p, z) == pytest.approx(total, abs=1e-6)


def test_conjugate_g_feasible_boundary(chain_problem):
    g = chain_problem.graph
    cap = chain_problem.capacities
    assert conjugate_g_feasible(chain_problem, np.zeros(g.num_edges))
    y = np.zeros(g.num_edges)
    y[0] = cap[0]
    assert conjugate_g_feasible(chain_problem, y)  # closed constraint
    y[0] = 2.0 * cap[0]
    assert not conjugate_g_feasible(chain_problem, y)


def test_duality_gap_at_zero(chain_problem):
    g = chain_problem.graph
    gap = duality_gap(chain_problem, np.zeros(100), np.zeros(g.num_edges))
    assert gap == 0.5  # |seeds| / 2


def test_duality_gap_at_tree_optimum(rng):
    problems = [two_node_problem()]
    for _ in range(5):
        g = random_tree(3, rng)
        problems.append(NLassoProblem(g, [int(rng.integers(1, 4))], 0.4, 0.15))
    for p in problems:
        x_star, y_star = exact_tree_optimum(p)
        assert duality_gap(p, x_star, y_star) <= 1e-8
    # strong duality on the single edge: the dual value meets the primal
    p = problems[0]
    x_star, y_star = exact_tree_optimum(p)
    assert dual_value(p, y_star) == pytest.approx(primal_objective(p, x_star), abs=1e-10)


def test_duality_gap_weak_duality(rng):
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(2, 8)), rng)
        p = NLassoProblem(g, [1], 0.5, 0.3)
        x = rng.normal(size=g.n)
        y = rng.uniform(-1.0, 1.0, size=g.num_edges) * p.capacities
        assert duality_gap(p, x, y) >= -1e-12


def test_duality_gap_infeasible_raises(chain_problem):
    g = chain_problem.graph
    y = np.zeros(g.num_edges)
    y[0] = 10.0 * chain_problem.capacities[0]
    with pytest.raises(DualInfeasible):
        duality_gap(chain_problem, np.zeros(100), y)


def test_dimension_mismatches(chain_problem):
    with pytest.raises(DimensionMismatch):
        primal_objective(chain_problem, np.zeros(99))
    with pytest.raises(DimensionMismatch):
        conjugate_f(chain_problem, np.zeros(101))
    with pytest.raises(DimensionMismatch):
        conjugate_g_feasible(chain_problem, np.zeros(100))
    with pytest.raises(DimensionMismatch):
        duality_gap(chain_problem, np.zeros(100), np.zeros(100))
