import itertools
from dataclasses import asdict

import numpy as np
import pytest

from nlasso import (
    InvalidNode,
    KKTReport,
    NLassoProblem,
    SeedsOutsideCluster,
    SolverConfig,
    boundary_conditions,
    build_graph,
    duality_gap,
    extract_cluster,
    kkt_residuals,
    reach_bound_check,
    run,
)
from nlasso import cli
from nlasso.certificates import _boundary_weight, _key_value_lines
from nlasso.graph import _node_mask
from oracle import exact_optimum, random_connected_graph


def test_extract_empty_for_zero_signal():
    c = extract_cluster(np.zeros(10))
    assert c.cluster.size == 0
    assert c.threshold == 0.5


def test_extract_threshold_is_strict():
    x = np.array([0.5, 0.5 + 1e-12, 0.2])
    c = extract_cluster(x, 0.5)
    assert c.cluster.tolist() == [2]


def test_extract_reports_seed_containment():
    x = np.array([0.9, 0.1, 0.8])
    assert extract_cluster(x, seeds=[1, 3]).contains_seeds is True
    assert extract_cluster(x, seeds=[2]).contains_seeds is False
    assert extract_cluster(x).contains_seeds is None
    # an empty signal holds no node, so a seed is out of range, not the count
    assert extract_cluster([], seeds=[]).contains_seeds is True
    with pytest.raises(InvalidNode, match=r"^node id 1 is not an integer in 1\.\.0$"):
        extract_cluster([], 0.5, seeds=[1])


def test_extract_monotone_in_threshold(rng):
    x = rng.random(50)
    prev = None
    for thr in (0.1, 0.3, 0.5, 0.7, 0.9):
        cur = set(extract_cluster(x, thr).cluster.tolist())
        if prev is not None:
            assert cur <= prev
        prev = cur


def test_kkt_zero_state(chain_problem):
    report = kkt_residuals(chain_problem, np.zeros(100), np.zeros(99))
    assert report.seed_demand_residual == 1.0  # |0 - (0 - 1)|
    assert report.nonseed_demand_residual == 0.0
    assert report.capacity_ok
    assert report.nonsaturated_jump == 0.0


def test_kkt_capacity_flag(chain_problem):
    y = np.zeros(99)
    y[0] = 2.0 * chain_problem.capacities[0]
    report = kkt_residuals(chain_problem, np.zeros(100), y)
    assert not report.capacity_ok


def test_kkt_flags_a_saturated_flow_against_the_signal():
    # the flow meets both demands at capacity, but runs from node 2 up to
    # node 1, which lies 1.75 higher: not optimal, with a duality gap of 0.875
    p = NLassoProblem(build_graph(2, [(1, 2, 1.0)]), [1], 0.5, 0.25)
    x, y = np.array([1.25, -0.5]), np.array([-0.25])
    assert duality_gap(p, x, y) == 0.875
    report = kkt_residuals(p, x, y)
    assert report.seed_demand_residual == report.nonseed_demand_residual == 0.0
    assert report.capacity_ok
    assert report.nonsaturated_jump == report.max_residual == 1.75
    # the same flow running down from node 1 leaves that jump nothing to report
    report = kkt_residuals(p, [1.25, -0.5], [0.25])
    assert report.nonsaturated_jump == 0.0


def test_kkt_at_tree_optima(rng):
    # residuals of an exactly optimal pair vanish to rounding
    for _ in range(8):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(n, rng, extra_p=0.0)
        p = NLassoProblem(g, [int(rng.integers(1, n + 1))], 0.25, 0.2)
        x_star, y_star = exact_optimum(p)
        report = kkt_residuals(p, x_star, y_star, eps_sat=1e-6)
        assert report.seed_demand_residual <= 1e-8
        assert report.nonseed_demand_residual <= 1e-8
        assert report.capacity_ok
        assert report.nonsaturated_jump <= 1e-8


def test_kkt_max_residual_reports_nan():
    # on a 3-node path, a NaN in x makes two residuals NaN behind a seed
    # residual of 0.0, which the builtin max would report
    p = NLassoProblem(build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)]), [1], 0.5, 0.4)
    report = kkt_residuals(p, [1.0, np.nan, 0.0], np.zeros(2))
    assert report.seed_demand_residual == 0.0
    assert np.isnan(report.nonseed_demand_residual) and np.isnan(report.nonsaturated_jump)
    assert np.isnan(report.max_residual)
    # a NaN in any place; finite residuals give the largest, bit for bit
    for values in itertools.permutations((0.0, 1.5, np.nan)):
        assert np.isnan(KKTReport(values[0], values[1], True, values[2], 1e-6).max_residual)
    for values in itertools.permutations((0.0, 0.1 + 0.2, 5e-324)):
        res = KKTReport(values[0], values[1], True, values[2], 1e-6).max_residual
        assert type(res) is float and res.hex() == (0.1 + 0.2).hex()


def test_kkt_report_serialization(chain_problem):
    report = kkt_residuals(chain_problem, np.zeros(100), np.zeros(99))
    lines = _key_value_lines(asdict(report))
    assert "seed_demand_residual = 1.0" in lines
    assert "capacity_ok = true" in lines


def test_boundary_weight_whole_graph_empty(house_graph):
    assert _boundary_weight(house_graph, _node_mask([1, 2, 3, 4, 5], 5)) == 0.0


def test_boundary_weight_chain_cluster(weighted_chain):
    # the one cut edge is {4, 5}, of weight 1
    assert _boundary_weight(weighted_chain, _node_mask([1, 2, 3, 4], 100)) == 1.0


def test_boundary_weight_four_cycle_counts_both_orientations():
    # cluster {2, 3} is cut at (1, 2), stored into it, and at (3, 4), stored
    # out of it: only both weights, 2 + 8, make 10 of 1, 2, 4 and 8
    g = build_graph(4, [(1, 2, 2.0), (2, 3, 1.0), (3, 4, 8.0), (1, 4, 4.0)])
    assert _boundary_weight(g, _node_mask([2, 3], 4)) == 10.0
    assert _boundary_weight(g, _node_mask([1, 4], 4)) == 10.0


def test_boundary_weight_complement_symmetry(rng):
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(3, 9)), rng)
        mask = rng.random(g.n) < 0.5
        assert _boundary_weight(g, mask) == _boundary_weight(g, ~mask)


def test_boundary_conditions_chain_run(chain_problem):
    res = run(chain_problem, SolverConfig(max_iters=1000))
    c = extract_cluster(res.x, 0.5, seeds=chain_problem.seeds)
    report = boundary_conditions(chain_problem, c, res.x)
    assert report.boundary_weight == 1.0
    assert report.lhs == pytest.approx(0.2, abs=1e-15)
    assert report.holds_injecting
    assert report.holds_absorbing


def test_boundary_conditions_empty_boundary():
    g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    p = NLassoProblem(g, [1], 0.5, 0.4)
    x = np.array([0.9, 0.8, 0.7])
    c = extract_cluster(x, 0.5, seeds=p.seeds)
    report = boundary_conditions(p, c, x)
    assert report.boundary_weight == 0.0
    assert report.lhs == 0.0
    assert report.holds_injecting and report.holds_absorbing


def test_boundary_conditions_absorbing_fails_when_outside_is_zero():
    g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    p = NLassoProblem(g, [1], 0.5, 0.4)
    x = np.array([1.0, 0.6, 0.0])  # nothing outside the cluster to absorb
    c = extract_cluster(x, 0.5, seeds=p.seeds)
    report = boundary_conditions(p, c, x)
    assert report.lhs > 0.0
    assert report.rhs_absorbing == 0.0
    assert not report.holds_absorbing


def test_boundary_conditions_absorbing_holds_at_equality():
    # at the optimum the absorbing condition is an equality: on this tree a
    # converged run puts lhs 1.4e-17 above rhs_absorbing, one rounding of
    # its sums
    g = build_graph(4, [(1, 2, 1.3118402833211513), (1, 3, 0.9153368060680562),
                        (2, 4, 0.7409780131626903)])
    p = NLassoProblem(g, [4], 0.5402651562704848, 0.07561549398596976)
    res = run(p, SolverConfig(max_iters=20_000))
    report = boundary_conditions(p, extract_cluster(res.x, 0.5, seeds=p.seeds), res.x)
    assert 0.0 < report.lhs - report.rhs_absorbing <= 1e-16
    assert report.holds_absorbing


def test_exact_optimum_saturates_the_cluster_boundary(rng):
    # the paper's flow picture at (x*, y*): every boundary edge of
    # C = {x* > 1/2} carries its full capacity lam W_e out of C, and both
    # boundary conditions hold at x*
    problems = [cli.chain_problem()] + [cli.sbm_problem(seed)[0] for seed in range(3)]
    for _ in range(20):
        n = int(rng.integers(3, 30))
        problems.append(NLassoProblem(random_connected_graph(n, rng),
                                      [int(rng.integers(1, n + 1))], 0.05, 0.1))
    checked = 0
    for p in problems:
        g = p.graph
        x_star, y_star = exact_optimum(p)
        c = extract_cluster(x_star, 0.5, seeds=p.seeds)
        if not c.contains_seeds:
            continue
        in_c = _node_mask(c.cluster, g.n)
        outward = np.where(in_c[g.src], 1.0, -1.0)
        cut = in_c[g.src] != in_c[g.dst]
        assert np.array_equal(outward[cut] * y_star[cut], p.capacities[cut])
        report = boundary_conditions(p, c, x_star)
        assert report.holds_injecting and report.holds_absorbing
        checked += 1
    assert checked == 17  # the chain, the block models and 13 random graphs


def test_boundary_conditions_requires_seed_containment(chain_problem):
    x = np.zeros(100)
    x[9] = 1.0
    c = extract_cluster(x, 0.5)
    with pytest.raises(SeedsOutsideCluster):
        boundary_conditions(chain_problem, c, x)


def test_reach_bound_chain(chain_problem):
    res = run(chain_problem, SolverConfig(max_iters=1000))
    c = extract_cluster(res.x, 0.5, seeds=chain_problem.seeds)
    assert reach_bound_check(chain_problem, c, 80)
    assert not reach_bound_check(chain_problem, c, 79)


def test_reach_bound_empty_boundary():
    g = build_graph(3, [(1, 2, 1.0), (2, 3, 1.0)])
    p = NLassoProblem(g, [2], 0.5, 0.4)
    c = extract_cluster(np.array([0.9, 0.9, 0.9]), 0.5, seeds=p.seeds)
    for bound in (0, 1, 5, 1000):
        assert reach_bound_check(p, c, bound)
    # an empty cluster has no boundary either
    assert reach_bound_check(p, extract_cluster(np.zeros(3)), 0)


def test_delivered_clusters_satisfy_conditions(rng):
    # long-enough runs around the benchmark parameter range produce
    # clusters whose necessary conditions both hold
    for n, alpha, lam in [(30, 0.01, 0.1), (60, 0.005, 0.2), (100, 0.02, 0.05)]:
        g = random_connected_graph(n, rng, extra_p=2.0 / n)
        p = NLassoProblem(g, [int(rng.integers(1, n + 1))], alpha, lam)
        res = run(p, SolverConfig(max_iters=2 * 10 ** 4))
        c = extract_cluster(res.x, 0.5, seeds=p.seeds)
        if not c.contains_seeds:
            continue
        report = boundary_conditions(p, c, res.x)
        assert report.holds_injecting
        assert report.holds_absorbing


def test_absorbing_condition_implies_whole_graph_reach_bound(rng):
    # when the absorbing condition holds and every outside value is at most
    # 1/2, the reach bound with every node allowed outside follows; checked
    # jointly on delivered iterates rather than assumed
    checked = 0
    for trial in range(6):
        n = int(rng.integers(10, 40))
        g = random_connected_graph(n, rng, extra_p=3.0 / n)
        p = NLassoProblem(g, [int(rng.integers(1, n + 1))], 0.02, 0.1)
        res = run(p, SolverConfig(max_iters=10 ** 4))
        c = extract_cluster(res.x, 0.5, seeds=p.seeds)
        if not c.contains_seeds:
            continue
        report = boundary_conditions(p, c, res.x)
        outside = np.setdiff1d(np.arange(1, n + 1), c.cluster)
        if report.holds_absorbing and np.all(res.x[outside - 1] <= 0.5):
            assert reach_bound_check(p, c, n)
            checked += 1
    assert checked > 0
