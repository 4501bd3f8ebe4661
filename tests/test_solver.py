import numpy as np
import pytest

from frozen_oracle import INSTANCES as FROZEN
from nlasso import (
    IsolatedNode,
    NLassoProblem,
    SbmSpec,
    SolverConfig,
    build_graph,
    conjugate_g_feasible,
    duality_gap,
    extract_cluster,
    kkt_residuals,
    run,
    sample_seeds,
    sbm_graph,
)
from nlasso.generators import GreyImage, grid_from_image
from nlasso.solver import _Kernel
from oracle import exact_tree_optimum, pair_prox_gradient, random_connected_graph


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, gap_tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, record_interval=-1)
    for bad in ({"max_iters": 2.5}, {"max_iters": float("nan")},
                {"max_iters": float("inf")}, {"gap_check_interval": 0.5},
                {"record_interval": 2.5}, {"gap_tolerance": float("nan")},
                {"gap_tolerance": float("inf")}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig()
    assert cfg.max_iters == 1000
    cfg = SolverConfig(max_iters=20.0, gap_check_interval=np.int64(5),
                       record_interval=10.0, gap_tolerance=1e-3)
    assert (cfg.max_iters, cfg.gap_check_interval, cfg.record_interval) == (20, 5, 10)
    assert all(type(v) is int for v in (cfg.max_iters, cfg.gap_check_interval,
                                        cfg.record_interval))


def test_init_state_all_ones(chain_problem):
    # run starts at x = x_prev = 1 with zero flow, which is dual feasible
    g = chain_problem.graph
    assert conjugate_g_feasible(chain_problem, np.zeros(g.num_edges))
    res = run(chain_problem, SolverConfig(max_iters=1))
    x, _, y = _Kernel(chain_problem).step(np.ones(g.n), np.ones(g.n), np.zeros(g.num_edges))
    assert res.x.tobytes() == x.tobytes()
    assert res.y.tobytes() == y.tobytes()


def test_init_state_rejects_isolated_node():
    g = build_graph(3, [(1, 2, 1.0)])
    p = NLassoProblem(g, [1], 0.1, 0.1)
    with pytest.raises(IsolatedNode, match="node 3"):
        run(p, SolverConfig(max_iters=5))


def test_step_hand_derived_two_node():
    # from the zero state on a single edge with a seed at node 1:
    # extrapolation is zero, the flow stays zero, the descent leaves zero,
    # and the seed proximal map gives (gamma + 0) / (gamma + 1) = 1/2
    g = build_graph(2, [(1, 2, 1.0)])
    p = NLassoProblem(g, [1], 0.05, 0.3)
    x, x_prev, y = _Kernel(p).step(np.zeros(2), np.zeros(2), np.zeros(1))
    assert x.tolist() == [0.5, 0.0]
    assert y.tolist() == [0.0]
    assert x_prev.tolist() == [0.0, 0.0]


def test_step_capacity_invariant(rng):
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 9)), rng)
        p = NLassoProblem(g, [1], 0.2, 0.15)
        _, _, y = _Kernel(p).step(rng.normal(size=g.n) * 5, rng.normal(size=g.n) * 5,
                                  rng.normal(size=g.num_edges) * 5)
        assert conjugate_g_feasible(p, y)


def test_step_fixed_point_at_optimum(rng):
    g = build_graph(2, [(1, 2, 1.7)])
    p = NLassoProblem(g, [2], 0.3, 0.2)
    x_star, y_star = exact_tree_optimum(p)
    x, _, y = _Kernel(p).step(x_star.copy(), x_star.copy(), y_star.copy())
    assert np.max(np.abs(x - x_star)) <= 1e-12
    assert np.max(np.abs(y - y_star)) <= 1e-12


def test_run_chain_cluster(chain_problem):
    res = run(chain_problem, SolverConfig(max_iters=1000))
    assert res.iters_run == 1000
    cluster = extract_cluster(res.x, 0.5)
    assert cluster.cluster.tolist() == [1, 2, 3, 4]


def test_run_matches_pair_oracle():
    w, alpha, lam = 1.4, 0.2, 0.25
    g = build_graph(2, [(1, 2, w)])
    p = NLassoProblem(g, [1], alpha, lam)
    res = run(p, SolverConfig(max_iters=10 ** 5))
    x_star = pair_prox_gradient(w, seed_first=True, alpha=alpha, lam=lam)
    assert np.max(np.abs(res.x - x_star)) <= 1e-6


def test_run_deterministic(chain_problem):
    cfg = SolverConfig(max_iters=300, record_interval=50)
    a = run(chain_problem, cfg)
    b = run(chain_problem, cfg)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.history == b.history


def test_run_history_recording(chain_problem):
    res = run(chain_problem, SolverConfig(max_iters=250, record_interval=100))
    assert [h.r for h in res.history] == [100, 200]
    assert all(np.isfinite([h.primal, h.gap, h.max_kkt]).all() for h in res.history)
    rs = [h.r for h in res.history]
    assert rs == sorted(rs) and len(set(rs)) == len(rs)


def test_run_gap_stop(house_graph):
    p = NLassoProblem(house_graph, [1], 0.5, 0.1)
    cfg = SolverConfig(max_iters=10 ** 5, gap_check_interval=100, gap_tolerance=1e-6)
    res = run(p, cfg)
    assert res.iters_run < 10 ** 5
    assert res.iters_run % 100 == 0
    assert duality_gap(p, res.x, res.y) <= 1e-6


def test_run_capacity_invariant_along_path(chain_problem):
    for iters in (1, 7, 123):
        res = run(chain_problem, SolverConfig(max_iters=iters))
        assert conjugate_g_feasible(chain_problem, res.y)


def test_convergence_on_random_graphs(rng):
    # gap sampled every 100 iterations past a 1000-iteration burn-in is
    # non-increasing, and the long-run gap undercuts 1e-4 * |seeds|
    for n in (20, 50):
        g = random_connected_graph(n, rng)
        seeds = [int(rng.integers(1, n + 1))]
        p = NLassoProblem(g, seeds, 0.05, 0.1)
        res = run(p, SolverConfig(max_iters=10 ** 5, record_interval=100))
        gaps = [h.gap for h in res.history if h.r >= 1000]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-4 * len(seeds)


def test_long_run_kkt_consistency(rng):
    g = random_connected_graph(5, rng)
    p = NLassoProblem(g, [2], 0.3, 0.2)
    res = run(p, SolverConfig(max_iters=10 ** 5))
    report = kkt_residuals(p, res.x, res.y, eps_sat=1e-6)
    assert report.seed_demand_residual <= 1e-4
    assert report.nonseed_demand_residual <= 1e-4
    assert report.capacity_ok
    assert report.nonsaturated_jump <= 1e-4


def clip_step(k, x, x_prev, y):
    """`_Kernel.step` with the projection written as np.clip: the reference
    that the max-then-min clamp must match bit for bit."""
    xt = 2.0 * x - x_prev
    y = y + 0.5 * (xt[k.src] - xt[k.dst])
    np.clip(y, k.neg_cap, k.cap, out=y)
    div = (np.bincount(k.src, weights=y, minlength=k.n)
           - np.bincount(k.dst, weights=y, minlength=k.n))
    v = x - k.gamma * div
    return (v + k.shift) * k.scale, x, y


def same_bits(a, b):
    return all(u.dtype == v.dtype and u.tobytes() == v.tobytes() for u, v in zip(a, b))


def saturated_grid_problem():
    """30 x 30 noisy two-region grid; lam is small enough that hundreds of
    edges carry a flow of exactly their capacity."""
    rng = np.random.default_rng(5)
    rows, cols = np.mgrid[0:30, 0:30]
    inside = (rows - 15) ** 2 + (cols - 15) ** 2 <= 81
    grey = np.where(inside, 170, 80) + rng.integers(-15, 16, size=(30, 30))
    g = grid_from_image(GreyImage(30, 30, grey.ravel()))
    return NLassoProblem(g, np.flatnonzero(inside.ravel())[::7] + 1, 0.01, 1e-3)


def test_projection_matches_clip_along_runs():
    problems = [NLassoProblem(build_graph(inst["n"], inst["edges"]), [inst["seed"]],
                              inst["alpha"], inst["lam"]) for inst in FROZEN]
    g, blocks = sbm_graph(SbmSpec((200, 200), 0.1, 0.01, rng_seed=0))
    problems.append(NLassoProblem(g, sample_seeds(blocks[0], 20, rng_seed=0), 1 / 40, 1 / 200))
    problems.append(saturated_grid_problem())
    for p in problems:
        k = _Kernel(p)
        ours = ref = (np.ones(p.graph.n), np.ones(p.graph.n), np.zeros(p.graph.num_edges))
        for _ in range(300):
            ours, ref = k.step(*ours), clip_step(k, *ref)
            assert same_bits(ours, ref)
    # the grid, run last, ends with hundreds of flows exactly at capacity
    at_cap = int(np.sum(np.abs(ours[2]) == k.cap))
    assert at_cap >= 300, at_cap


def test_projection_matches_clip_at_the_bound():
    # a perfect matching, so each edge's flow is independent; xt is -0.0 at
    # the first endpoint and +0.0 at the second, so the dual ascent adds -0.0
    # and the projection sees y exactly as given
    w = np.array([1.0, 0.5, 2.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1e-300, 5e-324, 5e-324])
    m = w.size
    g = build_graph(2 * m, np.column_stack((np.arange(1, 2 * m, 2),
                                            np.arange(2, 2 * m + 1, 2), w)))
    p = NLassoProblem(g, [1], 0.1, 0.25)
    k = _Kernel(p)
    cap = k.cap
    assert cap[9] == cap[10] == 0.0  # 0.25 * 5e-324 underflows
    y = np.array([cap[0], -cap[1], -0.0, 0.0, 1e300, -1e300, np.inf, -np.inf,
                  -0.0, -0.0, 1e-300])
    x = np.tile([-0.0, 0.0], m)
    x_prev = np.zeros(2 * m)
    ours, ref = k.step(x, x_prev, y.copy()), clip_step(k, x, x_prev, y.copy())
    assert same_bits(ours, ref)
    assert ours[2].tolist() == [cap[0], -cap[1], 0.0, 0.0, cap[4], -cap[5], cap[6],
                                -cap[7], 0.0, 0.0, 0.0]
    assert np.signbit(ours[2][[2, 8]]).all()  # -0.0 inside the bounds stays -0.0
