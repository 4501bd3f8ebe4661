import numpy as np
import pytest

from frozen_oracle import INSTANCES as FROZEN
from nlasso import (
    HistoryRecord,
    IsolatedNode,
    NLassoProblem,
    SbmSpec,
    SolverConfig,
    SolverResult,
    build_graph,
    conjugate_g_feasible,
    duality_gap,
    extract_cluster,
    kkt_residuals,
    primal_objective,
    run,
    sample_seeds,
    sbm_graph,
)
from nlasso import cli, solver
from nlasso.generators import GreyImage, chain_graph, grid_from_image
from nlasso.solver import _BandKernel, _Kernel, _kernel, _node_constants, _ScalarKernel
from oracle import exact_optimum, random_connected_graph


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, gap_tolerance=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, check_interval=-1)
    for bad in ({"max_iters": 2.5}, {"max_iters": float("nan")},
                {"max_iters": float("inf")}, {"max_iters": True}, {"max_iters": "5"},
                {"check_interval": 0.5}, {"check_interval": True},
                {"gap_tolerance": float("nan")}, {"gap_tolerance": float("inf")},
                {"gap_tolerance": True}, {"gap_tolerance": "1e-3"}, {"gap_tolerance": None},
                {"gap_tolerance": np.array(1e-3)}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    # a tolerance without checks would never be compared with a gap
    for interval in ({}, {"check_interval": 0}):
        with pytest.raises(ValueError, match="gap_tolerance 0.001 needs a check_interval"):
            SolverConfig(max_iters=50, gap_tolerance=1e-3, **interval)
    cfg = SolverConfig()
    assert (cfg.max_iters, cfg.check_interval, cfg.gap_tolerance) == (1000, 0, 0.0)
    cfg = SolverConfig(max_iters=20.0, check_interval=np.int64(5), gap_tolerance=1e-3)
    assert (cfg.max_iters, cfg.check_interval) == (20, 5)
    assert all(type(v) is int for v in (cfg.max_iters, cfg.check_interval))
    for tol in (0, 1, np.float32(0.5), np.int64(2)):
        cfg = SolverConfig(check_interval=1, gap_tolerance=tol)
        assert type(cfg.gap_tolerance) is float and cfg.gap_tolerance == tol


def test_init_state_all_ones(chain_problem):
    # run starts at x = x_prev = 1 with zero flow, which is dual feasible
    g = chain_problem.graph
    assert conjugate_g_feasible(chain_problem, np.zeros(g.num_edges))
    res = run(chain_problem, SolverConfig(max_iters=1))
    k = kernel_of(_Kernel, chain_problem)
    x, _, y = k.arrays(k.step(np.ones(g.n), np.ones(g.n), np.zeros(k.cap.size)))
    assert res.x.tobytes() == x.tobytes()
    assert res.y.tobytes() == y.tobytes()


def test_init_state_rejects_isolated_node():
    g = build_graph(3, [(1, 2, 1.0)])
    p = NLassoProblem(g, [1], 0.1, 0.1)
    with pytest.raises(IsolatedNode, match="node 3"):
        run(p, SolverConfig(max_iters=5))
    # a chain of n - 1 nodes beside node n, on graphs of the gather and the
    # band layout's size: joining node n to the chain gives that layout
    for n, layout in ((100, _Kernel), (1002, _BandKernel)):
        assert layout_of(chain_graph(n)) is layout
        g = build_graph(n, [(i, i + 1, 1.0) for i in range(1, n - 1)])
        with pytest.raises(IsolatedNode, match=f"node {n} has degree 0"):
            run(NLassoProblem(g, [1], 0.1, 0.1), SolverConfig(max_iters=5))


def test_step_hand_derived_two_node():
    # from the zero state on a single edge with a seed at node 1:
    # extrapolation is zero, the flow stays zero, the descent leaves zero,
    # and the seed proximal map gives (gamma + 0) / (gamma + 1) = 1/2
    g = build_graph(2, [(1, 2, 1.0)])
    p = NLassoProblem(g, [1], 0.05, 0.3)
    x, x_prev, y = kernel_of(_Kernel, p).step(np.zeros(2), np.zeros(2), np.zeros(1))
    assert x.tolist() == [0.5, 0.0]
    assert y.tolist() == [0.0]
    assert x_prev.tolist() == [0.0, 0.0]


def test_step_capacity_invariant(rng):
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 9)), rng)
        p = NLassoProblem(g, [1], 0.2, 0.15)
        k = kernel_of(_Kernel, p)
        state = kernel_state(k, rng.normal(size=g.n) * 5, rng.normal(size=g.n) * 5,
                             rng.normal(size=g.num_edges) * 5)
        assert conjugate_g_feasible(p, k.arrays(k.step(*state))[2])


def test_step_fixed_point_at_optimum(rng):
    # one edge, then seeded random connected graphs
    problems = [NLassoProblem(build_graph(2, [(1, 2, 1.7)]), [2], 0.3, 0.2)]
    for _ in range(10):
        g = random_connected_graph(int(rng.integers(2, 12)), rng)
        problems.append(NLassoProblem(g, [int(rng.integers(1, g.n + 1))], 0.1, 0.15))
    for p in problems:
        x_star, y_star = exact_optimum(p)
        k = kernel_of(_Kernel, p)
        x, _, y = k.arrays(k.step(*kernel_state(k, x_star.copy(), x_star.copy(), y_star)))
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
    assert np.max(np.abs(res.x - exact_optimum(p)[0])) <= 1e-9


def test_run_matches_exact_optimum(rng):
    # the 25 frozen instances and seeded random connected graphs at 10^5
    # iterations; each run stops stepping once its state repeats
    problems = frozen_problems()
    for _ in range(20):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, rng)
        problems.append(NLassoProblem(g, [int(rng.integers(1, n + 1))],
                                      rng.uniform(0.01, 1.0), rng.uniform(0.01, 0.5)))
    for p in problems:
        res = run(p, SolverConfig(max_iters=10 ** 5))
        assert np.max(np.abs(res.x - exact_optimum(p)[0])) <= 1e-9


@pytest.mark.parametrize("seed", [None, 0, 1, 2], ids=["chain", "sbm0", "sbm1", "sbm2"])
def test_paper_problems_reach_the_exact_optimum(seed):
    # the chain and the first three block models: the CLI's 1000 iterations
    # deliver the exact cluster {x* > 1/2} (the chain's nodes 1-4, the first
    # block), and 2 * 10^4 reach x* to within 3.4e-11
    p = cli.chain_problem() if seed is None else cli.sbm_problem(seed)[0]
    x_star = exact_optimum(p)[0]
    exact = extract_cluster(x_star).cluster.tolist()
    assert exact == list(range(1, 5 if seed is None else 101))
    assert extract_cluster(run(p, SolverConfig(max_iters=1000)).x).cluster.tolist() == exact
    res = run(p, SolverConfig(max_iters=2 * 10 ** 4))
    assert np.max(np.abs(res.x - x_star)) <= 1e-9


def test_run_deterministic(chain_problem):
    cfg = SolverConfig(max_iters=300, check_interval=50)
    a = run(chain_problem, cfg)
    b = run(chain_problem, cfg)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()
    assert a.history == b.history


def test_run_history_recording(chain_problem):
    res = run(chain_problem, SolverConfig(max_iters=250, check_interval=100))
    assert [h.r for h in res.history] == [100, 200]
    assert all(np.isfinite([h.primal, h.gap, h.max_kkt]).all() for h in res.history)
    rs = [h.r for h in res.history]
    assert rs == sorted(rs) and len(set(rs)) == len(rs)


def test_run_gap_stop(house_graph):
    p = NLassoProblem(house_graph, [1], 0.5, 0.1)
    cfg = SolverConfig(max_iters=10 ** 5, check_interval=100, gap_tolerance=1e-6)
    res = run(p, cfg)
    assert res.iters_run < 10 ** 5
    assert res.iters_run % 100 == 0
    assert duality_gap(p, res.x, res.y) <= 1e-6
    # one row per check, and the run stops at the first row within tolerance
    assert [h.r for h in res.history] == list(range(100, res.iters_run + 1, 100))
    assert [h.gap <= 1e-6 for h in res.history] == [False] * (len(res.history) - 1) + [True]


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
        res = run(p, SolverConfig(max_iters=10 ** 5, check_interval=100))
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


def frozen_problems():
    return [NLassoProblem(build_graph(inst["n"], inst["edges"]), [inst["seed"]],
                          inst["alpha"], inst["lam"]) for inst in FROZEN]


def test_projection_matches_clip_along_runs():
    problems = frozen_problems()
    g, blocks = sbm_graph(SbmSpec((200, 200), 0.1, 0.01, rng_seed=0))
    problems.append(NLassoProblem(g, sample_seeds(blocks[0], 20, rng_seed=0), 1 / 40, 1 / 200))
    problems.append(saturated_grid_problem())
    for p in problems:
        k = kernel_of(_Kernel, p)
        ours = ref = (np.ones(p.graph.n), np.ones(p.graph.n), np.zeros(p.graph.num_edges))
        for _ in range(300):
            ours, ref = k.step(*ours), clip_step(k, *ref)
            assert same_bits(ours, ref)
    # the grid, run last, ends with hundreds of flows exactly at capacity
    at_cap = int(np.sum(np.abs(ours[2]) == k.cap))
    assert at_cap >= 300, at_cap


def matching_problem():
    """A perfect matching, so each edge's flow is independent, and a start
    whose flows lie at and beyond the bounds: +-capacity, +-0.0, +-1e300,
    +-inf, and capacities that underflow to 0 (0.25 * 5e-324).  xt is -0.0
    at each edge's first endpoint and +0.0 at its second, so the dual ascent
    adds -0.0, the projection sees y exactly as given, and every flow into
    an edge's second endpoint given as -0.0 stays -0.0."""
    w = np.array([1.0, 0.5, 2.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1e-300, 5e-324, 5e-324])
    m = w.size
    g = build_graph(2 * m, np.column_stack((np.arange(1, 2 * m, 2),
                                            np.arange(2, 2 * m + 1, 2), w)))
    p = NLassoProblem(g, [1], 0.1, 0.25)
    cap = p.capacities
    y = np.array([cap[0], -cap[1], -0.0, 0.0, 1e300, -1e300, np.inf, -np.inf,
                  -0.0, -0.0, 1e-300])
    return p, (np.tile([-0.0, 0.0], m), np.zeros(2 * m), y)


def test_projection_matches_clip_at_the_bound():
    p, state = matching_problem()
    k = kernel_of(_Kernel, p)
    cap = p.capacities
    assert cap[9] == cap[10] == 0.0  # 0.25 * 5e-324 underflows
    state = kernel_state(k, *state)
    ours, ref = k.step(*state), clip_step(k, *state)
    assert same_bits(ours, ref)
    y = k.arrays(ours)[2]
    assert y.tolist() == [cap[0], -cap[1], 0.0, 0.0, cap[4], -cap[5], cap[6], -cap[7],
                          0.0, 0.0, 0.0]
    assert np.signbit(y[[2, 8]]).all()  # -0.0 inside the bounds stays -0.0
    # -0.0 on an edge of capacity 0 ties both bounds; np.maximum and
    # np.minimum return their second operand, so the flow ends at +0.0
    assert not np.signbit(y[9])


def underflow_problem():
    """Three nodes whose edge (2, 3) has capacity 0.25 * 5e-324 = 0, with the
    seed at node 3: once x_2 < x_3 the dual ascent on that edge is negative,
    so the clamp meets -0.0 against +0.0 at every step."""
    g = build_graph(3, [(1, 2, 1.0), (1, 3, 1.0), (2, 3, 5e-324)])
    return NLassoProblem(g, [3], 0.5, 0.25)


def test_scalar_clamp_follows_numpy_ties():
    p = underflow_problem()
    assert p.capacities[2] == 0.0
    gk, sk = kernel_of(_Kernel, p), kernel_of(_ScalarKernel, p)
    gather, scalar = gk.start(), sk.start()
    ties = 0
    for _ in range(50):
        x, x_prev, y = sk.arrays(scalar)
        xt = 2.0 * x - x_prev
        ties += (xt[1] - xt[2]) * 0.5 + y[2] < 0.0
        gather, scalar = gk.step(*gather), sk.step(*scalar)
        assert same_bits(gk.arrays(gather), sk.arrays(scalar))
        y = sk.arrays(scalar)[2]
        assert y[2] == 0.0 and not np.signbit(y[2])
    assert ties >= 40, ties
    # a NaN flow stays NaN through the clamp, as in np.maximum and np.minimum
    gather = (np.ones(3), np.ones(3), np.array([np.nan, 0.0, 0.0]))
    scalar = in_layout(sk, gather)
    for _ in range(3):
        gather, scalar = gk.step(*gather), sk.step(*scalar)
        assert same_bits(gk.arrays(gather), sk.arrays(scalar))
    assert np.isnan(sk.arrays(scalar)[0]).all()
    # the matching's flows at and beyond the bounds, +-inf included
    p, state = matching_problem()
    gk, sk = kernel_of(_Kernel, p), kernel_of(_ScalarKernel, p)
    gather, scalar = kernel_state(gk, *state), kernel_state(sk, *state)
    for _ in range(5):
        gather, scalar = gk.step(*gather), sk.step(*scalar)
        assert same_bits(gk.arrays(gather), sk.arrays(scalar))


def kernel_of(cls, p):
    """p's kernel in the layout of class cls, from the arrays `_kernel`
    passes its layout's class."""
    return cls(p.graph.src, p.graph.dst, p.capacities, *_node_constants(p))


def layout_of(g):
    """The class of the kernel `_kernel` builds for a problem on g."""
    return type(_kernel(NLassoProblem(g, [1], 0.1, 0.1)))


def run_in_layout(monkeypatch, kernel, p, cfg):
    """`run` with its kernel forced to the class `kernel`."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_kernel", lambda q: kernel_of(kernel, q))
        return run(p, cfg)


def assert_same_result(a, b):
    """Two SolverResults have the same x, y, history and iteration count, bit for bit."""
    assert same_bits((a.x, a.y), (b.x, b.y))
    assert a.iters_run == b.iters_run
    assert [tuple(map(float.hex, map(float, h))) for h in a.history] \
        == [tuple(map(float.hex, map(float, h))) for h in b.history]


def assert_layouts_agree(monkeypatch, p, cfg, other=_BandKernel):
    """The gather kernel and `other` give the same x, y, history and
    iteration count, bit for bit; returns the result of `other`."""
    a = run_in_layout(monkeypatch, _Kernel, p, cfg)
    b = run_in_layout(monkeypatch, other, p, cfg)
    assert_same_result(a, b)
    return b


def kernel_state(k, x, x_prev, y):
    """A step state with its flow in edge order, in kernel k's own form: the
    flow moved into a numpy layout's slots, or the scalar kernel's flat
    tuple."""
    if isinstance(k, _ScalarKernel):
        return in_layout(k, (x, x_prev, y))
    yk = np.zeros(k.cap.size)
    yk[k.slots] = y
    return x, x_prev, yk


def in_layout(k, state):
    """A state of arrays in kernel k's own form: the scalar kernel steps one
    flat tuple of floats, x then x_prev then y, and `arrays` cuts it back
    into arrays."""
    return tuple(np.concatenate(state).tolist()) if isinstance(k, _ScalarKernel) else state


def holds_previous_x(k, new, old):
    """True when the state `new` holds the x of the state `old` as its
    x_prev, as the same objects: the array, or the scalar kernel's middle n
    floats."""
    if isinstance(k, _ScalarKernel):
        return all(a is b for a, b in zip(new[k.n:2 * k.n], old[:k.n], strict=True))
    return new[1] is old[0]


def reference_step(p, k, x, x_prev, y):
    """The step in edge order with one fresh array per expression, as first
    written: the reference that both kernels must match bit for bit.  It
    takes the per-node constants gamma, shift and scale from kernel k."""
    g = p.graph
    xt = 2.0 * x - x_prev
    y = y + 0.5 * (xt[g.src] - xt[g.dst])
    np.maximum(y, -p.capacities, out=y)
    np.minimum(y, p.capacities, out=y)
    div = (np.bincount(g.src, weights=y, minlength=g.n)
           - np.bincount(g.dst, weights=y, minlength=g.n))
    v = x - k.gamma * div
    return (v + k.shift) * k.scale, x, y


def signed_zero_chain_state(n):
    """x = -0.0 at the even 0-based nodes of an n-node chain, x_prev = +0.0
    and y = -0.0: the first step keeps the flow of each edge (2i, 2i + 1) at
    -0.0, the only flow out of node 2i and into node 2i + 1."""
    return np.tile([-0.0, 0.0], n // 2), np.zeros(n), np.full(n - 1, -0.0)


def test_kernels_match_reference_step():
    # both layouts, step by step, from the all-ones start and from two
    # hand-built states: a chain whose flows out of its even nodes and into
    # its odd ones are -0.0, and matching_problem.  The saturated grid has
    # hundreds of flows at capacity and, at each row end, an empty slot of
    # capacity 0.  The band layout's out- and in-sums must have np.bincount's
    # bits too, -0.0 against +0.0 included, which the step's outputs do not
    # show: the prox adds a shift of +0.0 or more, which maps both zeros alike
    chain = NLassoProblem(chain_graph(1000, 1.25, [(4, 1.0)]), [1], 1 / 200, 0.2)
    cases = [(p, (np.ones(p.graph.n), np.ones(p.graph.n), np.zeros(p.graph.num_edges)))
             for p in frozen_problems() + [saturated_grid_problem(), chain]]
    cases += [(chain, signed_zero_chain_state(1000)), matching_problem()]
    for p, state in cases:
        g = p.graph
        gk, bk, sk = (kernel_of(cls, p) for cls in (_Kernel, _BandKernel, _ScalarKernel))
        ref = state
        gather, band = kernel_state(gk, *state), kernel_state(bk, *state)
        scalar = kernel_state(sk, *state)
        for _ in range(300):
            ref, gather, band, scalar = (reference_step(p, gk, *ref), gk.step(*gather),
                                         bk.step(*band), sk.step(*scalar))
            assert same_bits(gk.arrays(gather), ref)
            assert same_bits(bk.arrays(band), ref)
            assert same_bits(sk.arrays(scalar), ref)
            y = ref[2]
            assert same_bits((bk._node_sums(band[2], bk.out_bands),
                              bk._node_sums(band[2], bk.in_bands)),
                             (np.bincount(g.src, weights=y, minlength=g.n),
                              np.bincount(g.dst, weights=y, minlength=g.n)))
    # the matching is one band with every other slot empty
    assert bk.cap.size == 2 * p.graph.num_edges - 1


def test_band_layout_matches_gather_stepwise():
    # the saturated grid has hundreds of flows at capacity and, at each row
    # end, an empty slot of capacity 0
    for p in frozen_problems() + [saturated_grid_problem()]:
        gk, bk = kernel_of(_Kernel, p), kernel_of(_BandKernel, p)
        n = p.graph.n
        gather = (np.ones(n), np.ones(n), np.zeros(gk.cap.size))
        band = (np.ones(n), np.ones(n), np.zeros(bk.cap.size))
        for _ in range(300):
            gather, band = gk.step(*gather), bk.step(*band)
            assert same_bits(gk.arrays(gather), bk.arrays(band))


def test_band_layout_matches_gather_at_the_bound():
    # matching_problem: one band with every other slot empty, zero
    # capacities, +-inf flows, -0.0
    p, state = matching_problem()
    gk, bk = kernel_of(_Kernel, p), kernel_of(_BandKernel, p)
    gather, band = kernel_state(gk, *state), kernel_state(bk, *state)
    for _ in range(5):
        gather, band = gk.step(*gather), bk.step(*band)
        assert same_bits(gk.arrays(gather), bk.arrays(band))
    assert bk.cap.size == 2 * p.graph.num_edges - 1


def test_gather_slots_keep_each_node_sum_order():
    # a 120-node block model with weights drawn from [0.1, 10], whose
    # anti-diagonal slot order differs from edge order
    g, _ = sbm_graph(SbmSpec((60, 60), 0.2, 0.02, rng_seed=3))
    w = np.random.default_rng(7).uniform(0.1, 10.0, g.num_edges)
    g = build_graph(g.n, np.column_stack((g.src + 1, g.dst + 1, w)))
    k = kernel_of(_Kernel, NLassoProblem(g, [1, 2, 3], 0.05, 0.5))
    m, slots = g.num_edges, k.slots
    assert sorted(slots) == list(range(m)) and (slots != np.arange(m)).any()
    assert (k.src[slots] == g.src).all() and (k.dst[slots] == g.dst).all()
    # slots run by ascending src + dst, and by ascending src within one sum
    assert (np.diff(k.src + k.dst) >= 0).all()
    # each node's out-slots run by ascending dst and its in-slots by
    # ascending src, the order of its edges in edge order
    for i in range(g.n):
        assert (np.diff(k.dst[k.src == i]) > 0).all()
        assert (np.diff(k.src[k.dst == i]) > 0).all()
    # so np.bincount adds each node's terms in the same order: flows of
    # mixed magnitudes, whose sums depend on that order, some of them -0.0
    rng = np.random.default_rng(11)
    y = rng.normal(size=m) * 2.0 ** rng.integers(-40, 41, m)
    y[rng.random(m) < 0.2] = -0.0
    _, _, ys = kernel_state(k, None, None, y)
    for slot_ends, edge_ends in ((k.src, g.src), (k.dst, g.dst)):
        assert same_bits([np.bincount(slot_ends, weights=ys, minlength=g.n)],
                         [np.bincount(edge_ends, weights=y, minlength=g.n)])


def test_scalar_flow_stays_in_edge_order():
    # on graphs whose gather slots are not in edge order, the scalar
    # kernel's raw flow, the state's last m floats, is the edge-order flow
    # that `arrays` reads out, and it matches the gather kernel at every
    # step from a random state
    k5 = build_graph(5, [(i, j, 1.0 + i / j) for i in range(1, 6) for j in range(i + 1, 6)])
    problems = [NLassoProblem(k5, [2], 0.1, 0.3)] + frozen_problems()
    rng = np.random.default_rng(13)
    checked = 0
    for p in problems:
        gk, sk = kernel_of(_Kernel, p), kernel_of(_ScalarKernel, p)
        n, m = p.graph.n, p.graph.num_edges
        if not (gk.slots != np.arange(m)).any():
            continue
        state = (rng.normal(size=n), rng.normal(size=n), rng.normal(size=m) * p.capacities)
        gather, scalar = kernel_state(gk, *state), in_layout(sk, state)
        for _ in range(300):
            gather, scalar = gk.step(*gather), sk.step(*scalar)
            assert same_bits([np.array(scalar[2 * n:])], [sk.arrays(scalar)[2]])
            assert same_bits(gk.arrays(gather), sk.arrays(scalar))
        checked += 1
    assert checked == 5  # K5 and frozen instances 6, 11, 16 and 20


def test_step_leaves_inputs_and_returns_fresh_arrays():
    # `run` holds earlier states by reference for its repeat stop; the
    # scalar kernel's state is one tuple of floats, which nothing writes to,
    # and its `arrays` are fresh
    rng = np.random.default_rng(3)
    for p in (frozen_problems()[0], saturated_grid_problem()):
        for k in (kernel_of(cls, p) for cls in (_Kernel, _BandKernel, _ScalarKernel)):
            n = p.graph.n
            scalar = isinstance(k, _ScalarKernel)
            state = in_layout(k, (rng.normal(size=n), rng.normal(size=n),
                                  rng.normal(size=k.m if scalar else k.cap.size)))
            before = [a.tobytes() for a in k.arrays(state)]
            after = k.step(*state)
            assert [a.tobytes() for a in k.arrays(state)] == before
            assert holds_previous_x(k, after, state)
            if scalar:
                assert type(after) is tuple and len(after) == len(state) == 2 * n + k.m
                after, state = k.arrays(after), k.arrays(state)
            x, _, y = after
            for a, b in [(x, y)] + [(new, old) for new in (x, y) for old in state]:
                assert a is not b and not np.shares_memory(a, b)


def test_advance_matches_step_calls():
    # each layout's advance over k steps ends on the last two states of k
    # step calls, bit for bit, and leaves the state it starts from as it
    # was: `run` keeps its repeat-stop snapshot by reference.  The starts
    # include a capacity of 0 and the matching's -0.0 and +-inf flows
    matching, start = matching_problem()
    cases = [(p, None) for p in frozen_problems()[:3] + [underflow_problem()]]
    for p, edge_start in cases + [(matching, start)]:
        for k in (kernel_of(cls, p) for cls in (_Kernel, _BandKernel, _ScalarKernel)):
            first = kernel_state(k, *edge_start) if edge_start else k.start()
            before = [a.tobytes() for a in k.arrays(first)]
            for steps in (1, 2, 5, 16):
                prev, state = None, first
                for _ in range(steps):
                    prev, state = state, k.step(*state)
                states = [None, first]
                k.advance(states, steps)
                assert same_bits(k.arrays(states[0]), k.arrays(prev))
                assert same_bits(k.arrays(states[1]), k.arrays(state))
                assert holds_previous_x(k, states[1], states[0])
            assert [a.tobytes() for a in k.arrays(first)] == before


def test_band_layout_matches_gather_through_run(monkeypatch):
    for p in frozen_problems():
        assert_layouts_agree(monkeypatch, p, SolverConfig(max_iters=400, check_interval=50,
                                                          gap_tolerance=1e-6))
    # the saturated grid, and a chain and a grid on which run takes the
    # band layout by itself
    above = [NLassoProblem(chain_graph(2000, 1.25, [(4, 1.0)]), [1], 1 / 200, 0.2),
             NLassoProblem(grid_from_image(GreyImage(40, 40, np.arange(1600) % 7 * 10)),
                           [1, 2, 41], 0.05, 0.5)]
    assert all(layout_of(p.graph) is _BandKernel for p in above)
    cfg = SolverConfig(max_iters=3000, check_interval=100, gap_tolerance=1e-3)
    stops = []
    for p in [saturated_grid_problem()] + above:
        res = assert_layouts_agree(monkeypatch, p, cfg)
        assert res.history
        stops.append(res.iters_run)
    # the gap stop ends some runs early
    assert min(stops) < 3000


def test_layout_selection():
    image = GreyImage(64, 64, (np.arange(64 * 64) * 37) % 256)
    assert layout_of(grid_from_image(image)) is _BandKernel
    # the 256 x 256 grid of the segment-large benchmark workload
    image = GreyImage(256, 256, (np.arange(256 * 256) * 37) % 256)
    assert layout_of(grid_from_image(image)) is _BandKernel
    assert layout_of(chain_graph(2000)) is _BandKernel
    # the 4000-node block model of the sbm-large benchmark workload
    g, _ = sbm_graph(SbmSpec((2000, 2000), 20 / 2000, 1 / 2000, rng_seed=1))
    assert layout_of(g) is _Kernel
    # a 200-node block model of the paper-experiments benchmark workload
    assert layout_of(cli.sbm_problem(0)[0].graph) is _Kernel
    assert layout_of(chain_graph(100)) is _Kernel
    # the break-even: bands of at least 1000 slots
    assert layout_of(chain_graph(1001)) is _BandKernel
    assert layout_of(chain_graph(1000)) is _Kernel
    # below the bands, graphs of at most 36 edges plus nodes take the scalar
    # kernel
    assert all(layout_of(p.graph) is _ScalarKernel for p in frozen_problems())
    assert layout_of(chain_graph(2)) is _ScalarKernel
    assert layout_of(chain_graph(18)) is _ScalarKernel  # 17 edges, 18 nodes
    assert layout_of(chain_graph(19)) is _Kernel
    k8 = build_graph(8, [(i, j, 1.0) for i in range(1, 9) for j in range(i + 1, 9)])
    assert layout_of(k8) is _ScalarKernel  # 28 edges, 8 nodes
    k9 = build_graph(9, [(i, j, 1.0) for i in range(1, 10) for j in range(i + 1, 10)])
    assert layout_of(k9) is _Kernel  # 36 edges, 9 nodes


def tiny_batch_problems(seed, count=25):
    """Seeded random problems of the tiny-batch benchmark's shape: the
    oracle's random connected graph on n = 2..6 nodes (cycling), one
    uniform seed node, and alpha and lambda cycling the 3 x 2 grid."""
    rng = np.random.default_rng(seed)
    grid = [(alpha, lam) for alpha in (0.01, 0.1, 1.0) for lam in (0.05, 0.5)]
    problems = []
    for k in range(count):
        n = 2 + k % 5
        g = random_connected_graph(n, rng)
        alpha, lam = grid[k % len(grid)]
        problems.append(NLassoProblem(g, [int(rng.integers(1, n + 1))], alpha, lam))
    return problems


def test_scalar_layout_matches_gather_through_run(monkeypatch):
    # the 25 frozen instances, seeded random problems of tiny-batch's shape
    # and the period-two problem, on all of which run takes the scalar
    # kernel by itself: its state stays one flat tuple of floats from the
    # start to the result, and becomes arrays at each history row
    problems = frozen_problems() + tiny_batch_problems(1) + tiny_batch_problems(2)
    problems.append(period_two_problem())
    assert all(layout_of(p.graph) is _ScalarKernel for p in problems)
    configs = [SolverConfig(max_iters=1000),
               SolverConfig(max_iters=400, check_interval=50, gap_tolerance=1e-6),
               SolverConfig(max_iters=999, check_interval=33),
               SolverConfig(max_iters=1000, check_interval=7, gap_tolerance=1e-12)]
    stops = repeats = 0
    for p in problems:
        for cfg in configs:
            res, steps = count_steps(monkeypatch, p, cfg)
            assert_same_result(res, run_in_layout(monkeypatch, _Kernel, p, cfg))
            stops += res.iters_run < cfg.max_iters
            repeats += steps < res.iters_run
    # the gap stop ends some runs early, and the repeat stop skips steps of
    # others
    assert stops >= 10 and repeats >= 10, (stops, repeats)


def test_scalar_steps_compiled_once_per_structure():
    # tiny-batch seed 1's 50 problems hold 30 graph structures: 30 compiles,
    # and the other 20 kernels reuse a compiled step
    problems = frozen_problems() + tiny_batch_problems(1)
    solver._step_code.cache_clear()
    for p in problems:
        solver._kernel(p)
    info = solver._step_code.cache_info()
    assert (info.misses, info.hits) == (30, 20)
    # a cold cache and a warm one give the same result
    cfg = SolverConfig(max_iters=1000, check_interval=50)
    for p in problems:
        solver._step_code.cache_clear()
        cold = run(p, cfg)
        assert_same_result(cold, run(p, cfg))
    # the same n and m on other edges: a path and a star on 4 nodes
    path = kernel_of(_ScalarKernel, NLassoProblem(chain_graph(4), [1], 0.1, 0.5))
    star = build_graph(4, [(1, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0)])
    star = kernel_of(_ScalarKernel, NLassoProblem(star, [1], 0.1, 0.5))
    assert star.step.__code__ is not path.step.__code__


def stepwise_run(p, cfg):
    """`run` without its repeat stop: all max_iters steps of the kernel
    that `run` picks, a history row at each multiple of check_interval, and
    the gap stop."""
    kernel = solver._kernel(p)
    state = kernel.start()
    history = []
    for r in range(1, cfg.max_iters + 1):
        state = kernel.step(*state)
        if cfg.check_interval and r % cfg.check_interval == 0:
            x, _, y = kernel.arrays(state)
            gap = duality_gap(p, x, y)
            history.append(HistoryRecord(r, primal_objective(p, x), gap,
                                         kkt_residuals(p, x, y).max_residual))
            if cfg.gap_tolerance > 0 and gap <= cfg.gap_tolerance:
                break
    x, _, y = kernel.arrays(state)
    return SolverResult(x=x, y=y, iters_run=r, history=history)


def count_steps(monkeypatch, p, cfg):
    """`run(p, cfg)` and the number of steps it took, of whichever kernel
    `run` picks for p."""
    calls = []
    kernel = solver._kernel(p)
    step = kernel.step

    def counted(*state):
        calls.append(1)
        return step(*state)

    kernel.step = counted
    with monkeypatch.context() as m:
        m.setattr(solver, "_kernel", lambda q: kernel)
        res = run(p, cfg)
    assert calls
    return res, len(calls)


def period_two_problem():
    """Three nodes whose run enters a cycle of period 2 at step 62."""
    g = build_graph(3, [(1, 2, 1.4482026762502507), (1, 3, 1.7154115281594486)])
    return NLassoProblem(g, [1], 1.0, 0.5)


def test_repeat_stop_matches_stepwise_run():
    # frozen instances 0, 11, 12 and 13 end in cycles of period 18, 6, 6 and
    # 6; intervals of 7, 33 and 1 put checks at many offsets of the period
    configs = [SolverConfig(max_iters=1000),
               SolverConfig(max_iters=400, check_interval=50, gap_tolerance=1e-6),
               SolverConfig(max_iters=3000, check_interval=100),
               SolverConfig(max_iters=3000, check_interval=100, gap_tolerance=1e-10),
               SolverConfig(max_iters=1000, check_interval=7),
               SolverConfig(max_iters=999, check_interval=33),
               SolverConfig(max_iters=2000, check_interval=1, gap_tolerance=1e-14),
               SolverConfig(max_iters=1000, check_interval=16, gap_tolerance=1e-12)]
    for p in frozen_problems() + [period_two_problem()]:
        for cfg in configs:
            assert_same_result(run(p, cfg), stepwise_run(p, cfg))


def test_repeat_stop_step_counts(monkeypatch, chain_problem):
    # steps taken of 1000: frozen instance 1 reaches a fixed point by step
    # 144; instance 11 enters a period-6 cycle at step 117, instance 0 a
    # period-18 one at step 249 and the period-two problem its cycle at step
    # 62, each caught once the snapshot lies in the cycle; the chain never
    # repeats a state
    frozen = frozen_problems()
    cfg = SolverConfig(max_iters=1000)
    for p, most in [(frozen[1], 160), (frozen[11], 250), (period_two_problem(), 100),
                    (chain_problem, 1000)]:
        res, steps = count_steps(monkeypatch, p, cfg)
        assert steps <= most, (steps, most)
        assert_same_result(res, stepwise_run(p, cfg))
    assert steps == 1000 == res.iters_run
    # the 50 problems of tiny-batch's shape: the 25 frozen instances and 25
    # seeded ones
    for seed, total in ((1, 14_432), (2, 14_624)):
        assert sum(count_steps(monkeypatch, p, cfg)[1]
                   for p in frozen + tiny_batch_problems(seed)) == total, seed
    # instance 0's cycle is found at step 400, as 8 periods (D = 144), and
    # max_iters lies at phase 600 % 144 = 24 past it: 424 steps
    res, steps = count_steps(monkeypatch, frozen[0], cfg)
    assert steps == 424
    assert_same_result(res, stepwise_run(frozen[0], cfg))
    # a run with history checks looks for no repeat: it takes every step up
    # to max_iters or, checked every 67 with a tolerance of 2**-57, up to its
    # gap stop
    for p in (frozen[0], frozen[11]):
        for interval, tol in ((16, 0.0), (48, 0.0), (67, 2.0 ** -57), (100, 0.0)):
            cfg = SolverConfig(max_iters=1000, check_interval=interval, gap_tolerance=tol)
            res, steps = count_steps(monkeypatch, p, cfg)
            assert steps == res.iters_run, (interval, steps)
            assert_same_result(res, stepwise_run(p, cfg))


class ClimbingKernel(_Kernel):
    """A step map on which x alone is not enough to detect a fixed point:
    x climbs by 1 to 16, and y counts the steps that start with x == x_prev.
    It keeps the default start, advance, state comparison and read-out,
    with its one flow slot holding edge 0."""

    cap = np.zeros(1)
    slots = np.array([0])

    def __init__(self, p):
        self.n = p.graph.n

    def step(self, x, x_prev, y):
        return np.minimum(x + 1.0, 16.0), x, y + float(np.array_equal(x, x_prev))


class ClockKernel(ClimbingKernel):
    """A step map whose x_prev slot is a clock that never repeats: x steps
    from 1 to 2 when the clock reads 40, and y stays 0."""

    def step(self, x, clock, y):
        return x + (clock == 40.0), clock + 1.0, y


def test_fixed_point_needs_every_part_of_the_state(monkeypatch):
    # step 16 maps (16, 15, 1) to (16, 16, 1): x and y repeat, but the
    # state does not, and from step 17 on y grows by one per step
    monkeypatch.setattr(solver, "_kernel", ClimbingKernel)
    res = run(frozen_problems()[1], SolverConfig(max_iters=100))
    assert (res.x == 16.0).all() and res.y.tolist() == [85.0]
    assert res.iters_run == 100
    # x and y at steps 16 and 32 match those of the step before and of the
    # snapshot taken at step 16, but the clock does not
    monkeypatch.setattr(solver, "_kernel", ClockKernel)
    res = run(frozen_problems()[1], SolverConfig(max_iters=100))
    assert (res.x == 2.0).all() and res.iters_run == 100


class CyclingKernel(ClimbingKernel):
    """A step map through k states: x counts steps modulo k, and y holds
    the previous count."""

    def __init__(self, k, p):
        super().__init__(p)
        self.k = k
        self.steps = 0

    def step(self, x, x_prev, y):
        self.steps += 1
        return (x + 1.0) % self.k, x, x[:1] + 0.0


@pytest.mark.parametrize("k", [2, 3, 5, 6, 18])
def test_repeat_stop_ends_on_the_right_state_of_a_cycle(monkeypatch, k):
    # 1001 iterations from x = 1 end on x = 1002 mod k; k does not divide
    # 1001, so stepping one too few or too many after the repeat shows
    p = frozen_problems()[1]
    kernel = CyclingKernel(k, p)
    monkeypatch.setattr(solver, "_kernel", lambda p: kernel)
    res = run(p, SolverConfig(max_iters=1001))
    assert (res.x == 1002 % k).all() and res.y.tolist() == [1001 % k]
    assert res.iters_run == 1001 and kernel.steps < 500


def test_same_bits_tells_signed_zeros_apart():
    # the repeat stop compares states through same_state, the numpy
    # layouts' arrays as bytes: -0.0 and +0.0 differ, NaNs of one payload
    # match
    p = frozen_problems()[1]
    gk, k = kernel_of(_Kernel, p), kernel_of(_ScalarKernel, p)
    zero, nan = np.zeros(3), np.full(3, np.nan)
    for a in (zero, nan):
        assert gk.same_state((a, a, a), (a.copy(), a.copy(), a.copy()))
        assert not gk.same_state((a, a, a), (a, a, -a))
    # the scalar kernel packs its flat tuple as doubles and compares it as
    # the numpy layouts compare arrays, in each part of the state: NaNs of
    # one payload match although each float("nan") is a distinct object
    start = k.start()
    ones, y = list(start[:k.n]), list(start[2 * k.n:])
    values = [lambda: 0.0, lambda: -0.0, lambda: float("nan"), lambda: -float("nan"),
              lambda: 1.5]
    for u in values:
        for v in values:
            a, b = [u() for _ in range(k.n)], [v() for _ in range(k.n)]
            pairs = [((a, ones, y), (b, ones, y)), ((ones, a, y), (ones, b, y)),
                     ((ones, ones, a[:1] + y[1:]), (ones, ones, b[:1] + y[1:]))]
            for s, t in pairs:
                expected = gk.same_state(tuple(map(np.array, s)), tuple(map(np.array, t)))
                assert expected == (u is v)
                assert k.same_state(tuple(s[0] + s[1] + s[2]),
                                    tuple(t[0] + t[1] + t[2])) == expected


# iterations until the gap is at most 1e-6, checked every 10, as printed by
# tools/convergence_counts.py: the criterion-1 chain, then the 25 frozen
# instances in order
ITERS_TO_GAP_1E6 = [4510, 50, 50, 130, 70, 10, 20, 70, 50, 120, 60, 10, 50, 60, 130, 150,
                    40, 30, 30, 10, 30, 190, 20, 10, 20, 10]


def test_iterations_to_certified_gap_do_not_grow(chain_problem):
    for p, bound in zip([chain_problem] + frozen_problems(), ITERS_TO_GAP_1E6):
        res = run(p, SolverConfig(max_iters=bound, check_interval=10, gap_tolerance=1e-6))
        assert res.history[-1].gap <= 1e-6, (bound, res.history[-1])
