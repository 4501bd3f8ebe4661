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
from nlasso import solver
from nlasso.generators import GreyImage, chain_graph, grid_from_image
from nlasso.solver import _BandKernel, _Kernel, _uses_bands
from oracle import exact_tree_optimum, pair_prox_gradient, random_connected_graph


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
    cfg = SolverConfig()
    assert (cfg.max_iters, cfg.check_interval, cfg.gap_tolerance) == (1000, 0, 0.0)
    cfg = SolverConfig(max_iters=20.0, check_interval=np.int64(5), gap_tolerance=1e-3)
    assert (cfg.max_iters, cfg.check_interval) == (20, 5)
    assert all(type(v) is int for v in (cfg.max_iters, cfg.check_interval))
    for tol in (0, 1, np.float32(0.5), np.int64(2)):
        cfg = SolverConfig(gap_tolerance=tol)
        assert type(cfg.gap_tolerance) is float and cfg.gap_tolerance == tol


def test_init_state_all_ones(chain_problem):
    # run starts at x = x_prev = 1 with zero flow, which is dual feasible
    g = chain_problem.graph
    assert conjugate_g_feasible(chain_problem, np.zeros(g.num_edges))
    res = run(chain_problem, SolverConfig(max_iters=1))
    k = _Kernel(chain_problem)
    x, _, y = k.step(np.ones(g.n), np.ones(g.n), np.zeros(k.cap.size))
    assert res.x.tobytes() == x.tobytes()
    assert res.y.tobytes() == k.edge_flow(y).tobytes()


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
        k = _Kernel(p)
        _, _, y = k.step(*kernel_state(k, rng.normal(size=g.n) * 5, rng.normal(size=g.n) * 5,
                                       rng.normal(size=g.num_edges) * 5))
        assert conjugate_g_feasible(p, k.edge_flow(y))


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
        k = _Kernel(p)
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
    k = _Kernel(p)
    cap = p.capacities
    assert cap[9] == cap[10] == 0.0  # 0.25 * 5e-324 underflows
    state = kernel_state(k, *state)
    ours, ref = k.step(*state), clip_step(k, *state)
    assert same_bits(ours, ref)
    y = k.edge_flow(ours[2])
    assert y.tolist() == [cap[0], -cap[1], 0.0, 0.0, cap[4], -cap[5], cap[6], -cap[7],
                          0.0, 0.0, 0.0]
    assert np.signbit(y[[2, 8]]).all()  # -0.0 inside the bounds stays -0.0


def run_in_layout(monkeypatch, band, p, cfg):
    """`run` with its layout choice forced to bands (True) or gathers (False)."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_uses_bands", lambda g: band)
        return run(p, cfg)


def assert_same_result(a, b):
    """Two SolverResults have the same x, y, history and iteration count, bit for bit."""
    assert same_bits((a.x, a.y), (b.x, b.y))
    assert a.iters_run == b.iters_run
    assert [tuple(map(float.hex, map(float, h))) for h in a.history] \
        == [tuple(map(float.hex, map(float, h))) for h in b.history]


def assert_layouts_agree(monkeypatch, p, cfg):
    """Both layouts give the same x, y, history and iteration count, bit for bit."""
    a = run_in_layout(monkeypatch, False, p, cfg)
    b = run_in_layout(monkeypatch, True, p, cfg)
    assert_same_result(a, b)
    return b


def kernel_state(k, x, x_prev, y):
    """A step state with its flow in edge order, moved into kernel k's slots."""
    yk = np.zeros(k.cap.size)
    yk[k.slots] = y
    return x, x_prev, yk


def edge_state(k, x, x_prev, y):
    """A step state of kernel k with its flow moved back into edge order."""
    return x, x_prev, k.edge_flow(y)


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
        gk, bk = _Kernel(p), _BandKernel(p)
        ref = state
        gather, band = kernel_state(gk, *state), kernel_state(bk, *state)
        for _ in range(300):
            ref, gather, band = reference_step(p, gk, *ref), gk.step(*gather), bk.step(*band)
            assert same_bits(edge_state(gk, *gather), ref)
            assert same_bits(edge_state(bk, *band), ref)
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
        gk, bk = _Kernel(p), _BandKernel(p)
        n = p.graph.n
        gather = (np.ones(n), np.ones(n), np.zeros(gk.cap.size))
        band = (np.ones(n), np.ones(n), np.zeros(bk.cap.size))
        for _ in range(300):
            gather, band = gk.step(*gather), bk.step(*band)
            assert same_bits(edge_state(gk, *gather), edge_state(bk, *band))


def test_band_layout_matches_gather_at_the_bound():
    # matching_problem: one band with every other slot empty, zero
    # capacities, +-inf flows, -0.0
    p, state = matching_problem()
    gk, bk = _Kernel(p), _BandKernel(p)
    gather, band = kernel_state(gk, *state), kernel_state(bk, *state)
    for _ in range(5):
        gather, band = gk.step(*gather), bk.step(*band)
        assert same_bits(edge_state(gk, *gather), edge_state(bk, *band))
    assert bk.cap.size == 2 * p.graph.num_edges - 1


def test_gather_slots_keep_each_node_sum_order():
    # a 120-node block model with weights drawn from [0.1, 10], whose
    # anti-diagonal slot order differs from edge order
    g, _ = sbm_graph(SbmSpec((60, 60), 0.2, 0.02, rng_seed=3))
    w = np.random.default_rng(7).uniform(0.1, 10.0, g.num_edges)
    g = build_graph(g.n, np.column_stack((g.src + 1, g.dst + 1, w)))
    k = _Kernel(NLassoProblem(g, [1, 2, 3], 0.05, 0.5))
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


def test_step_leaves_inputs_and_returns_fresh_arrays():
    # `run` holds earlier states by reference for its repeat stop
    rng = np.random.default_rng(3)
    for p in (frozen_problems()[0], saturated_grid_problem()):
        for k in (_Kernel(p), _BandKernel(p)):
            n = p.graph.n
            state = (rng.normal(size=n), rng.normal(size=n), rng.normal(size=k.cap.size))
            before = [a.tobytes() for a in state]
            x, x_prev, y = k.step(*state)
            assert [a.tobytes() for a in state] == before
            assert x_prev is state[0]
            for a, b in [(x, y)] + [(new, old) for new in (x, y) for old in state]:
                assert not np.shares_memory(a, b)


def test_band_layout_matches_gather_through_run(monkeypatch):
    for p in frozen_problems():
        assert_layouts_agree(monkeypatch, p, SolverConfig(max_iters=400, check_interval=50,
                                                          gap_tolerance=1e-6))
    # the saturated grid, and a chain and a grid on which run takes the
    # band layout by itself
    above = [NLassoProblem(chain_graph(2000, 1.25, [(4, 1.0)]), [1], 1 / 200, 0.2),
             NLassoProblem(grid_from_image(GreyImage(40, 40, np.arange(1600) % 7 * 10)),
                           [1, 2, 41], 0.05, 0.5)]
    assert all(_uses_bands(p.graph) for p in above)
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
    assert _uses_bands(grid_from_image(image))
    assert _uses_bands(chain_graph(2000))
    # the 4000-node block model of the sbm-large benchmark workload
    g, _ = sbm_graph(SbmSpec((2000, 2000), 20 / 2000, 1 / 2000, rng_seed=1))
    assert not _uses_bands(g)
    assert not any(_uses_bands(p.graph) for p in frozen_problems())
    assert not _uses_bands(chain_graph(100))
    # the break-even: bands of at least 1000 slots
    assert _uses_bands(chain_graph(1001)) and not _uses_bands(chain_graph(1000))


def stepwise_run(p, cfg):
    """`run` without its repeat stop: all max_iters steps of the kernel
    that `run` picks, a history row at each multiple of check_interval, and
    the gap stop."""
    kernel = (_BandKernel if _uses_bands(p.graph) else _Kernel)(p)
    x, x_prev, y = np.ones(p.graph.n), np.ones(p.graph.n), np.zeros(kernel.cap.size)
    history = []
    for r in range(1, cfg.max_iters + 1):
        x, x_prev, y = kernel.step(x, x_prev, y)
        if cfg.check_interval and r % cfg.check_interval == 0:
            y_edges = kernel.edge_flow(y)
            gap = duality_gap(p, x, y_edges)
            history.append(HistoryRecord(r, primal_objective(p, x), gap,
                                         kkt_residuals(p, x, y_edges).max_residual))
            if cfg.gap_tolerance > 0 and gap <= cfg.gap_tolerance:
                break
    return SolverResult(x=x, y=kernel.edge_flow(y), iters_run=r, history=history)


def count_steps(monkeypatch, p, cfg):
    """`run(p, cfg)` and the number of gather-kernel steps it took."""
    calls = []
    step = _Kernel.step
    with monkeypatch.context() as m:
        m.setattr(_Kernel, "step", lambda k, *state: calls.append(1) or step(k, *state))
        return run(p, cfg), len(calls)


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
    for p, most in [(frozen[1], 160), (frozen[11], 250), (frozen[0], 500),
                    (period_two_problem(), 100), (chain_problem, 1000)]:
        res, steps = count_steps(monkeypatch, p, cfg)
        assert steps <= most, (steps, most)
        assert_same_result(res, stepwise_run(p, cfg))
    assert steps == 1000 == res.iters_run
    # a check every 100 iterations: the row of each check after the cycle
    # is found comes from a state within one period of it
    cfg = SolverConfig(max_iters=1000, check_interval=100)
    res, steps = count_steps(monkeypatch, frozen[11], cfg)
    assert steps <= 250
    assert res.iters_run == 1000 and [h.r for h in res.history] == list(range(100, 1001, 100))
    assert_same_result(res, stepwise_run(frozen[11], cfg))
    # instance 0's cycle is found at step 400, as 8 periods (D = 144); the
    # gap first meets 2**-57 at the check at 402, offset 2, so the tail stops
    # there, short of the offsets of the checks after it
    cfg = SolverConfig(max_iters=1000, check_interval=67, gap_tolerance=2.0 ** -57)
    res, steps = count_steps(monkeypatch, frozen[0], cfg)
    assert res.iters_run == 402 and steps <= 410, steps
    assert_same_result(res, stepwise_run(frozen[0], cfg))


class ClimbingKernel:
    """A step map on which x alone is not enough to detect a fixed point:
    x climbs by 1 to 16, and y counts the steps that start with x == x_prev."""

    cap = np.zeros(1)

    def __init__(self, p):
        pass

    def step(self, x, x_prev, y):
        return np.minimum(x + 1.0, 16.0), x, y + float(np.array_equal(x, x_prev))

    def edge_flow(self, y):
        return y


class ClockKernel(ClimbingKernel):
    """A step map whose x_prev slot is a clock that never repeats: x steps
    from 1 to 2 when the clock reads 40, and y stays 0."""

    def step(self, x, clock, y):
        return x + (clock == 40.0), clock + 1.0, y


def test_fixed_point_needs_every_part_of_the_state(monkeypatch):
    # step 16 maps (16, 15, 1) to (16, 16, 1): x and y repeat, but the
    # state does not, and from step 17 on y grows by one per step
    monkeypatch.setattr(solver, "_Kernel", ClimbingKernel)
    res = run(frozen_problems()[1], SolverConfig(max_iters=100))
    assert (res.x == 16.0).all() and res.y.tolist() == [85.0]
    assert res.iters_run == 100
    # x and y at steps 16 and 32 match those of the step before and of the
    # snapshot taken at step 16, but the clock does not
    monkeypatch.setattr(solver, "_Kernel", ClockKernel)
    res = run(frozen_problems()[1], SolverConfig(max_iters=100))
    assert (res.x == 2.0).all() and res.iters_run == 100


class CyclingKernel(ClimbingKernel):
    """A step map through k states: x counts steps modulo k, and y holds
    the previous count."""

    def __init__(self, k):
        self.k = k
        self.steps = 0

    def step(self, x, x_prev, y):
        self.steps += 1
        return (x + 1.0) % self.k, x, x[:1] + 0.0


@pytest.mark.parametrize("k", [2, 3, 5, 6, 18])
def test_repeat_stop_ends_on_the_right_state_of_a_cycle(monkeypatch, k):
    # 1001 iterations from x = 1 end on x = 1002 mod k; k does not divide
    # 1001, so stepping one too few or too many after the repeat shows
    kernel = CyclingKernel(k)
    monkeypatch.setattr(solver, "_Kernel", lambda p: kernel)
    res = run(frozen_problems()[1], SolverConfig(max_iters=1001))
    assert (res.x == 1002 % k).all() and res.y.tolist() == [1001 % k]
    assert res.iters_run == 1001 and kernel.steps < 500


def test_same_bits_tells_signed_zeros_apart():
    same_bits_ = solver._same_bits
    zero = np.zeros(3)
    assert same_bits_(zero, zero.copy()) and not same_bits_(zero, -zero)
    nan = np.full(3, np.nan)
    assert same_bits_(nan, nan.copy()) and not same_bits_(nan, -nan)


# iterations until the gap is at most 1e-6, checked every 10, as printed by
# tools/convergence_counts.py: the criterion-1 chain, then the 25 frozen
# instances in order
ITERS_TO_GAP_1E6 = [4510, 50, 50, 130, 70, 10, 20, 70, 50, 120, 60, 10, 50, 60, 130, 150,
                    40, 30, 30, 10, 30, 190, 20, 10, 20, 10]


def test_iterations_to_certified_gap_do_not_grow(chain_problem):
    for p, bound in zip([chain_problem] + frozen_problems(), ITERS_TO_GAP_1E6):
        res = run(p, SolverConfig(max_iters=bound, check_interval=10, gap_tolerance=1e-6))
        assert res.history[-1].gap <= 1e-6, (bound, res.history[-1])
