"""Invariants of the solver checked over random small connected graphs.

Hypothesis draws the graphs and parameters from a fixed seed
(derandomize) with a capped number of examples, so the suite stays
deterministic and quick.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from nlasso import (
    NLassoProblem,
    SolverConfig,
    boundary_conditions,
    build_graph,
    conjugate_g_feasible,
    extract_cluster,
    run,
)
from nlasso.solver import _BandKernel, _Kernel, _ScalarKernel
from test_solver import (
    assert_same_result,
    count_steps,
    kernel_of,
    period_two_problem,
    stepwise_run,
    underflow_problem,
)

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)


@st.composite
def problems(draw, max_n=8):
    """A connected graph on 2..max_n nodes (a random tree plus random extra
    edges), a non-empty seed set and alpha, lambda in [1e-3, 10]."""
    n = draw(st.integers(2, max_n))
    tree = {(draw(st.integers(1, j - 1)), j) for j in range(2, n + 1)}
    others = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
              if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    edges = sorted(tree | set(extra))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(edges), max_size=len(edges)))
    g = build_graph(n, [(i, j, w) for (i, j), w in zip(edges, weights)])
    seeds = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
    alpha = draw(st.floats(1e-3, 10.0))
    lam = draw(st.floats(1e-3, 10.0))
    return NLassoProblem(g, seeds, alpha, lam)


@PROPERTY
@given(problems())
def test_weak_duality_along_the_run(p):
    res = run(p, SolverConfig(max_iters=200, check_interval=5))
    assert len(res.history) == 40
    assert all(h.gap >= -1e-12 for h in res.history)


@PROPERTY
@given(problems(), st.lists(st.integers(1, 300), min_size=1, max_size=4))
def test_flow_within_capacity_at_every_stop(p, stops):
    for iters in stops:
        assert conjugate_g_feasible(p, run(p, SolverConfig(max_iters=iters)).y)


@PROPERTY
@given(problems(), st.randoms(use_true_random=False))
def test_relabelling_permutes_the_signal(p, rnd):
    g = p.graph
    label = np.array(rnd.sample(range(1, g.n + 1), g.n))  # node i becomes label[i - 1]
    edges = np.column_stack((label[g.src], label[g.dst], g.weights))
    q = NLassoProblem(build_graph(g.n, edges), label[p.seeds - 1], p.alpha, p.lam)
    cfg = SolverConfig(max_iters=300)
    x, xq = run(p, cfg).x, run(q, cfg).x
    assert np.max(np.abs(xq[label - 1] - x)) <= 1e-9


@PROPERTY
@given(problems())
def test_band_layout_matches_gather(p):
    gk, bk = kernel_of(_Kernel, p), kernel_of(_BandKernel, p)
    n = p.graph.n
    a = (np.ones(n), np.ones(n), np.zeros(gk.cap.size))
    b = (np.ones(n), np.ones(n), np.zeros(bk.cap.size))
    for _ in range(100):
        a, b = gk.step(*a), bk.step(*b)
    assert [u.tobytes() for u in gk.arrays(a)] == [v.tobytes() for v in bk.arrays(b)]


@PROPERTY
@given(problems())
@example(underflow_problem())  # a capacity of 0, where the clamp meets -0.0 against +0.0
# the smallest and the largest generated steps: one edge (m + n = 3), and
# the complete graph K8 (m + n = 36, _MAX_SCALAR_SIZE)
@example(NLassoProblem(build_graph(2, [(1, 2, 0.7)]), [2], 0.3, 1.1))
@example(NLassoProblem(build_graph(8, [(i, j, (i + 2 * j) / 7) for i in range(1, 9)
                                       for j in range(i + 1, 9)]), [1, 6], 0.05, 0.4))
def test_scalar_layout_matches_gather(p):
    gk, sk = kernel_of(_Kernel, p), kernel_of(_ScalarKernel, p)
    # the generated step holds no float of the problem as a literal
    assert {repr(c) for c in sk.step.__code__.co_consts} <= {"None", "0.0", "0.5", "2.0"}
    a, b = gk.start(), sk.start()
    for _ in range(100):
        a, b = gk.step(*a), sk.step(*b)
        assert [u.tobytes() for u in gk.arrays(a)] == [v.tobytes() for v in sk.arrays(b)]
    assert sk.arrays(b)[0].dtype == sk.arrays(b)[2].dtype == np.float64


@PROPERTY
@given(problems(), st.integers(1, 1500), st.integers(0, 120),
       st.sampled_from([0.0, 1e-6, 1e-10]))
@example(period_two_problem(), 999, 7, 0.0)
def test_repeat_stop_matches_stepwise_run(p, iters, interval, tol):
    cfg = SolverConfig(max_iters=iters, check_interval=interval, gap_tolerance=tol)
    with pytest.MonkeyPatch.context() as m:
        res, steps = count_steps(m, p, cfg)
    assert_same_result(res, stepwise_run(p, cfg))
    # once the state repeats, run steps only to the phases it still needs
    assert steps <= res.iters_run


@settings(PROPERTY, max_examples=10)
@given(problems())
def test_run_matches_stepwise_run_under_fixed_configs(p):
    # `run` advances from check to check: budgets of 1, 17 and 999 and
    # check intervals of 1, 7, 16 and 33 end advances before, on and
    # between its repeat checks, every _REPEAT_CHECK_INTERVAL = 16 steps
    for iters in (1, 17, 999):
        for interval in (1, 7, 16, 33):
            for tol in (0.0, 1e-8):
                cfg = SolverConfig(max_iters=iters, check_interval=interval, gap_tolerance=tol)
                assert_same_result(run(p, cfg), stepwise_run(p, cfg))


# about two in five drawn problems deliver a cluster without every seed
@settings(PROPERTY, suppress_health_check=[HealthCheck.filter_too_much])
@given(problems())
# five seeds and alpha 4.5 tie the whole graph at 5 / 9.5 > 1/2, so the
# cluster has no boundary, but 1 - (alpha/2) * 5 / 9.5, one seed's bound, is
# negative
@example(NLassoProblem(build_graph(6, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                                       (1, 6, 1.0), (3, 6, 1.0), (5, 6, 1.0)]),
                       [1, 2, 3, 4, 5], 4.5, 10.0))
def test_delivered_clusters_satisfy_certificates(p):
    # all drawn seeds, run to a duality gap of 1e-10; the absorbing
    # condition is an equality at the optimum, so it holds to within rounding
    res = run(p, SolverConfig(max_iters=20_000, check_interval=100, gap_tolerance=1e-10))
    c = extract_cluster(res.x, 0.5, seeds=p.seeds)
    assume(res.history[-1].gap <= 1e-10 and c.contains_seeds)
    report = boundary_conditions(p, c, res.x)
    assert report.holds_injecting
    assert report.lhs <= report.rhs_absorbing * (1.0 + 1e-12)
