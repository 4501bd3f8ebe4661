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
    duality_gap,
    extract_cluster,
    kkt_residuals,
    primal_objective,
    run,
)
from nlasso.solver import _BandKernel, _Kernel, _ScalarKernel
from oracle import exact_optimum
from test_solver import (
    SMALL_CONFIGS,
    assert_same_result,
    count_steps,
    kernel_of,
    ones_start,
    period_two_problem,
    reference_step,
    same_bits,
    stepwise_run,
    tool,
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
def test_exact_optimum_meets_the_optimality_conditions(p):
    # the reference pair meets every demand within capacity, is constant
    # across each unsaturated edge and closes the duality gap, to rounding
    x, y = exact_optimum(p)
    report = kkt_residuals(p, x, y, eps_sat=1e-9)
    assert report.capacity_ok and report.max_residual <= 1e-12, report
    assert abs(duality_gap(p, x, y)) <= 1e-12 * (1.0 + primal_objective(p, x))


@PROPERTY
@given(problems())
def test_weak_duality_along_the_run(p):
    gaps = [duality_gap(p, x, y) for _, x, y in tool("convergence_counts").iterates(p, 5, 200)]
    assert len(gaps) == 40
    assert all(gap >= -1e-12 for gap in gaps)


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


def assert_steps_follow_reference(p, kernels, steps=100):
    """Each kernel of p steps from its start with the bits of reference_step."""
    ref, states = ones_start(p), [k.start() for k in kernels]
    for _ in range(steps):
        ref = reference_step(p, *ref)
        states = [k.step(*state) for k, state in zip(kernels, states)]
        assert all(same_bits(k.arrays(state), ref) for k, state in zip(kernels, states))


@PROPERTY
@given(problems())
def test_band_layout_matches_gather(p):
    assert_steps_follow_reference(p, [kernel_of(_Kernel, p), kernel_of(_BandKernel, p)])


@PROPERTY
@given(problems())
@example(underflow_problem())  # a capacity of 0, where the clamp meets -0.0 against +0.0
# the smallest and the largest generated steps: one edge (m + n = 3), and
# the complete graph K8 (m + n = 36, _MAX_SCALAR_SIZE)
@example(NLassoProblem(build_graph(2, [(1, 2, 0.7)]), [2], 0.3, 1.1))
@example(NLassoProblem(build_graph(8, [(i, j, (i + 2 * j) / 7) for i in range(1, 9)
                                       for j in range(i + 1, 9)]), [1, 6], 0.05, 0.4))
def test_scalar_layout_matches_gather(p):
    sk = kernel_of(_ScalarKernel, p)
    # the generated step holds no float of the problem as a literal
    assert {repr(c) for c in sk.step.__code__.co_consts} <= {"None", "0.0", "0.5", "2.0"}
    # another problem on the same graph shares the compiled step, and each
    # kernel steps with its own constants
    others = np.setdiff1d(np.arange(1, p.graph.n + 1), p.seeds).tolist() or [1]
    q = NLassoProblem(p.graph, others, p.alpha * 3.0, p.lam / 3.0)
    sq = kernel_of(_ScalarKernel, q)
    assert sq.step.__code__ is sk.step.__code__ and sq.step is not sk.step
    assert_steps_follow_reference(p, [kernel_of(_Kernel, p), sk])
    assert_steps_follow_reference(q, [kernel_of(_Kernel, q), sq])


@PROPERTY
@given(problems(), st.integers(1, 1500))
@example(period_two_problem(), 999)
def test_repeat_stop_matches_stepwise_run(p, iters):
    cfg = SolverConfig(max_iters=iters)
    with pytest.MonkeyPatch.context() as m:
        res, steps = count_steps(m, p, cfg)
    assert_same_result(res, stepwise_run(p, cfg))
    # it stops stepping once the state repeats
    assert steps <= res.iters_run


@settings(PROPERTY, max_examples=10)
@given(problems())
def test_run_matches_stepwise_run_under_fixed_configs(p):
    # `run` advances from repeat check to repeat check: the budgets put
    # max_iters before, on and between checks
    for cfg in SMALL_CONFIGS:
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
    # all drawn seeds, run for 20 000 iterations and kept where the duality
    # gap is at most 1e-10; the absorbing condition is an equality at the
    # optimum, which boundary_conditions compares within rounding
    res = run(p, SolverConfig(max_iters=20_000))
    c = extract_cluster(res.x, 0.5, seeds=p.seeds)
    assume(duality_gap(p, res.x, res.y) <= 1e-10 and c.contains_seeds)
    report = boundary_conditions(p, c, res.x)
    assert report.holds_injecting
    assert report.holds_absorbing
