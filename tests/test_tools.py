import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given

from frozen_oracle import INSTANCES
from nlasso import cli
from oracle import exact_optimum
from test_properties import PROPERTY, problems
from test_solver import frozen_problems

ROOT = Path(__file__).resolve().parent.parent
AB_RUN = ROOT / "tools" / "ab_run.py"


def tool(name):
    """tools/<name>.py as a module, imported with sys.path left as it was."""
    saved = list(sys.path)
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path[:] = saved


def ab_run(other, *flags):
    return subprocess.run([sys.executable, str(AB_RUN), str(other), *flags],
                          capture_output=True, text=True, timeout=300)


def test_ab_run_against_the_same_checkout():
    # every workload's problems at 3 iterations: both sides load and agree
    # bit for bit, and nothing is timed
    proc = ab_run(ROOT, "--iters", "3")
    assert proc.returncode == 0, proc.stderr
    for name in ("segment-large", "sbm-large", "tiny-batch"):
        assert f"{name} (" in proc.stdout
    # the chain and the seed's ten block models
    assert "paper-experiments (11 solves x 3 iterations, bitwise equal)" in proc.stdout
    assert proc.stdout.count("bitwise equal") == 4
    assert "wins" not in proc.stdout and "median" not in proc.stdout


def test_ab_run_refuses_to_time_different_results(tmp_path):
    # halve the dual step in all three layouts' kernels: the step the two
    # numpy layouts share and the template of the scalar one's generated
    # step, which the tiny-batch solves take
    shutil.copytree(ROOT / "src", tmp_path / "src")
    solver = tmp_path / "src" / "nlasso" / "solver.py"
    text = solver.read_text()
    for old, new, count in (("d *= 0.5\n", "d *= 0.25\n", 1), ("* 0.5 + y", "* 0.25 + y", 1)):
        assert text.count(old) == count
        text = text.replace(old, new)
    solver.write_text(text)
    proc = ab_run(tmp_path, "--iters", "3", "--workload", "tiny-batch")
    assert proc.returncode != 0
    assert "differs between the checkouts" in proc.stderr
    assert "bitwise equal" not in proc.stdout


@pytest.mark.parametrize("workload, problem", [("sbm-large", 0), ("paper-experiments", 1)])
def test_ab_run_reports_a_changed_graph_constructor(tmp_path, workload, problem):
    # one shift of the pair hash's mix changed: each checkout draws its own
    # block models, so the first one differs and no solve runs; the
    # paper-experiments chain (problem 0) still agrees
    shutil.copytree(ROOT / "src", tmp_path / "src")
    generators = tmp_path / "src" / "nlasso" / "generators.py"
    text = generators.read_text()
    old = "np.right_shift(z, np.uint64(27), out=scratch)"
    assert text.count(old) == 1
    generators.write_text(text.replace(old, old.replace("27", "26")))
    proc = ab_run(tmp_path, "--iters", "3", "--workload", workload)
    assert proc.returncode != 0
    assert proc.stderr == (f"{workload}: the graph of problem {problem} differs "
                           "between the checkouts\n")
    assert "bitwise equal" not in proc.stdout


def test_ab_run_reports_a_changed_edge_list_reader(tmp_path):
    # the weights np.loadtxt parses moved up one ulp: both checkouts draw
    # the same block model, but read back different graphs from its file
    shutil.copytree(ROOT / "src", tmp_path / "src")
    graph = tmp_path / "src" / "nlasso" / "graph.py"
    text = graph.read_text()
    old = 'rows["w"])'
    assert text.count(old) == 1
    graph.write_text(text.replace(old, 'np.nextafter(rows["w"], np.inf))'))
    proc = ab_run(tmp_path, "--iters", "3", "--workload", "sbm-large")
    assert proc.returncode != 0
    assert proc.stderr == "sbm-large: the graph of the edge file differs between the checkouts\n"
    assert "bitwise equal" not in proc.stdout


@pytest.mark.parametrize("flag, value, message",
                         [("--iters", "0", "--iters must be >= 1"),
                          ("--iters", "-3", "--iters must be >= 1"),
                          ("--seed", "-1", "--seed must be >= 0")],
                         ids=["0", "-3", "seed--1"])
def test_ab_run_rejects_iters_below_one(tmp_path, flag, value, message):
    # rejected before the other checkout is loaded: here it has no package
    proc = ab_run(tmp_path, flag, value)
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"error: {message}\n")
    assert proc.stdout == ""


def test_convergence_counts_segment_gaps():
    # the segment-large seed-1 problem's gaps at 700 and 2000 iterations,
    # pinned as upper bounds as test_solver pins the iteration counts
    gaps = tool("convergence_counts").segment_gaps()
    assert list(gaps) == [700, 2000]
    assert 0.0 <= gaps[2000] < gaps[700] <= 20.774, gaps
    assert gaps[2000] <= 0.8225, gaps


RATE_KS = (10, 100, 1000)


def test_ergodic_gap_within_the_rate_bound():
    # the paper's optimal-rate claim as Chambolle & Pock's ergodic bound:
    # k times the gap of the averaged iterates stays below B, with margins
    # of 4.8 and more on these problems
    counts = tool("convergence_counts")
    problems = [cli.chain_problem(), cli.sbm_problem(0)[0]] + frozen_problems()
    rates = [counts.ergodic_gap_bound(p, RATE_KS) for p in problems]
    for rate in rates:
        assert list(rate) == list(RATE_KS)
        for k, (k_gap, bound) in rate.items():
            assert k_gap <= bound, (k, k_gap, bound)
    # the chain's and SBM seed 0's values at k = 1000
    assert rates[0][1000] == pytest.approx((18.036, 87.153), rel=1e-4)
    assert rates[1][1000] == pytest.approx((371.75, 1847.8), rel=1e-4)


@PROPERTY
@given(problems(max_n=12))
def test_ergodic_gap_within_the_rate_bound_on_random_graphs(p):
    for k, (k_gap, bound) in tool("convergence_counts").ergodic_gap_bound(p, RATE_KS).items():
        assert k_gap <= bound, (k, k_gap, bound)


def test_fixture_generator_reproduces_the_frozen_instances():
    # the graphs, seeds and penalties alone, with no oracle run: they drift
    # if oracle.random_connected_graph or its draws from the rng change
    keys = ("n", "edges", "seed", "alpha", "lam")
    made = tool("gen_oracle_fixtures").make_instances()
    assert len(made) == len(INSTANCES) == 25
    for k, (new, frozen) in enumerate(zip(made, INSTANCES)):
        assert {key: new[key] for key in keys} == {key: frozen[key] for key in keys}, k


def test_frozen_optima_lie_within_the_guard_of_the_exact_optimum():
    # the subgradient oracle's values as frozen, against the threshold-cut
    # optimum on all 25 instances: the worst is 3.9e-5
    worst = max(float(np.max(np.abs(np.asarray(inst["x_star"]) - exact_optimum(p)[0])))
                for inst, p in zip(INSTANCES, frozen_problems()))
    assert worst <= tool("gen_oracle_fixtures").GUARD, worst


# the first check from which the iterate's cluster is exact through 1000
# iterations, as printed by tools/convergence_counts.py: the chain, then
# block models 0-2, pinned as upper bounds
ITERS_TO_EXACT_CLUSTER = [820, 770, 820, 850]


def test_iterations_to_exact_cluster_do_not_grow():
    counts = tool("convergence_counts")
    problems = [cli.chain_problem()] + [cli.sbm_problem(seed)[0] for seed in range(3)]
    for p, bound in zip(problems, ITERS_TO_EXACT_CLUSTER):
        since = counts.iterations_to_exact_cluster(p)
        assert since is not None and since <= bound, (bound, since)
