import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

from nlasso import cli
from test_properties import PROPERTY, problems
from test_solver import frozen_problems

ROOT = Path(__file__).resolve().parent.parent
AB_RUN = ROOT / "tools" / "ab_run.py"


def ab_run(other, *flags):
    return subprocess.run([sys.executable, str(AB_RUN), str(other), *flags],
                          capture_output=True, text=True, timeout=300)


def test_ab_run_against_the_same_checkout():
    # every workload's problems at 3 iterations: both sides load, agree bit
    # for bit and are timed
    proc = ab_run(ROOT, "--iters", "3", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    for name in ("segment-large", "sbm-large", "tiny-batch"):
        assert f"{name} (" in proc.stdout
    # the chain and the seed's ten block models
    assert "paper-experiments (11 solves x 3 iterations, bitwise equal)" in proc.stdout
    assert proc.stdout.count("bitwise equal") == 4
    assert proc.stdout.count("wins") == 8
    # each workload's solves by layout: the 256 x 256 grid takes bands, the
    # block models and the 99-edge chain gathers, the tiny graphs scalars
    for layouts in ("band 1, gather 0, scalar 0", "band 0, gather 1, scalar 0",
                    "band 0, gather 0, scalar 50", "band 0, gather 11, scalar 0"):
        assert f"  layouts here: {layouts}\n" in proc.stdout


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
    proc = ab_run(tmp_path, "--iters", "3", "--rounds", "1", "--workload", "tiny-batch")
    assert proc.returncode != 0
    assert "differs between the checkouts" in proc.stderr
    assert "wins" not in proc.stdout


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_ab_run_rejects_iters_below_one(tmp_path, iters):
    # rejected before the other checkout is loaded: here it has no package
    proc = ab_run(tmp_path, "--iters", iters)
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: --iters must be >= 1\n")
    assert proc.stdout == ""


def test_convergence_counts_segment_gaps():
    # the segment-large seed-1 problem's gaps at 700 and 2000 iterations,
    # pinned as upper bounds as test_solver pins the iteration counts
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import convergence_counts
    finally:
        sys.path.remove(str(ROOT / "tools"))
    gaps = convergence_counts.segment_gaps()
    assert list(gaps) == [700, 2000]
    assert 0.0 <= gaps[2000] < gaps[700] <= 20.774, gaps
    assert gaps[2000] <= 0.8225, gaps


def convergence_counts_tool():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import convergence_counts
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return convergence_counts


RATE_KS = (10, 100, 1000)


def test_ergodic_gap_within_the_rate_bound():
    # the paper's optimal-rate claim as Chambolle & Pock's ergodic bound:
    # k times the gap of the averaged iterates stays below B, with margins
    # of 4.8 and more on these problems
    tool = convergence_counts_tool()
    problems = [cli.chain_problem(), cli.sbm_problem(0)[0]] + frozen_problems()
    rates = [tool.ergodic_gap_bound(p, RATE_KS) for p in problems]
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
    for k, (k_gap, bound) in convergence_counts_tool().ergodic_gap_bound(p, RATE_KS).items():
        assert k_gap <= bound, (k, k_gap, bound)
