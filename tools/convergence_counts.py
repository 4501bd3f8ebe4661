#!/usr/bin/env python3
"""Print how many iterations the solver needs to certify a duality gap of 1e-6.

The count is the first multiple of 10 at which the gap of the iterate is
at most 1e-6, or `>100000` when 10^5 iterations do not get there.  It is
a deterministic number, so it measures convergence without any timing.
Every count, gap and bound here comes from the iterates of the kernel
`run` builds for the problem, in its layout (see `iterates`).  Instances:

* the criterion-1 chain (100 nodes, `nlasso chain-experiment`);
* the ten criterion-4 block models (`nlasso sbm-experiment`, rng seeds 0-9);
* the 25 frozen criterion-5 instances (tests/frozen_oracle.py).

Next to the chain's and each block model's count it prints the paper's
rate claim at k = 1000 iterations: k G, with G the duality gap of the
averages of the first k iterates, and the bound B that k G may not exceed
(see `ergodic_gap_bound`), and the first check (every 10 iterations) from
which the iterate's cluster {x > 1/2} is the exact one, {x* > 1/2} of
tests/oracle.py's `exact_optimum`, through iteration 1000.

Last it prints the duality gap of perfbench's `segment-large` problem (the
seed-1 256 x 256 image, built by importing perfbench/workloads.py, which
it only reads) at 700 iterations, the workload's budget, and at 2000: 10^5
grid iterations would take minutes, and the gap does not reach 1e-6 within
6000.

tests/test_tools.py pins the chain's and the frozen set's counts and the
exact-cluster checks of the chain and block models 0-2 as upper bounds,
and checks k G <= B with `ergodic_gap_bound`.

Usage: python tools/convergence_counts.py
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from frozen_oracle import INSTANCES  # noqa: E402
from nlasso import (NLassoProblem, build_graph, divergence, duality_gap,  # noqa: E402
                    read_node_set)
from nlasso import cli, generators as gen, solver  # noqa: E402
from oracle import exact_optimum  # noqa: E402
import workloads  # noqa: E402

GAP = 1e-6
CHECK_INTERVAL = 10
CAP = 10 ** 5
SEGMENT_SEED = 1
SEGMENT_ITERS = (700, 2000)
RATE_ITERS = 1000


def iterates(p: NLassoProblem, every: int, last: int):
    """(k, x, y) at each multiple k of `every` up to `last`: the iterate of
    the kernel `run` builds for p, in its layout, stepped from its start
    and read out through `arrays`, with the flow y in edge order."""
    kernel = solver._kernel(p)
    state = kernel.start()
    for k in range(every, last + 1, every):
        for _ in range(every):
            state = kernel.step(*state)
        x, _, y = kernel.arrays(state)
        yield k, x, y


def iterations_to_gap(p: NLassoProblem) -> int | None:
    """The first check (every CHECK_INTERVAL iterations) at which the
    duality gap is at most GAP, or None if CAP iterations do not get
    there."""
    for k, x, y in iterates(p, CHECK_INTERVAL, CAP):
        if duality_gap(p, x, y) <= GAP:
            return k
    return None


def ergodic_gap_bound(p: NLassoProblem, ks) -> dict[int, tuple[float, float]]:
    """(k G, B) at each k of ks: the paper's O(1/k) rate, checked on one run.

    The solver's iteration is that of Chambolle & Pock (2011, "A first-order
    primal-dual algorithm for convex problems with applications to
    imaging", Theorem 1) with the diagonal steps T = diag(1/d) and
    Sigma = I/2 of Pock & Chambolle (2011), d the unweighted degree.  Its
    ergodic bound: the duality gap G of the averages (xbar, ybar) of the
    iterates 1..k from x = x_prev = 1 and y = 0 is at most B / k.  G is
    the Lagrangian gap at (xhat, yhat), where xhat minimises the Lagrangian
    at ybar (1 + z at seeds and z / alpha elsewhere, with z = -div(ybar))
    and yhat = lam W_e sign(xbar_i - xbar_j) maximises it at xbar, so
    B = sum_i d_i (xhat_i - 1)^2 + 2 sum_e yhat_e^2: the theorem's
    (1/2)||.||^2 in T^-1 and Sigma^-1, doubled for its cross term.
    """
    g = p.graph
    x_sum, y_sum = np.zeros(g.n), np.zeros(g.num_edges)
    out = {}
    for k, x, y in iterates(p, 1, max(ks)):
        x_sum += x
        y_sum += y
        if k in ks:
            x_bar, y_bar = x_sum / k, y_sum / k
            z = -divergence(g, y_bar)
            x_hat = np.where(p.seed_mask, 1.0 + z, z / p.alpha)
            y_hat = p.capacities * np.sign(x_bar[g.src] - x_bar[g.dst])
            bound = float(g.degree @ (x_hat - 1.0) ** 2 + 2.0 * (y_hat @ y_hat))
            out[k] = k * duality_gap(p, x_bar, y_bar), bound
    return out


def iterations_to_exact_cluster(p: NLassoProblem) -> int | None:
    """The first check from which {x > 1/2} equals {x* > 1/2} through
    iteration RATE_ITERS, or None if it differs there."""
    exact = exact_optimum(p)[0] > 0.5
    since = None
    for k, x, _ in iterates(p, CHECK_INTERVAL, RATE_ITERS):
        same = np.array_equal(x > 0.5, exact)
        since = (since or k) if same else None
    return since


def instances():
    yield "chain", cli.chain_problem()
    for seed in range(10):
        yield f"sbm[{seed}]", cli.sbm_problem(seed)[0]
    for k, inst in enumerate(INSTANCES):
        g = build_graph(inst["n"], inst["edges"])
        yield f"frozen[{k}]", NLassoProblem(g, [inst["seed"]], inst["alpha"], inst["lam"])


def segment_gaps() -> dict[int, float]:
    """The gap of the segment-large problem at each of SEGMENT_ITERS."""
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.WORKLOADS["segment-large"](SEGMENT_SEED, Path(tmp))
        w.setup()
        g = gen.grid_from_image(gen.read_pgm(w.image))
        p = NLassoProblem(g, read_node_set(w.seeds, g.n), w.ALPHA, w.LAM)
    return {k: duality_gap(p, x, y)
            for k, x, y in iterates(p, math.gcd(*SEGMENT_ITERS), max(SEGMENT_ITERS))
            if k in SEGMENT_ITERS}


def main() -> int:
    for name, p in instances():
        line = f"{name:<12} {iterations_to_gap(p) or f'>{CAP}'}"
        if not name.startswith("frozen"):
            k_gap, bound = ergodic_gap_bound(p, [RATE_ITERS])[RATE_ITERS]
            line += f"  k G {k_gap:.3g} <= B {bound:.3g} at k = {RATE_ITERS}"
            line += f"  exact cluster from {iterations_to_exact_cluster(p)}"
        print(line, flush=True)
    gaps = ", ".join(f"{gap:.3g} at {k}" for k, gap in segment_gaps().items())
    print(f"segment-large[{SEGMENT_SEED}] gap {gaps}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
