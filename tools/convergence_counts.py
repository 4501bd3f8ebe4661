#!/usr/bin/env python3
"""Print how many iterations `run` needs to certify a duality gap of 1e-6.

The count is the first multiple of 10 at which the gap is at most 1e-6
(SolverConfig check_interval 10, gap_tolerance 1e-6), or `>100000` when
10^5 iterations do not get there.  It is a deterministic number, so it
measures convergence without any timing.  Instances:

* the criterion-1 chain (100 nodes, `nlasso chain-experiment`);
* the ten criterion-4 block models (`nlasso sbm-experiment`, rng seeds 0-9);
* the 25 frozen criterion-5 instances (tests/frozen_oracle.py).

tests/test_solver.py pins the chain's and the frozen set's counts as upper
bounds.

Usage: python tools/convergence_counts.py
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from frozen_oracle import INSTANCES  # noqa: E402
from nlasso import NLassoProblem, SolverConfig, build_graph, run  # noqa: E402
from nlasso import cli, generators as gen  # noqa: E402

GAP = 1e-6
CHECK_INTERVAL = 10
CAP = 10 ** 5


def iterations_to_gap(p: NLassoProblem) -> str:
    res = run(p, SolverConfig(max_iters=CAP, check_interval=CHECK_INTERVAL,
                              gap_tolerance=GAP))
    return str(res.iters_run) if res.history[-1].gap <= GAP else f">{CAP}"


def instances():
    g = gen.chain_graph(cli.CHAIN_N, cli.CHAIN_DEFAULT_W,
                        [(cli.CHAIN_SPECIAL_EDGE, cli.CHAIN_SPECIAL_W)])
    yield "chain", NLassoProblem(g, [cli.CHAIN_SEED_NODE], cli.CHAIN_ALPHA, cli.CHAIN_LAMBDA)
    for seed in range(10):
        spec = gen.SbmSpec((cli.SBM_BLOCK, cli.SBM_BLOCK), cli.SBM_P_IN, cli.SBM_P_OUT,
                           rng_seed=seed)
        g, blocks = gen.sbm_graph(spec)
        seeds = gen.sample_seeds(blocks[0], cli.SBM_SEED_COUNT, rng_seed=seed)
        yield f"sbm[{seed}]", NLassoProblem(g, seeds, cli.SBM_ALPHA, cli.SBM_LAMBDA)
    for k, inst in enumerate(INSTANCES):
        g = build_graph(inst["n"], inst["edges"])
        yield f"frozen[{k}]", NLassoProblem(g, [inst["seed"]], inst["alpha"], inst["lam"])


def main() -> int:
    for name, p in instances():
        print(f"{name:<12} {iterations_to_gap(p)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
