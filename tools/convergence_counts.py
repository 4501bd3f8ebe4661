#!/usr/bin/env python3
"""Print how many iterations `run` needs to certify a duality gap of 1e-6.

The count is the first multiple of 10 at which the gap is at most 1e-6
(SolverConfig check_interval 10, gap_tolerance 1e-6), or `>100000` when
10^5 iterations do not get there.  It is a deterministic number, so it
measures convergence without any timing.  Instances:

* the criterion-1 chain (100 nodes, `nlasso chain-experiment`);
* the ten criterion-4 block models (`nlasso sbm-experiment`, rng seeds 0-9);
* the 25 frozen criterion-5 instances (tests/frozen_oracle.py).

Last it prints the duality gap of perfbench's `segment-large` problem (the
seed-1 256 x 256 image, built by importing perfbench/workloads.py, which
it only reads) at 700 iterations, the workload's budget, and at 2000: 10^5
grid iterations would take minutes, and the gap does not reach 1e-6 within
6000.

tests/test_solver.py pins the chain's and the frozen set's counts as upper
bounds.

Usage: python tools/convergence_counts.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))

from frozen_oracle import INSTANCES  # noqa: E402
from nlasso import NLassoProblem, SolverConfig, build_graph, read_node_set, run  # noqa: E402
from nlasso import cli, generators as gen  # noqa: E402
import workloads  # noqa: E402

GAP = 1e-6
CHECK_INTERVAL = 10
CAP = 10 ** 5
SEGMENT_SEED = 1
SEGMENT_ITERS = (700, 2000)


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


def segment_gaps() -> dict[int, float]:
    """The gap of the segment-large problem at each of SEGMENT_ITERS."""
    with tempfile.TemporaryDirectory() as tmp:
        w = workloads.WORKLOADS["segment-large"](SEGMENT_SEED, Path(tmp))
        w.setup()
        g = gen.grid_from_image(gen.read_pgm(w.image))
        p = NLassoProblem(g, read_node_set(w.seeds, g.n), w.ALPHA, w.LAM)
    res = run(p, SolverConfig(max_iters=max(SEGMENT_ITERS), check_interval=100))
    gaps = {h.r: h.gap for h in res.history}
    return {k: gaps[k] for k in SEGMENT_ITERS}


def main() -> int:
    for name, p in instances():
        print(f"{name:<12} {iterations_to_gap(p)}", flush=True)
    gaps = ", ".join(f"{gap:.3g} at {k}" for k, gap in segment_gaps().items())
    print(f"segment-large[{SEGMENT_SEED}] gap {gaps}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
