#!/usr/bin/env python3
"""Check that this checkout builds and solves the bits of another checkout's.

For one workload seed it builds the problems of perfbench's `segment-large`
(the 256 x 256 image, one solve), `sbm-large` (the 4000-node block model,
one solve), `tiny-batch` (50 small solves) and `paper-experiments` (the
100-node chain and the seed's ten 200-node block models, 11 solves)
workloads, with each workload's iteration budget.  It loads the other
checkout's `src/nlasso` as a second package, and each package builds the
graphs with its own constructors: `sbm_graph` for `sbm-large`,
`cli.chain_problem` and `cli.sbm_problem` for `paper-experiments`,
`grid_from_image` on the same PGM file for `segment-large`, and
`build_graph` on the same edge lists for `tiny-batch`.  It exits non-zero
at the first graph whose src, dst or weights bytes differ.  Then it checks
that both `nlasso.run`s give bitwise the same x, y and iters_run on every
problem, with no checks, with a history row every CHECK_INTERVAL
iterations, and with those rows and a gap stop at GAP_TOLERANCE (every
float of each row compared by its bits too).  It prints one line per
workload that agrees and exits non-zero at the first problem that
differs.  It times nothing: perfbench's fresh-process runs are the one
measure of speed.

Usage: python tools/ab_run.py OTHER_CHECKOUT [--seed N] [--iters N]
                              [--workload NAME ...]

--seed must be at least 0.  --iters replaces every workload's iteration
budget (for a quick check); it must be at least 1.
perfbench/ is only read: its workloads generate the inputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import nlasso  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("segment-large", "sbm-large", "tiny-batch", "paper-experiments")
# iterations between the history rows of the bitwise check, or every
# iteration under a smaller budget; it runs once without a gap stop, so
# every row of the budget is compared, and once with one at GAP_TOLERANCE,
# so the early stop is compared too
CHECK_INTERVAL = 50
GAP_TOLERANCE = 1e-9


def load_nlasso(checkout: Path, name: str):
    """Import `checkout`'s src/nlasso as the package `name`."""
    pkg = Path(checkout) / "src" / "nlasso"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"no src/nlasso package under {checkout}")
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def problems(pkg, name: str, w) -> list:
    """The problems of workload w, after its setup, built by package pkg
    with its own constructors from the inputs w made."""
    if name == "tiny-batch":
        return [port(pkg, p) for p, _ in w.cases]
    if name == "paper-experiments":
        cli = importlib.import_module(f"{pkg.__name__}.cli")
        return [cli.chain_problem()] + [cli.sbm_problem(s)[0] for s in w.rng_seeds]
    if name == "segment-large":
        g, seeds = pkg.grid_from_image(pkg.read_pgm(w.image)), w.seeds
    else:
        spec = pkg.SbmSpec((w.BLOCK, w.BLOCK), w.P_IN, w.P_OUT, rng_seed=w.seed)
        g, seeds = pkg.sbm_graph(spec)[0], w.workdir / "seeds.txt"
    return [pkg.NLassoProblem(g, pkg.read_node_set(seeds, g.n), w.ALPHA, w.LAM)]


def port(module, p):
    """The problem p rebuilt from its edge list with package module."""
    g = p.graph
    edges = np.column_stack((g.src + 1, g.dst + 1, g.weights))
    return module.NLassoProblem(module.build_graph(g.n, edges), p.seeds, p.alpha, p.lam)


def assert_same_graphs(name, probs_a, probs_b):
    """Both sides' problems have bitwise the same src, dst and weights."""
    for k, (pa, pb) in enumerate(zip(probs_a, probs_b)):
        if any(getattr(pa.graph, f).tobytes() != getattr(pb.graph, f).tobytes()
               for f in ("src", "dst", "weights")):
            raise SystemExit(f"{name}: the graph of problem {k} differs between the checkouts")


def history_bits(res) -> list:
    """Each history row of a SolverResult with its floats as hex strings."""
    return [(h.r, *(float(v).hex() for v in h[1:])) for h in res.history]


def assert_same_results(name, sides):
    """Both sides' runs give bitwise the same x, y, iters_run and history,
    under their configs, with a history row every CHECK_INTERVAL
    iterations, and with those rows and a gap stop at GAP_TOLERANCE."""
    (run_a, probs_a, cfg_a), (run_b, probs_b, cfg_b) = sides
    interval = min(CHECK_INTERVAL, cfg_a.max_iters)
    for checks in ({}, {"check_interval": interval},
                   {"check_interval": interval, "gap_tolerance": GAP_TOLERANCE}):
        ca, cb = replace(cfg_a, **checks), replace(cfg_b, **checks)
        for k, (pa, pb) in enumerate(zip(probs_a, probs_b)):
            a, b = run_a(pa, ca), run_b(pb, cb)
            same = (a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
                    and a.iters_run == b.iters_run and history_bits(a) == history_bits(b))
            if not same:
                raise SystemExit(f"{name}: problem {k} differs between the checkouts")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--iters", type=int, default=None)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.iters is not None and args.iters < 1:
        ap.error("--iters must be >= 1")
    other = load_nlasso(args.other.resolve(), "nlasso_other")
    print(f"this:  {ROOT}\nother: {args.other.resolve()}\nseed {args.seed}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            w = workloads.WORKLOADS[name](args.seed, Path(tmp) / name)
            w.setup()
            probs = [problems(pkg, name, w) for pkg in (nlasso, other)]
            assert_same_graphs(name, *probs)
            iters = args.iters or w.ITERS
            sides = [(pkg.run, pkg_probs, pkg.SolverConfig(max_iters=iters))
                     for pkg, pkg_probs in zip((nlasso, other), probs)]
            assert_same_results(name, sides)
            print(f"{name} ({len(probs[0])} solves x {iters} iterations, bitwise equal)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
