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
`build_graph` on the same edge lists for `tiny-batch`.  For `sbm-large`
each package also reads back, with `read_edge_list`, the edge file that
the workload wrote and its timed `nlasso solve` reads.  It exits non-zero
at the first graph whose src, dst or weights bytes differ.  Then it checks
that both `nlasso.run`s give bitwise the same x and y on every problem, in
the same number of steps: each package's `solver._kernel` is wrapped so
that the kernels it builds count their step calls (`iters_run` is always
the budget, whatever the repeat stop skips).  It prints one line per
workload that agrees, with its steps, and exits non-zero at the first
problem that differs.  It times nothing: perfbench's fresh-process runs
are the one measure of speed.

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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import nlasso  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("segment-large", "sbm-large", "tiny-batch", "paper-experiments")


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


def graphs(pkg, name: str, w, probs) -> dict:
    """The graphs of package pkg's problems probs of workload w, and for
    `sbm-large` the graph pkg reads back from the edge file w wrote, which
    its `nlasso solve` reads."""
    out = {f"problem {k}": p.graph for k, p in enumerate(probs)}
    if name == "sbm-large":
        out["the edge file"] = pkg.read_edge_list(w.workdir / "graph.txt")
    return out


def port(module, p):
    """The problem p rebuilt from its edge list with package module."""
    g = p.graph
    edges = np.column_stack((g.src + 1, g.dst + 1, g.weights))
    return module.NLassoProblem(module.build_graph(g.n, edges), p.seeds, p.alpha, p.lam)


def assert_same_graphs(name, graphs_a, graphs_b):
    """Both sides' graphs of each name have bitwise the same src, dst and weights."""
    for key, ga in graphs_a.items():
        gb = graphs_b[key]
        if any(getattr(ga, f).tobytes() != getattr(gb, f).tobytes()
               for f in ("src", "dst", "weights")):
            raise SystemExit(f"{name}: the graph of {key} differs between the checkouts")


def counted_run(pkg):
    """pkg.run as a function of (p, cfg) that returns the result and the
    steps it took.  It wraps pkg's `solver._kernel`, so that each kernel
    built from then on counts its step calls."""
    solver = importlib.import_module(f"{pkg.__name__}.solver")
    build, steps = solver._kernel, [0]

    def kernel(p):
        k = build(p)
        step = k.step

        def counted(*state):
            steps[0] += 1
            return step(*state)

        k.step = counted
        return k

    def run(p, cfg):
        steps[0] = 0
        return pkg.run(p, cfg), steps[0]

    solver._kernel = kernel
    return run


def assert_same_results(name, sides) -> int:
    """Both sides' counted runs give bitwise the same x and y, in the same
    number of steps, under their configs.  Returns the steps of all runs."""
    (run_a, probs_a, cfg_a), (run_b, probs_b, cfg_b) = sides
    total = 0
    for k, (pa, pb) in enumerate(zip(probs_a, probs_b)):
        (a, steps_a), (b, steps_b) = run_a(pa, cfg_a), run_b(pb, cfg_b)
        if a.x.tobytes() != b.x.tobytes() or a.y.tobytes() != b.y.tobytes():
            raise SystemExit(f"{name}: problem {k} differs between the checkouts")
        if steps_a != steps_b:
            raise SystemExit(f"{name}: problem {k} takes {steps_a} steps here and "
                             f"{steps_b} in the other checkout")
        total += steps_a
    return total


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
    runs = [counted_run(pkg) for pkg in (nlasso, other)]
    print(f"this:  {ROOT}\nother: {args.other.resolve()}\nseed {args.seed}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            w = workloads.WORKLOADS[name](args.seed, Path(tmp) / name)
            w.setup()
            probs = [problems(pkg, name, w) for pkg in (nlasso, other)]
            assert_same_graphs(name, *(graphs(pkg, name, w, pkg_probs)
                                       for pkg, pkg_probs in zip((nlasso, other), probs)))
            iters = args.iters or w.ITERS
            sides = [(run, pkg_probs, pkg.SolverConfig(max_iters=iters))
                     for run, pkg, pkg_probs in zip(runs, (nlasso, other), probs)]
            steps = assert_same_results(name, sides)
            print(f"{name} ({len(probs[0])} solves x {iters} iterations, bitwise equal, "
                  f"{steps} steps each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
