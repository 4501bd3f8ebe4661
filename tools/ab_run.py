#!/usr/bin/env python3
"""Time `nlasso.run` in this checkout against another checkout, in one process.

For one workload seed it builds the problems of perfbench's `segment-large`
(the 256 x 256 image, one solve), `sbm-large` (the 4000-node block model,
one solve), `tiny-batch` (50 small solves) and `paper-experiments` (the
100-node chain and the seed's ten 200-node block models, 11 solves)
workloads, with each workload's iteration budget.  It loads the other
checkout's `src/nlasso` as a second package, checks that both give
bitwise the same x, y and iters_run on every problem, with no checks and
with a history row every CHECK_INTERVAL iterations (every float of each
row compared by its bits too), and only then times one round of each
side's solves, with no checks, after the other, alternating which side
goes first.  Per workload it prints how many of the solves take each flow
layout in this checkout (band, gather or scalar; see nlasso/solver.py),
then each side's median, quartiles and the number of rounds it won.

Running both sides in one process shares the host's drift between them,
which makes a small difference visible in fewer rounds than perfbench's
fresh-process runs; those stay the measure of record.

Usage: python tools/ab_run.py OTHER_CHECKOUT [--seed N] [--rounds N]
                              [--iters N] [--workload NAME ...]

--iters replaces every workload's iteration budget (for a quick check); it
must be at least 1.
perfbench/ is only read: its workloads generate the inputs.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import nlasso  # noqa: E402
import workloads  # noqa: E402
from nlasso import cli, solver  # noqa: E402

WORKLOADS = ("segment-large", "sbm-large", "tiny-batch", "paper-experiments")
# iterations between the history rows of the bitwise check, or every
# iteration under a smaller budget; no gap stop, so every row is compared
CHECK_INTERVAL = 50
LAYOUTS = {solver._BandKernel: "band", solver._Kernel: "gather", solver._ScalarKernel: "scalar"}


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


def problems(name: str, seed: int, workdir: Path) -> tuple[list, int]:
    """One workload's problems, built with this checkout, and its budget."""
    w = workloads.WORKLOADS[name](seed, workdir)
    w.setup()
    if name == "tiny-batch":
        return [p for p, _ in w.cases], w.ITERS
    if name == "paper-experiments":
        return [cli.chain_problem()] + [cli.sbm_problem(s)[0] for s in w.rng_seeds], w.ITERS
    if name == "segment-large":
        g = nlasso.grid_from_image(nlasso.read_pgm(w.image))
        seeds = nlasso.read_node_set(w.seeds, g.n)
    else:
        g = w.graph
        seeds = nlasso.read_node_set(workdir / "seeds.txt", g.n)
    return [nlasso.NLassoProblem(g, seeds, w.ALPHA, w.LAM)], w.ITERS


def port(module, p):
    """The problem p rebuilt with another nlasso package."""
    g = p.graph
    edges = np.column_stack((g.src + 1, g.dst + 1, g.weights))
    return module.NLassoProblem(module.build_graph(g.n, edges), p.seeds, p.alpha, p.lam)


def history_bits(res) -> list:
    """Each history row of a SolverResult with its floats as hex strings."""
    return [(h.r, *(float(v).hex() for v in h[1:])) for h in res.history]


def assert_same_results(name, sides):
    """Both sides' runs give bitwise the same x, y, iters_run and history,
    under their configs and with a history row every CHECK_INTERVAL
    iterations."""
    (run_a, probs_a, cfg_a), (run_b, probs_b, cfg_b) = sides
    interval = min(CHECK_INTERVAL, cfg_a.max_iters)
    for ca, cb in ((cfg_a, cfg_b), (replace(cfg_a, check_interval=interval),
                                    replace(cfg_b, check_interval=interval))):
        for k, (pa, pb) in enumerate(zip(probs_a, probs_b)):
            a, b = run_a(pa, ca), run_b(pb, cb)
            same = (a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
                    and a.iters_run == b.iters_run and history_bits(a) == history_bits(b))
            if not same:
                raise SystemExit(f"{name}: problem {k} differs between the checkouts")


def layout_counts(probs) -> str:
    """How many of the problems `run` steps in each layout, in this checkout."""
    kernels = [type(solver._kernel(p)) for p in probs]
    return ", ".join(f"{name} {kernels.count(cls)}" for cls, name in LAYOUTS.items())


def time_solves(run, probs, cfg) -> float:
    t0 = time.perf_counter()
    for p in probs:
        run(p, cfg)
    return time.perf_counter() - t0


def summary(times: list[float]) -> str:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return f"median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--iters", type=int, default=None)
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    if args.iters is not None and args.iters < 1:
        ap.error("--iters must be >= 1")
    other = load_nlasso(args.other.resolve(), "nlasso_other")
    print(f"this:  {ROOT}\nother: {args.other.resolve()}\nseed {args.seed}, "
          f"{args.rounds} rounds")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload:
            probs, iters = problems(name, args.seed, Path(tmp) / name)
            iters = args.iters or iters
            sides = [(nlasso.run, probs, nlasso.SolverConfig(max_iters=iters)),
                     (other.run, [port(other, p) for p in probs],
                      other.SolverConfig(max_iters=iters))]
            assert_same_results(name, sides)
            times = ([], [])
            for r in range(args.rounds):
                for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                    times[s].append(time_solves(*sides[s]))
            wins = (sum(a < b for a, b in zip(*times)), sum(b < a for a, b in zip(*times)))
            print(f"{name} ({len(probs)} solves x {iters} iterations, bitwise equal)")
            print(f"  layouts here: {layout_counts(probs)}")
            print(f"  this   {summary(times[0])}  wins {wins[0]}/{args.rounds}")
            print(f"  other  {summary(times[1])}  wins {wins[1]}/{args.rounds}")
            print(f"  median ratio this/other {np.median(times[0]) / np.median(times[1]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
