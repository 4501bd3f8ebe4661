"""Command line front end.

Subcommands
-----------
solve              load an edge-list graph and a seed file, run the solver,
                   write signal.csv, cluster.txt and certificates.txt
chain-experiment   weighted 100-node chain benchmark; writes
                   nLassoChain.csv, FiedlerChain.csv and certificates.txt
sbm-experiment     two-block stochastic block model recovery; writes
                   signal.csv, cluster.txt and accuracy.txt
segment            greyscale PGM segmentation; writes mask.pgm and
                   signal.csv

Exit codes: 0 success, 2 for input or validation errors, 3 for runtime
failures (for example an isolated node).  All outputs are deterministic
functions of the inputs, byte for byte, independent of --workers.  Each
output file is written to a temp file in the output directory and moved
into place when complete, so a failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import baselines, certificates as cert, generators as gen
from . import graph as gc
from . import objectives as obj
from . import solver as slv
from .errors import NLassoError

# every input error of the package is a ValueError
_INPUT_ERRORS = (ValueError, FileNotFoundError, IsADirectoryError, PermissionError)
_RUNTIME_ERRORS = (NLassoError, OSError)

EXPERIMENT_ITERS = 1000
CHAIN_CSV_NODES = 20
CHAIN_REACH_BOUND = 80


def chain_problem() -> obj.NLassoProblem:
    """The chain experiment: a 100-node path with weight 5/4 on every edge
    but {4, 5}, which has weight 1, seed node 1, alpha 1/200, lambda 2/10."""
    g = gen.chain_graph(100, 5.0 / 4.0, [(4, 1.0)])
    return obj.NLassoProblem(g, [1], 1.0 / 200.0, 2.0 / 10.0)


def sbm_problem(rng_seed: int):
    """The block-model experiment for one rng seed: (problem, blocks).

    Two 100-node blocks with edge probabilities 1/5 inside and 1/100
    across, 20 seeds drawn from the first block, alpha 1/40, lambda 1/200.
    """
    g, blocks = gen.sbm_graph(gen.SbmSpec((100, 100), 1.0 / 5.0, 1.0 / 100.0,
                                          rng_seed=rng_seed))
    seeds = gen.sample_seeds(blocks[0], 20, rng_seed=rng_seed)
    return obj.NLassoProblem(g, seeds, 1.0 / 40.0, 1.0 / 200.0), blocks


def _write_lines(path: Path, lines) -> None:
    with gc._atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _signal_csv_lines(x, limit: int | None = None):
    yield "i,x"
    x = x[:limit]
    # tolist() a chunk at a time: fast, without a Python float per node at once
    for lo in range(0, x.size, 4096):
        for i, value in enumerate(x[lo:lo + 4096].tolist(), start=lo + 1):
            yield f"{i},{value!r}"


def _certificate_lines(problem, result, cluster, reach_bound=None):
    lines = cert._key_value_lines({
        "alpha": problem.alpha,
        "lambda": problem.lam,
        "iterations": result.iters_run,
        "threshold": cluster.threshold,
        "cluster_size": cluster.cluster.size,
        "duality_gap": obj.duality_gap(problem, result.x, result.y),
    })
    lines += cert.kkt_residuals(problem, result.x, result.y).as_lines()
    if not cluster.contains_seeds:
        return lines + cert._key_value_lines({"seeds_in_cluster": False})
    lines += cert.boundary_conditions(problem, cluster, result.x).as_lines()
    if reach_bound is not None:
        lines += cert._key_value_lines({
            "reach_bound_max_outside": reach_bound,
            "reach_bound_holds": cert.reach_bound_check(problem, cluster, reach_bound),
        })
    return lines


def _parse_manifest(path: Path) -> dict:
    """Each key of a `key = value` manifest, mapped to (line number, value)."""
    values = {}
    for lineno, line in gc._text_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key `{key}`")
        values[key] = lineno, value.strip()
    return values


def _solve_settings(args) -> dict:
    manifest = {}
    if args.manifest is not None:
        manifest = _parse_manifest(Path(args.manifest))
    known = {"graph", "seeds", "alpha", "lambda", "iters", "threshold", "out"}
    unknown = set(manifest) - known
    if unknown:
        raise ValueError(f"unknown manifest keys: {sorted(unknown)}")

    def pick(flag, key, convert, default=None):
        if flag is not None:
            return flag
        if key not in manifest:
            return default
        lineno, value = manifest[key]
        try:
            return convert(value)
        except ValueError as exc:
            raise ValueError(f"{Path(args.manifest)}:{lineno}: {key}: {exc}") from exc

    settings = {
        "graph": pick(args.graph, "graph", str),
        "seeds": pick(args.seeds, "seeds", str),
        "alpha": pick(args.alpha, "alpha", float),
        "lam": pick(args.lam, "lambda", float),
        "iters": pick(args.iters, "iters", int, 1000),
        "threshold": pick(args.threshold, "threshold", float, 0.5),
        "out": pick(args.out, "out", str),
    }
    for key in ("graph", "seeds", "alpha", "lam", "out"):
        if settings[key] is None:
            raise ValueError(f"missing required setting `{key.replace('lam', 'lambda')}`")
    return settings


def _solve(problem, iters: int, threshold: float, out: Path):
    """Run the solver and threshold its signal at `threshold`.

    Every setting is checked before `out` is created, so a rejected run
    leaves no output directory behind.  Returns (SolverResult, ClusterResult).
    """
    cfg = slv.SolverConfig(max_iters=iters)
    gc._real(threshold, "threshold")
    out.mkdir(parents=True, exist_ok=True)
    result = slv.run(problem, cfg)
    return result, cert.extract_cluster(result.x, threshold, seeds=problem.seeds)


def _cmd_solve(args) -> int:
    settings = _solve_settings(args)
    g = gc.read_edge_list(settings["graph"])
    seeds = gc.read_node_set(settings["seeds"], g.n)
    problem = obj.NLassoProblem(g, seeds, settings["alpha"], settings["lam"])
    out = Path(settings["out"])
    result, cluster = _solve(problem, settings["iters"], settings["threshold"], out)
    _write_lines(out / "signal.csv", _signal_csv_lines(result.x))
    gc.write_node_set(out / "cluster.txt", cluster.cluster)
    _write_lines(out / "certificates.txt", _certificate_lines(problem, result, cluster))
    return 0


def _cmd_chain_experiment(args) -> int:
    problem = chain_problem()
    out = Path(args.out)
    result, cluster = _solve(problem, EXPERIMENT_ITERS, 0.5, out)
    fiedler = baselines.fiedler_vector(problem.graph, baselines.NORMALIZED, tol=1e-10)
    _write_lines(out / "nLassoChain.csv", _signal_csv_lines(result.x, CHAIN_CSV_NODES))
    _write_lines(out / "FiedlerChain.csv", _signal_csv_lines(fiedler, CHAIN_CSV_NODES))
    gc.write_node_set(out / "cluster.txt", cluster.cluster)
    _write_lines(out / "certificates.txt",
                 _certificate_lines(problem, result, cluster,
                                    reach_bound=CHAIN_REACH_BOUND))
    return 0


def _cmd_sbm_experiment(args) -> int:
    problem, blocks = sbm_problem(args.rng_seed)
    g = problem.graph
    out = Path(args.out)
    result, cluster = _solve(problem, EXPERIMENT_ITERS, 0.5, out)
    in_cluster = np.zeros(g.n, dtype=bool)
    in_cluster[cluster.cluster - 1] = True
    in_block = np.zeros(g.n, dtype=bool)
    in_block[blocks[0] - 1] = True
    _write_lines(out / "signal.csv", _signal_csv_lines(result.x))
    gc.write_node_set(out / "cluster.txt", cluster.cluster)
    _write_lines(out / "accuracy.txt", cert._key_value_lines({
        "rng_seed": args.rng_seed,
        "accuracy": float(np.mean(in_cluster == in_block)),
        "cluster_size": cluster.cluster.size,
    }))
    return 0


def _cmd_segment(args) -> int:
    img = gen.read_pgm(args.image)
    g = gen.grid_from_image(img)
    seeds = gc.read_node_set(args.seeds, g.n)
    problem = obj.NLassoProblem(g, seeds, args.alpha, args.lam)
    out = Path(args.out)
    result, cluster = _solve(problem, args.iters, args.threshold, out)
    mask = np.zeros(g.n, dtype=np.uint8)
    mask[cluster.cluster - 1] = 255
    gen.write_pgm(out / "mask.pgm",
                  gen.GreyImage(img.width, img.height, mask))
    _write_lines(out / "signal.csv", _signal_csv_lines(result.x))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlasso",
        description="Local graph clustering around seed nodes by "
                    "total-variation minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_params=True):
        if with_params:
            p.add_argument("--alpha", type=float, default=None,
                           help="fidelity weight at non-seed nodes (> 0)")
            p.add_argument("--lambda", type=float, default=None, dest="lam",
                           help="total-variation penalty (> 0)")
            p.add_argument("--iters", type=int, default=None,
                           help="iteration count (default 1000)")
            p.add_argument("--threshold", type=float, default=None,
                           help="cluster extraction threshold (default 0.5)")
        p.add_argument("--workers", type=int, default=0,
                       help="worker count hint; results do not depend on it")
        p.add_argument("--out", type=str, required=False,
                       help="output directory")

    p_solve = sub.add_parser("solve", help="solve one instance from files")
    p_solve.add_argument("--graph", type=str, default=None,
                         help="edge-list file: `i j w` per line")
    p_solve.add_argument("--seeds", type=str, default=None,
                         help="seed file: one node id per line")
    p_solve.add_argument("--manifest", type=str, default=None,
                         help="key = value file supplying defaults for all flags")
    add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_chain = sub.add_parser("chain-experiment",
                             help="weighted chain benchmark with certificates")
    add_common(p_chain, with_params=False)
    p_chain.set_defaults(func=_cmd_chain_experiment)

    p_sbm = sub.add_parser("sbm-experiment",
                           help="two-block stochastic block model recovery")
    add_common(p_sbm, with_params=False)
    p_sbm.add_argument("--rng-seed", type=int, default=0, dest="rng_seed",
                       help="seed for randomized constructions")
    p_sbm.set_defaults(func=_cmd_sbm_experiment)

    p_seg = sub.add_parser("segment", help="segment a greyscale PGM image")
    p_seg.add_argument("image", type=str, help="input PGM file (P2 or P5)")
    p_seg.add_argument("--seeds", type=str, required=True,
                       help="seed file: one pixel node id per line")
    add_common(p_seg)
    p_seg.set_defaults(func=_cmd_segment, alpha=1.0 / 200.0, lam=0.2, iters=1000,
                       threshold=0.5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 0:
            raise ValueError(f"--workers must be >= 0, got {args.workers}")
        if args.command != "solve" and args.out is None:
            raise ValueError("missing required --out")
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"nlasso: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"nlasso: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
