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
functions of the inputs, byte for byte, independent of --workers.
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
from .errors import (
    CountTooLarge,
    DimensionMismatch,
    DuplicateEdge,
    InvalidEdge,
    InvalidNode,
    InvalidOverride,
    InvalidWeight,
    NLassoError,
    PgmError,
)

_INPUT_ERRORS = (InvalidNode, InvalidEdge, DuplicateEdge, InvalidWeight,
                 InvalidOverride, CountTooLarge, PgmError, DimensionMismatch,
                 FileNotFoundError, IsADirectoryError, PermissionError, ValueError)
_RUNTIME_ERRORS = (NLassoError, OSError)

CHAIN_N = 100
CHAIN_DEFAULT_W = 5.0 / 4.0
CHAIN_SPECIAL_EDGE = 4
CHAIN_SPECIAL_W = 1.0
CHAIN_ALPHA = 1.0 / 200.0
CHAIN_LAMBDA = 2.0 / 10.0
CHAIN_ITERS = 1000
CHAIN_SEED_NODE = 1
CHAIN_CSV_NODES = 20
CHAIN_REACH_BOUND = 80

SBM_BLOCK = 100
SBM_P_IN = 1.0 / 5.0
SBM_P_OUT = 1.0 / 100.0
SBM_SEED_COUNT = 20
SBM_ALPHA = 1.0 / 40.0
SBM_LAMBDA = 1.0 / 200.0
SBM_ITERS = 1000


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _signal_csv_lines(x, limit: int | None = None):
    stop = len(x) if limit is None else min(limit, len(x))
    yield "i,x"
    for i in range(stop):
        yield f"{i + 1},{float(x[i])!r}"


def _certificate_lines(problem, result, cluster, reach_bound=None):
    report = cert.kkt_residuals(problem, result.x, result.y)
    lines = [
        f"alpha = {problem.alpha!r}",
        f"lambda = {problem.lam!r}",
        f"iterations = {result.iters_run}",
        f"threshold = {cluster.threshold!r}",
        f"cluster_size = {cluster.cluster.size}",
        f"duality_gap = {obj.duality_gap(problem, result.x, result.y)!r}",
    ]
    lines += report.as_lines()
    if cluster.contains_seeds:
        cond = cert.boundary_conditions(problem, cluster, result.x)
        lines += cond.as_lines()
        if reach_bound is not None:
            holds = cert.reach_bound_check(problem, cluster, reach_bound)
            lines.append(f"reach_bound_max_outside = {int(reach_bound)}")
            lines.append(f"reach_bound_holds = {str(holds).lower()}")
    else:
        lines.append("seeds_in_cluster = false")
    return lines


def _parse_manifest(path: Path) -> dict:
    values = {}
    for lineno, line in gc._text_lines(path):
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
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
        if key in manifest:
            return convert(manifest[key])
        return default

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
    cert._check_threshold(threshold)
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
    g = gen.chain_graph(CHAIN_N, CHAIN_DEFAULT_W,
                        [(CHAIN_SPECIAL_EDGE, CHAIN_SPECIAL_W)])
    problem = obj.NLassoProblem(g, [CHAIN_SEED_NODE], CHAIN_ALPHA, CHAIN_LAMBDA)
    out = Path(args.out)
    result, cluster = _solve(problem, CHAIN_ITERS, 0.5, out)
    fiedler = baselines.fiedler_vector(g, baselines.NORMALIZED, tol=1e-10)
    _write_lines(out / "nLassoChain.csv", _signal_csv_lines(result.x, CHAIN_CSV_NODES))
    _write_lines(out / "FiedlerChain.csv", _signal_csv_lines(fiedler, CHAIN_CSV_NODES))
    gc.write_node_set(out / "cluster.txt", cluster.cluster)
    _write_lines(out / "certificates.txt",
                 _certificate_lines(problem, result, cluster,
                                    reach_bound=CHAIN_REACH_BOUND))
    return 0


def _cmd_sbm_experiment(args) -> int:
    spec = gen.SbmSpec((SBM_BLOCK, SBM_BLOCK), SBM_P_IN, SBM_P_OUT,
                       rng_seed=args.rng_seed)
    g, blocks = gen.sbm_graph(spec)
    seeds = gen.sample_seeds(blocks[0], SBM_SEED_COUNT, rng_seed=args.rng_seed)
    problem = obj.NLassoProblem(g, seeds, SBM_ALPHA, SBM_LAMBDA)
    out = Path(args.out)
    result, cluster = _solve(problem, SBM_ITERS, 0.5, out)
    in_cluster = np.zeros(g.n, dtype=bool)
    in_cluster[cluster.cluster - 1] = True
    in_block = np.zeros(g.n, dtype=bool)
    in_block[blocks[0] - 1] = True
    accuracy = float(np.mean(in_cluster == in_block))
    _write_lines(out / "signal.csv", _signal_csv_lines(result.x))
    gc.write_node_set(out / "cluster.txt", cluster.cluster)
    _write_lines(out / "accuracy.txt", [
        f"rng_seed = {args.rng_seed}",
        f"accuracy = {accuracy!r}",
        f"cluster_size = {cluster.cluster.size}",
    ])
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
            p.add_argument("--threshold", type=float, default=0.5,
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
    p_seg.set_defaults(func=_cmd_segment, alpha=1.0 / 200.0, lam=0.2, iters=1000)

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
