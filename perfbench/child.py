"""Run one workload in this process and print its figures as one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --workdir DIR \
        [--warmup K] [--passes N] [--seconds S] [--calibrate | --trace]

``run.py`` starts this script in a fresh process per measurement, with
nlasso's ``src`` on PYTHONPATH and BLAS/OpenMP threads capped.  Set-up
time runs from the start of this script, before nlasso is imported, to the
end of the workload's set-up.  After ``--warmup`` passes it runs passes
until ``--seconds`` have gone by and at least ``--passes`` were timed.
Every operation of every pass is checked.  With ``--calibrate`` the
calibration kernel runs after set-up and around every timed pass, so that
``run.py`` can scale the times to the reference speed.  With ``--trace``
untraced and traced passes alternate and the per-layer figures are
reported as well.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (imports numpy and nlasso)
from tracer import LAYERS, Totals, Tracer  # noqa: E402

# Computed, not measured, memory traffic of one solver iteration: per edge
# src, dst, cap, y read and written, two gathers of the extrapolated signal
# and two scatter-adds into the divergence (9 x 8 B); per node x, x_prev,
# the extrapolated signal, the divergence, gamma, shift, scale and the new
# x (8 x 8 B).
EDGE_BYTES = 72
NODE_BYTES = 64


def _primal_dual(n, src, dst, iters):
    """Iterations shaped like a graph primal-dual step: gather, clip, scatter-add."""
    np = workloads.np
    w = np.ones(len(src))
    cap = 0.5 * w
    x, x_prev, y = np.zeros(n), np.zeros(n), np.zeros(len(src))
    shift = np.zeros(n)
    shift[0] = 1.0
    for _ in range(iters):
        xbar = 2.0 * x - x_prev
        y = np.clip(y + 0.5 * w * (xbar[src] - xbar[dst]), -cap, cap)
        div = np.bincount(src, weights=y, minlength=n) - np.bincount(dst, weights=y, minlength=n)
        x_prev, x = x, (x - 0.5 * div + shift) * 0.9
    return x


def calibration_s() -> float:
    """Seconds of a fixed computation that runs no nlasso code.

    On a host shared with other tenants a VM's speed can drift by a quarter
    and more within minutes; this computation slows with it.  It mixes
    what the workloads spend their time on: numpy calls on tiny arrays,
    primal-dual steps on a 5-node graph and on a random graph whose edge
    arrays exceed L2, streaming passes over an 8 MB array, and interpreter
    work.  Of the mixes tried, the sum of all five parts tracked the pass
    times of every workload best.
    """
    np = workloads.np
    t0 = time.perf_counter()
    a = np.arange(64.0)
    for _ in range(2000):
        a = np.minimum(a * 0.5 + 1.0, 3.0)
    _primal_dual(5, np.array([0, 1, 2, 3, 0]), np.array([1, 2, 3, 4, 2]), 1200)
    b = np.arange(1_000_000.0)
    for _ in range(25):
        b = b * 0.5 + 1.0
    rng = np.random.default_rng(0)
    _primal_dual(65536, rng.integers(0, 65536, 131072), rng.integers(0, 65536, 131072), 8)
    total = 0
    for i in range(150_000):
        total += i
    return time.perf_counter() - t0


def run_pass(wl, tracer=None):
    """Run every op once, in order; return (wall seconds, failure reasons)."""
    results = [None] * len(wl.ops)
    t0 = time.perf_counter()
    with tracer.span("bench.pass") if tracer else nullcontext():
        for k, op in enumerate(wl.ops):
            if tracer:
                tracer.op = k
            try:
                results[k] = op()
            except Exception as exc:  # an op that raises is a failed op
                results[k] = exc
    wall = time.perf_counter() - t0
    try:
        verdicts = wl.check(results)
    except Exception as exc:  # unreadable outputs fail every op of the pass
        verdicts = [f"check raised {exc!r}"] * len(wl.ops)
    wl.clean()
    return wall, [v for v in verdicts if v is not None]


def layer_metrics(tracer, setup_range, setup_wall, passes, untraced_walls):
    """Per-layer figures for one traced set-up plus one traced pass.

    `passes` lists (span range, wall seconds) of the traced passes; sums
    over them are divided by their number.
    """
    spans = tracer.spans
    setup = Totals(spans, *setup_range)
    runs = [Totals(spans, lo, hi) for (lo, hi), _ in passes]
    k = len(runs)

    def unit(get):
        return get(setup) + sum(get(t) for t in runs) / k

    def calls(name):
        return unit(lambda t: t.calls.get(name, 0))

    def busy(name):
        return unit(lambda t: t.busy.get(name, 0.0))

    def self_s(name):
        return unit(lambda t: t.self_s.get(name, 0.0))

    def solver_sum(fn):
        return unit(lambda t: sum(fn(*i[:3]) for i in t.info.get("solver.run", ())))

    run_s = busy("solver.run")
    iters = solver_sum(lambda n, m, it: it)
    updates = solver_sum(lambda n, m, it: m * it)
    nbytes = solver_sum(lambda n, m, it: (EDGE_BYTES * m + NODE_BYTES * n) * it)
    built = unit(lambda t: sum(t.info.get("graph.build_graph", ())))
    build_s = busy("graph.build_graph")
    apply_calls = calls("baselines.laplacian_apply")
    gaps = [workloads.solution_residuals(i[3], i[4].x, i[4].y)[1]
            for t in (setup, runs[0]) for i in t.info.get("solver.run", ())]
    traced_walls = [w for _, w in passes]
    unit_wall = setup_wall + sum(traced_walls) / k

    def ratio(a, b, scale=1.0):
        return a / b * scale if b > 0 else 0.0

    m = {
        "solver.run.calls": calls("solver.run"),
        "solver.run.s": run_s,
        "solver.iters": iters,
        "solver.us_per_iter": ratio(run_s, iters, 1e6),
        "solver.edge_updates_per_s": ratio(updates, run_s),
        "solver.computed_bytes_per_iter": ratio(nbytes, iters),
        "solver.computed_GBps": ratio(nbytes, run_s, 1e-9),
        "graph.build_graph.s": build_s,
        "graph.build_graph.edges_per_s": ratio(built, build_s),
        "graph.read_edge_list.s": busy("graph.read_edge_list"),
        "graph.read_node_set.s": busy("graph.read_node_set"),
        "graph.is_connected.s": busy("graph.is_connected"),
        "generators.grid_from_image.self_s": self_s("generators.grid_from_image"),
        "generators.sbm_graph.self_s": self_s("generators.sbm_graph"),
        "generators.read_pgm.s": busy("generators.read_pgm"),
        "generators.write_pgm.s": busy("generators.write_pgm"),
        "generators.chain_graph.s": busy("generators.chain_graph"),
        "generators.sample_seeds.s": busy("generators.sample_seeds"),
        "objectives.duality_gap.calls": calls("objectives.duality_gap"),
        "objectives.duality_gap.s": busy("objectives.duality_gap"),
        "objectives.gap_per_seed": max(gaps, default=0.0),
        "certificates.extract_cluster.s": busy("certificates.extract_cluster"),
        "certificates.kkt_residuals.s": busy("certificates.kkt_residuals"),
        "certificates.boundary_conditions.s": busy("certificates.boundary_conditions"),
        "certificates.reach_bound_check.s": busy("certificates.reach_bound_check"),
        "baselines.fiedler_vector.s": busy("baselines.fiedler_vector"),
        "baselines.laplacian_apply.calls": apply_calls,
        "baselines.us_per_apply": ratio(busy("baselines.laplacian_apply"), apply_calls, 1e6),
        "cli.main.calls": calls("cli.main"),
        "cli.main.s": busy("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.output_bytes": unit(lambda t: sum(t.info.get("cli.main", ()))),
        # passes alternate untraced, traced: pair each traced pass with the one before it
        "trace.overhead_s": statistics.median(
            t - u for t, u in zip(traced_walls, untraced_walls)),
        "trace.wall_s": statistics.median(traced_walls),
        "trace.setup_s": setup_wall,
        # the part of set-up plus pass that no layer's span covers: the
        # benchmark's own code and whatever nlasso does outside the traced calls
        "trace.bench_own_s": self_s("bench.setup") + self_s("bench.pass"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = unit(
            lambda t: sum(v for name, v in t.self_s.items() if name.startswith(layer + ".")))
    m["trace.layers_frac"] = ratio(sum(m[f"layer.{layer}.self_s"] for layer in LAYERS),
                                   unit_wall)
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--calibrate", action="store_true")
    mode.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(workloads.nlasso.__file__).resolve().is_relative_to(src):
        print(f"child.py: imported nlasso from {workloads.nlasso.__file__}, not {src}",
              file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    with tracer.span("bench.setup") if tracer else nullcontext():
        wl.setup()
    setup_wall = time.perf_counter() - t0
    setup_s = time.perf_counter() - T0
    if tracer:
        setup_range = (0, len(tracer.spans))
        tracer.uninstall()
    if args.calibrate:
        setup_calibration = statistics.median(calibration_s() for _ in range(3))

    failures = []
    attempted = 0

    def one_pass(traced=False):
        nonlocal attempted
        if traced:
            tracer.install()
        lo = len(tracer.spans) if traced else 0
        wall, failed = run_pass(wl, tracer if traced else None)
        if traced:
            tracer.uninstall()
        attempted += len(wl.ops)
        failures.extend(failed)
        return wall, (lo, len(tracer.spans)) if traced else None

    for _ in range(args.warmup):
        one_pass()
    calibration = [calibration_s()] if args.calibrate else []
    walls, traced = [], []
    start = time.perf_counter()
    while len(walls) < args.passes or (args.seconds > 0 and time.perf_counter() - start < args.seconds):
        walls.append(one_pass()[0])
        if args.calibrate:
            calibration.append(calibration_s())
        if tracer is not None:
            wall, span_range = one_pass(traced=True)
            traced.append((span_range, wall))

    out = {
        "setup_s": setup_s,
        "pass_s": walls,
        "edge_updates": wl.edge_updates,
        "ops_per_pass": len(wl.ops),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": workloads.np.__version__,
    }
    if args.calibrate:
        out["setup_calibration_s"] = setup_calibration
        out["calibration_s"] = calibration
    if tracer is not None and traced:
        out["layers"] = layer_metrics(tracer, setup_range, setup_wall, traced, walls)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
