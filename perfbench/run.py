"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each workload runs as a closed loop
with one client, in fresh child processes (``child.py``) that import
nlasso from the checkout's ``src`` with BLAS/OpenMP threads capped at the
number of usable CPUs:

* ``--trace 0`` runs one child that sets up and runs a single pass (its
  peak RSS is ``peak_rss_mb``), SETUP_ONLY_CHILDREN children that only set
  up, and one measuring child that sets up, runs one warm-up pass and then
  times passes for ``--seconds``.  ``setup_s`` is the median set-up time of
  the last two kinds, ``wall_s`` the median pass time.  Both are scaled to
  the reference speed: each time is multiplied by REFERENCE_S over the
  calibration kernel's time next to it (``child.calibration_s``).
* ``--trace 1`` runs one child that alternates untraced and traced passes
  for ``--seconds`` and reports the per-layer figures.

Metric names and units come from BENCHMARK.json.  The last line of stdout
is the JSON result; the lines before it give the same figures for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 150
# set-up takes well under a second on the small workloads, so a few samples
# scatter widely on a shared machine; their median needs more of them
SETUP_ONLY_CHILDREN = 7
# Seconds the calibration kernel takes at the reference speed, about its
# time on an idle 2-vCPU x86_64 VM at 2.1 GHz.  Timed metrics are scaled by
# REFERENCE_S / (measured kernel seconds), which removes most of the drift
# of a shared host's speed; the unscaled figures are printed as well.
REFERENCE_S = 0.1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


CHILD_ENV = child_env()


def run_child(args, workdir: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *flags]
    try:
        proc = subprocess.run(cmd, env=CHILD_ENV, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child timed out after {exc.timeout} s: {' '.join(flags)}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
    shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(lines[-1])


def measure(args, workdir: Path) -> tuple[dict, dict, list[dict]]:
    """Run the children for one result.

    Returns the metric values, the unscaled times behind them and the
    child reports.
    """
    if args.trace:
        traced = run_child(args, workdir / "trace", "--trace", "--warmup", "1",
                           "--passes", "2", "--seconds", str(args.seconds))
        return traced["layers"], {}, [traced]
    # no calibration here: its arrays would add to the peak RSS
    single = run_child(args, workdir / "single", "--passes", "1")
    setups = [run_child(args, workdir / f"setup{k}", "--calibrate")
              for k in range(SETUP_ONLY_CHILDREN)]
    main = run_child(args, workdir / "main", "--calibrate", "--warmup", "1", "--passes", "3",
                     "--seconds", str(args.seconds))
    cal = main["calibration_s"]  # one before the first pass and one after each
    wall = statistics.median(t * REFERENCE_S / ((a + b) / 2)
                             for t, a, b in zip(main["pass_s"], cal, cal[1:]))
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] * REFERENCE_S / r["setup_calibration_s"]
                                     for r in [*setups, main]),
        "edge_updates_per_s": main["edge_updates"] / wall,
        "peak_rss_mb": single["peak_rss_mb"],
    }
    unscaled = {
        "wall_s": statistics.median(main["pass_s"]),
        "setup_s": statistics.median(r["setup_s"] for r in [*setups, main]),
        "calibration_s": statistics.median(cal),
    }
    return values, unscaled, [single, *setups, main]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "nlasso" / "__init__.py").is_file():
        print(f"run.py: no nlasso sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        values, unscaled, reports = measure(args, workdir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    main_report = reports[-1]
    env = {
        "machine": platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": main_report["numpy"],
        "threads": {var: CHILD_ENV[var] for var in THREAD_VARS},
    }
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    print(f"# passes timed: {len(main_report['pass_s'])}, "
          f"ops per pass: {main_report['ops_per_pass']}")
    if unscaled:
        print(f"# unscaled {json.dumps(unscaled)} (reference {REFERENCE_S} s)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"failed_frac = {failed / max(attempted, 1)!r} ({failed} of {attempted} ops)")
    for reason in (r for rep in reports for r in rep["failures"]):
        print(f"# failure: {reason}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
