"""Run every workload, print every metric with its unit, save the results.

    python3 perfbench/report.py [--seeds 1 2 3 | --held-out] [--out FILE]

For each workload and seed it runs ``run.py --trace 0`` for BENCHMARK.json's
``run_seconds`` and prints, per end-to-end metric, the median over the
seeds, the quartiles and their distance as a share of the median (the spread that the metric's bound in
BENCHMARK.json is compared with), plus ``failed_frac`` and the unscaled
times with the calibration kernel's own time.  It then runs
``run.py --trace 1`` once per workload on the first seed and prints the
per-layer figures.  ``--out`` writes all
of it, with the machine and versions, as JSON.

Seeds 1-10 are the development seeds.  ``--held-out`` uses HELD_OUT_SEED
instead: keep it out of the work on a change and re-check the change's
claim on it before landing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 7919


def comment(lines: list[str], tag: str) -> dict:
    """The JSON object that follows ``# <tag> `` on a line of run.py's output."""
    for line in lines:
        if line.startswith(f"# {tag} "):
            return json.JSONDecoder().raw_decode(line[len(tag) + 3:])[0]
    return {}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]), lines


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED} instead of --seeds")
    parser.add_argument("--out", type=Path, help="write the results as JSON here")
    args = parser.parse_args()
    seeds = [HELD_OUT_SEED] if args.held_out else args.seeds

    seconds = spec["run_seconds"]
    results = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in names:
        runs, unscaled = [], []
        for seed in seeds:
            print(f"[{name} seed {seed}]", file=sys.stderr, flush=True)
            run, lines = run_once(name, seed, seconds, 0)
            runs.append(run)
            unscaled.append(comment(lines, "unscaled"))
        results["env"] = comment(lines, "env")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"failed_frac": failed / attempted, "attempted": attempted, "end_to_end": {},
                 "unscaled": {key: spread([u[key] for u in unscaled]) for key in unscaled[0]}}
        print(f"\n== {name}  ({len(seeds)} run(s) of {seconds:g} s)")
        print(f"{'metric':<24}{'unit':<7}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            s = spread(values)
            entry["end_to_end"][metric["name"]] = {"unit": metric["unit"], **s}
            print(f"{metric['name']:<24}{metric['unit']:<7}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.3f}{metric['bound']:>7}")
        print(f"{'failed_frac':<24}{'1':<7}{entry['failed_frac']:>14.6g}"
              f"   ({failed} of {attempted} ops)")
        for key, s in entry["unscaled"].items():
            print(f"{'unscaled ' + key:<24}{'s':<7}{s['median']:>14.6g}{s['q1']:>14.6g}"
                  f"{s['q3']:>14.6g}{s['spread']:>9.3f}")
        print(f"[{name} traced, seed {seeds[0]}]", file=sys.stderr, flush=True)
        traced, _ = run_once(name, seeds[0], seconds, 1)
        entry["per_layer"] = traced["metrics"]
        print(f"-- per layer (traced, seed {seeds[0]})")
        for key, metric in traced["metrics"].items():
            print(f"   {key:<36}{metric['value']:>16.6g} {metric['unit']}")
        results["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
