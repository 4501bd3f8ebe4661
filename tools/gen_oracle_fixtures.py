#!/usr/bin/env python3
"""Regenerate tests/frozen_oracle.py.

Builds the 25 pinned benchmark instances (random connected graphs on 2..6
nodes, weights in [0.5, 2], one random seed node, alpha and lambda cycling
a 3 x 2 grid), runs the independent subgradient oracle for 10^6 steps on
each, and writes the instances together with the oracle optima as a
literal Python module, so the acceptance tests never depend on RNG stream
stability.

Every oracle value is checked here against the exact optimum of
tests/oracle.py before being frozen; the script aborts if any value is
further from it than GUARD.

Usage: python tools/gen_oracle_fixtures.py [--check]
    --check   re-derive everything and compare with the committed file
              instead of rewriting it.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from nlasso import NLassoProblem, build_graph  # noqa: E402
from oracle import exact_optimum, random_connected_graph, subgradient_minimize  # noqa: E402

N_INSTANCES = 25
RNG_SEED = 20240
ORACLE_STEPS = 10 ** 6
GUARD = 8e-5

ALPHAS = (0.01, 0.1, 1.0)
LAMBDAS = (0.05, 0.5)


def make_instances():
    rng = np.random.default_rng(RNG_SEED)
    grid = [(a, l) for a in ALPHAS for l in LAMBDAS]
    instances = []
    for k in range(N_INSTANCES):
        n = int(rng.integers(2, 7))
        g = random_connected_graph(n, rng)
        alpha, lam = grid[k % len(grid)]
        seed = int(rng.integers(1, n + 1))
        instances.append({
            "n": n,
            "edges": [(int(i), int(j), float(w))
                      for i, j, w in zip(g.src + 1, g.dst + 1, g.weights)],
            "seed": seed,
            "alpha": alpha,
            "lam": lam,
        })
    return instances


def derive(instances):
    rows = []
    for k, inst in enumerate(instances):
        g = build_graph(inst["n"], inst["edges"])
        p = NLassoProblem(g, [inst["seed"]], inst["alpha"], inst["lam"])
        t0 = time.time()
        x_oracle = subgradient_minimize(p, ORACLE_STEPS)
        elapsed = time.time() - t0
        err = float(np.max(np.abs(x_oracle - exact_optimum(p)[0])))
        if err > GUARD:
            raise SystemExit(f"instance {k}: oracle vs exact error {err:.2e} exceeds {GUARD:.0e}")
        print(f"[{k:2d}] n={inst['n']} m={g.num_edges} alpha={inst['alpha']:<4} "
              f"lam={inst['lam']:<4} {elapsed:5.1f}s  exact={err:.1e}")
        rows.append(x_oracle)
    return rows


def render(instances, rows) -> str:
    lines = [
        '"""Frozen oracle optima for the pinned benchmark instances.',
        "",
        "Generated by tools/gen_oracle_fixtures.py; regenerate with that",
        "script rather than editing.  Each entry pins one instance (graph,",
        "seed node, penalties) and the optimum computed by the independent",
        "subgradient oracle in tests/oracle.py (10^6 steps).",
        '"""',
        "",
        "INSTANCES = [",
    ]
    for inst, x in zip(instances, rows):
        lines.append("    {")
        lines.append(f"        \"n\": {inst['n']},")
        lines.append(f"        \"edges\": {inst['edges']!r},")
        lines.append(f"        \"seed\": {inst['seed']},")
        lines.append(f"        \"alpha\": {inst['alpha']!r},")
        lines.append(f"        \"lam\": {inst['lam']!r},")
        lines.append(f"        \"x_star\": {[float(v) for v in x]!r},")
        lines.append("    },")
    lines.append("]")
    lines.append("")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify the committed fixture file instead of writing")
    args = parser.parse_args()
    instances = make_instances()
    rows = derive(instances)
    target = ROOT / "tests" / "frozen_oracle.py"
    text = render(instances, rows)
    if args.check:
        committed = target.read_text(encoding="utf-8")
        sys.path.insert(0, str(ROOT / "tests"))
        import frozen_oracle
        worst = 0.0
        for entry, x_new in zip(frozen_oracle.INSTANCES, rows):
            worst = max(worst, float(np.max(np.abs(np.asarray(entry["x_star"]) - x_new))))
        print(f"max drift vs committed file: {worst:.2e}")
        if committed != text:
            print("note: file text differs (drift above quantifies the values)")
        return 0
    target.write_text(text, encoding="utf-8", newline="\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
