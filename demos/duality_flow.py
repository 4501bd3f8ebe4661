#!/usr/bin/env python3
"""The flow picture behind the clustering objective.

The dual of the seeded TV problem is a minimum cost flow: seeds inject
flow, every other node leaks alpha * x_i, and each edge carries at most
lam * W_e.  The signal can only jump across edges whose flow sits exactly
at capacity, so saturated edges trace the cluster boundary.
"""

import numpy as np

from nlasso import (
    NLassoProblem,
    SolverConfig,
    build_graph,
    conjugate_f,
    conjugate_g_feasible,
    divergence,
    duality_gap,
    kkt_residuals,
    primal_objective,
    run,
    total_variation,
)

# two triangles joined by one bridge edge; the seed sits in the left one
graph = build_graph(6, [
    (1, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0),
    (3, 4, 0.5),                            # the bridge
    (4, 5, 1.0), (4, 6, 1.0), (5, 6, 1.0),
])
problem = NLassoProblem(graph, seeds=[1], alpha=0.05, lam=0.1)

result = run(problem, SolverConfig(max_iters=20000))
x, y = result.x, result.y

print("node signal:", np.round(x, 4))
print("edge flows :", np.round(y, 4))
print("capacities :", np.round(problem.capacities, 4))

saturated = np.isclose(np.abs(y), problem.capacities)
for e, (i, j) in enumerate(graph.edges):
    jump = abs(x[i - 1] - x[j - 1])
    print(f"  edge ({i},{j}): flow {y[e]:+.4f} cap {problem.capacities[e]:.2f} "
          f"saturated={bool(saturated[e])} jump={jump:.4f}")

# each node's demand is met by its net outflow divergence(y)_i, so the
# flow conserves by construction; feasibility is the capacity bound alone
out = divergence(graph, y)
print("flow within capacities:", conjugate_g_feasible(problem, y))

primal = primal_objective(problem, x)
print(f"primal value {primal:.6f}  (fit + lam * TV, TV = "
      f"{total_variation(graph, x):.4f})")
print(f"dual value   {-conjugate_f(problem, -out):.6f}  (-f*(-div y), equal "
      f"to the primal at the optimum)")
print(f"duality gap {duality_gap(problem, x, y):.2e}")

kkt = kkt_residuals(problem, x, y)
print(f"demand residuals: seed {kkt.seed_demand_residual:.2e}, "
      f"other {kkt.nonseed_demand_residual:.2e}; "
      f"jump on slack edges {kkt.nonsaturated_jump:.2e}")

# net outflow at the seed equals what the rest of the graph absorbs
print(f"seed outflow {out[0]:.4f} vs absorbed "
      f"{problem.alpha * float(np.sum(x[1:])):.4f}")
