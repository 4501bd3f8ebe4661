"""Cluster extraction and optimality certificates.

A primal-dual pair (x, y) is optimal exactly when the flow meets every
node's demand (x_i - 1 at seeds, alpha x_i elsewhere, both as net inflow),
respects the capacities lam W_e, x is constant across every edge whose
flow is strictly below capacity, and every flow at capacity runs from the
edge's higher end to its lower, y_e (x_i - x_j) >= 0.  kkt_residuals
measures how far a pair is from those conditions.

For a cluster C containing the seeds S, two necessary conditions relate
the penalty to the boundary weight.  At the optimum every edge leaving C
carries its full capacity outward, so lam * boundary_weight is the net
outflow of C: the seeds inject sum_{s in S} (1 - x_s) <= |S| and the
non-seed nodes of C absorb alpha * sum_{i in C minus S} x_i, which gives
lam * boundary_weight <= |S| - (alpha/2) * sum_{i in C minus S} x_i; and
the outside absorbs alpha * sum_{i not in C} x_i.  Replacing the outside
sum by an upper bound U on the number of reachable outside nodes (each
below the 1/2 threshold) gives the coarser reach bound
lam * boundary_weight <= U alpha / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as gc
from .errors import SeedsOutsideCluster
from .objectives import NLassoProblem, conjugate_g_feasible


@dataclass(frozen=True)
class ClusterResult:
    """Nodes whose signal value strictly exceeds the threshold."""

    cluster: np.ndarray
    threshold: float
    contains_seeds: bool | None = None


def _format_value(value) -> str:
    """A value as certificate files write it: a bool as true/false, else its repr."""
    return str(value).lower() if isinstance(value, bool) else repr(value)


def _key_value_lines(values: dict) -> list[str]:
    """One `key = value` line per item, in order."""
    return [f"{key} = {_format_value(value)}" for key, value in values.items()]


@dataclass(frozen=True)
class KKTReport:
    """Residuals of the four optimality conditions.

    seed_demand_residual and nonseed_demand_residual are max norms of the
    flow-demand equations; capacity_ok reports the closed capacity
    constraint; nonsaturated_jump is the largest |x_i - x_j| over edges with
    |y_e| < lam W_e (1 - eps_sat), where the signal must be constant, and
    the largest jump against the flow, max(0, -sign(y_e) (x_i - x_j)), over
    the other edges, whose flow must run from the higher end to the lower.
    max_residual is the largest of the three residuals, or NaN if any is.
    """

    seed_demand_residual: float
    nonseed_demand_residual: float
    capacity_ok: bool
    nonsaturated_jump: float
    eps_sat: float

    @property
    def max_residual(self) -> float:
        return float(np.max((self.seed_demand_residual, self.nonseed_demand_residual,
                             self.nonsaturated_jump)))


@dataclass(frozen=True)
class BoundaryConditionReport:
    """Necessary-condition slacks for a delivered cluster."""

    boundary_weight: float
    lhs: float
    rhs_injecting: float
    rhs_absorbing: float
    holds_injecting: bool
    holds_absorbing: bool


def extract_cluster(x, threshold: float = 0.5, seeds=None) -> ClusterResult:
    """Threshold a node signal into a cluster.

    Strict inequality: nodes with x_i exactly equal to the threshold stay
    out.  The signal x is 1-d, and the threshold a finite real number.
    When `seeds` is given, contains_seeds reports whether all of them made
    it in.
    """
    threshold = gc._real(threshold, "threshold")
    x = gc._as_vector(x)
    above = x > threshold
    contains = None
    if seeds is not None:
        contains = bool(above[gc.as_node_ids(seeds, x.size) - 1].all())
    return ClusterResult(cluster=np.flatnonzero(above) + 1, threshold=threshold,
                         contains_seeds=contains)


def kkt_residuals(p: NLassoProblem, x, y_base, eps_sat: float = 1e-6) -> KKTReport:
    """Evaluate the optimality residuals of a primal-dual pair; 0 <= eps_sat < 1."""
    eps_sat = gc._real(eps_sat, "eps_sat", 0.0, math.nextafter(1.0, 0.0), "in [0, 1)")
    g = p.graph
    x = gc._as_vector(x, g.n)
    y = gc._as_vector(y_base, g.num_edges, "edge flow")
    inflow = -gc.divergence(g, y)
    s = p.seed_mask
    seed_res = float(np.max(np.abs(inflow[s] - (x[s] - 1.0))))
    non = ~s
    nonseed_res = float(np.max(np.abs(inflow[non] - p.alpha * x[non]))) if non.any() else 0.0
    cap = p.capacities
    capacity_ok = conjugate_g_feasible(p, y)
    loose = np.abs(y) < cap * (1.0 - eps_sat)
    dx = x[g.src] - x[g.dst]
    # x is constant across a loose edge, and no other flow runs against the
    # signal: y_e (x_i - x_j) >= 0
    jump = np.where(loose, np.abs(dx), np.maximum(-np.sign(y) * dx, 0.0))
    jump = float(np.max(jump, initial=0.0))
    return KKTReport(seed_res, nonseed_res, capacity_ok, jump, eps_sat)


def boundary_conditions(p: NLassoProblem, c: ClusterResult, x) -> BoundaryConditionReport:
    """Check the two boundary-weight conditions at the delivered signal.

    Requires the seeds to be contained in the cluster; both sums are taken
    at the provided iterate x, the signal the cluster was extracted from.
    The absorbing condition is an equality at the optimum, so it holds
    within the rounding of its two sums: (k + 2) eps (lhs + alpha
    sum_{i not in C} |x_i|), with k the number of boundary edges plus
    outside nodes.
    """
    g = p.graph
    x = gc._as_vector(x, g.n)
    in_c = gc._node_mask(c.cluster, g.n)
    if not (seeds_in := in_c[p.seeds - 1]).all():
        raise SeedsOutsideCluster(f"seed nodes {p.seeds[~seeds_in].tolist()} not in cluster")
    bw = _boundary_weight(g, in_c)
    lhs = p.lam * bw
    inner = in_c & ~p.seed_mask
    rhs_injecting = p.seeds.size - 0.5 * p.alpha * float(np.sum(x[inner]))
    outside = x[~in_c]
    rhs_absorbing = p.alpha * float(np.sum(outside))
    k = np.count_nonzero(in_c[g.src] != in_c[g.dst]) + outside.size
    rounding = (k + 2) * np.finfo(float).eps \
        * (lhs + p.alpha * float(np.sum(np.abs(outside))))
    return BoundaryConditionReport(
        boundary_weight=bw,
        lhs=lhs,
        rhs_injecting=rhs_injecting,
        rhs_absorbing=rhs_absorbing,
        holds_injecting=bool(lhs <= rhs_injecting),
        holds_absorbing=bool(lhs <= rhs_absorbing + rounding),
    )


def reach_bound_check(p: NLassoProblem, c: ClusterResult, max_outside: int) -> bool:
    """Coarse necessary condition lam * boundary_weight <= max_outside * alpha / 2.

    max_outside, a whole number from 0 to the largest float, bounds how many
    outside nodes the updates can reach.  An empty boundary passes any bound.
    """
    max_outside = gc._whole(max_outside, "max_outside", low=0)
    if max_outside > gc._MAX:  # the bound multiplies it by a float
        raise ValueError(f"max_outside must be at most {gc._MAX:g}")
    bw = _boundary_weight(p.graph, gc._node_mask(c.cluster, p.graph.n))
    return bool(p.lam * bw <= max_outside * p.alpha / 2.0)


def _boundary_weight(g, mask) -> float:
    """Total weight of the edges whose endpoints `mask` puts on different sides."""
    return float(np.sum(g.weights[mask[g.src] != mask[g.dst]]))
