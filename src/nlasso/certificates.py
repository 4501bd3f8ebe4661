"""Cluster extraction and optimality certificates.

A primal-dual pair (x, y) is optimal exactly when the flow meets every
node's demand (x_i - 1 at seeds, alpha x_i elsewhere, both as net inflow),
respects the capacities lam W_e, and x is constant across every edge whose
flow is strictly below capacity.  kkt_residuals measures how far a pair is
from those conditions.

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
from dataclasses import asdict, dataclass

import numpy as np

from . import graph as gc
from .errors import SeedsOutsideCluster
from .objectives import NLassoProblem


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


class _Report:
    """Base of the reports: `as_lines` writes one line per field, in field order."""

    def as_lines(self) -> list[str]:
        return _key_value_lines(asdict(self))


@dataclass(frozen=True)
class KKTReport(_Report):
    """Residuals of the four optimality conditions.

    seed_demand_residual and nonseed_demand_residual are max norms of the
    flow-demand equations; capacity_ok reports the closed capacity
    constraint; nonsaturated_jump is the largest |x_i - x_j| over edges with
    |y_e| < lam W_e (1 - eps_sat), where the signal must be constant.
    """

    seed_demand_residual: float
    nonseed_demand_residual: float
    capacity_ok: bool
    nonsaturated_jump: float
    eps_sat: float

    @property
    def max_residual(self) -> float:
        return max(self.seed_demand_residual, self.nonseed_demand_residual,
                   self.nonsaturated_jump)


@dataclass(frozen=True)
class BoundaryConditionReport(_Report):
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
    out.  The threshold must be a finite real number.  When `seeds` is
    given, contains_seeds reports whether all of them made it in.
    """
    threshold = gc._real(threshold, "threshold")
    x = np.asarray(x, dtype=np.float64)
    ids = np.flatnonzero(x > threshold) + 1
    contains = None
    if seeds is not None:
        seeds = gc.as_node_ids(seeds, x.size)
        contains = bool(np.all(np.isin(seeds, ids)))
    return ClusterResult(cluster=ids, threshold=threshold, contains_seeds=contains)


def kkt_residuals(p: NLassoProblem, x, y_base, eps_sat: float = 1e-6) -> KKTReport:
    """Evaluate the optimality residuals of a primal-dual pair; 0 <= eps_sat < 1."""
    eps_sat = gc._real(eps_sat, "eps_sat", 0.0, math.nextafter(1.0, 0.0), "in [0, 1)")
    g = p.graph
    x = gc._as_signal(g, x)
    y = gc._as_base_flow(g, y_base)
    inflow = -gc.divergence(g, y)
    s = p.seed_mask
    seed_res = float(np.max(np.abs(inflow[s] - (x[s] - 1.0)))) if s.any() else 0.0
    non = ~s
    nonseed_res = float(np.max(np.abs(inflow[non] - p.alpha * x[non]))) if non.any() else 0.0
    cap = p.capacities
    capacity_ok = bool(np.all(np.abs(y) <= cap))
    loose = np.abs(y) < cap * (1.0 - eps_sat)
    if loose.any():
        jump = float(np.max(np.abs(x[g.src[loose]] - x[g.dst[loose]])))
    else:
        jump = 0.0
    return KKTReport(seed_res, nonseed_res, capacity_ok, jump, eps_sat)


def boundary_conditions(p: NLassoProblem, c: ClusterResult, x) -> BoundaryConditionReport:
    """Check the two boundary-weight conditions at the delivered signal.

    Requires the seeds to be contained in the cluster; both sums are taken
    at the provided iterate x, the signal the cluster was extracted from.
    """
    g = p.graph
    x = gc._as_signal(g, x)
    cluster = gc.as_node_ids(c.cluster, g.n)
    if not np.all(np.isin(p.seeds, cluster)):
        missing = p.seeds[~np.isin(p.seeds, cluster)]
        raise SeedsOutsideCluster(f"seed nodes {missing.tolist()} not in cluster")
    in_c = np.zeros(g.n, dtype=bool)
    in_c[cluster - 1] = True
    bw = _boundary_weight(g, cluster)
    lhs = p.lam * bw
    inner = in_c & ~p.seed_mask
    rhs_injecting = p.seeds.size - 0.5 * p.alpha * float(np.sum(x[inner]))
    rhs_absorbing = p.alpha * float(np.sum(x[~in_c]))
    return BoundaryConditionReport(
        boundary_weight=bw,
        lhs=lhs,
        rhs_injecting=rhs_injecting,
        rhs_absorbing=rhs_absorbing,
        holds_injecting=bool(lhs <= rhs_injecting),
        holds_absorbing=bool(lhs <= rhs_absorbing),
    )


def reach_bound_check(p: NLassoProblem, c: ClusterResult, max_outside: int) -> bool:
    """Coarse necessary condition lam * boundary_weight <= max_outside * alpha / 2.

    max_outside bounds how many nodes outside the cluster the updates can
    reach, a whole number >= 0.  An empty boundary passes for any bound.
    """
    max_outside = gc._whole(max_outside, "max_outside", low=0)
    bw = _boundary_weight(p.graph, c.cluster)
    return bool(p.lam * bw <= max_outside * p.alpha / 2.0)


def _boundary_weight(g, cluster) -> float:
    return float(np.sum(g.weights[gc.boundary(g, cluster)]))
