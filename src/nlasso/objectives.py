"""Scalar functionals of the clustering problem.

The primal objective over node signals x is

    sum_{i in seeds} (x_i - 1)^2 / 2  +  sum_{i not in seeds} alpha x_i^2 / 2
        + lam * TV(x),

with TV(x) = sum_e W_e |x_i - x_j|.  Its dual lives on edge flows: base
edges carry capacities lam * W_e, and each node also owns an uncapacitated
star edge draining its net surplus to the star node.  A base flow y is
completed to a conserving augmented flow by setting the star component of
node i to divergence(y)_i; with that completion the minimization form of
the dual evaluates to |seeds| - 2 * (maximization form), so both layouts
rank flows identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph as gc
from .errors import DimensionMismatch, DualInfeasible, NotAugmented
from .graph import Graph


@dataclass(frozen=True)
class NLassoProblem:
    """One clustering instance: graph, one seed batch, and penalties.

    Parameters
    ----------
    graph : Graph
    seeds : array-like of int
        Non-empty set of 1-based seed node ids.
    alpha : float
        Fidelity weight at non-seed nodes; must be positive and finite so
        the signal decays to zero away from the seeds.
    lam : float
        Total-variation penalty; must be positive and finite.
    """

    graph: Graph
    seeds: np.ndarray
    alpha: float
    lam: float
    seed_mask: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seeds = gc.as_node_ids(self.seeds, self.graph.n)
        if seeds.size == 0:
            raise ValueError("seed set must be non-empty")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        mask = np.zeros(self.graph.n, dtype=bool)
        mask[seeds - 1] = True
        mask.flags.writeable = False
        seeds.flags.writeable = False
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "seed_mask", mask)

    @property
    def capacities(self) -> np.ndarray:
        """Per-edge flow capacity lam * W_e."""
        return self.lam * self.graph.weights


@dataclass(frozen=True)
class DualFeasibilityReport:
    """Flow feasibility diagnostics for an augmented flow."""

    conservation_residual: np.ndarray  # length n+1; last entry is the star node
    capacity_violation: np.ndarray     # length m, max(0, |y_e| - lam W_e)
    feasible: bool


def _as_augmented_flow(p: NLassoProblem, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    g = p.graph
    if y.shape != (g.num_edges + g.n,):
        raise NotAugmented(
            f"expected augmented flow of length {g.num_edges + g.n}, got shape {y.shape}")
    return y


def total_variation(g: Graph, x) -> float:
    """Weighted sum of absolute differences across the edges."""
    diffs = gc.incidence_apply(g, x)
    return float(np.sum(g.weights * np.abs(diffs)))


def laplacian_quadratic(g: Graph, x) -> float:
    """Weighted sum of squared differences across the edges."""
    diffs = gc.incidence_apply(g, x)
    return float(np.sum(g.weights * diffs * diffs))


def primal_objective(p: NLassoProblem, x) -> float:
    """Seed and non-seed quadratic fidelity plus lam * TV."""
    x = gc._as_signal(p.graph, x)
    s = p.seed_mask
    fit = 0.5 * float(np.sum((x[s] - 1.0) ** 2)) \
        + 0.5 * p.alpha * float(np.sum(x[~s] ** 2))
    return fit + p.lam * total_variation(p.graph, x)


def star_augmented_flow(g: Graph, y_base) -> np.ndarray:
    """Complete a base flow to a conserving augmented flow.

    The star edge of node i carries the node's net base outflow
    divergence(y)_i, which balances every base node exactly and sums to
    zero at the star node.
    """
    y_base = gc._as_base_flow(g, y_base)
    return np.concatenate((y_base, gc.divergence(g, y_base)))


def dual_objective(p: NLassoProblem, y_augmented) -> float:
    """Minimization-form dual value of an augmented flow.

    Evaluates sum_{i in seeds} (y_star_i - 1)^2 + (1/alpha) sum_{i not in
    seeds} y_star_i^2 on the star components.  Feasibility is not required.
    """
    y = _as_augmented_flow(p, y_augmented)
    star = y[p.graph.num_edges:]
    s = p.seed_mask
    return float(np.sum((star[s] - 1.0) ** 2)) \
        + float(np.sum(star[~s] ** 2)) / p.alpha


def dual_feasibility(p: NLassoProblem, y_augmented, tol: float = 0.0) -> DualFeasibilityReport:
    """Check conservation at every node (star included) and base capacities.

    Conservation at base node i means its star edge carries exactly the
    net base outflow; at the star node the star flows must sum to zero.
    Star edges are uncapacitated; capacity applies to base edges only.
    """
    y = _as_augmented_flow(p, y_augmented)
    g = p.graph
    y_base, star = y[:g.num_edges], y[g.num_edges:]
    div = gc.divergence(g, y_base)
    residual = np.empty(g.n + 1)
    residual[:g.n] = np.abs(div - star)
    residual[g.n] = abs(float(np.sum(star)))
    violation = np.maximum(0.0, np.abs(y_base) - p.capacities)
    feasible = bool(np.all(residual <= tol) and np.all(violation <= tol))
    return DualFeasibilityReport(residual, violation, feasible)


def conjugate_f(p: NLassoProblem, z) -> float:
    """Convex conjugate of the fidelity term.

    Closed form: sum_{i in seeds} (z_i^2 / 2 + z_i) + sum_{i not in seeds}
    z_i^2 / (2 alpha).
    """
    z = gc._as_signal(p.graph, z)
    s = p.seed_mask
    return float(np.sum(0.5 * z[s] ** 2 + z[s])) \
        + float(np.sum(z[~s] ** 2)) / (2.0 * p.alpha)


def conjugate_g_feasible(p: NLassoProblem, y_base) -> bool:
    """True iff |y_e| <= lam W_e on every base edge (closed constraint)."""
    y = gc._as_base_flow(p.graph, y_base)
    return bool(np.all(np.abs(y) <= p.capacities))


def duality_gap(p: NLassoProblem, x, y_base) -> float:
    """Primal value minus the dual value of a capacity-feasible base flow.

    The dual value is -conjugate_f(z) with z_i = -divergence(y)_i, the
    signed net inflow at node i.  Weak duality makes the gap non-negative
    (up to rounding); it vanishes exactly at an optimal primal-dual pair.

    Raises
    ------
    DualInfeasible
        If some |y_e| exceeds lam W_e, where the gap is +inf by convention.
    """
    y = gc._as_base_flow(p.graph, y_base)
    if not conjugate_g_feasible(p, y):
        worst = float(np.max(np.abs(y) - p.capacities))
        raise DualInfeasible(f"capacity exceeded by {worst:.3e}")
    z = -gc.divergence(p.graph, y)
    return primal_objective(p, x) + conjugate_f(p, z)
