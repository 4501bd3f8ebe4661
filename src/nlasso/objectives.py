"""Scalar functionals of the clustering problem.

The primal objective over node signals x is

    f(x) + lam * TV(x),
    f(x) = sum_{i in seeds} (x_i - 1)^2 / 2  +  sum_{i not in seeds} alpha x_i^2 / 2,

with TV(x) = sum_e W_e |x_i - x_j|.  Its dual lives on edge flows y under
the capacities |y_e| <= lam * W_e (`conjugate_g_feasible`).  Node i's net
outflow is divergence(y)_i, and the dual value of y is
-conjugate_f(-divergence(y)).  `duality_gap` is the primal value minus
that dual value: non-negative for every capacity-feasible flow, and zero
exactly at an optimal primal-dual pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graph as gc
from .errors import DualInfeasible
from .graph import Graph


@dataclass(frozen=True, eq=False)
class NLassoProblem:
    """One clustering instance: graph, one seed batch, and penalties.

    Problems compare and hash by identity: a field-wise == would compare
    the seed arrays, and Graph is unhashable.

    Parameters
    ----------
    graph : Graph
    seeds : array-like of int
        Non-empty set of 1-based seed node ids.
    alpha : float
        Fidelity weight at non-seed nodes; must be positive and finite so
        the signal decays to zero away from the seeds.  alpha and lam must
        be real numbers other than bool, and are stored as Python floats.
    lam : float
        Total-variation penalty; must be positive and finite, and so must
        every capacity lam * W_e.  lam times the largest weighted degree
        must be at most 2**52: beyond that, a change of one ulp in an x_i
        near 1 moves lam * TV(x) by more than 1, the scale of the fidelity
        term, and the duality gap says nothing about the solution.
    """

    graph: Graph
    seeds: np.ndarray
    alpha: float
    lam: float
    seed_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        seeds = gc.as_node_ids(self.seeds, self.graph.n)
        if seeds.size == 0:
            raise ValueError("seed set must be non-empty")
        for name in ("alpha", "lam"):
            object.__setattr__(self, name, gc._real(getattr(self, name), name, *gc._POSITIVE))
        g = self.graph
        with np.errstate(over="ignore"):
            over = np.flatnonzero(~np.isfinite(self.lam * g.weights))
        if over.size:
            e = over[0]
            raise ValueError(f"capacity lam * W_e overflows at edge ({g.src[e] + 1}, "
                             f"{g.dst[e] + 1}): lam {self.lam} times weight {g.weights[e]}")
        i = int(np.argmax(g.weighted_degree))
        if self.lam * (float(g.weighted_degree[i]) * 2.0 ** -52) > 1.0:
            raise ValueError(f"weights too large for a meaningful duality gap: lam {self.lam} "
                             f"times weighted degree {g.weighted_degree[i]} at node {i + 1} "
                             f"exceeds 2**52")
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


def total_variation(g: Graph, x) -> float:
    """Weighted sum of absolute differences across the edges."""
    diffs = gc.incidence_apply(g, x)
    return float(np.sum(g.weights * np.abs(diffs)))


def primal_objective(p: NLassoProblem, x) -> float:
    """Seed and non-seed quadratic fidelity plus lam * TV."""
    x = gc._as_signal(p.graph, x)
    s = p.seed_mask
    fit = 0.5 * float(np.sum((x[s] - 1.0) ** 2)) \
        + 0.5 * p.alpha * float(np.sum(x[~s] ** 2))
    return fit + p.lam * total_variation(p.graph, x)


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
