"""Primal-dual message-passing solver.

Each iteration runs six stages, every stage reading only values produced by
the stage before it:

1. extrapolate   xt_i   = 2 x_i - xprev_i
2. dual ascent   y_e   += (xt_i - xt_j) / 2           per edge (i, j)
3. project       y_e    = clamp(y_e, -lam W_e, lam W_e)
4. descend       v_i    = x_i - div(y)_i / d_i
5. seed prox     x_i    = (1/d_i + v_i) / (1/d_i + 1)     for seeds
6. other prox    x_i    = v_i / (alpha / d_i + 1)         otherwise

Stage 3 is the radial projection y / max(1, |y| / cap), which coincides
with clamping componentwise and keeps |y_e| <= lam W_e exactly.  The clamp
is computed as max(y, -cap) then min(., cap), bit for bit the same as
np.clip.  The primal step size 1/d_i (inverse node degree) and the dual
step size 1/2 make the iteration convergent without any tuning; one
iteration costs one pass over the edges plus one over the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import certificates as cert
from . import graph as gc
from . import objectives as obj
from .errors import IsolatedNode
from .objectives import NLassoProblem


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget and optional gap-based stopping.

    max_iters is the fixed iteration count; the gap check is off by default
    (gap_check_interval 0 or gap_tolerance 0 disables it).  record_interval
    controls how often a history row is taken; 0 records nothing.
    """

    max_iters: int = 1000
    gap_check_interval: int = 0
    gap_tolerance: float = 0.0
    record_interval: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.gap_check_interval < 0 or self.record_interval < 0:
            raise ValueError("intervals must be non-negative")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance must be non-negative")


@dataclass
class SolverState:
    """Iterate pair (current, previous) plus the base-edge flow."""

    x_curr: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    r: int = 0


class HistoryRecord(NamedTuple):
    r: int
    primal: float
    gap: float
    max_kkt: float


@dataclass
class SolverResult:
    x: np.ndarray
    y: np.ndarray
    iters_run: int
    history: list[HistoryRecord] = field(default_factory=list)


class _Kernel:
    """Precomputed per-problem constants for the six update stages."""

    def __init__(self, p: NLassoProblem):
        g = p.graph
        _require_neighbours(g)
        self.n = g.n
        self.src = g.src
        self.dst = g.dst
        self.cap = p.capacities
        self.neg_cap = -self.cap
        gamma = 1.0 / g.degree.astype(np.float64)
        self.gamma = gamma
        # stages 5/6 collapse into x = (v + shift) * scale
        shift = np.where(p.seed_mask, gamma, 0.0)
        scale = np.where(p.seed_mask, 1.0 / (gamma + 1.0), 1.0 / (p.alpha * gamma + 1.0))
        self.shift = shift
        self.scale = scale

    def step(self, x, x_prev, y):
        xt = 2.0 * x - x_prev
        y = y + 0.5 * (xt[self.src] - xt[self.dst])
        # np.clip with array bounds takes a slower path than max then min
        np.maximum(y, self.neg_cap, out=y)
        np.minimum(y, self.cap, out=y)
        div = (np.bincount(self.src, weights=y, minlength=self.n)
               - np.bincount(self.dst, weights=y, minlength=self.n))
        v = x - self.gamma * div
        x_new = (v + self.shift) * self.scale
        return x_new, x, y


def _require_neighbours(g: gc.Graph) -> None:
    if np.any(g.degree == 0):
        bad = int(gc.isolated_nodes(g)[0])
        raise IsolatedNode(f"node {bad} has degree 0; every node needs a neighbour")


def init_state(p: NLassoProblem) -> SolverState:
    """Deterministic starting point: x at all ones, flow at zero.

    Starting from the indicator of the whole node set lets the fidelity
    leak drain the signal outside the seeds' neighbourhood, so finite
    iterates approach the limit from above; the zero flow is dual feasible.
    Raises IsolatedNode when some node has degree 0, since the primal step
    size 1/d_i is undefined there.
    """
    g = p.graph
    _require_neighbours(g)
    return SolverState(
        x_curr=np.ones(g.n),
        x_prev=np.ones(g.n),
        y=np.zeros(g.num_edges),
        r=0,
    )


def step(p: NLassoProblem, s: SolverState) -> SolverState:
    """Run one full iteration and return the advanced state."""
    g = p.graph
    x = gc._as_signal(g, s.x_curr)
    x_prev = gc._as_signal(g, s.x_prev)
    y = gc._as_base_flow(g, s.y)
    kernel = _Kernel(p)
    x_new, x_old, y_new = kernel.step(x, x_prev, y.copy())
    return SolverState(x_curr=x_new, x_prev=x_old, y=y_new, r=s.r + 1)


def run(p: NLassoProblem, cfg: SolverConfig) -> SolverResult:
    """Iterate from the all-ones state under the given config.

    Stops at max_iters, or earlier when the duality gap drops below
    gap_tolerance at a check interval (both must be positive to enable the
    check).  Identical inputs produce bitwise identical results.
    """
    state = init_state(p)
    kernel = _Kernel(p)
    x, x_prev, y = state.x_curr, state.x_prev, state.y
    history: list[HistoryRecord] = []
    check_gap = cfg.gap_check_interval > 0 and cfg.gap_tolerance > 0
    record = cfg.record_interval > 0
    iters_run = 0
    for r in range(1, cfg.max_iters + 1):
        x, x_prev, y = kernel.step(x, x_prev, y)
        iters_run = r
        want_record = record and r % cfg.record_interval == 0
        want_check = check_gap and r % cfg.gap_check_interval == 0
        if want_record or want_check:
            gap = obj.duality_gap(p, x, y)
            if want_record:
                primal = obj.primal_objective(p, x)
                report = cert.kkt_residuals(p, x, y)
                history.append(HistoryRecord(r, primal, gap, report.max_residual))
            if want_check and gap <= cfg.gap_tolerance:
                break
    return SolverResult(x=x, y=y, iters_run=iters_run, history=history)
