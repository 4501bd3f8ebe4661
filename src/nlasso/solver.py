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

Every stage writes its result into an array that the same step created:
xt, then the new flow (xt at src, minus xt at dst, times 0.5, plus y,
clamped), then the new x (out-sums minus in-sums, times 1/d_i, subtracted
from x, plus the prox shift, times the prox scale).  Each in-place form
makes the same IEEE operation on the same operands as the formulas above
(a + b and b + a have the same bits, as do a * b and b * a), so no bit
changes.  xt is freed after stage 2, before stage 4 allocates its sums.

The flow is an array of slots, each edge in one slot.  It has two
layouts, and both give the same bits as a flow in edge order would.

* Gather (`_Kernel`): one slot per edge, in anti-diagonal order: sorted
  by (src + dst, src), with src and dst kept in slot order.  Stage 2
  gathers xt at src and dst, and stage 4 is two np.bincount calls, which
  add each node's slots into a zeroed sum in slot order.  A graph stores
  its edges with src < dst in lexicographic order, so in edge order a
  node's out-edges run by ascending dst and its in-edges by ascending src.
  Slot order keeps both: node i's out-slots sort by i + dst, that is by
  dst, and node j's in-slots by src + j, that is by src.  So each sum adds
  the same terms in the same order and keeps its bits.  In edge order,
  np.bincount(src) adds a node's out-edges back to back into one bin, a
  chain of dependent adds; in slot order, neighbouring slots on one
  anti-diagonal have distinct src and distinct dst, so neither bincount
  adds into the same bin twice in a row (on a 4000-node, 41 767-edge
  block model: 129 against 89 us for np.bincount(src), and 71 against
  58 us for the gather at dst).
* Band (`_BandKernel`): for graphs whose edges lie on few offsets
  k = dst - src, such as pixel grids (k = 1 and the width) and chains
  (k = 1).  The flow is one band per offset with n - k slots; slot i holds
  edge (i, i + k), and a slot with no edge has capacity 0.  Stage 2 is
  xt[:n-k] - xt[k:].  Stage 4 builds the out-sums over bands by ascending
  k and the in-sums by descending k with slice adds.  That is the order
  np.bincount adds each node's edges in, so no per-node sum changes.
  Each sum starts as its first band plus 0.0, and as 0.0 at the nodes
  that band does not reach: np.bincount adds the first term v into a
  zeroed sum, and 0.0 + v has the bits of v + 0.0, -0.0 included (both
  give +0.0 there).  An empty slot's flow is clamped to +-0 (its
  differences are finite, as x is).  A sum that starts at +0 never becomes
  -0, since exact cancellation rounds to +0, and adding +-0 to any other
  value leaves it as it was, so empty slots add nothing.

`run` takes the band layout when the bands pad the m edges with at most n
empty slots and every band holds at least _MIN_BAND_SLOTS slots, and the
gather layout otherwise.  A band costs a few numpy calls per step
whatever its length.  Measured on 2 vCPUs (median step time, gather over
band, three runs), the layouts break even at about 1000 slots per band,
on chains and grids alike: 24 x 24 grid 0.79-0.83x, 700-node chain
0.89-0.92x, 1000-node chain 0.96-1.01x, 32 x 32 grid 0.98-1.04x,
1500-node chain 1.05-1.08x, 2000-node chain 1.15-1.19x, 48 x 48 grid
1.38-1.43x, 64 x 64 grid 1.73-1.82x, 256 x 256 grid 2.15-2.29x.

Repeat stop.  The step is a deterministic map of the state (x, xprev,
y), so once a state recurs D steps after an earlier one, every later state
recurs with period D.  Every _REPEAT_CHECK_INTERVAL iterations `run`
compares the bits of the new state with two earlier states: the last one
(D = 1, a fixed point) and one snapshot, re-taken at iterations
_REPEAT_CHECK_INTERVAL * 2**k (Brent's cycle detection; Brent 1980, "An
improved Monte Carlo factorization algorithm", BIT 20).  The snapshot is
held by reference, since the step never writes its inputs.  On a match
`run` steps only as far into the period as it still needs: the state that
max_iters would end on, and the state of each remaining check up to the
first whose gap stops the run, whose history row is that of the same
offset within the period.  Its result is exactly that of the full run,
and it holds at most two of these states besides the current one.  Bits
are compared as bytes (see _same_bits), so -0.0 and +0.0 differ and
equal NaN payloads match.  Small problems reach such a state at machine
precision long before their budget: of the 25 frozen criterion-5
instances, 21 reach a fixed point and 4 end in cycles of period 6 or 18.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import certificates as cert
from . import graph as gc
from . import objectives as obj
from .errors import IsolatedNode
from .graph import _whole
from .objectives import NLassoProblem


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budget, check schedule and optional gap-based stopping.

    max_iters is the fixed iteration count.  Every check_interval
    iterations `run` records a history row, and it stops there once the
    row's duality gap is at most gap_tolerance; check_interval 0 checks
    nothing and gap_tolerance 0 never stops early.  The iteration count and
    the interval are whole numbers, stored as int; gap_tolerance is a
    finite, non-negative real number (not a bool), stored as float.
    """

    max_iters: int = 1000
    check_interval: int = 0
    gap_tolerance: float = 0.0

    def __post_init__(self):
        for name in ("max_iters", "check_interval"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.check_interval < 0:
            raise ValueError("check_interval must be non-negative")
        tol = self.gap_tolerance
        if isinstance(tol, bool) or not (isinstance(tol, numbers.Real) and 0.0 <= tol < np.inf):
            raise ValueError(f"gap_tolerance must be finite and non-negative, got {tol!r}")
        object.__setattr__(self, "gap_tolerance", float(tol))


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
    """Precomputed per-problem constants for the six update stages.

    The flow y is one array of slots, and `slots` holds the slot of each
    edge; a slot that holds no edge has capacity 0.  This class stores the
    flow in the gather layout: one slot per edge, sorted by (src + dst,
    src), with src and dst in slot order.  A subclass supplies its own
    _layout, slots and step.
    """

    def __init__(self, p: NLassoProblem):
        g = p.graph
        if np.any(g.degree == 0):
            bad = int(gc.isolated_nodes(g)[0])
            raise IsolatedNode(f"node {bad} has degree 0; every node needs a neighbour")
        self.n = g.n
        cap = np.zeros(self._layout(g))
        cap[self.slots] = p.capacities
        self.cap = cap
        self.neg_cap = -cap
        gamma = 1.0 / g.degree.astype(np.float64)
        self.gamma = gamma
        # stages 5/6 collapse into x = (v + shift) * scale
        shift = np.where(p.seed_mask, gamma, 0.0)
        scale = np.where(p.seed_mask, 1.0 / (gamma + 1.0), 1.0 / (p.alpha * gamma + 1.0))
        self.shift = shift
        self.scale = scale

    def _layout(self, g: gc.Graph) -> int:
        """Lay the edges out in slots sorted by (src + dst, src); returns
        the number of slots."""
        order = np.lexsort((g.src, g.src + g.dst))
        self.src = g.src[order]
        self.dst = g.dst[order]
        self.slots = np.empty_like(order)
        self.slots[order] = np.arange(order.size)
        return order.size

    # step returns fresh x and y arrays and never writes to its inputs (each
    # stage works in place on an array the step created; see the module
    # docstring): `run` keeps earlier states by reference to detect a repeat
    def step(self, x, x_prev, y):
        xt = 2.0 * x
        xt -= x_prev
        d = xt[self.src]
        d -= xt[self.dst]
        del xt
        d *= 0.5
        d += y
        # np.clip with array bounds takes a slower path than max then min
        np.maximum(d, self.neg_cap, out=d)
        np.minimum(d, self.cap, out=d)
        div = np.bincount(self.src, weights=d, minlength=self.n)
        div -= np.bincount(self.dst, weights=d, minlength=self.n)
        # stages 5/6 in div, which becomes the new x
        div *= self.gamma
        np.subtract(x, div, out=div)
        div += self.shift
        div *= self.scale
        return div, x, d

    def edge_flow(self, y):
        """The flow `y` of step in edge order."""
        return y[self.slots]


# Iterations between checks for a repeated state.  A check compares the
# state with two earlier ones, stopping at the first array that differs, so
# a short interval costs little and stops soon after the state repeats.
_REPEAT_CHECK_INTERVAL = 16

# Fewest slots per band for the band layout: below about this, a band's
# numpy calls cost more than the gathers and bincounts they replace (see
# the module docstring).
_MIN_BAND_SLOTS = 1000


def _offsets(g: gc.Graph) -> np.ndarray:
    """The distinct edge offsets dst - src, ascending."""
    return np.flatnonzero(np.bincount(g.dst - g.src))


def _uses_bands(g: gc.Graph) -> bool:
    """True when `run` iterates on g in the band layout."""
    k = _offsets(g)
    slots = k.size * g.n - int(k.sum())
    return bool(k.size) and g.n - k[-1] >= _MIN_BAND_SLOTS and slots - g.num_edges <= g.n


class _BandKernel(_Kernel):
    """The kernel with the flow stored as one band per edge offset.

    y and the capacities are one array of all bands, ascending in offset.
    Stages 1-2 are one method, so that xt is freed before stage 4
    allocates its sums.
    """

    def _layout(self, g: gc.Graph) -> int:
        """Lay the edges out in one band per offset; returns the number of
        slots."""
        n = self.n
        self.graph = g
        self.offsets = [int(k) for k in _offsets(g)]
        self.bands = []
        start = 0
        for k in self.offsets:
            self.bands.append(slice(start, start + n - k))
            start += n - k
        # band start of each offset, indexed by the offset
        self.band_start = np.zeros(self.offsets[-1] + 1, dtype=np.int64)
        self.band_start[self.offsets] = [b.start for b in self.bands]
        # (band, nodes) pairs in the order np.bincount adds each node's
        # edges: out-edges by ascending offset, in-edges by descending
        self.out_bands = [(b, slice(0, n - k)) for k, b in zip(self.offsets, self.bands)]
        self.in_bands = [(b, slice(k, n)) for k, b in zip(self.offsets, self.bands)][::-1]
        return start

    @property
    def slots(self):
        """The band slot of each edge, in edge order.  It is computed at
        each use: an index of m entries held through the run would raise
        the peak memory of a large grid's solve."""
        g = self.graph
        return self.band_start[g.dst - g.src] + g.src

    # like _Kernel.step, fresh x and y arrays and inputs left untouched
    def step(self, x, x_prev, y):
        d = self._ascend(x, x_prev, y)
        np.maximum(d, self.neg_cap, out=d)
        np.minimum(d, self.cap, out=d)
        div = self._node_sums(d, self.out_bands)
        div -= self._node_sums(d, self.in_bands)
        div *= self.gamma
        np.subtract(x, div, out=div)
        div += self.shift
        div *= self.scale
        return div, x, d

    def _ascend(self, x, x_prev, y):
        """Stages 1-2: y + 0.5 * (xt_i - xt_j) per slot, as a new array."""
        n = self.n
        xt = 2.0 * x
        xt -= x_prev
        d = np.empty_like(y)
        for k, band in zip(self.offsets, self.bands):
            np.subtract(xt[:n - k], xt[k:], out=d[band])
        d *= 0.5
        d += y
        return d

    def _node_sums(self, y, pairs):
        """Stage 4: each node's sum of its slots in `pairs`, in their order.

        The sum starts from the first band plus 0.0, the bits np.bincount
        gives by adding that band into a zeroed sum, and is 0.0 at the
        nodes that band does not reach."""
        s = np.empty(self.n)
        band, nodes = pairs[0]
        np.add(y[band], 0.0, out=s[nodes])
        s[:nodes.start] = 0.0
        s[nodes.stop:] = 0.0
        for band, nodes in pairs[1:]:
            s[nodes] += y[band]
        return s


def _same_bits(a, b) -> bool:
    """True when the float arrays a and b, of one shape, have the same bits."""
    return a.tobytes() == b.tobytes()


def _same_state(a, b) -> bool:
    """True when the states a and b, each (x, x_prev, y), have the same bits."""
    return all(_same_bits(u, v) for u, v in zip(a, b))


def _check_row(p: NLassoProblem, kernel: _Kernel, state) -> tuple[float, float, float]:
    """The primal value, duality gap and largest KKT residual of a state."""
    x, _, y = state
    y_edges = kernel.edge_flow(y)
    return (obj.primal_objective(p, x), obj.duality_gap(p, x, y_edges),
            cert.kkt_residuals(p, x, y_edges).max_residual)


def _gap_stops(cfg: SolverConfig, row) -> bool:
    return cfg.gap_tolerance > 0 and row[1] <= cfg.gap_tolerance


def _periodic_tail(p, kernel, cfg, state, r, period, history):
    """Finish a run whose state at iteration r recurs every `period` steps.

    Appends the rows of the checks after r to history, each taken from the
    state at its offset (c - r) % period, and returns the state and the
    iteration the full run would end on: max_iters, or the first of these
    checks whose gap stops the run.  Steps only as far as the last offset
    it needs: once a check stops the run, no check before it lies at a
    larger offset, and the state max_iters ends on is not needed.
    """
    m, interval = cfg.max_iters, cfg.check_interval
    checks = range(r + interval - r % interval, m + 1, interval) if interval else range(0)
    # check offsets repeat every period / gcd(interval, period) checks, so
    # these hold the first check at each offset
    first = {(c - r) % period: c for c in checks[:period // math.gcd(interval, period)]}
    end = (m - r) % period
    rows = {}
    final = stop = None
    stop_at = m + 1
    for offset in range(max([end, *first]) + 1):
        if offset > stop_at - r:
            break
        if offset:
            state = kernel.step(*state)
        if offset == end:
            final = state
        if offset in first:
            rows[offset] = _check_row(p, kernel, state)
            if _gap_stops(cfg, rows[offset]) and first[offset] < stop_at:
                stop, stop_at = state, first[offset]
    for c in checks:
        if c > stop_at:
            break
        history.append(HistoryRecord(c, *rows[(c - r) % period]))
    return (stop, stop_at) if stop else (final, m)


def run(p: NLassoProblem, cfg: SolverConfig) -> SolverResult:
    """Iterate from the all-ones state under the given config.

    The start is x = x_prev = 1 with zero flow.  Starting from the
    indicator of the whole node set lets the fidelity leak drain the signal
    outside the seeds' neighbourhood, so finite iterates approach the limit
    from above; the zero flow is dual feasible.  Raises IsolatedNode when
    some node has degree 0, since the primal step size 1/d_i is undefined
    there.

    Every cfg.check_interval iterations it appends a HistoryRecord of the
    primal value, duality gap and largest KKT residual, and stops there
    when cfg.gap_tolerance is positive and that gap is at most
    cfg.gap_tolerance; otherwise it stops at max_iters.  Identical inputs
    produce bitwise identical results.

    Once the state's bits repeat those of an earlier state (checked every
    _REPEAT_CHECK_INTERVAL iterations against the last state and a
    snapshot), the run is periodic from there on, so `run` steps at most
    one period further: far enough for the state max_iters ends on and for
    the history row of each remaining check.  The result is bit for bit
    that of the full run.
    """
    kernel = (_BandKernel if _uses_bands(p.graph) else _Kernel)(p)
    n = p.graph.n
    state = (np.ones(n), np.ones(n), np.zeros(kernel.cap.size))
    history: list[HistoryRecord] = []
    interval = cfg.check_interval
    snap_r, snap = 0, None
    for r in range(1, cfg.max_iters + 1):
        # rebind prev first, so the state before it is freed before the step allocates
        prev = state
        state = kernel.step(*state)
        if interval and r % interval == 0:
            row = _check_row(p, kernel, state)
            history.append(HistoryRecord(r, *row))
            if _gap_stops(cfg, row):
                break
        if r % _REPEAT_CHECK_INTERVAL or r == cfg.max_iters:
            continue
        period = (1 if _same_state(state, prev)
                  else r - snap_r if snap and _same_state(state, snap) else 0)
        if period:
            state, r = _periodic_tail(p, kernel, cfg, state, r, period, history)
            break
        q = r // _REPEAT_CHECK_INTERVAL
        if q & (q - 1) == 0:
            snap_r, snap = r, state
    return SolverResult(x=state[0], y=kernel.edge_flow(state[2]), iters_run=r, history=history)
