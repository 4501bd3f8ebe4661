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

`run` steps the flow in one of three layouts, and all give the same bits
as a flow in edge order would.  The two numpy layouts each lay it out in
an array of slots, each edge in one slot, share one step and differ only
in stages 2 and 4.  `_kernel(p)` builds every kernel: it rejects a node of
degree 0, picks the layout and passes that layout's class plain arrays,
computed once: src, dst and the capacities lam W_e in edge order, then the
per-node constants of `_node_constants`.

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
* Scalar (`_ScalarKernel`): the flow in edge order, in Python floats,
  stepped by one straight-line function written for the graph.  On a
  graph of a few edges the gather step's dozen numpy calls cost more than
  their arithmetic, and a Python loop over the edges spends most of its
  time on zips, tuple unpacks and list indexes, so the kernel writes the
  step out once (`_scalar_step`): it takes each float of the state as one
  argument, gives each node one line for xt and each edge three (the dual
  ascent into the edge's own flow name, then the two halves of the
  clamp), and returns the new x as one expression per node, then the x it
  was given and the new flow.  The source is built from the node
  and edge positions and fixed text alone; the capacities, their
  negations and the node constants are bound by name in the function's
  globals, never printed into it.  So each keeps its bits (-0.0,
  subnormals and a capacity of 0 included), and CPython has no constant
  expression to fold.  Each Python operation is the correctly rounded
  IEEE operation of the numpy stage, on the same operands and in the same
  order (Python floats are doubles, and it fuses no multiply-add).  Each
  node's out- and in-sum is written as 0.0 plus the node's edges in edge
  order, the order each gather sum keeps (see Gather).  The clamp follows
  numpy's rule for ties: np.maximum and np.minimum return their second
  operand when +0 meets -0 (checked at every length from 1 to 129 and at
  255, 256, 1000 and 4097), so a flow of -0 on an edge of capacity 0
  becomes +0, the upper bound.  The clamp is therefore written as
  comparisons that give the bound on a tie and pass NaN through, as numpy
  does; the builtin max() and min() return their first operand on a tie
  and would give -0.  A capacity lam W_e of 0 arises when it underflows.
  The state is one flat tuple of floats, x, then x_prev, then the flow,
  from the all-ones start to the result, so `step(*state)` passes it as
  the step's arguments.

`_kernel` takes the band layout when the bands pad the m edges with at most n
empty slots and every band holds at least _MIN_BAND_SLOTS slots; else the
scalar layout when m + n is at most _MAX_SCALAR_SIZE; else the gather
layout.  The size test comes first, so a graph of a few edges counts no
offsets.  A band costs a few numpy calls per step whatever its length.
Measured on 2 vCPUs (median step time, gather over band, three runs),
the layouts break even at about 1000 slots per band, on chains and grids
alike: 24 x 24 grid 0.79-0.83x, 700-node chain 0.89-0.92x, 1000-node
chain 0.96-1.01x, 32 x 32 grid 0.98-1.04x, 1500-node chain 1.05-1.08x,
2000-node chain 1.15-1.19x, 48 x 48 grid 1.38-1.43x, 64 x 64 grid
1.73-1.82x, 256 x 256 grid 2.15-2.29x.

The scalar step's time grows with both m and n, the gather step's hardly
at all on graphs this small, and writing and compiling the scalar step
costs about 0.06 ms per edge plus node, where a gather kernel is built in
under 0.01 ms.  Measured on 2 vCPUs through `advance` as `run` calls it,
in runs of 16 steps (scalar over gather: per step, the two alternating in
blocks of 512 steps, the 2nd to the 23rd of 24 runs over four passes; and
with each kernel's build plus 1000 median steps, the four passes'
extremes), on chains, random connected graphs of about 0.6 m + 1 nodes
and complete graphs, the two break even near 80 edges plus nodes per step
and near 65 at a 1000-iteration budget, on all three:

    graph      edges  nodes  m + n   per step      build + 1000 steps
    chain         4      5      9    0.11-0.13x    0.16-0.16x
    random        8      6     14    0.18-0.20x    0.24-0.25x
    complete     10      5     15    0.16-0.21x    0.24-0.26x
    chain         8      9     17    0.20-0.23x    0.27-0.28x
    random       16     11     27    0.29-0.32x    0.41-0.43x
    complete     21      7     28    0.29-0.33x    0.42-0.44x
    chain        16     17     33    0.34-0.38x    0.48-0.51x
    complete     28      8     36    0.37-0.40x    0.53-0.55x
    random       24     15     39    0.40-0.46x    0.57-0.61x
    complete     36      9     45    0.48-0.55x    0.67-0.73x
    chain        24     25     49    0.53-0.57x    0.72-0.75x
    complete     45     10     55    0.55-0.63x    0.82-0.85x
    chain        32     33     65    0.68-0.76x    0.98-1.01x
    random       40     25     65    0.58-1.01x    0.73-1.12x
    complete     55     11     66    0.66-1.20x    0.85-1.08x
    random       48     30     78    0.51-1.06x    0.90-1.41x
    complete     66     12     78    0.68-1.01x    1.18-1.31x
    chain        40     41     81    1.02-1.62x    1.41-1.44x
    complete     78     13     91    0.97-1.12x    1.41-1.48x
    random       64     39    103    1.10-1.45x    1.72-1.79x

_MAX_SCALAR_SIZE stays below both: no workload has a graph of 37 to 198
edges plus nodes, and a solve that the repeat stop ends within a few
hundred steps pays the whole build for them.

Check to check.  `run` has three kinds of event: a history check every
check_interval iterations, a repeat check every _REPEAT_CHECK_INTERVAL,
and max_iters.  One `advance` call of the kernel, a loop over its step,
steps to the next event and leaves the last state and the one before it,
which the period-1 repeat check compares, in a list of two states.  Each
kernel owns the form of its state: arrays with the flow in the layout's
slots, or one flat tuple of floats with the flow in edge order.  Every
layout's step maps a state to the next by `step(*state)`.  `run` asks
the kernel for the start state, for a comparison of two states' bits
(`same_state`), and for a state as arrays with the flow in edge order
(`arrays`), which it needs only for a history row and for the result, so
only the kernels know the slot order.  advance empties the list before it
steps, so that nothing holds a state the run has stepped past: a caller
that held each advance's first state would keep two more arrays alive
through the advance.

Repeat stop.  The step is a deterministic map of the state (x, xprev,
y), so once a state recurs D steps after an earlier one, every later state
recurs with period D.  Every _REPEAT_CHECK_INTERVAL iterations `run`
compares the bits of the new state with two earlier states: the last one
(D = 1, a fixed point) and one snapshot, re-taken at iterations
_REPEAT_CHECK_INTERVAL * 2**k (Brent's cycle detection; Brent 1980, "An
improved Monte Carlo factorization algorithm", BIT 20).  The snapshot is
held by reference, since the step never writes its inputs.  Once it finds
period D at iteration r, the state of every iteration from r - D on
depends only on its phase, the iteration mod D.  `run` then makes no more
repeat checks and keeps a dict from phase to history row, filled with the
rows of the checks from r - D to r.  Its loop goes on from event to event,
but steps the state only to a check whose phase has no row yet ((t -
phase) % D steps from the phase it holds) and, at the end, to the phase of
max_iters.  A row from the dict did not stop the run when it was
computed, so the gap stop comes at the first check, in time order, whose
row stops it.  The result is exactly that of the full run.  With no
history checks the state steps less than one period past r; with checks
it may step further, but never more than the full run would.  Bits are
compared as bytes (see same_state; the scalar layout packs its tuple as
doubles), so -0.0 and +0.0 differ and equal NaN payloads match.
Small problems reach such a state at machine precision long before their
budget: of the 25 frozen criterion-5 instances, 21 reach a fixed point
and 4 end in cycles of period 6 or 18.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import certificates as cert
from . import graph as gc
from . import objectives as obj
from .graph import _MAX, _real, _whole
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
        for name, low in (("max_iters", 1), ("check_interval", 0)):
            object.__setattr__(self, name, _whole(getattr(self, name), name, low))
        object.__setattr__(self, "gap_tolerance", _real(
            self.gap_tolerance, "gap_tolerance", 0.0, _MAX, "finite and non-negative"))


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
    """Per-problem constants for the six update stages.

    Each layout's class is built from the plain arrays that `_kernel`
    computes.  The state is (x, x_prev, y), the flow y one array of slots,
    and `slots` holds the slot of each edge; a slot that holds no edge has
    capacity 0.  This class stores the flow in the gather layout: one slot
    per edge, sorted by (src + dst, src), with src and dst in slot order.
    The band layout replaces stages 2 and 4 (_differences and _divergence);
    the scalar layout replaces the state's form (start, step, same_state
    and arrays).  `arrays` reads the state of every layout out in edge
    order.
    """

    def __init__(self, src, dst, cap, gamma, shift, scale):
        order = np.lexsort((src, src + dst))
        self.src, self.dst, self.cap = src[order], dst[order], cap[order]
        self.slots = np.empty_like(order)
        self.slots[order] = np.arange(order.size)
        self.neg_cap = -self.cap
        self.n = gamma.size
        self.gamma, self.shift, self.scale = gamma, shift, scale

    # step returns fresh x and y arrays and never writes to its inputs (each
    # stage works in place on an array the step created; see the module
    # docstring): `run` keeps earlier states by reference to detect a repeat
    def step(self, x, x_prev, y):
        xt = 2.0 * x
        xt -= x_prev
        d = self._differences(xt)
        del xt
        d *= 0.5
        d += y
        # np.clip with array bounds takes a slower path than max then min
        np.maximum(d, self.neg_cap, out=d)
        np.minimum(d, self.cap, out=d)
        div = self._divergence(d)
        # stages 5/6 in div, which becomes the new x
        div *= self.gamma
        np.subtract(x, div, out=div)
        div += self.shift
        div *= self.scale
        return div, x, d

    def _differences(self, xt):
        """Stage 2's xt_i - xt_j per slot, as a new array."""
        d = xt[self.src]
        d -= xt[self.dst]
        return d

    def _divergence(self, y):
        """Stage 4's out-sums minus in-sums per node, as a new array."""
        div = np.bincount(self.src, weights=y, minlength=self.n)
        div -= np.bincount(self.dst, weights=y, minlength=self.n)
        return div

    def start(self):
        """The state run starts from: x = x_prev = 1 and zero flow."""
        return np.ones(self.n), np.ones(self.n), np.zeros(self.cap.size)

    def arrays(self, state):
        """The state (x, x_prev, y) as float arrays, y in edge order."""
        x, x_prev, y = state
        return x, x_prev, y[self.slots]

    def same_state(self, a, b) -> bool:
        """True when the states a and b have the same bits, compared as
        bytes: -0.0 and +0.0 differ, and NaNs of one payload match."""
        return all(u.tobytes() == v.tobytes() for u, v in zip(a, b))

    def advance(self, states: list, k: int) -> None:
        """Step k >= 1 times from states[1], in a list of two states that
        ends as [the state before the last, the last].

        It empties the list first and holds only the state it steps from,
        so that a state the run has stepped past is freed before the next
        step allocates."""
        step = self.step
        state = states[1]
        states[:] = None, None
        for _ in range(k - 1):
            state = step(*state)
        states[:] = state, step(*state)


class _ScalarKernel(_Kernel):
    """The step as one straight-line Python function written for the
    graph, for graphs of a few edges.

    The state is one flat tuple of 2n + m floats, (x_0 .. x_{n-1},
    xprev_0 .. xprev_{n-1}, y_0 .. y_{m-1}) with y in edge order, from
    start to the result; `run` converts it to arrays only for a history row
    and for its result.  `step` is the function `_scalar_step` writes and
    compiles once per kernel, held by the instance, so it takes the state
    alone.  Its constants are bound by name in its globals: the capacities
    c<e>, their negations nc<e> and each node's g<i>, s<i> and k<i>
    (gamma, shift and scale).
    """

    def __init__(self, src, dst, cap, gamma, shift, scale):
        self.n, self.m = gamma.size, cap.size
        consts = {f"{name}{i}": v
                  for name, values in (("c", cap), ("nc", -cap), ("g", gamma),
                                       ("s", shift), ("k", scale))
                  for i, v in enumerate(values.tolist())}
        exec(compile(_scalar_step(self.n, src.tolist(), dst.tolist()), "<scalar step>",
                     "exec"), consts)
        self.step = consts["step"]
        # the bits of a state, as doubles
        self.bits = struct.Struct(f"{2 * self.n + self.m}d").pack

    def start(self):
        return (1.0,) * (2 * self.n) + (0.0,) * self.m

    def arrays(self, state):
        n = self.n
        return np.array(state[:n]), np.array(state[n:2 * n]), np.array(state[2 * n:])

    # packed as doubles, the tuples compare as _Kernel.same_state's arrays
    def same_state(self, a, b) -> bool:
        return self.bits(*a) == self.bits(*b)


def _scalar_step(n: int, src: list[int], dst: list[int]) -> str:
    """The source of the scalar layout's step on a graph of n nodes and the
    edges src[e] -> dst[e], written from ints and fixed text alone.

    It takes the state's floats as its arguments x<i>, p<i> (x_prev) and
    y<e>, and returns the next state as one flat tuple: the new x, then the
    x it was given, then the new flow.  Node i's xt is t<i>, and edge e's
    new flow replaces y<e>; each node's out-sum and in-sum start at 0.0 and
    add its edges in edge order.
    """
    nodes, edges = range(n), range(len(src))
    xs, ys = [f"x{i}" for i in nodes], [f"y{e}" for e in edges]
    lines = [f"def step({', '.join(xs + [f'p{i}' for i in nodes] + ys)}):"]
    lines += [f"    t{i} = 2.0 * x{i} - p{i}" for i in nodes]
    outs, ins = [["0.0"] for _ in nodes], [["0.0"] for _ in nodes]
    for e, (i, j) in enumerate(zip(src, dst)):
        # np.maximum, then np.minimum: a tie (+-0 against -+0) gives the
        # bound, their second operand, and NaN stays NaN
        lines += [f"    y{e} = (t{i} - t{j}) * 0.5 + y{e}",
                  f"    if y{e} <= nc{e}: y{e} = nc{e}",
                  f"    if y{e} >= c{e}: y{e} = c{e}"]
        outs[i].append(f"y{e}")
        ins[j].append(f"y{e}")
    new_x = [f"(x{i} - (({' + '.join(outs[i])}) - ({' + '.join(ins[i])})) * g{i} + s{i}) * k{i}"
             for i in nodes]
    lines.append(f"    return {', '.join(new_x + xs + ys)}")
    return "\n".join(lines) + "\n"


# Iterations between checks for a repeated state.  A check compares the
# state with two earlier ones, stopping at the first array that differs, so
# a short interval costs little and stops soon after the state repeats.
_REPEAT_CHECK_INTERVAL = 16

# Fewest slots per band for the band layout: below about this, a band's
# numpy calls cost more than the gathers and bincounts they replace (see
# the module docstring).
_MIN_BAND_SLOTS = 1000

# Most edges plus nodes for the scalar layout, below its break-even with the
# gather layout (see the module docstring for why).
_MAX_SCALAR_SIZE = 36


def _node_constants(p: NLassoProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-node gamma = 1/d_i, shift and scale: stages 5/6 collapse
    into x = (v + shift) * scale."""
    gamma = 1.0 / p.graph.degree.astype(np.float64)
    shift = np.where(p.seed_mask, gamma, 0.0)
    scale = np.where(p.seed_mask, 1.0 / (gamma + 1.0), 1.0 / (p.alpha * gamma + 1.0))
    return gamma, shift, scale


def _kernel(p: NLassoProblem) -> _Kernel:
    """The kernel `run` iterates p with, in the layout the module docstring
    gives for p's graph.  Raises IsolatedNode for a node of degree 0."""
    g = p.graph
    gc._reject_isolated(g, "every node needs a neighbour")
    if g.num_edges + g.n <= _MAX_SCALAR_SIZE:
        cls = _ScalarKernel
    else:
        # the distinct offsets dst - src, ascending, and their bands' slots
        k = np.flatnonzero(np.bincount(g.dst - g.src))
        slots = k.size * g.n - int(k.sum())
        bands = g.n - k[-1] >= _MIN_BAND_SLOTS and slots - g.num_edges <= g.n
        cls = _BandKernel if bands else _Kernel
    return cls(g.src, g.dst, p.capacities, *_node_constants(p))


class _BandKernel(_Kernel):
    """The kernel with the flow stored as one band per edge offset.

    y and the capacities are one array of all bands, ascending in offset.
    """

    def __init__(self, src, dst, cap, gamma, shift, scale):
        n = self.n = gamma.size
        self.offsets = np.flatnonzero(np.bincount(dst - src)).tolist()
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
        self.edges = src, dst
        self.cap = np.zeros(start)
        self.cap[self.slots] = cap
        self.neg_cap = -self.cap
        self.gamma, self.shift, self.scale = gamma, shift, scale

    @property
    def slots(self):
        """The band slot of each edge, in edge order.  It is computed at
        each use: an index of m entries held through the run would raise
        the peak memory of a large grid's solve."""
        src, dst = self.edges
        return self.band_start[dst - src] + src

    def _differences(self, xt):
        n = self.n
        d = np.empty(self.cap.size)
        for k, band in zip(self.offsets, self.bands):
            np.subtract(xt[:n - k], xt[k:], out=d[band])
        return d

    def _divergence(self, y):
        div = self._node_sums(y, self.out_bands)
        div -= self._node_sums(y, self.in_bands)
        return div

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


def _check_row(p: NLassoProblem, kernel: _Kernel, state) -> tuple[float, float, float]:
    """The primal value, duality gap and largest KKT residual of a state."""
    x, _, y = kernel.arrays(state)
    return (obj.primal_objective(p, x), obj.duality_gap(p, x, y),
            cert.kkt_residuals(p, x, y).max_residual)


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
    snapshot), the run is periodic from there on: `run` keeps each phase's
    history row (iteration mod period), and steps the state only to the
    phase of a check that has no row yet and, at the end, to that of
    max_iters.  With check_interval 0 it steps less than one period
    further, and it never steps more than the full run.  The result is bit
    for bit that of the full run.
    """
    kernel = _kernel(p)
    m, interval = cfg.max_iters, cfg.check_interval
    # the states of iterations at - 1 and at; only this list holds them
    # (see advance)
    states = [None, kernel.start()]
    history: list[HistoryRecord] = []
    snap_r, snap = 0, None
    # once the state repeats: its period, and the history row of each phase
    # (iteration mod period) checked since one period before, none of which
    # stopped the run.  From then on states[1] is the state of at's phase.
    period, rows = 0, {}
    r = at = 0
    while r < m:
        # advance to the next check: of the history, of a repeat until one
        # is found, or max_iters
        to = m if period else min(m, r + _REPEAT_CHECK_INTERVAL - r % _REPEAT_CHECK_INTERVAL)
        if interval:
            to = min(to, r + interval - r % interval)
        r = to
        check = interval and r % interval == 0
        row = rows.get(r % period) if period and check else None
        # once periodic, step only to a check whose phase has no row yet,
        # and to the phase of max_iters
        if not period or r == m or check and row is None:
            steps = (r - at) % period if period else r - at
            if steps:
                kernel.advance(states, steps)
            at = r
        if check:
            if row is None:
                row = _check_row(p, kernel, states[1])
            history.append(HistoryRecord(r, *row))
            if cfg.gap_tolerance > 0 and row[1] <= cfg.gap_tolerance:
                break
            if period:
                rows[r % period] = row
        if period or r % _REPEAT_CHECK_INTERVAL or r == m:
            continue
        period = (1 if kernel.same_state(states[1], states[0])
                  else r - snap_r if snap and kernel.same_state(states[1], snap) else 0)
        if period:
            rows = {h.r % period: h[1:] for h in history if h.r >= r - period}
            continue
        q = r // _REPEAT_CHECK_INTERVAL
        if q & (q - 1) == 0:
            snap_r, snap = r, states[1]
    x, _, y = kernel.arrays(states[1])
    return SolverResult(x=x, y=y, iters_run=r, history=history)
