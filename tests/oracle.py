"""Independent reference optimizers used only by the test suite.

Two routes to the optimum that share no code with the package solver:

* exact_optimum splits the nodes at level after level by minimum cuts,
  each found by a plain-Python maximum flow, and returns the optimal
  signal and flow on any graph.  Exact to rounding.

* subgradient_minimize runs long subgradient descent on the primal
  objective with diminishing step sizes (a 1/k warm phase, then a slow
  geometric decay) and averages a late window of iterates.  Accuracy on
  the benchmark instances is a few 1e-5 in the max norm; it made the
  values in tests/frozen_oracle.py.
"""

from __future__ import annotations

import numpy as np

from nlasso import NLassoProblem, build_graph


def random_connected_graph(n, rng, extra_p=0.3):
    """Spanning tree plus each remaining pair with probability extra_p."""
    edges = {(int(rng.integers(1, j)), j) for j in range(2, n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < extra_p:
                edges.add((i, j))
    return build_graph(
        n, [(i, j, float(rng.uniform(0.5, 2.0))) for i, j in sorted(edges)])


def _max_flow(n, s, t, arcs):
    """Dinic's maximum flow from s to t on the nodes 0..n-1.

    Each arc (u, v, c_uv, c_vu) joins u and v with capacity c_uv from u to
    v and c_vu back.  A residual of at most 1e-12 times the largest
    capacity counts as none.  Returns the net flow from u to v on each arc
    and, per node, whether s still reaches it: the source side of the
    smallest minimum cut.
    """
    head = [[] for _ in range(n)]
    to, res = [], []
    for u, v, c_uv, c_vu in arcs:
        head[u].append(len(to))
        head[v].append(len(to) + 1)
        to += (v, u)
        res += (c_uv, c_vu)
    tol = 1e-12 * max(res, default=0.0)

    def levels():
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for a in head[u]:
                if res[a] > tol and level[to[a]] < 0:
                    level[to[a]] = level[u] + 1
                    queue.append(to[a])
        return level

    def push():
        """Push flow along one path of the level graph, found with a stack
        of arcs; returns False once s reaches t no more."""
        path, u = [], s
        while u != t:
            while nxt[u] < len(head[u]):
                a = head[u][nxt[u]]
                if res[a] > tol and level[to[a]] == level[u] + 1:
                    path.append(a)
                    u = to[a]
                    break
                nxt[u] += 1
            else:  # a dead end: retreat along the arc into u and pass it
                if not path:
                    return False
                u = to[path.pop() ^ 1]
                nxt[u] += 1
        f = min(res[a] for a in path)
        for a in path:
            res[a] -= f
            res[a ^ 1] += f
        return True

    while (level := levels())[t] >= 0:
        nxt = [0] * n
        while push():
            pass
    return [arc[2] - r for arc, r in zip(arcs, res[::2])], [k >= 0 for k in level]


def exact_optimum(p: NLassoProblem):
    """The optimum (x, y) by divide and conquer over threshold cuts.

    Each level set {x > t} of the optimum is the smallest minimiser of
    sum_{i in A} w_i (t - a_i) + lam W(boundary of A), with w_i = 1 and a_i = 1
    at seeds and w_i = alpha and a_i = 0 elsewhere (Hochbaum 2001;
    Chambolle & Darbon 2009).  A node set S, with every node outside it
    fixed above or below it, has the weighted mean level
    z = (sum_S w_i a_i + lam W(S, above) - lam W(S, below)) / sum_S w_i, and
    the smallest minimum cut at z splits S into {x > z} and the rest.  The
    edges between the two parts carry their capacity downward, and both
    parts recurse.  A set that does not split takes x = z, and the maximum
    flow of its last cut, which meets every node's demand, is y on its
    inner edges.  Exact to rounding.
    """
    g = p.graph
    w = np.where(p.seed_mask, 1.0, p.alpha)
    wa = p.seed_mask * 1.0
    cap = p.capacities
    x, y = np.empty(g.n), np.zeros(g.num_edges)
    todo = [np.arange(g.n)]
    while todo:
        nodes = todo.pop()
        k = nodes.size
        # lam W(S, above) - lam W(S, below) per node: the inflow of the cut edges
        pull = (np.bincount(g.dst, y, g.n) - np.bincount(g.src, y, g.n))[nodes]
        z = (wa[nodes].sum() + pull.sum()) / w[nodes].sum()
        local = np.full(g.n, -1)
        local[nodes] = np.arange(k)
        inner = np.flatnonzero((local[g.src] >= 0) & (local[g.dst] >= 0))
        arcs = [(k, i, -c, 0.0) if c < 0 else (i, k + 1, c, 0.0)
                for i, c in enumerate(w[nodes] * z - wa[nodes] - pull)]
        arcs += [(local[g.src[e]], local[g.dst[e]], cap[e], cap[e]) for e in inner]
        flow, reach = _max_flow(k + 2, k, k + 1, arcs)
        above = np.array(reach[:k])
        if above.all() or not above.any():  # all above is rounding
            x[nodes] = z
            y[inner] = flow[k:]
            continue
        high = np.zeros(g.n, bool)
        high[nodes[above]] = True
        cut = inner[high[g.src[inner]] != high[g.dst[inner]]]
        y[cut] = np.where(high[g.src[cut]], cap[cut], -cap[cut])
        todo += [nodes[above], nodes[~above]]
    return x, np.clip(y, -cap, cap)


def subgradient_minimize(p: NLassoProblem, steps: int = 10 ** 6) -> np.ndarray:
    """Long-run subgradient descent on the primal objective.

    Steps diminish in two phases: 2 / (mu (k+2)) capped at 1/2 while far
    from the optimum, then a geometric decay from 1e-2 by a factor 3/4
    every 20k steps.  The quadratic fidelity is applied through its
    proximal map for unconditional stability; the returned point averages
    the last 15% of iterates to cancel the kink chatter.
    """
    g, alpha, lam = p.graph, p.alpha, p.lam
    n = g.n
    s = p.seed_mask
    w = g.weights
    mu = min(1.0, alpha)
    x = np.zeros(n)
    acc = np.zeros(n)
    count = 0
    warm = steps // 5
    tail = int(steps * 0.85)
    for k in range(steps):
        if k < warm:
            t = min(0.5, 2.0 / (mu * (k + 2)))
        else:
            t = 1e-2 * 0.75 ** ((k - warm) // 20000)
        d = x[g.src] - x[g.dst]
        sub = lam * w * np.sign(d)
        grad_tv = (np.bincount(g.src, weights=sub, minlength=n)
                   - np.bincount(g.dst, weights=sub, minlength=n))
        v = x - t * grad_tv
        x = np.where(s, (v + t) / (1.0 + t), v / (1.0 + t * alpha))
        if k >= tail:
            acc += x
            count += 1
    return acc / count
