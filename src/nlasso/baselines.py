"""Spectral baseline: graph Laplacians and the Fiedler vector.

The Laplacian is applied matrix free (one pass over the edges), in either
the unnormalized form L = D - A or the symmetric normalization
D^{-1/2} L D^{-1/2}.  The Fiedler vector, the eigenvector for the smallest
non-zero eigenvalue, is computed by Lanczos iteration with full
reorthogonalization on the complement of the known nullspace direction.
Every few steps the smallest Ritz pair of the Lanczos tridiagonal is
taken; a vector is returned only after an explicit operator application
confirms its eigen-residual.  The basis lives in a fixed memory budget:
when it is full, the iteration restarts from the current Ritz vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import generators as gen
from . import graph as gc
from .errors import Disconnected, IsolatedNode, NoConvergence
from .graph import Graph

UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"

# memory budget of the Lanczos basis; a full basis restarts the iteration
_BASIS_BYTES = 64 * 2**20
# Ritz pairs are checked every _CHECK_EVERY Lanczos steps, and every
# k // _CHECK_EVERY steps once the basis holds k > _CHECK_EVERY**2
# vectors, so the dense tridiagonal eigensolves cost no more than the
# reorthogonalization
_CHECK_EVERY = 8
# Laplacian applications after which fiedler_vector raises NoConvergence
_MAX_APPLIES = 500_000
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class LaplacianOperator:
    """Matrix-free symmetric positive semidefinite Laplacian."""

    graph: Graph
    mode: str

    def __post_init__(self):
        if self.mode not in (UNNORMALIZED, NORMALIZED):
            raise ValueError(f"mode must be {UNNORMALIZED!r} or {NORMALIZED!r}")
        if self.mode == NORMALIZED and np.any(self.graph.degree == 0):
            bad = int(gc.isolated_nodes(self.graph)[0])
            raise IsolatedNode(f"node {bad} has degree 0; normalization undefined")

    def apply(self, x) -> np.ndarray:
        """One operator application, linear in the edge count."""
        g = self.graph
        if self.mode == NORMALIZED:
            x = gc._as_signal(g, x) / np.sqrt(g.weighted_degree)
        out = gc.divergence(g, g.weights * gc.incidence_apply(g, x))
        if self.mode == NORMALIZED:
            out = out / np.sqrt(g.weighted_degree)
        return out

    def nullspace_direction(self) -> np.ndarray:
        """Unit vector spanning the kernel on a connected graph."""
        if self.mode == NORMALIZED:
            v = np.sqrt(self.graph.weighted_degree)
        else:
            v = np.ones(self.graph.n)
        return v / np.linalg.norm(v)


def laplacian(g: Graph, mode: str = UNNORMALIZED) -> LaplacianOperator:
    """Construct the matrix-free Laplacian operator of the chosen mode."""
    return LaplacianOperator(g, mode)


def _start_vector(n: int) -> np.ndarray:
    # fixed integer-hash ramp: deterministic and free of graph symmetries
    z = gen._mix64(np.arange(1, n + 1, dtype=np.uint64) * gen._M1)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 - 0.5


def fiedler_vector(g: Graph, mode: str = UNNORMALIZED, tol: float = 1e-10) -> np.ndarray:
    """Eigenvector of the Laplacian for the smallest non-zero eigenvalue.

    Runs Lanczos with full reorthogonalization on the Laplacian, restricted
    to the complement of the known nullspace direction, and returns the
    Ritz vector of the smallest Ritz value once its eigen-residual
    ||L v - mu v||, recomputed with one explicit operator application,
    drops below tol * ||v||.  The basis holds at most
    min(n - 1, max(2, _BASIS_BYTES // (8 n))) vectors; when it is full the
    iteration restarts from the current Ritz vector.  The result has unit
    infinity norm and a non-negative entry at node 1.  Deterministic: the
    starting vector is a fixed hash ramp with the nullspace projected out.

    It makes at most _MAX_APPLIES (500 000) Laplacian applications,
    counting Lanczos steps and residual checks together.

    Raises
    ------
    ValueError
        If tol is not a real number (a bool is not) with 0 < tol < inf.
    Disconnected
        If the graph has more than one component (the target eigenvalue
        would be ambiguous), or fewer than 2 nodes.
    NoConvergence
        If _MAX_APPLIES operator applications do not reach the tolerance.
    """
    # a tol of nan or at most 0 is never met, and inf accepts any vector
    tol = gc._real(tol, "tol", *gc._POSITIVE)
    if g.n < 2:
        raise Disconnected("need at least 2 nodes for a Fiedler vector")
    if not gc.is_connected(g):
        raise Disconnected("graph has more than one connected component")
    op = laplacian(g, mode)
    null = op.nullspace_direction()
    cap = min(g.n - 1, max(2, _BASIS_BYTES // (8 * g.n)))
    applies = 0

    def apply(x):
        nonlocal applies
        if applies >= _MAX_APPLIES:
            raise NoConvergence(f"no eigenpair to tolerance {tol} in {_MAX_APPLIES} "
                                "Laplacian applications")
        applies += 1
        return op.apply(x)

    v = _start_vector(g.n)
    while True:
        v = v - (null @ v) * null
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise NoConvergence("iteration collapsed onto the deflated nullspace")
        basis = np.empty((min(cap, _CHECK_EVERY), g.n))
        basis[0] = v / nv
        alpha, beta = [], []
        check_at = _CHECK_EVERY
        for k in range(1, cap + 1):
            q = basis[:k]
            w = apply(q[-1])
            alpha.append(float(q[-1] @ w))
            for _ in range(2):
                w -= q.T @ (q @ w)
                w -= (null @ w) * null
            b = float(np.linalg.norm(w))
            # below this, w is rounding noise: the Krylov space is invariant
            breakdown = b <= _EPS * (alpha[-1] + (beta[-1] if beta else 0.0))
            restart = breakdown or k == cap
            if restart or k >= check_at:
                check_at = k + max(_CHECK_EVERY, k // _CHECK_EVERY)
                t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
                _, s = np.linalg.eigh(t)
                if restart or b * abs(s[-1, 0]) <= tol:
                    v = s[:, 0] @ q
                    lv = apply(v)
                    mu = float(v @ lv) / float(v @ v)
                    if np.linalg.norm(lv - mu * v) <= tol * np.linalg.norm(v):
                        v = v / np.max(np.abs(v))
                        return -v if v[0] < 0.0 else v
                    if restart:
                        break
            if k == basis.shape[0]:
                basis = np.vstack((basis, np.empty((min(k, cap - k), g.n))))
            basis[k] = w / b
            beta.append(b)


def fiedler_value(g: Graph, v, mode: str = UNNORMALIZED) -> float:
    """Rayleigh quotient of v under the chosen Laplacian."""
    op = laplacian(g, mode)
    v = np.asarray(v, dtype=np.float64)
    return float(v @ op.apply(v)) / float(v @ v)


class IndicatorError(NamedTuple):
    l2: float
    linf: float


def indicator_error(x, cluster) -> IndicatorError:
    """Norms of x minus the 0/1 indicator of the cluster."""
    x = np.asarray(x, dtype=np.float64)
    ids = gc.as_node_ids(cluster, x.size)
    ind = np.zeros(x.size)
    ind[ids - 1] = 1.0
    err = x - ind
    return IndicatorError(l2=float(np.linalg.norm(err)),
                          linf=float(np.max(np.abs(err))) if err.size else 0.0)
