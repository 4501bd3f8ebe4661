"""Weighted simple graphs with a canonical directed orientation.

Every undirected edge {i, j} is stored exactly once as the directed pair
(min(i, j), max(i, j)).  Node ids are 1-based in the public API.  Vectors
indexed by nodes or edges are plain numpy arrays in 0-based position order:
position k of a node signal belongs to node k+1, and edge positions follow
the lexicographic order of the stored (i, j) pairs.  That edge order fixes
the indexing of every flow vector in the package.

`build_graph` takes (i, j, w) triples or an (m, 3) array, and every node
id anywhere in the package passes one check: finite, integral, in 1..n.
Every numeric parameter passes _real or _whole: a real number, not a bool,
in its range, stored as a Python float or int.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    InvalidEdge,
    InvalidNode,
    InvalidWeight,
)


_INT64_MAX = int(np.iinfo(np.int64).max)
# the largest finite double: _real's bounds are inclusive, so `finite` is
# -_MAX..._MAX and `positive` starts at the smallest positive double
_MAX = float(np.finfo(np.float64).max)
_POSITIVE = (math.ulp(0.0), _MAX, "positive and finite")


def _whole(value, what: str, low: int | None = None) -> int:
    """Return `value` as an int; raise ValueError naming `what` unless it is a
    whole real number, not a bool, and at least `low`."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real) and (
            isinstance(value, numbers.Integral) or float(value).is_integer()):
        if low is None or int(value) >= low:
            return int(value)
    rule = "a whole number" if low is None else f"a whole number >= {low}"
    raise ValueError(f"{what} must be {rule}, got {value!r}")


def _real(value, what: str, lo: float = -_MAX, hi: float = _MAX, rule: str = "finite") -> float:
    """Return `value` as a float; raise ValueError saying `what` must be `rule`
    unless it is a real number, not a bool, with lo <= value <= hi.  It is
    converted first: NaN fails both bounds, an np.float32 compares as a double.
    """
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):
            if lo <= (x := float(value)) <= hi:
                return x
    raise ValueError(f"{what} must be {rule}, got {value!r}")


def _node_count(n) -> int:
    """Return `n` as an int; raise InvalidNode unless it is a whole number in 1..2**63-1."""
    try:
        count = _whole(n, "node count")
    except ValueError:
        raise InvalidNode(f"node count must be a whole number, got {n!r}") from None
    if count < 1:
        raise InvalidNode(f"node count must be positive, got {count}")
    if count > _INT64_MAX:
        raise InvalidNode(f"node count {count} exceeds int64")
    return count


def _node_ids(ids, n: int) -> np.ndarray:
    """Return `ids` as int64; raise InvalidNode naming the first not an integer in 1..n.

    `n` is a node count that passed _node_count.
    """
    arr = np.asarray(ids)
    if arr.dtype.kind not in "iuf":
        raise InvalidNode(f"node ids must be numbers, got dtype {arr.dtype}")
    ok = (arr >= 1) & (arr <= n) & (arr == np.floor(arr))
    if arr.dtype.kind == "f":
        # the comparison rounds n up to 2**63, which int64 cannot hold
        ok &= arr < 2.0 ** 63
    if not ok.all():
        bad = arr[~ok][0].item()
        if isinstance(bad, float) and bad.is_integer():
            bad = int(bad)
        raise InvalidNode(f"node id {bad} is not an integer in 1..{n}")
    return arr.astype(np.int64)


def as_node_ids(ids, n: int) -> np.ndarray:
    """Validate an iterable of 1-based node ids against a graph of n nodes.

    Returns a sorted array of unique int64 ids.  Raises InvalidNode for
    non-integer, out-of-range or duplicate entries, and for an n that is
    not a whole number in 1..2**63-1.
    """
    n = _node_count(n)
    arr = np.sort(_node_ids(ids if isinstance(ids, np.ndarray) else list(ids), n))
    if arr.size > 1 and np.any(arr[1:] == arr[:-1]):
        dup = arr[1:][arr[1:] == arr[:-1]][0]
        raise InvalidNode(f"duplicate node id {dup}")
    return arr


def _id_set(ids) -> np.ndarray:
    """as_node_ids of `ids` bounded by their largest: sorted distinct int64 ids >= 1."""
    arr = np.asarray(ids)
    # bound by the largest id that fits int64: nan, inf and larger floats
    # then fail the check
    top = int(arr.max(initial=1, where=arr < 2.0 ** 63)) if arr.dtype.kind in "iuf" else 1
    return as_node_ids(arr, top)


class Graph:
    """Immutable weighted graph over nodes 1..n.

    Do not call the constructor directly; use :func:`build_graph`, which
    canonicalizes and validates the edge list.

    Attributes
    ----------
    n : int
        Number of nodes; ids are 1..n.
    src, dst : ndarray of int64
        0-based endpoints of each edge, src < dst, lexicographically sorted.
    weights : ndarray of float64
        Strictly positive edge weights, aligned with src/dst.
    """

    __slots__ = ("n", "src", "dst", "weights", "degree", "weighted_degree")

    def __init__(self, n, src, dst, weights):
        self.n = int(n)
        self.src = src
        self.dst = dst
        self.weights = weights
        self.degree = (np.bincount(src, minlength=n)
                       + np.bincount(dst, minlength=n))
        # build_graph rejects a weighted degree that overflows to inf
        with np.errstate(over="ignore"):
            self.weighted_degree = (np.bincount(src, weights=weights, minlength=n)
                                    + np.bincount(dst, weights=weights, minlength=n))
        for arr in (self.src, self.dst, self.weights, self.degree,
                    self.weighted_degree):
            arr.flags.writeable = False

    @property
    def num_edges(self) -> int:
        return self.src.size

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) array of 1-based (i, j) pairs in storage order."""
        return np.column_stack((self.src + 1, self.dst + 1))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst)
                and np.array_equal(self.weights, other.weights))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_graph(n: int, edge_list) -> Graph:
    """Build a Graph from (i, j, w) triples or an (m, 3) array of them.

    Edges are canonicalized to (min(i, j), max(i, j)) and stored sorted
    lexicographically, so the result does not depend on the input order.

    Parameters
    ----------
    n : int
        Node count, a whole number in 1..2**63-1.
    edge_list : iterable of (i, j, w) triples, or array of shape (m, 3)
        1-based endpoints and a strictly positive, finite weight per edge.

    Raises
    ------
    InvalidNode, InvalidEdge, DuplicateEdge, InvalidWeight
        Each is one test over all edges, run in the order shape, ids,
        self-loops, weights, duplicates; the first offending edge of the
        first failing test is reported.  Last, InvalidWeight names the
        first node whose weighted degree overflows to inf.
    """
    n = _node_count(n)
    try:
        arr = np.asarray(edge_list if isinstance(edge_list, np.ndarray) else list(edge_list))
    except ValueError:
        raise InvalidEdge("edges must be (i, j, w) triples of equal length") from None
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidEdge(f"edges must be (i, j, w) triples, got shape {arr.shape}")
    ij = _node_ids(arr[:, :2], n)
    i, j = ij[:, 0], ij[:, 1]
    loops = np.flatnonzero(i == j)
    if loops.size:
        raise InvalidEdge(f"self-loop at node {i[loops[0]]}")
    w = arr[:, 2].astype(np.float64)
    bad = np.flatnonzero(~((w > 0.0) & (w < np.inf)))
    if bad.size:
        k = bad[0]
        raise InvalidWeight(f"edge ({i[k]}, {j[k]}) has non-positive or non-finite "
                            f"weight {w[k]}")
    src, dst = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    same = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if np.any(same):
        k = int(np.flatnonzero(same)[0])
        raise DuplicateEdge(f"edge ({src[k] + 1}, {dst[k] + 1}) listed twice")
    g = Graph(n, src, dst, w)
    over = np.flatnonzero(g.weighted_degree == np.inf)
    if over.size:
        raise InvalidWeight(f"the edge weights at node {over[0] + 1} sum past the largest "
                            "double (weighted degree inf)")
    return g


def _as_signal(g: Graph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise DimensionMismatch(f"expected node signal of length {g.n}, got shape {x.shape}")
    return x


def _as_base_flow(g: Graph, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.num_edges,):
        raise DimensionMismatch(
            f"expected edge flow of length {g.num_edges}, got shape {y.shape}")
    return y


def incidence_apply(g: Graph, x) -> np.ndarray:
    """Signed edge differences: value x_i - x_j for each stored edge (i, j)."""
    x = _as_signal(g, x)
    return x[g.src] - x[g.dst]


def divergence(g: Graph, y) -> np.ndarray:
    """Net outflow per node: sum of y over out-edges minus sum over in-edges.

    This is the adjoint of :func:`incidence_apply`.  Per-node sums accumulate
    in ascending neighbour order (edges are stored sorted), so the result is
    reproducible bit for bit.
    """
    y = _as_base_flow(g, y)
    return (np.bincount(g.src, weights=y, minlength=g.n)
            - np.bincount(g.dst, weights=y, minlength=g.n))


def boundary(g: Graph, cluster) -> np.ndarray:
    """Edge positions with exactly one endpoint in `cluster`.

    Both orientations count: (i, j) is a boundary edge whenever membership
    differs across it, regardless of which endpoint is inside.
    """
    ids = as_node_ids(cluster, g.n)
    mask = np.zeros(g.n, dtype=bool)
    mask[ids - 1] = True
    return np.flatnonzero(mask[g.src] != mask[g.dst])


def isolated_nodes(g: Graph) -> np.ndarray:
    """1-based ids of nodes with no incident edge."""
    return np.flatnonzero(g.degree == 0) + 1


def is_connected(g: Graph) -> bool:
    """True when the graph has a single connected component (n >= 1)."""
    # min-label propagation: hook each root onto the smallest root across
    # its edges, then jump pointers until every node points at its root.
    # parent[k] <= k throughout, so the pointers form a forest.
    parent = np.arange(g.n)
    while True:
        rs, rd = parent[g.src], parent[g.dst]
        if np.array_equal(rs, rd):
            return bool(np.all(parent == 0))
        np.minimum.at(parent, np.maximum(rs, rd), np.minimum(rs, rd))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


# ---------------------------------------------------------------------------
# file formats


def _text_lines(path):
    """Yield (lineno, stripped line) for each line that is neither blank nor a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


@contextlib.contextmanager
def _atomic_open(path, mode="w", **kwargs):
    """Open `path` for writing through a new temp file in its directory.

    The temp file replaces `path` (os.replace) only once the block has
    finished, so a write that fails partway leaves neither file behind and
    any earlier file at `path` as it was.  Takes open()'s "w" or "wb" mode.
    """
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def read_edge_list(path) -> Graph:
    """Read an edge-list text file: one `i j w` triple per line.

    Fields are whitespace separated, ids are 1-based, lines starting with
    `#` and blank lines are skipped; a `#` after a triple is an error.
    The node count is the largest id seen, which may not exceed the file's
    size in bytes (see _inferred_n).

    A file without any `#` is parsed in C by one np.loadtxt call, with
    int64 ids and float64 weights.  Every other file, and every file that
    loadtxt declines (a ValueError, as for `1_0` or an id beyond int64, or
    no data), goes through the line parser: it accepts what int() and
    float() accept and names the offending `path:lineno`.  Both read UTF-8
    text with universal newlines and give the same graph for the same
    triples.
    """
    with open(path, "rb") as fh:
        plain = b"#" not in fh.read()
        size = fh.tell()
    if plain:
        try:
            with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
                # loadtxt warns, and returns nothing, on a file with no data
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=_EDGE_ROW, ndmin=1)
        except (ValueError, Warning):
            pass
        else:
            n = _inferred_n(max(rows["i"].max(), rows["j"].max()), size)
            return build_graph(n, np.column_stack((rows["i"], rows["j"], rows["w"])))
    return _read_edge_lines(path, size)


def _read_edge_lines(path, size: int) -> Graph:
    """read_edge_list's line parser: one int(), int(), float() per line."""
    triples = []
    for lineno, line in _text_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise InvalidEdge(f"{path}:{lineno}: expected `i j w`, got {line!r}")
        try:
            i, j, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InvalidEdge(f"{path}:{lineno}: {exc}") from exc
        triples.append((i, j, w))
    n = _inferred_n(max((max(i, j) for i, j, _ in triples), default=0), size)
    return build_graph(n, triples)


def _inferred_n(largest, size: int):
    """The node count of an edge-list file of `size` bytes.

    It is the largest id.  An id above `size` is rejected here, before
    anything of length n is allocated, so the node arrays stay within a
    small multiple of the file the reader already holds, whatever one
    stray id says.  Every edge line takes at least 6 bytes, so a graph
    with no isolated node always passes.  An id beyond int64 is left to
    build_graph, which rejects it as not a number; the count is then
    2**63-1.
    """
    if size < largest <= _INT64_MAX:
        raise InvalidNode(f"node id {largest} exceeds the file's size of {size} bytes, "
                          f"so most nodes up to it would be on no edge")
    return min(largest, _INT64_MAX)


def read_node_set(path, n: int) -> np.ndarray:
    """Read a node-set file of ids in 1..n: one id per line, `#` comments."""
    ids = []
    for lineno, line in _text_lines(path):
        try:
            ids.append(int(line))
        except ValueError as exc:
            raise InvalidNode(f"{path}:{lineno}: {exc}") from exc
    return as_node_ids(ids, n)


def write_node_set(path, ids) -> None:
    """Write node ids one per line, ascending, through a temp file (see _atomic_open).

    The ids pass _id_set, so this writes only what read_node_set reads
    back: distinct integers >= 1.
    """
    ids = _id_set(ids)
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in ids:
            fh.write(f"{i}\n")
