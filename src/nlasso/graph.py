"""Weighted simple graphs with a canonical directed orientation.

Every undirected edge {i, j} is stored exactly once as the directed pair
(min(i, j), max(i, j)).  Node ids are 1-based in the public API.  Vectors
indexed by nodes or edges are plain numpy arrays in 0-based position order:
position k of a node signal belongs to node k+1, and edge positions follow
the lexicographic order of the stored (i, j) pairs.  That edge order fixes
the indexing of every flow vector in the package.

`build_graph` takes (i, j, w) triples or an (m, 3) array, and every node
id anywhere in the package passes one check, as_node_ids: finite,
integral, in 1..n, for any n >= 0.  _node_mask turns ids that pass it
into the boolean indicator over nodes 1..n, the one membership array
that seed containment and cluster certificates are read from.  Every numeric
parameter passes _real or _whole: a real number, not a bool, in its range,
stored as a Python float or int.  Every array passes _numeric: int, float
or big-int entries, and no bool, not even one inside a list of numbers.
_as_vector applies it before it makes a signal, flow, vector or weight
column float64.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import reprlib
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateEdge,
    InvalidEdge,
    InvalidNode,
    InvalidWeight,
    IsolatedNode,
    _InputError,
)


_INT64_MAX = int(np.iinfo(np.int64).max)
# the largest finite double: _real's bounds are inclusive, so `finite` is
# -_MAX..._MAX and `positive` starts at the smallest positive double
_MAX = float(np.finfo(np.float64).max)
_POSITIVE = (math.ulp(0.0), _MAX, "positive and finite")


def _whole(value, what: str, low: int | None = None) -> int:
    """Return `value` as an int; raise ValueError naming `what` unless it is a
    whole real number, not a bool, and at least `low`."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        # float() overflows on a fraction past the float range
        with contextlib.suppress(OverflowError):
            if (isinstance(value, numbers.Integral) or float(value).is_integer()) and (
                    low is None or int(value) >= low):
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


def _node_count(n, low: int = 1) -> int:
    """Return `n` as an int; raise InvalidNode unless it is a whole number in
    low..2**63-1, where `low` is 1 for a graph and 0 for a signal's nodes."""
    try:
        count = _whole(n, "node count")
    except ValueError:
        raise InvalidNode(f"node count must be a whole number, got {n!r}") from None
    if count < low:
        rule = "positive" if low else "non-negative"
        raise InvalidNode(f"node count must be {rule}, got {count}")
    if count > _INT64_MAX:
        raise InvalidNode(f"node count {count} exceeds int64")
    return count


def _node_ids(arr: np.ndarray, n: int, given=None) -> np.ndarray:
    """Return `arr` as int64; raise InvalidNode naming the first not an integer in 1..n.

    `n` is a node count that passed _node_count, and `given` what `arr` was
    made from (see _numeric).
    """
    _numeric(arr, "node ids", given, InvalidNode)
    ok = (arr >= 1) & (arr <= n)
    if arr.dtype.kind == "f":
        # the comparison rounds n up to 2**63, which int64 cannot hold
        ok &= (arr == np.floor(arr)) & (arr < 2.0 ** 63)
    if not ok.all():
        bad = arr[~ok][:1].tolist()[0]
        if isinstance(bad, float) and bad.is_integer():
            bad = int(bad)
        raise _at_entry(InvalidNode(f"node id {bad} is not an integer in 1..{n}"),
                        np.argwhere(~ok)[0, 0])
    return arr.astype(np.int64)


def _numeric(arr: np.ndarray, what: str, given=None, error=ValueError) -> None:
    """Raise `error` saying `what` must hold real numbers unless `arr` is an
    array of numbers: of an integer or float dtype, or of ints alone, as
    np.asarray keeps a list that holds an int past int64.

    A bool is no number.  np.asarray makes one in a list of numbers a number
    too, so a list or tuple `given`, the input `arr` was made from, that
    holds a bool (Python's or numpy's) fails as an array of dtype bool.
    """
    dtype = arr.dtype
    if dtype.kind in "iuf":
        if not isinstance(given, (list, tuple)) or not any(
                isinstance(v, (bool, np.bool_)) for v in np.asarray(given, dtype=object).flat):
            return
        dtype = np.dtype(bool)
    elif dtype == object and all(
            isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in arr.flat):
        return
    raise error(f"{what} must hold real numbers, got dtype {dtype}")


def _at_entry(exc: _InputError, index) -> _InputError:
    """`exc` naming the entry at first-axis position `index` of the input
    checked (an edge's row in build_graph), kept as its `_index` for a
    reader that knows the line of each entry (see _named_lines)."""
    exc._index = int(index)
    return exc


def as_node_ids(ids, n: int) -> np.ndarray:
    """Validate an iterable of 1-based node ids against a graph of n nodes.

    Returns a sorted array of unique int64 ids.  Raises InvalidNode for
    ids not in one flat list, for non-integer, out-of-range or duplicate
    entries, and for an n that is not a whole number in 0..2**63-1: a
    signal with no nodes holds no ids.
    """
    n = _node_count(n, low=0)
    try:
        given = ids if isinstance(ids, np.ndarray) else list(ids)
        ids = np.asarray(given)
    except (TypeError, ValueError):
        # not iterable, or ragged
        raise InvalidNode(f"node ids must be a flat list, got {reprlib.repr(ids)}") from None
    if ids.ndim != 1:
        raise InvalidNode(f"node ids must be a flat list, got shape {ids.shape}")
    ids = _node_ids(ids, n, given)
    arr = np.sort(ids)
    if arr.size > 1 and np.any(arr[1:] == arr[:-1]):
        dup = arr[1:][arr[1:] == arr[:-1]][0]
        # named at its second entry, the one that repeats it
        raise _at_entry(InvalidNode(f"duplicate node id {dup}"), np.flatnonzero(ids == dup)[1])
    return arr


def _node_mask(ids, n: int) -> np.ndarray:
    """The boolean indicator over nodes 1..n of `ids`, which pass as_node_ids."""
    ids = as_node_ids(ids, n)
    mask = np.zeros(n, dtype=bool)
    mask[ids - 1] = True
    return mask


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
    ValueError
        If the weights are not numbers within the float range (see _as_vector).
    InvalidNode, InvalidEdge, DuplicateEdge, InvalidWeight
        Each is one test over all edges, run in the order shape, numbers
        (InvalidEdge, unless numpy keeps the list as objects: then the ids
        and the weights are checked apart), ids, self-loops, weights,
        duplicates; the first offending edge of the
        first failing test is reported, a duplicate at its later copy,
        with its row (see _at_entry).  Last, InvalidWeight names the
        first node whose weighted degree overflows to inf.
    """
    n = _node_count(n)
    try:
        given = edge_list if isinstance(edge_list, np.ndarray) else list(edge_list)
        arr = np.asarray(given)
    except (TypeError, ValueError):
        raise InvalidEdge("edges must be (i, j, w) triples of equal length") from None
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidEdge(f"edges must be (i, j, w) triples, got shape {arr.shape}")
    if arr.dtype != object:
        # a list of ids and weights alike; objects are checked per column below
        _numeric(arr, "edges", given, InvalidEdge)
    ij = _node_ids(arr[:, :2], n)
    i, j = ij[:, 0], ij[:, 1]
    loops = np.flatnonzero(i == j)
    if loops.size:
        raise _at_entry(InvalidEdge(f"self-loop at node {i[loops[0]]}"), loops[0])
    # a contiguous copy, as the checks below read it twice
    w = _as_vector(arr[:, 2].copy(), what="weight column")
    bad = np.flatnonzero(~((w > 0.0) & (w < np.inf)))
    if bad.size:
        k = bad[0]
        raise _at_entry(InvalidWeight(f"edge ({i[k]}, {j[k]}) has non-positive or "
                                      f"non-finite weight {w[k]}"), k)
    src, dst = np.minimum(i, j) - 1, np.maximum(i, j) - 1
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    same = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
    if np.any(same):
        k = int(np.flatnonzero(same)[0])
        # lexsort is stable, so order[k + 1] is the later copy's row
        raise _at_entry(DuplicateEdge(f"edge ({src[k] + 1}, {dst[k] + 1}) listed twice"),
                        order[k + 1])
    g = Graph(n, src, dst, w)
    over = np.flatnonzero(g.weighted_degree == np.inf)
    if over.size:
        raise InvalidWeight(f"the edge weights at node {over[0] + 1} sum past the largest "
                            "double (weighted degree inf)")
    return g


def _as_array(x, what: str) -> np.ndarray:
    """np.asarray(x); raise ValueError naming `what` if x is ragged, which
    numpy rejects in words that name no argument."""
    try:
        return np.asarray(x)
    except ValueError:
        raise ValueError(f"{what} must not be ragged, got {reprlib.repr(x)}") from None


def _as_vector(x, size: int | None = None, what: str = "node signal") -> np.ndarray:
    """Return `x` as float64 of shape (size,), or 1-d for no size; raise ValueError
    naming `what` unless it holds numbers (see _numeric) within the float range."""
    given, x = x, _as_array(x, what)
    _numeric(x, what, given)
    try:
        x = x.astype(np.float64, copy=False)
    except OverflowError:
        raise ValueError(f"{what} holds an integer past the float range") from None
    if size is None and x.ndim != 1:
        raise DimensionMismatch(f"expected a 1-d {what}, got shape {x.shape}")
    if size is not None and x.shape != (size,):
        raise DimensionMismatch(f"expected {what} of length {size}, got shape {x.shape}")
    return x


def incidence_apply(g: Graph, x) -> np.ndarray:
    """Signed edge differences: value x_i - x_j for each stored edge (i, j)."""
    x = _as_vector(x, g.n)
    return x[g.src] - x[g.dst]


def divergence(g: Graph, y) -> np.ndarray:
    """Net outflow per node: sum of y over out-edges minus sum over in-edges.

    This is the adjoint of :func:`incidence_apply`.  Per-node sums accumulate
    in ascending neighbour order (edges are stored sorted), so the result is
    reproducible bit for bit.
    """
    y = _as_vector(y, g.num_edges, "edge flow")
    return (np.bincount(g.src, weights=y, minlength=g.n)
            - np.bincount(g.dst, weights=y, minlength=g.n))


def _reject_isolated(g: Graph, reason: str) -> None:
    """Raise IsolatedNode naming g's first node of degree 0, and `reason`."""
    if (bad := np.flatnonzero(g.degree == 0)).size:
        raise IsolatedNode(f"node {int(bad[0]) + 1} has degree 0; {reason}")


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
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield lineno, line


@contextlib.contextmanager
def _named_lines(path):
    """Raise an input error of the block again with `path:lineno: ` before
    its message, the line of the entry it names, or `path: ` if it names
    none.  Each entry of a node-set or edge-list file is one of its data
    lines (see _text_lines); they are counted only once an entry failed."""
    try:
        yield
    except _InputError as exc:
        where = path
        if exc._index is not None:
            where = f"{path}:{list(_text_lines(path))[exc._index][0]}"
        raise type(exc)(f"{where}: {exc}") from exc


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

    One np.loadtxt call parses the file in C, with int64 ids and float64
    weights.  Every file that it declines (a ValueError, as for any `#`,
    for `1_0` or an id beyond int64, or no data) goes through the line
    parser: it accepts what int() and float() accept.  Both read UTF-8
    text with universal newlines and give the same graph for the same
    triples.  Every error of an edge names
    `path:lineno` of its line (a duplicate edge at its later copy), and
    an overflowing weighted degree names `path`.
    """
    with open(os.fspath(path), encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        try:
            with warnings.catch_warnings():
                # loadtxt warns, and returns nothing, on a file with no data
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=_EDGE_ROW, ndmin=1, comments=None)
        except (ValueError, Warning):
            return _read_edge_lines(path, size)
    with _named_lines(path):
        n = _inferred_n(np.maximum(rows["i"], rows["j"]), size)
        return build_graph(n, np.column_stack((rows["i"], rows["j"], rows["w"])))


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
    if not triples:
        raise InvalidEdge(f"{path}: no edges")
    with _named_lines(path):
        n = _inferred_n(np.array([max(i, j) for i, j, _ in triples]), size)
        return build_graph(n, triples)


def _inferred_n(row_max: np.ndarray, size: int):
    """The node count of an edge-list file of `size` bytes, given the larger
    id of each edge (object dtype if one is beyond int64).

    It is the largest id.  An id above `size` is rejected here, at the
    first edge that holds it (see _at_entry), before anything of length n
    is allocated, so the node arrays stay within a small multiple of the
    file the reader already holds, whatever one stray id says.  Every
    edge line takes at least 6 bytes, so a graph with no isolated node
    always passes.  An id beyond int64 is left to build_graph, which
    rejects it as not a number; the count is then 2**63-1.  Where no id
    is positive the count is 1, so build_graph names the first bad id.
    """
    largest = row_max.max()
    if size < largest <= _INT64_MAX:
        raise _at_entry(InvalidNode(f"node id {largest} exceeds the file's size of {size} "
                                    "bytes, so most nodes up to it would be on no edge"),
                        np.argmax(row_max))
    return max(1, min(largest, _INT64_MAX))


def read_node_set(path, n: int) -> np.ndarray:
    """Read a node-set file of ids in 1..n: one id per line, `#` comments.

    An id that is not an integer in 1..n, or repeats an earlier one, is
    reported at `path:lineno` of its line.  n is checked first."""
    n = _node_count(n)
    ids = []
    for lineno, line in _text_lines(path):
        try:
            ids.append(int(line))
        except ValueError as exc:
            raise InvalidNode(f"{path}:{lineno}: {exc}") from exc
    with _named_lines(path):
        return as_node_ids(ids, n)


def write_node_set(path, ids) -> None:
    """Write node ids one per line, ascending, through a temp file (see _atomic_open).

    The ids pass as_node_ids bounded by the largest int64, so this writes
    only what read_node_set reads back: distinct integers in 1..2**63-1.
    """
    ids = as_node_ids(ids, _INT64_MAX)
    with _atomic_open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i in ids:
            fh.write(f"{i}\n")
