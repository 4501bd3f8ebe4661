import re
import warnings

import numpy as np
import pytest

from nlasso import (
    DimensionMismatch,
    DuplicateEdge,
    InvalidEdge,
    InvalidNode,
    InvalidWeight,
    IsolatedNode,
    build_graph,
    divergence,
    incidence_apply,
    is_connected,
    read_edge_list,
    read_node_set,
    write_node_set,
)
from nlasso.graph import _reject_isolated, as_node_ids
from oracle import random_connected_graph


def test_build_canonicalizes_orientation():
    g = build_graph(2, [(2, 1, 1.0)])
    assert g.edges.tolist() == [[1, 2]]
    assert g.weights.tolist() == [1.0]


def test_build_weighted_chain(weighted_chain):
    g = weighted_chain
    assert g.n == 100
    assert g.num_edges == 99
    assert g.edges[3].tolist() == [4, 5]
    assert g.weights[3] == 1.0
    others = np.delete(g.weights, 3)
    assert np.all(others == 5.0 / 4.0)


def test_build_rejects_duplicate_after_canonicalization():
    with pytest.raises(DuplicateEdge):
        build_graph(3, [(1, 2, 1.0), (2, 1, 1.0)])


def test_build_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        build_graph(3, [(2, 2, 1.0)])


@pytest.mark.parametrize("w", [0.0, -1.0, float("nan"), float("inf")])
def test_build_rejects_nonpositive_weight(w):
    with pytest.raises(InvalidWeight):
        build_graph(2, [(1, 2, w)])


@pytest.mark.parametrize("w, error, message", [
    # the ids are ints, so numpy keeps these triples as objects, checked per column
    (None, ValueError, "weight column must hold real numbers, got dtype object"),
    ({}, ValueError, "weight column must hold real numbers, got dtype object"),
    (10 ** 400, ValueError, "weight column holds an integer past the float range"),
    # numpy gives these triples the weight's dtype, so the edge list as a whole fails
    (1j, InvalidEdge, "edges must hold real numbers, got dtype complex128"),
    ("x", InvalidEdge, "edges must hold real numbers, got dtype <U21"),
    # numpy makes the bool a number, but it is none
    (True, InvalidEdge, "edges must hold real numbers, got dtype bool"),
], ids=["none", "dict", "int-past-float", "complex", "str", "bool"])
def test_build_rejects_weights_that_are_not_numbers(w, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build_graph(2, [(1, 2, w)])


@pytest.mark.parametrize("edges, node", [
    # two edges at node 2, whose sum overflows where the two bincounts add
    ([(1, 2, 1e308), (2, 3, 1e308)], 2),
    # two out-edges at node 1, whose sum overflows inside one bincount
    ([(1, 2, 1e308), (1, 3, 1e308), (2, 3, 1.0)], 1),
], ids=["in-plus-out", "out-only"])
def test_build_rejects_overflowing_weighted_degree(edges, node):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidWeight, match=f"at node {node} sum past"):
            build_graph(3, edges)
        # just below the largest double, the weighted degree stays finite
        g = build_graph(3, [(1, 2, 1e308), (2, 3, 7e307)])
    assert g.weighted_degree[1] == 1.7e308


OUT_OF_RANGE = [(3, (0, 2)), (3, (1, 4)), (3, (-1, 2)), (3, (1.5, 2)),
                (3, (float("inf"), 2)), (3, (float("nan"), 2)),
                # node counts that are not whole numbers in 1..2**63-1
                (2.5, (1, 2)), (float("nan"), (1, 2)), (float("inf"), (1, float("inf"))),
                (2.0 ** 63, (1, 2.0 ** 63)), ("3", (1, 2)), (True, (1, 2)),
                # a float id that int64 cannot hold, below a valid node count
                (2 ** 63 - 1, (1, 2.0 ** 63))]


@pytest.mark.parametrize("n, edge", OUT_OF_RANGE,
                         ids=[f"edge{k}" for k in range(6)]
                         + ["n-2.5", "n-nan", "n-inf", "n-2^63", "n-str", "n-bool",
                            "id-2^63"])
def test_build_rejects_out_of_range_ids(n, edge):
    i, j = edge
    with pytest.raises(InvalidNode):
        build_graph(n, [(i, j, 1.0)])
    with pytest.raises(InvalidNode):
        as_node_ids(edge, n)


@pytest.mark.parametrize("edges", [[(1, 2)], [(1, 2, 1.0), (2, 3)], (1, 2, 1.0), 5],
                         ids=["pair", "ragged", "bare-triple", "scalar"])
def test_build_rejects_malformed_triples(edges):
    with pytest.raises(InvalidEdge):
        build_graph(3, edges)


def test_build_rejects_nonpositive_node_count():
    with pytest.raises(InvalidNode):
        build_graph(0, [])


def test_build_is_order_insensitive(rng):
    triples = [(1, 2, 0.5), (2, 3, 1.5), (1, 3, 2.5), (3, 4, 0.25)]
    g1 = build_graph(4, triples)
    for _ in range(5):
        perm = rng.permutation(len(triples))
        g2 = build_graph(4, [triples[k] for k in perm])
        assert g1 == g2
        assert build_graph(4, np.array(triples)[perm]) == g1
    # the same edges as an (m, 3) array: float ids, integer ids, a generator
    assert build_graph(4, np.array(triples)) == g1
    assert build_graph(4, np.array([[1, 2, 1], [2, 3, 3]])) == build_graph(
        4, [(1, 2, 1.0), (2, 3, 3.0)])
    assert build_graph(4, (t for t in triples)) == g1


def test_neighbor_lists_sorted(house_graph):
    # storage order lists each node's higher neighbours in ascending order
    g = house_graph
    assert g.edges.tolist() == [[1, 2], [1, 3], [2, 3], [2, 4], [3, 5], [4, 5]]
    assert g.degree.tolist() == [2, 3, 3, 2, 2]


def test_incidence_constant_is_zero(house_graph):
    assert np.all(incidence_apply(house_graph, np.full(5, 3.7)) == 0.0)


def test_incidence_two_nodes():
    g = build_graph(2, [(1, 2, 1.0)])
    assert incidence_apply(g, [1.0, 0.0]).tolist() == [1.0]


def test_incidence_four_chain():
    # direct evaluation of x_i - x_j on edges (1,2), (2,3), (3,4)
    g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)])
    assert incidence_apply(g, [1.0, 1.0, 0.0, 0.0]).tolist() == [0.0, 1.0, 0.0]


def test_incidence_dimension_mismatch(house_graph):
    with pytest.raises(DimensionMismatch):
        incidence_apply(house_graph, np.zeros(4))


def test_divergence_zero_flow(house_graph):
    assert np.all(divergence(house_graph, np.zeros(6)) == 0.0)


def test_divergence_single_edge():
    g = build_graph(2, [(1, 2, 1.0)])
    assert divergence(g, [1.0]).tolist() == [1.0, -1.0]


def test_divergence_sums_to_zero(rng):
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(2, 9)), rng)
        y = rng.normal(size=g.num_edges)
        assert abs(divergence(g, y).sum()) < 1e-12


def test_incidence_divergence_adjoint(rng):
    for _ in range(20):
        g = random_connected_graph(int(rng.integers(2, 9)), rng)
        x = rng.normal(size=g.n)
        y = rng.normal(size=g.num_edges)
        lhs = float(incidence_apply(g, x) @ y)
        rhs = float(x @ divergence(g, y))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_as_node_ids_rejects_bad_ids():
    with pytest.raises(InvalidNode):
        as_node_ids([0], 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidNode, match="node id inf "):
            as_node_ids([float("inf")], 5)
        for bad in (np.array([1.0, np.inf]), [2.5], [1, 1], ["1"], [6], [np.nan]):
            with pytest.raises(InvalidNode):
                as_node_ids(bad, 5)
    assert as_node_ids([2.0], 5).tolist() == as_node_ids([2], 5).tolist() == [2]


def test_isolated_and_connected():
    g = build_graph(4, [(1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(IsolatedNode, match="^node 4 has degree 0; no neighbour$"):
        _reject_isolated(g, "no neighbour")
    assert not is_connected(g)
    assert is_connected(build_graph(4, [(1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0)]))
    assert is_connected(build_graph(1, []))


def test_is_connected_matches_scipy(rng):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    outcomes = []
    for n in [1, 1, *rng.integers(2, 40, size=200)]:
        n = int(n)
        pairs = rng.integers(1, n + 1, size=(int(rng.integers(0, 2 * n + 1)), 2))
        pairs = {(min(i, j), max(i, j)) for i, j in pairs.tolist() if i != j}
        g = build_graph(n, [(i, j, 1.0) for i, j in sorted(pairs)])
        adj = coo_array((np.ones(g.num_edges), (g.src, g.dst)), shape=(n, n))
        count, _ = connected_components(adj, directed=False)
        assert is_connected(g) == (count == 1), (n, sorted(pairs))
        outcomes.append(count == 1)
    assert 20 <= sum(outcomes) <= len(outcomes) - 20  # both answers exercised
    # a long path under a random relabelling needs many hooking rounds
    perm = rng.permutation(2000) + 1
    chain = [(int(a), int(b), 1.0) for a, b in zip(perm[:-1], perm[1:])]
    assert is_connected(build_graph(2000, chain))
    assert not is_connected(build_graph(2000, chain[:999] + chain[1000:]))


def write_edges(path, g):
    """Write g's edges as the `i j w` lines read_edge_list reads, one per edge."""
    path.write_text("".join(f"{i} {j} {float(w)!r}\n"
                            for i, j, w in zip(g.src + 1, g.dst + 1, g.weights)))


def test_edge_list_round_trip(tmp_path, house_graph):
    path = tmp_path / "g.txt"
    write_edges(path, house_graph)
    back = read_edge_list(path)
    assert back == house_graph


def test_edge_list_comments_and_blanks(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\n\n2 1 0.5\n  # indented comment\n1 3 2\n")
    g = read_edge_list(path)
    assert g.edges.tolist() == [[1, 2], [1, 3]]
    assert g.weights.tolist() == [0.5, 2.0]


def test_edge_list_bad_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("1 2\n")
    with pytest.raises(InvalidEdge):
        read_edge_list(path)
    # diagnostics name the file line, counting comments and blank lines
    path.write_text("# header\n\n  # indented comment\n1 2 x\n")
    with pytest.raises(InvalidEdge, match=re.escape(f"{path}:4: ")):
        read_edge_list(path)


def test_node_set_round_trip(tmp_path):
    path = tmp_path / "s.txt"
    write_node_set(path, [4, 1, 3])
    assert read_node_set(path, 4).tolist() == [1, 3, 4]
    assert read_node_set(path, 10).tolist() == [1, 3, 4]
    with pytest.raises(InvalidNode, match=re.escape(f"{path}:2: node id 3 is not an integer "
                                                    "in 1..2")):
        read_node_set(path, 2)
    path.write_text("# header\n1\n\n2.5\n")
    with pytest.raises(InvalidNode, match=re.escape(f"{path}:4: ")):
        read_node_set(path, 10)
    # a repeated id is named at its later line
    path.write_text("# header\n2\n1\n\n2\n2\n")
    with pytest.raises(InvalidNode, match=re.escape(f"{path}:5: duplicate node id 2")):
        read_node_set(path, 10)
    # an id past int64 is named at its line, as any other id out of range
    path.write_text("1\n99999999999999999999\n")
    with pytest.raises(InvalidNode, match=re.escape(f"{path}:2: node id 99999999999999999999 "
                                                    "is not an integer in 1..3")):
        read_node_set(path, 3)
    with pytest.raises(InvalidNode, match=r"^node id 1180591620717411303424 is not an integer "
                                          r"in 1\.\.9223372036854775807$"):
        write_node_set(path, [1, 2 ** 70])
    assert path.read_text() == "1\n99999999999999999999\n"
    write_node_set(path, np.array([7.0, 2.0]))
    assert path.read_text() == "2\n7\n"
    write_node_set(path, [])
    assert path.read_text() == "" and read_node_set(path, 1).size == 0
    # an error that names no entry is the caller's n, not the file's
    path.write_text("1\n")
    with pytest.raises(InvalidNode, match=r"^node count must be positive, got 0$"):
        read_node_set(path, 0)


@pytest.mark.parametrize("ids", [[2.7, 2, 1], [0, 2], [-1], [3, 1, 3], [np.nan, 1],
                                 [np.inf, 1], [1e30], [2.0 ** 63], ["1"]])
def test_write_node_set_rejects_what_read_node_set_would(tmp_path, ids):
    path = tmp_path / "s.txt"
    with pytest.raises(InvalidNode):
        write_node_set(path, ids)
    assert not path.exists()


# What read_edge_list accepts and rejects.  Files without `#` go through
# np.loadtxt; whatever it declines falls back to the line parser.  Both
# name the line of an edge that build_graph rejects.
EDGE_FILES = {
    "plus-sign": (b"+3 1 0.5\n", (3, [[1, 3]], [0.5])),
    "underscores": (b"1_0 2 2_5\n", (10, [[2, 10]], [25.0])),
    "non-ascii-digit": ("٣ 1 0.5\n".encode(), (3, [[1, 3]], [0.5])),
    "tabs": (b"1\t2\t0.5\n2\t3\t1\n", (3, [[1, 2], [2, 3]], [0.5, 1.0])),
    "crlf": (b"1 2 0.5\r\n2 3 1\r\n", (3, [[1, 2], [2, 3]], [0.5, 1.0])),
    "weight-underflow": (b"1 2 1e-400\n", (InvalidWeight, "{path}:1: edge (1, 2) has non-"
                                                          "positive or non-finite weight 0.0")),
    "weight-inf": (b"1 2 inf\n", (InvalidWeight, "{path}:1: edge (1, 2) has non-positive "
                                                 "or non-finite weight inf")),
    "weight-nan": (b"1 2 nan\n", (InvalidWeight, "{path}:1: edge (1, 2) has non-positive "
                                                 "or non-finite weight nan")),
    "weight-nan-after-comment": (b"# c\n1 2 0.5\n\n2 3 nan\n",
                                 (InvalidWeight, "{path}:4: edge (2, 3) has non-positive "
                                                 "or non-finite weight nan")),
    "id-zero": (b"1 2 0.5\n0 3 1\n", (InvalidNode, "{path}:2: node id 0 is not an integer "
                                                   "in 1..3")),
    "id-zero-after-comment": (b"# c\n1 2 0.5\n0 3 1\n",
                              (InvalidNode, "{path}:3: node id 0 is not an integer in 1..3")),
    # no id is positive: the count is 1, and the first bad id is named at its line
    "ids-all-non-positive": (b"0 -1 1.0\n", (InvalidNode, "{path}:1: node id 0 is not an "
                                                          "integer in 1..1")),
    "ids-all-zero-after-comment": (b"# c\n0 0 1.0\n",
                                   (InvalidNode, "{path}:2: node id 0 is not an integer "
                                                 "in 1..1")),
    "self-loop": (b"1 2 0.5\n\n2 2 1\n", (InvalidEdge, "{path}:3: self-loop at node 2")),
    "self-loop-crlf": (b"1 2 0.5\r\n  \r\n2 2 1\r\n", (InvalidEdge, "{path}:3: self-loop "
                                                                   "at node 2")),
    "self-loop-after-comment": (b"# c\n1 2 0.5\n\n2 2 1\n",
                                (InvalidEdge, "{path}:4: self-loop at node 2")),
    # named at the later copy, wherever the sort puts the edge
    "duplicate": (b"1 2 0.5\n2 3 1\n2 1 4\n", (DuplicateEdge, "{path}:3: edge (1, 2) "
                                                             "listed twice")),
    "duplicate-after-comment": (b"# c\n3 4 1\n1 2 0.5\n4 3 1\n1 2 1\n",
                                (DuplicateEdge, "{path}:5: edge (1, 2) listed twice")),
    # names a node, not a line
    "weighted-degree-overflow": (b"1 2 1e308\n2 3 1e308\n",
                                 (InvalidWeight, "{path}: the edge weights at node 2 sum past "
                                                 "the largest double (weighted degree inf)")),
    "float-id": (b"1 2 0.5\n1.0 3 0.5\n",
                 (InvalidEdge, "{path}:2: invalid literal for int() with base 10: '1.0'")),
    "exponent-id": (b"1 2 0.5\n\n2 1e1 0.5\n",
                    (InvalidEdge, "{path}:3: invalid literal for int() with base 10: '1e1'")),
    "bad-weight": (b"1 2 0.5\n2 3 x\n",
                   (InvalidEdge, "{path}:2: could not convert string to float: 'x'")),
    "trailing-comment": (b"1 2 0.5 # c\n",
                         (InvalidEdge, "{path}:1: expected `i j w`, got '1 2 0.5 # c'")),
    "two-fields": (b"1 2 0.5\n2 3\n", (InvalidEdge, "{path}:2: expected `i j w`, got '2 3'")),
    "four-fields": (b"1 2 0.5 7\n",
                    (InvalidEdge, "{path}:1: expected `i j w`, got '1 2 0.5 7'")),
    "not-utf8": (b"1 2 0.5\n2 3 \xff\n", (UnicodeDecodeError, "can't decode byte 0xff")),
    "empty": (b"", (InvalidEdge, "{path}: no edges")),
    "comments-only": (b"# header\n\n  # note\n", (InvalidEdge, "{path}: no edges")),
    "id-beyond-int64": (b"1 99999999999999999999 0.5\n",
                        (InvalidNode, "{path}:1: node id 99999999999999999999 is not an "
                                      "integer in 1..9223372036854775807")),
    # named at the first line that holds the largest id
    "id-beyond-file-size": (b"2 9000000000 1.0\n",
                            (InvalidNode, "{path}:1: node id 9000000000 exceeds the file's size "
                                          "of 17 bytes, so most nodes up to it would be on no "
                                          "edge")),
    "id-beyond-file-size-after-comment": (
        b"# header\n1 2 1.0\n\n9000000000 3 1.0\n2 9000000000 1.0\n",
        (InvalidNode, "{path}:4: node id 9000000000 exceeds the file's size of 52 bytes, "
                      "so most nodes up to it would be on no edge")),
}


@pytest.mark.parametrize("case", EDGE_FILES)
def test_edge_list_accepts_and_rejects(tmp_path, case):
    data, want = EDGE_FILES[case]
    path = tmp_path / "g.txt"
    path.write_bytes(data)
    if isinstance(want[0], int):
        g = read_edge_list(path)
        assert (g.n, g.edges.tolist(), g.weights.tolist()) == want
        return
    exc_type, message = want
    with pytest.raises(exc_type) as info:
        read_edge_list(path)
    if exc_type is UnicodeDecodeError:
        assert message in str(info.value)
    else:
        assert str(info.value) == message.format(path=path)


def test_edge_list_with_and_without_header_agree(tmp_path, rng):
    g = random_connected_graph(12, rng)
    plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
    write_edges(plain, g)
    commented.write_text("# i j w\n" + plain.read_text())
    assert read_edge_list(plain) == read_edge_list(commented) == g


def first_error(n, triples):
    """The (type, message, row) that build_graph's rules give for int ids and
    float weights: the first of the id, self-loop, weight and duplicate
    tests to fail, at its first row, a duplicate as its least repeated edge
    at the second copy."""
    for k, (i, j, _) in enumerate(triples):
        for node in (i, j):
            if not 1 <= node <= n:
                return InvalidNode, f"node id {node} is not an integer in 1..{n}", k
    for k, (i, j, _) in enumerate(triples):
        if i == j:
            return InvalidEdge, f"self-loop at node {i}", k
    for k, (i, j, w) in enumerate(triples):
        if not 0.0 < w < np.inf:
            return InvalidWeight, f"edge ({i}, {j}) has non-positive or non-finite weight {w}", k
    first, repeats = {}, []
    for k, (i, j, _) in enumerate(triples):
        pair = (min(i, j), max(i, j))
        if pair in first:
            repeats.append((pair, k))
        first.setdefault(pair, k)
    pair, k = min(repeats)
    return DuplicateEdge, f"edge {pair} listed twice", k


# each fault, made at row 5 of an edge list in storage order
EDGE_FAULTS = {
    "duplicate": lambda t: t[:6] + [(t[5][1], t[5][0], 2.0)] + t[6:],
    "self-loop": lambda t: t[:5] + [(t[5][0], t[5][0], 1.0)] + t[6:],
    "zero-weight": lambda t: t[:5] + [(t[5][0], t[5][1], 0.0)] + t[6:],
    "negative-weight": lambda t: t[:5] + [(t[5][0], t[5][1], -1.0)] + t[6:],
    "nan-weight": lambda t: t[:5] + [(t[5][0], t[5][1], float("nan"))] + t[6:],
    "id-zero": lambda t: t[:5] + [(t[5][0], 0, 1.0)] + t[6:],
    "id-negative": lambda t: t[:5] + [(-3, t[5][1], 1.0)] + t[6:],
}


@pytest.mark.parametrize("fault", EDGE_FAULTS)
def test_presorted_and_shuffled_edges_fail_alike(tmp_path, rng, fault):
    # edges in storage order and shuffled copies of them raise the same
    # error at the same edge, in build_graph and in both read_edge_list
    # parsers (np.loadtxt for the plain file, the line parser for the one
    # with a comment)
    g = random_connected_graph(12, rng)
    base = [(int(i), int(j), float(w)) for i, j, w in zip(g.src + 1, g.dst + 1, g.weights)]
    faulty = EDGE_FAULTS[fault](base)
    for perm in [np.arange(len(faulty))] + [rng.permutation(len(faulty)) for _ in range(5)]:
        triples = [faulty[k] for k in perm]
        error, message, row = first_error(12, triples)
        with pytest.raises(error) as info:
            build_graph(12, triples)
        assert (str(info.value), info.value._index) == (message, row)
        with pytest.raises(error) as info:
            build_graph(12, np.array(triples))
        assert (str(info.value), info.value._index) == (message, row)
        lines = "".join(f"{i} {j} {w!r}\n" for i, j, w in triples)
        for header, first_line in (("", 1), ("# i j w\n", 2)):
            path = tmp_path / "g.txt"
            path.write_text(header + lines)
            with pytest.raises(error) as info:
                read_edge_list(path)
            assert str(info.value) == f"{path}:{row + first_line}: {message}"


def test_presorted_and_shuffled_edges_give_one_graph(tmp_path, rng):
    g = random_connected_graph(12, rng)
    base = [(int(i), int(j), float(w)) for i, j, w in zip(g.src + 1, g.dst + 1, g.weights)]
    fields = ("src", "dst", "weights", "degree", "weighted_degree")
    for perm in [np.arange(len(base))] + [rng.permutation(len(base)) for _ in range(5)]:
        # each copy with some edges written the other way round
        triples = [(j, i, w) if k % 3 == 0 else (i, j, w)
                   for k, (i, j, w) in enumerate(base[p] for p in perm)]
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{i} {j} {w!r}\n" for i, j, w in triples))
        for built in (build_graph(12, triples), read_edge_list(path)):
            assert all(getattr(built, f).tobytes() == getattr(g, f).tobytes() for f in fields)
