import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlasso import generators as gen
from nlasso import CountTooLarge, InvalidNode, InvalidOverride, PgmError, build_graph
from nlasso.generators import (
    GreyImage,
    SbmSpec,
    chain_graph,
    grid_from_image,
    read_pgm,
    sample_seeds,
    sbm_graph,
    write_pgm,
)


def test_chain_benchmark_weights():
    g = chain_graph(100, 5.0 / 4.0, [(4, 1.0)])
    assert g.n == 100 and g.num_edges == 99
    assert g.weights[3] == 1.0
    assert np.all(np.delete(g.weights, 3) == 1.25)


def test_chain_two_nodes():
    g = chain_graph(2, 1.0)
    assert g.edges.tolist() == [[1, 2]]


def test_chain_override_out_of_range():
    with pytest.raises(InvalidOverride):
        chain_graph(5, 1.0, [(5, 2.0)])
    with pytest.raises(InvalidOverride):
        chain_graph(5, 1.0, [(0, 2.0)])
    for idx in (2.5, "2", True, float("nan"), float("inf")):
        with pytest.raises(InvalidOverride, match="is not a whole number"):
            chain_graph(5, 1.0, [(idx, 3.0)])
    for override in ((1, 2, 3), 5):
        with pytest.raises(InvalidOverride, match=re.escape(
                f"override {override!r} is not an (edge index, weight) pair")):
            chain_graph(3, 1.0, [override])
    # overrides that are not a list of pairs at all
    for overrides in (5, None):
        with pytest.raises(InvalidOverride, match=re.escape(
                f"overrides must be a list of (edge index, weight) pairs, got {overrides!r}")):
            chain_graph(3, 1.0, overrides)
    for n in (2.5, "5", 0):
        with pytest.raises(InvalidNode):
            chain_graph(n)
    assert chain_graph(5, 1.0, [(np.int64(2), 3.0), (4.0, 0.5)]).weights.tolist() == [
        1.0, 3.0, 1.0, 0.5]


def test_sbm_spec_validation():
    with pytest.raises(ValueError):
        SbmSpec((0, 5), 0.5, 0.1)
    for sizes in [(2.5, 3.9), (3, float("nan")), (float("inf"), 3)]:
        with pytest.raises(ValueError, match="block size must be a whole number"):
            SbmSpec(sizes, 0.5, 0.1)
    for sizes in (5, None):
        with pytest.raises(ValueError, match="block_sizes must be a list of block sizes"):
            SbmSpec(sizes, 0.5, 0.1)
    assert SbmSpec((2.0, np.float64(3.0)), 0.5, 0.1).block_sizes == (2, 3)
    with pytest.raises(ValueError):
        SbmSpec((5, 5), 0.1, 0.5)  # p_out > p_in
    with pytest.raises(ValueError):
        SbmSpec((5, 5), 1.5, 0.1)


def test_sbm_needs_two_nodes():
    with pytest.raises(ValueError, match="need at least 2 nodes"):
        sbm_graph(SbmSpec((1,), 0.5, 0.1))


def test_sbm_disjoint_triangles():
    g, blocks = sbm_graph(SbmSpec((3, 3), 1.0, 0.0, rng_seed=11))
    assert g.num_edges == 6
    assert blocks[0].tolist() == [1, 2, 3]
    assert blocks[1].tolist() == [4, 5, 6]
    assert g.edges.tolist() == [[1, 2], [1, 3], [2, 3], [4, 5], [4, 6], [5, 6]]


def test_sbm_edgeless():
    g, _ = sbm_graph(SbmSpec((4, 4), 0.0, 0.0, rng_seed=1))
    assert g.num_edges == 0


def test_sbm_deterministic():
    spec = SbmSpec((20, 20), 0.3, 0.05, rng_seed=9)
    g1, _ = sbm_graph(spec)
    g2, _ = sbm_graph(spec)
    assert g1 == g2


def test_sbm_matches_pairwise_loop():
    # the vectorized sampler equals a per-pair loop over the same keyed
    # draws, so iteration order cannot matter
    spec = SbmSpec((6, 5), 0.4, 0.1, rng_seed=23)
    g, _ = sbm_graph(spec)
    total = 11
    edges = []
    for j in range(total, 0, -1):          # deliberately reversed order
        for i in range(j - 1, 0, -1):
            u = float(gen._pair_uniform(23, np.array([i]), np.array([j]))[0])
            same = (i <= 6) == (j <= 6)
            if u < (0.4 if same else 0.1):
                edges.append((i, j))
    assert sorted(edges) == [tuple(e) for e in g.edges.tolist()]


def all_pairs_sbm(spec):
    # reference sampler: every pair drawn at once, in np.triu_indices order
    sizes = spec.block_sizes
    total = sum(sizes)
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    iu, ju = np.triu_indices(total, k=1)
    u = gen._pair_uniform(spec.rng_seed, iu + 1, ju + 1)
    keep = u < np.where(block_of[iu] == block_of[ju], spec.p_in, spec.p_out)
    return iu[keep], ju[keep]


SBM_SPECS = [
    SbmSpec((1, 1), 1.0, 0.0, rng_seed=0),
    SbmSpec((2,), 0.5, 0.5, rng_seed=1),
    SbmSpec((1, 1), 1.0, 1.0, rng_seed=2),
    SbmSpec((1, 7), 0.6, 0.2, rng_seed=3),
    SbmSpec((7, 1), 0.6, 0.2, rng_seed=4),
    SbmSpec((1, 1, 1), 1.0, 0.0, rng_seed=5),
    SbmSpec((1, 5, 1, 9), 0.7, 0.3, rng_seed=6),
    SbmSpec((40,), 0.1, 0.1, rng_seed=7),
    SbmSpec((20, 20), 1.0, 0.0, rng_seed=8),
    SbmSpec((20, 20), 1.0, 1.0, rng_seed=9),
    SbmSpec((20, 20), 0.0, 0.0, rng_seed=10),
    SbmSpec((13, 29), 0.3, 0.3, rng_seed=11),
    SbmSpec((30, 2), 0.9, 0.05, rng_seed=12),
    SbmSpec((3, 50, 8), 0.25, 0.0, rng_seed=13),
    SbmSpec((17, 1, 33, 4), 0.5, 0.125, rng_seed=14),
    SbmSpec((60, 60, 60, 60), 0.2, 0.01, rng_seed=15),
    SbmSpec((100, 1), 0.05, 0.05, rng_seed=16),
    SbmSpec((150, 150), 0.02, 0.002, rng_seed=2 ** 40 + 17),
    SbmSpec((299, 1), 1.0, 0.5, rng_seed=18),
    SbmSpec((11, 22, 33), 0.4, 0.4, rng_seed=19),
    SbmSpec((40, 1, 25, 1, 3), 1.0, 0.0, rng_seed=20),
    SbmSpec((1, 90, 1, 45), 0.3, 0.02, rng_seed=21),
    SbmSpec((2, 1, 2), 1.0, 1.0, rng_seed=22),
] + [SbmSpec((5 + 7 * k, 3 + 11 * k), 0.5 / (k + 1), 0.1 / (k + 1), rng_seed=100 + k)
     for k in range(10)]


@pytest.mark.parametrize("block_pairs", [1, 3, 7, 64, 1000, gen._BLOCK_PAIRS])
def test_sbm_row_blocks_match_all_pairs(monkeypatch, block_pairs):
    # sampling one row tile at a time gives bitwise the same graph as
    # drawing every pair at once, wherever the tiles end within a block
    monkeypatch.setattr(gen, "_BLOCK_PAIRS", block_pairs)
    for spec in SBM_SPECS:
        g, blocks = sbm_graph(spec)
        iu, ju = all_pairs_sbm(spec)
        ref = build_graph(sum(spec.block_sizes), np.column_stack(
            (iu + 1, ju + 1, np.ones(iu.size))))
        assert g.src.tobytes() == ref.src.tobytes()
        assert g.dst.tobytes() == ref.dst.tobytes()
        assert g.weights.tobytes() == ref.weights.tobytes()
        stops = np.cumsum(spec.block_sizes)
        assert [b.tolist() for b in blocks] == [
            list(range(hi - size + 1, hi + 1)) for hi, size in zip(stops, spec.block_sizes)]


def test_mix64_is_splitmix64():
    # SplitMix64 (Steele, Lea & Flood 2014) from seed 0 adds _M1 to its
    # state and returns the finalizer of the state: its first three outputs
    z = np.arange(1, 4, dtype=np.uint64) * gen._M1
    scratch = np.full(3, 12345, dtype=np.uint64)
    assert gen._mix64(z, scratch) is z
    assert z.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_sbm_large_model_is_pinned():
    # the benchmark's 4000-node model: its edge count and the digest of its
    # edge ends, as drawn before the tiles shared buffers
    g, _ = sbm_graph(SbmSpec((2000, 2000), 20 / 2000, 1 / 2000, rng_seed=1))
    assert g.num_edges == 41767
    assert hashlib.sha256(g.src.tobytes() + g.dst.tobytes()).hexdigest() == (
        "b91d42a2b9144cee1e81306aa5897b164e7b3b6b8feb7228a51064a87d3f2bb3")


def test_sbm_memory_bounded_by_row_block():
    # 3000 nodes, 4.5M pairs: drawing them all at once takes ~300 MB
    tracemalloc.start()
    try:
        sbm_graph(SbmSpec((1500, 1500), 0.01, 0.001))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_sbm_intra_block_edge_moments():
    # pairs per block: C(100, 2) = 4950, expectation 990 at p_in = 1/5;
    # the mean over 100 block samples stays within 3 standard errors
    counts = []
    for seed in range(50):
        g, blocks = sbm_graph(SbmSpec((100, 100), 0.2, 0.01, rng_seed=seed))
        for block in blocks:
            lo, hi = block[0], block[-1]
            inside = (g.edges[:, 0] >= lo) & (g.edges[:, 0] <= hi) \
                & (g.edges[:, 1] >= lo) & (g.edges[:, 1] <= hi)
            counts.append(int(np.sum(inside)))
    mean = float(np.mean(counts))
    expect = 4950 * 0.2
    stderr = np.sqrt(4950 * 0.2 * 0.8 / len(counts))
    assert abs(mean - expect) <= 3.0 * stderr


def test_sample_seeds_whole_block():
    assert sample_seeds([5, 2, 9], 3, rng_seed=0).tolist() == [2, 5, 9]


def test_sample_seeds_singleton_and_determinism():
    block = list(range(10, 30))
    s1 = sample_seeds(block, 1, rng_seed=4)
    assert s1.size == 1 and 10 <= s1[0] < 30
    for count in (1, 5, 20):
        a = sample_seeds(block, count, rng_seed=7)
        b = sample_seeds(block, count, rng_seed=7)
        assert a.tolist() == b.tolist()
        assert np.all(np.isin(a, block))


def test_sample_seeds_errors():
    with pytest.raises(CountTooLarge):
        sample_seeds([1, 2, 3], 4)
    with pytest.raises(ValueError):
        sample_seeds([1, 2, 3], 0)
    for count in (2.7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="count must be a whole number"):
            sample_seeds([1, 2, 3], count)
    assert sample_seeds([1, 2, 3], 2.0).tolist() == sample_seeds([1, 2, 3], 2).tolist()


def test_rng_seed_must_be_whole_and_non_negative():
    block = list(range(1, 21))
    for bad in (2.5, -1, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rng_seed must be"):
            SbmSpec((20, 20), 0.5, 0.1, rng_seed=bad)
        with pytest.raises(ValueError, match="rng_seed must be"):
            sample_seeds(block, 3, rng_seed=bad)
    graph_2 = sbm_graph(SbmSpec((20, 20), 0.5, 0.1, rng_seed=2))[0]
    assert sample_seeds(block, 3, rng_seed=2).tolist() == [3, 5, 16]
    for seed in (2.0, np.int64(2), np.float64(2.0)):
        spec = SbmSpec((20, 20), 0.5, 0.1, rng_seed=seed)
        assert spec.rng_seed == 2 and type(spec.rng_seed) is int
        assert sbm_graph(spec)[0] == graph_2
        assert sample_seeds(block, 3, rng_seed=seed).tolist() == [3, 5, 16]


def test_grid_uniform_weights():
    img = GreyImage(2, 1, [77, 77])
    g = grid_from_image(img)
    assert g.edges.tolist() == [[1, 2]]
    assert g.weights[0] == 1.0


def test_grid_needs_two_pixels():
    with pytest.raises(ValueError, match="at least 2 pixels"):
        grid_from_image(GreyImage(1, 1, [77]))


def test_grid_similarity_decay():
    img = GreyImage(2, 1, [100, 120])
    g = grid_from_image(img)
    assert g.weights[0] == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_grid_rejects_sigma_that_underflows_a_weight():
    img = GreyImage(2, 1, [0, 255])
    # sigma is fixed at 20: no sigma can be passed, so none can underflow a weight
    with pytest.raises(TypeError):
        grid_from_image(img, sigma=5.0)
    # the largest grey difference gives the smallest weight, far from underflow
    least = grid_from_image(img).weights[0]
    assert least == np.exp(-255.0 ** 2 * (1.0 / 20.0 ** 2)) and least > 1e-71


def test_grid_three_by_three():
    img = GreyImage(3, 3, np.arange(9) * 10)
    g = grid_from_image(img)
    assert g.n == 9
    assert g.num_edges == 12  # 2wh - w - h
    assert np.all(g.weights > 0.0) and np.all(g.weights <= 1.0)


@pytest.mark.parametrize("width, height", [(7, 5), (1, 6), (6, 1)])
def test_grid_matches_triple_list(width, height):
    rng = np.random.default_rng(width * 10 + height)
    img = GreyImage(width, height, rng.integers(0, 256, size=width * height))
    grey = img.pixels.astype(np.float64)
    triples = []
    for r in range(height):
        for c in range(width):
            for r2, c2 in ((r, c + 1), (r + 1, c)):  # right and down neighbours
                if r2 < height and c2 < width:
                    diff = grey[r, c] - grey[r2, c2]
                    weight = np.exp(-(diff ** 2) * (1.0 / 20.0 ** 2))
                    triples.append((img.node_id(r, c), img.node_id(r2, c2), weight))
    g = grid_from_image(img)
    assert g == build_graph(width * height, triples)
    assert g.num_edges == 2 * width * height - width - height


def test_grid_node_layout():
    img = GreyImage(4, 3, np.zeros(12))
    assert img.node_id(0, 0) == 1
    assert img.node_id(1, 0) == 5
    assert img.node_id(2, 3) == 12
    g = grid_from_image(img)
    # node 1's grid neighbours: right (2) and down (5)
    edges = g.edges.tolist()
    assert [1, 2] in edges and [1, 5] in edges
    assert g.degree[0] == 2


def test_grey_image_validation():
    with pytest.raises(ValueError):
        GreyImage(2, 2, [0, 0, 0])
    with pytest.raises(ValueError):
        GreyImage(2, 1, [0, 300])
    for bad in (np.nan, np.inf, -np.inf, 2.5, -1, 255.5):
        with pytest.raises(ValueError, match="is not an integer in 0..255"):
            GreyImage(2, 1, [0, bad])
    # bools, strings, Nones and complex numbers are not grey values: numpy
    # compares a bool with numbers as 0/1, and the others with a TypeError
    for bad in ([True, False], [True, 0], ["0", "1"], [None, 0], [1j, 0]):
        with pytest.raises(ValueError, match="pixels must hold real numbers"):
            GreyImage(2, 1, bad)
    assert GreyImage(2, 1, [0.0, 255.0]).pixels.tolist() == [[0, 255]]


def test_pgm_binary_round_trip(tmp_path):
    px = np.arange(24, dtype=np.uint8).reshape(4, 6) * 10
    img = GreyImage(6, 4, px.ravel())
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.width == 6 and back.height == 4
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_ascii_with_comments(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2  # magic\n# a comment line\n3 2\n255\n0 10 20\n30 40 50\n")
    img = read_pgm(path)
    assert img.width == 3 and img.height == 2
    assert img.pixels.ravel().tolist() == [0, 10, 20, 30, 40, 50]


# PGM whitespace, and `#` comments, which run to the end of their line (a
# CR before the LF is part of the comment)
_PGM_SPACE = st.sampled_from([b" ", b"\t", b"\r", b"\n", b"\r\n"])
_PGM_COMMENT = st.builds(lambda text, eol: b"#" + text.replace(b"\n", b"") + eol,
                         st.binary(max_size=6), st.sampled_from([b"\n", b"\r\n"]))
_PGM_GAP = st.lists(st.one_of(_PGM_SPACE, _PGM_COMMENT), min_size=1, max_size=3).map(b"".join)


@st.composite
def pgm_files(draw):
    """(file bytes, width, height, pixels) of a valid P2 or P5 image, with
    random whitespace and comments between its header tokens and, in P2,
    between its pixels; a P5 raster starts one whitespace byte after maxval."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    maxval = draw(st.integers(1, 255))
    pixels = draw(st.lists(st.integers(0, maxval) | st.just(min(maxval, ord("#"))),
                           min_size=width * height, max_size=width * height))
    binary = draw(st.booleans())
    tokens = [b"%d" % v for v in [width, height, maxval] + ([] if binary else pixels)]
    data = b"P5" if binary else b"P2"
    for tok in tokens:
        data += draw(_PGM_GAP) + tok
    if binary:
        data += draw(st.sampled_from([b" ", b"\t", b"\r", b"\n"])) + bytes(pixels)
    else:
        data += draw(st.just(b"") | _PGM_GAP)
    return data, width, height, pixels


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(pgm_files())
@example((b"P2\r\n# c\r\n2 1\r\n255\r\n0 35\r\n", 2, 1, [0, 35]))
@example((b"P2# c\n2#\n1 7# x\n3#\n4\n", 2, 1, [3, 4]))
@example((b"P5\n2 2\n255\n# #\n", 2, 2, [35, 32, 35, 10]))
@example((b"P2 1 1 255 7 # x", 1, 1, [7]))
def test_pgm_reads_back_through_whitespace_and_comments(tmp_path_factory, case):
    data, width, height, pixels = case
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    path.write_bytes(data)
    img = read_pgm(path)
    assert (img.width, img.height, img.pixels.ravel().tolist()) == (width, height, pixels)


@pytest.mark.parametrize("content", [
    "",                             # empty
    "P3\n2 2\n255\n0 0 0 0\n",      # unsupported magic
    "P2\n2 2\n70000\n0 0 0 0\n",    # maxval too large
    "P2\n2 2\n255\n0 0 0\n",        # missing pixel
    "P2\n2 x\n255\n0 0 0 0\n",      # non-integer dimension
])
def test_pgm_malformed(tmp_path, content):
    path = tmp_path / "bad.pgm"
    path.write_text(content)
    with pytest.raises(PgmError):
        read_pgm(path)


def test_pgm_binary_truncated(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(PgmError):
        read_pgm(path)



@pytest.mark.parametrize("content, message", [
    ("P5\n", "truncated header"),
    ("P5\n0 2\n255\n", "bad dimensions 0x2"),
    ("P2\n2 1\n255\n0 x\n", "bad pixel token"),
    ("P2\n2 1\n7\n7 8\n", "pixel above maxval 7"),
], ids=["truncated-header", "zero-width", "bad-pixel-token", "above-maxval"])
def test_pgm_rejects_with_reason(tmp_path, content, message):
    path = tmp_path / "bad.pgm"
    path.write_text(content)
    with pytest.raises(PgmError, match=message):
        read_pgm(path)
