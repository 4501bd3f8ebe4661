"""Benchmark graph constructors: chains, block models, image grids.

Randomized constructors are deterministic functions of their arguments
including the rng seed.  Block-model edges are sampled by hashing the seed
together with the node pair, so the output never depends on iteration
order or worker count.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import CountTooLarge, InvalidOverride, PgmError
from .graph import (_INT64_MAX, Graph, _as_array, _atomic_open, _node_count, _numeric, _real,
                    _whole, as_node_ids, build_graph)

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)

# Pairs per row tile in sbm_graph, whose rows stay in one block: bounds its
# working memory.  The tiles are hashed into buffers made once per call
# (see sbm_graph).  With them, on the 4000-node model on 2 vCPUs, 2^16
# pairs drew fastest of 2^14..2^18 (first call 52-58 ms, later calls
# 49-63 ms; 2^15 was close, 2^18 took 75-111 ms).  A 200-node
# experiment's block still fits in one tile.
_BLOCK_PAIRS = 1 << 16


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (Steele, Lea & Flood 2014), applied to the
    uint64 array z in place; scratch is a uint64 array of z's shape that it
    overwrites.  Returns z."""
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= _M2
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= _M3
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _keys(rng_seed: int, i, j):
    """The per-row and per-column halves of the pair hash.

    The row key of node i mixes the seed with i; the column key of node j
    is j * _M2.  Each depends on one endpoint only, so a sampler that draws
    many pairs computes them once per node.  i and j are 1-D arrays.
    """
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    mixed = (int(rng_seed) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    row = np.uint64(mixed) + i * _M1
    return _mix64(row, np.empty_like(row)), j * _M2


def _pair_uniform(rng_seed: int, i, j) -> np.ndarray:
    """Deterministic uniform [0, 1) draw keyed by (rng_seed, i, j).

    i and j are 1-D arrays of 1-based node ids, taken as they are.  The
    value depends only on the key, so sampling a pair is independent of
    when or where it happens.  It is _mix64(row_key(i) ^ col_key(j)) >> 11,
    53 uniform bits scaled by 2^-53, where the row key depends on
    (rng_seed, i) and the column key on j only.  sbm_graph draws the same
    bits tile by tile; this is the per-pair reference the tests compare
    against.
    """
    z = np.bitwise_xor(*_keys(rng_seed, i, j))
    return (_mix64(z, np.empty_like(z)) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class SbmSpec:
    """Two-or-more-block stochastic block model parameters, 0 <= p_out <= p_in <= 1."""

    block_sizes: tuple
    p_in: float
    p_out: float
    rng_seed: int = 0

    def __post_init__(self):
        try:
            sizes = tuple(self.block_sizes)
        except TypeError:
            raise ValueError(f"block_sizes must be a list of block sizes, got "
                             f"{self.block_sizes!r}") from None
        sizes = tuple(_whole(s, "block size", low=1) for s in sizes)
        p_in, p_out = (_real(getattr(self, name), name, 0.0, 1.0, "in [0, 1]")
                       for name in ("p_in", "p_out"))
        if p_out > p_in:
            raise ValueError(f"need p_out <= p_in, got p_in={p_in}, p_out={p_out}")
        for name, value in (("block_sizes", sizes), ("p_in", p_in), ("p_out", p_out),
                            ("rng_seed", _whole(self.rng_seed, "rng_seed", low=0))):
            object.__setattr__(self, name, value)


def chain_graph(n: int, default_w: float = 1.0, overrides=()) -> Graph:
    """Path graph on nodes 1..n with edge k joining nodes (k, k+1).

    `overrides` lists (edge index, weight) pairs with 1-based indices in
    1..n-1 replacing the default weight; other indices raise InvalidOverride.
    Weights are real numbers; build_graph rejects one not positive and finite.
    """
    n = _node_count(n)
    w = np.full(n - 1, _real(default_w, "default_w", -np.inf, np.inf, "a real number"))
    try:
        overrides = list(overrides)
    except TypeError:
        raise InvalidOverride(f"overrides must be a list of (edge index, weight) pairs, got "
                              f"{overrides!r}") from None
    for override in overrides:
        try:
            idx, weight = override
        except (TypeError, ValueError):
            raise InvalidOverride(f"override {override!r} is not an (edge index, weight) "
                                  "pair") from None
        try:
            idx = _whole(idx, "edge index")
        except ValueError:
            raise InvalidOverride(f"edge index {idx!r} is not a whole number") from None
        if not 1 <= idx <= n - 1:
            raise InvalidOverride(f"edge index {idx} outside 1..{n - 1}")
        w[idx - 1] = _real(weight, "override weight", -np.inf, np.inf, "a real number")
    k = np.arange(1, n)
    return build_graph(n, np.column_stack((k, k + 1, w)))


def sbm_graph(spec: SbmSpec):
    """Sample a stochastic block model.

    Every unordered pair is drawn once, by the keyed hash of
    :func:`_pair_uniform`; pairs in the same block connect with probability
    p_in, across blocks with p_out.  All edges have weight 1.  Isolated
    nodes are possible; build the solver input accordingly.

    Time is O(n^2).  The upper triangle is drawn in tiles: rows lo..hi-1,
    all in one block, against columns lo+1..n-1 (0-based), about
    _BLOCK_PAIRS pairs each, so memory is O(n + pairs per tile + edges).
    The row and column halves of the pair hash are computed once per node
    and broadcast over the tile, leaving one xor and one _mix64 per pair.
    Every tile is hashed and compared in views of two uint64 buffers and
    one bool buffer, made once per call at the size of the largest tile,
    so no tile allocates a pair-sized temporary: on the 4000-node model
    the first call in a fresh process takes about 55 ms and 1.7 k page
    faults, not 90 ms and 29 k.  Each tile is read in row-major order, so
    the edges come out in the order of np.triu_indices, as an all-pairs
    draw gives them.

    Returns
    -------
    (Graph, list of ndarray)
        The graph and the 1-based node ids of each block.
    """
    sizes = spec.block_sizes
    total = int(sum(sizes))
    if total < 2:
        raise ValueError("need at least 2 nodes")
    stops = np.cumsum(sizes)
    ids = np.arange(1, total + 1)
    row_keys, col_keys = _keys(spec.rng_seed, ids, ids)
    t_in, t_out = (np.uint64(math.ceil(p * 2.0 ** 53)) for p in (spec.p_in, spec.p_out))
    cols = np.arange(total)
    starts = np.concatenate(([0], stops[:-1]))
    # a tile has at most one block's rows and total - 1 columns, and more
    # than _BLOCK_PAIRS pairs only when one row is longer than that
    largest = min(max(_BLOCK_PAIRS, total - 1), max(sizes) * (total - 1))
    bits_buf, scratch_buf = np.empty(largest, np.uint64), np.empty(largest, np.uint64)
    keep_buf = np.empty(largest, bool)
    src, dst = [], []
    for start, stop in zip(starts, stops):
        # u < p  <=>  bits < ceil(p * 2^53), since u = bits * 2^-53 exactly;
        # for a row of this block, the columns before stop are in the block
        thr = np.where(cols < stop, t_in, t_out)
        lo = start
        while lo < min(stop, total - 1):
            width = total - lo - 1
            hi = min(stop, lo + max(1, _BLOCK_PAIRS // width))
            # tile rows lo..hi-1 by columns lo+1..total-1, in views of the
            # buffers; only its leading hi-lo columns hold pairs with j <= i
            bits, scratch, keep = (buf[:(hi - lo) * width].reshape(hi - lo, width)
                                   for buf in (bits_buf, scratch_buf, keep_buf))
            np.bitwise_xor(row_keys[lo:hi, None], col_keys[None, lo + 1:], out=bits)
            _mix64(bits, scratch)
            bits >>= np.uint64(11)
            np.less(bits, thr[lo + 1:], out=keep)
            keep[:, :hi - lo] = np.triu(keep[:, :hi - lo])
            r, c = np.divmod(np.flatnonzero(keep), width)
            src.append(r + lo + 1)
            dst.append(c + lo + 2)
            lo = hi
    src, dst = np.concatenate(src), np.concatenate(dst)
    g = build_graph(total, np.column_stack((src, dst, np.ones(src.size))))
    blocks = [np.arange(lo + 1, hi + 1, dtype=np.int64) for lo, hi in zip(starts, stops)]
    return g, blocks


def sample_seeds(block, count: int, rng_seed: int = 0) -> np.ndarray:
    """Uniform sample without replacement from one block's distinct node ids."""
    ids = as_node_ids(block, _INT64_MAX)
    count = _whole(count, "count", low=1)
    if count > ids.size:
        raise CountTooLarge(f"requested {count} seeds from a block of {ids.size}")
    rng = np.random.default_rng(_whole(rng_seed, "rng_seed", low=0))
    return np.sort(rng.choice(ids, size=count, replace=False))


@dataclass(frozen=True)
class GreyImage:
    """Greyscale raster with values 0..255, pixels stored row major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        width, height = (_whole(getattr(self, name), name, low=1)
                         for name in ("width", "height"))
        px = _as_array(self.pixels, "pixels")
        _numeric(px, "pixels", self.pixels)
        if px.size != width * height:
            raise ValueError(f"pixel count {px.size} != width*height {width * height}")
        ok = (px >= 0) & (px <= 255) & (px == np.floor(px))
        if not ok.all():
            raise ValueError(f"grey value {px[~ok][0]} is not an integer in 0..255")
        px = px.reshape(height, width).astype(np.uint8)
        px.flags.writeable = False
        for name, value in (("width", width), ("height", height), ("pixels", px)):
            object.__setattr__(self, name, value)

    def node_id(self, row: int, col: int) -> int:
        """1-based graph node id of the pixel at (row, col)."""
        return row * self.width + col + 1


def grid_from_image(img: GreyImage) -> Graph:
    """4-connected pixel grid with similarity weights exp(-(gi-gj)^2 / 20^2).

    Pixel (row, col) becomes node row*width + col + 1, so ids grow along
    rows first.  Only horizontal and vertical neighbours are joined.  Grey
    values are 0..255, so every weight is at least exp(-255^2 / 400),
    about 2.5e-71, and none underflows to 0.
    """
    w, h = img.width, img.height
    if w * h < 2:
        raise ValueError("image must have at least 2 pixels")
    grey = img.pixels.astype(np.float64)
    ids = np.arange(w * h, dtype=np.int64).reshape(h, w) + 1
    d2 = np.concatenate((((grey[:, :-1] - grey[:, 1:]) ** 2).ravel(),
                         ((grey[:-1, :] - grey[1:, :]) ** 2).ravel()))
    weights = np.exp(-d2 * (1.0 / 20.0 ** 2))
    edges = np.column_stack((
        np.concatenate((ids[:, :-1].ravel(), ids[:-1, :].ravel())),
        np.concatenate((ids[:, 1:].ravel(), ids[1:, :].ravel())),
        weights,
    ))
    return build_graph(w * h, edges)


# ---------------------------------------------------------------------------
# PGM files (portable greymap, types P2 and P5, maxval up to 255)


# a token (group 1) or a `#` comment to the end of its line, anywhere but in
# a P5 raster; between matches lies PGM whitespace: blank, TAB, CR and LF
_PGM_TOKEN = re.compile(rb"#[^\n]*|([^ \t\r\n#]+)")


def read_pgm(path) -> GreyImage:
    """Read an ASCII (P2) or binary (P5) PGM file with maxval <= 255; a P5
    raster starts one byte after maxval."""
    with open(os.fspath(path), "rb") as fh:
        data = fh.read()
    # lazy, so a P5 raster is never scanned
    tokens = (m for m in _PGM_TOKEN.finditer(data) if m[1])
    try:
        magic = next(tokens)[1]
    except StopIteration:
        raise PgmError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{path}: unsupported magic {magic!r}, expected P2 or P5")
    header = []
    try:
        for _ in range(3):
            tok = next(tokens)
            header.append(int(tok[1]))
    except StopIteration:
        raise PgmError(f"{path}: truncated header") from None
    except ValueError as exc:
        raise PgmError(f"{path}: bad header token: {exc}") from None
    width, height, maxval = header
    if width < 1 or height < 1:
        raise PgmError(f"{path}: bad dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise PgmError(f"{path}: maxval {maxval} outside 1..255")
    count = width * height
    if magic == b"P5":
        raster = data[tok.end() + 1:tok.end() + 1 + count]
        if len(raster) < count:
            raise PgmError(f"{path}: raster shorter than {count} bytes")
        px = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        try:
            values = [int(tok[1]) for tok in tokens]
        except ValueError as exc:
            raise PgmError(f"{path}: bad pixel token: {exc}") from None
        if len(values) < count:
            raise PgmError(f"{path}: expected {count} pixels, found {len(values)}")
        px = np.asarray(values[:count], dtype=np.int64)
    if px.size and int(px.max()) > maxval:
        raise PgmError(f"{path}: pixel above maxval {maxval}")
    return GreyImage(width=width, height=height, pixels=px)


def write_pgm(path, img: GreyImage) -> None:
    """Write a binary (P5) PGM with maxval 255, through a temp file (see
    graph._atomic_open)."""
    with _atomic_open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(img.pixels.tobytes())
