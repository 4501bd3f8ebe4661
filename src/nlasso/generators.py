"""Benchmark graph constructors: chains, block models, image grids.

Randomized constructors are deterministic functions of their arguments
including the rng seed.  Block-model edges are sampled by hashing the seed
together with the node pair, so the output never depends on iteration
order or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CountTooLarge, InvalidOverride, PgmError
from .graph import Graph, build_graph

_M1 = np.uint64(0x9E3779B97F4A7C15)
_M2 = np.uint64(0xBF58476D1CE4E5B9)
_M3 = np.uint64(0x94D049BB133111EB)


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _M2
    z = (z ^ (z >> np.uint64(27))) * _M3
    return z ^ (z >> np.uint64(31))


def pair_uniform(rng_seed: int, i, j) -> np.ndarray:
    """Deterministic uniform [0, 1) draw keyed by (rng_seed, i, j).

    i and j are 1-based node id arrays.  The value depends only on the key,
    so sampling a pair is independent of when or where it happens.
    """
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    mixed = (int(rng_seed) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = _mix64(np.uint64(mixed) + i * _M1)
    z = _mix64(z ^ (j * _M2))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class SbmSpec:
    """Two-or-more-block stochastic block model parameters."""

    block_sizes: tuple
    p_in: float
    p_out: float
    rng_seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.block_sizes)
        if any(s < 1 for s in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}")
        object.__setattr__(self, "block_sizes", sizes)


def chain_graph(n: int, default_w: float = 1.0, overrides=()) -> Graph:
    """Path graph on nodes 1..n with edge k joining nodes (k, k+1).

    `overrides` lists (edge index, weight) pairs with 1-based indices in
    1..n-1 replacing the default weight.
    """
    w = np.full(n - 1, float(default_w)) if n > 1 else np.empty(0)
    for idx, weight in overrides:
        idx = int(idx)
        if not 1 <= idx <= n - 1:
            raise InvalidOverride(f"edge index {idx} outside 1..{n - 1}")
        w[idx - 1] = float(weight)
    k = np.arange(1, n)
    return build_graph(n, np.column_stack((k, k + 1, w)))


def sbm_graph(spec: SbmSpec):
    """Sample a stochastic block model.

    Every unordered pair is drawn once via :func:`pair_uniform`; pairs in
    the same block connect with probability p_in, across blocks with p_out.
    All edges have weight 1.  Isolated nodes are possible; build the solver
    input accordingly.

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
    block_of = np.searchsorted(stops, np.arange(1, total + 1))
    iu, ju = np.triu_indices(total, k=1)
    i1, j1 = iu + 1, ju + 1
    u = pair_uniform(spec.rng_seed, i1, j1)
    prob = np.where(block_of[iu] == block_of[ju], spec.p_in, spec.p_out)
    keep = u < prob
    ones = np.ones(np.count_nonzero(keep))
    g = build_graph(total, np.column_stack((i1[keep], j1[keep], ones)))
    starts = np.concatenate(([0], stops[:-1]))
    blocks = [np.arange(lo + 1, hi + 1, dtype=np.int64) for lo, hi in zip(starts, stops)]
    return g, blocks


def sample_seeds(block, count: int, rng_seed: int = 0) -> np.ndarray:
    """Uniform sample without replacement from one block's node ids."""
    ids = np.sort(np.asarray(block, dtype=np.int64))
    count = int(count)
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if count > ids.size:
        raise CountTooLarge(f"requested {count} seeds from a block of {ids.size}")
    rng = np.random.default_rng(rng_seed)
    return np.sort(rng.choice(ids, size=count, replace=False))


@dataclass(frozen=True)
class GreyImage:
    """Greyscale raster with values 0..255, pixels stored row major."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.size != self.width * self.height:
            raise ValueError(
                f"pixel count {px.size} != width*height {self.width * self.height}")
        if px.size and (px.min() < 0 or px.max() > 255):
            raise ValueError("grey values must lie in 0..255")
        px = px.reshape(self.height, self.width).astype(np.uint8)
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    def node_id(self, row: int, col: int) -> int:
        """1-based graph node id of the pixel at (row, col)."""
        return row * self.width + col + 1


def grid_from_image(img: GreyImage, sigma: float = 20.0) -> Graph:
    """4-connected pixel grid with similarity weights exp(-(gi-gj)^2 / sigma^2).

    Pixel (row, col) becomes node row*width + col + 1, so ids grow along
    rows first.  Only horizontal and vertical neighbours are joined.
    """
    w, h = img.width, img.height
    if w * h < 2:
        raise ValueError("image must have at least 2 pixels")
    grey = img.pixels.astype(np.float64)
    inv = 1.0 / float(sigma) ** 2
    ids = np.arange(w * h, dtype=np.int64).reshape(h, w) + 1
    across = np.exp(-((grey[:, :-1] - grey[:, 1:]) ** 2) * inv)
    down = np.exp(-((grey[:-1, :] - grey[1:, :]) ** 2) * inv)
    edges = np.column_stack((
        np.concatenate((ids[:, :-1].ravel(), ids[:-1, :].ravel())),
        np.concatenate((ids[:, 1:].ravel(), ids[1:, :].ravel())),
        np.concatenate((across.ravel(), down.ravel())),
    ))
    return build_graph(w * h, edges)


# ---------------------------------------------------------------------------
# PGM files (portable greymap, types P2 and P5, maxval up to 255)


def _pgm_tokens(data: bytes):
    """Yield header tokens, skipping whitespace and # comments."""
    pos = 0
    while pos < len(data):
        c = data[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            end = pos
            while end < len(data) and data[end:end + 1] not in b" \t\r\n#":
                end += 1
            yield pos, data[pos:end]
            pos = end


def read_pgm(path) -> GreyImage:
    """Read an ASCII (P2) or binary (P5) PGM file with maxval <= 255."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        _, magic = next(tokens)
    except StopIteration:
        raise PgmError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"{path}: unsupported magic {magic!r}, expected P2 or P5")
    header = []
    token_end = 0
    try:
        for _ in range(3):
            pos, tok = next(tokens)
            header.append(int(tok))
            token_end = pos + len(tok)
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
        raster = data[token_end + 1:token_end + 1 + count]
        if len(raster) < count:
            raise PgmError(f"{path}: raster shorter than {count} bytes")
        px = np.frombuffer(raster, dtype=np.uint8, count=count)
    else:
        values = []
        for pos, tok in tokens:
            try:
                values.append(int(tok))
            except ValueError as exc:
                raise PgmError(f"{path}: bad pixel token: {exc}") from None
        if len(values) < count:
            raise PgmError(f"{path}: expected {count} pixels, found {len(values)}")
        px = np.asarray(values[:count], dtype=np.int64)
    if px.size and int(px.max()) > maxval:
        raise PgmError(f"{path}: pixel above maxval {maxval}")
    return GreyImage(width=width, height=height, pixels=px)


def write_pgm(path, img: GreyImage) -> None:
    """Write a binary (P5) PGM with maxval 255."""
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.width} {img.height}\n255\n".encode("ascii"))
        fh.write(img.pixels.tobytes())
