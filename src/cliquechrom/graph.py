"""Undirected simple graphs on {1..n} with bitset adjacency rows.

Vertices are 1-based everywhere in the public API. Each adjacency row is a
Python int used as a bitset: bit v of ``adj[u]`` is set iff u~v (bit 0 is
never used). Python ints give arbitrary-width AND/OR/popcount, which is what
the clique machinery lives on.

Random graphs are sampled from a named, stable generator (numpy PCG64).
For a given (n, p, seed) the sample is bit-identical across platforms: the
pair (u, v) with u < v consumes one uniform double, in row-major order
(all pairs with u = 1 first, then u = 2, ...).

That stream is drawn in row bands. Rows 1..n-1 are cut at multiples of 8
into bands of nearly equal pair counts, one band per CPU once a sample has
2^22 pairs or more and one band below that. Each band draws from its own
PCG64(seed), advanced past the (u-1)n - (u-1)u/2 pairs of the rows before
its first row u (a double takes one 64-bit step, and `advance` jumps in
O(log k)), so the bands read disjoint parts of the one stream and run on
threads of their own while numpy fills and compares without the GIL. The
band count changes only the time, never the graph.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator, TextIO

import numpy as np

__all__ = [
    "Graph",
    "sample_gnp",
    "common_non_neighbors",
    "read_edge_list",
    "write_edge_list",
    "bits_of",
    "iter_bits",
]


def bits_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex ids into a bitset; a negative id raises
    ValueError and an id that is not an int TypeError.

    ORing each id into the result costs O(v) big-int work per id v, so k ids
    below t cost O(k t). Where that would cost more than one numpy pass over
    a t-byte buffer (`_pack_pays`: from about 90 ids below 2000, 55 below
    10^4 and 36 below 3*10^4), ids that are all non-negative int64 values
    are set in the buffer and packed instead; any other input takes the OR
    loop, which raises what it raises."""
    ids = vertices if type(vertices) is list else list(vertices)
    # The packing never pays for 20 ids or fewer, whatever their range.
    if len(ids) > 20:
        try:
            arr = np.frombuffer(array("q", ids), np.int64)
        except (TypeError, OverflowError):
            arr = None  # not ints, or past int64: the loop raises or packs them
        if arr is not None and _pack_pays(len(ids), top := int(arr.max())) and arr.min() >= 0:
            flags = np.zeros(top + 1, dtype=bool)
            flags[arr] = True
            return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
    bits = 0
    for v in ids:
        bits |= 1 << v
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """Iterate over the set bit positions (vertex ids) in ascending order;
    a negative int, which has infinitely many, raises ValueError.

    Walking the bits one by one costs O(w) big-int work per set bit of a
    w-bit int. Where that would cost more than one numpy pass over its
    bytes (`_unpack_pays`: from about 23 set bits at w = 128, 17 at 2000,
    10 at 10^4 and 8 at 3*10^4; never within one 64-bit word), the int is
    unpacked by numpy instead, with the same ids in the same order."""
    if bits < 0:
        raise ValueError("a negative int has no finite set of bits")
    width = bits.bit_length()
    if _unpack_pays(bits.bit_count(), width):
        return iter(_unpack(bits).tolist())
    return _walk(bits)


def _unpack(bits: int) -> np.ndarray:
    """The set bit positions of a non-negative int, ascending, as an array."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little").view(bool))


def _walk(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


# The crossovers of the two kernels, from times measured on an x86 host
# (Python 3.11, numpy 2.4) for widths 64 to 30 000 and 1 to 1024 set bits.
def _unpack_pays(count: int, width: int) -> bool:
    """The walk takes about 160 + width/16 ns per set bit, the unpacking
    about 3800 + 0.4 width ns in all. A set within one 64-bit word always
    walks: the unpacking gains at most a few microseconds there."""
    return width > 64 and count * (160 + width / 16) > 3800 + 0.4 * width


def _pack_pays(count: int, top: int) -> bool:
    """The OR loop takes about 120 + top/66 ns per id, the packing about
    9800 + 0.31 top + 34 count ns in all."""
    return count * (120 + top / 66) > 9800 + 0.31 * top + 34 * count


# The largest vertex count a graph is read or sampled at. Vertex ids are bit
# positions in the rows, so one row takes up to n/8 bytes (128 KiB at 2^20)
# and the n + 1 row slots of even an edgeless graph take 8n bytes (8 MiB).
# 2^20 admits the million-vertex sparse graphs an edge-list file can hold.
# A dense sample packs n^2/8 bytes, so sampling meets the memory limit below
# the bound, and the CLI reports that MemoryError as invalid input. The
# bound is checked before anything is allocated, so a 12-byte header cannot
# ask for gigabytes of row slots.
_MAX_VERTICES = 1 << 20


def _check_vertex_count(n: int) -> None:
    if n > _MAX_VERTICES:
        raise ValueError(f"n={n} exceeds the largest supported vertex count, {_MAX_VERTICES}")


def _rows(g: Graph, ids: list[int]) -> np.ndarray:
    """The adjacency rows of the vertices ids, one row of little-endian
    uint64 words each."""
    width = (g.n + 64) // 64
    raw = b"".join(g.adj[v].to_bytes(8 * width, "little") for v in ids)
    return np.frombuffer(raw, "<u8").reshape(len(ids), width)


def _popcounts(rows: np.ndarray, bits: int) -> np.ndarray:
    """|row ∩ bits| for each row of uint64 words, as int64; bits must fit
    in a row."""
    words = np.frombuffer(bits.to_bytes(8 * rows.shape[1], "little"), "<u8")
    return np.bitwise_count(rows & words).sum(axis=1, dtype=np.int64)


class Graph:
    """Immutable undirected simple graph on vertices {1, ..., n}."""

    __slots__ = ("n", "adj", "all_bits")

    def __init__(self, n: int, adj: list[int]):
        # adj[0] is a dummy slot; adj[v] holds the neighbor bitset of v.
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        if len(adj) != n + 1:
            raise ValueError("adjacency list must have n+1 rows (slot 0 unused)")
        self.n = n
        self.adj = adj
        self.all_bits = ((1 << n) - 1) << 1 if n else 0
        self._validate()

    def _validate(self) -> None:
        if self.adj[0] != 0:
            raise ValueError("slot 0 of the adjacency list must be empty")
        n = self.n
        for v in range(1, n + 1):
            row = self.adj[v]
            # Shifts keep this linear, where an n-bit complement of each row
            # would not; a negative row has bits above n set.
            if row & 1 or row >> (n + 1):
                raise ValueError(f"vertex {v} has a neighbor outside [1, n]")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        for v in range(1, n + 1):
            for u in iter_bits(self.adj[v]):
                if not self.adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {{{u}, {v}}}")

    @classmethod
    def _wrap(cls, n: int, adj: list[int]) -> "Graph":
        # Trusted constructor for rows built symmetric by construction
        # (sampler, induced subgraphs); skips the O(n + m) validation.
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g.all_bits = ((1 << n) - 1) << 1 if n else 0
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * (n + 1)
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range [1, {n}]")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._wrap(n, adj)

    def bits(self, vertices: Iterable[int]) -> int:
        """Pack vertex ids into a bitset; raises ValueError for an id outside
        [1, n]."""
        bits = bits_of(vertices)
        if bits & 1 or bits >> (self.n + 1):
            raise ValueError(f"vertex ids must lie in [1, {self.n}]")
        return bits

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(1, self.n + 1):
            rest = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(rest):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(1, self.n + 1)) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.adj)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph on the given vertices, relabeled 1..k.

        Returns (subgraph, order) where order[i] is the original id of the
        subgraph's vertex i+1 (ascending original order).
        """
        order = sorted(set(vertices))
        if order and not (1 <= order[0] and order[-1] <= self.n):
            raise ValueError("vertices out of range")
        index = {v: i + 1 for i, v in enumerate(order)}
        adj = [0] * (len(order) + 1)
        member = bits_of(order)
        for v in order:
            for u in iter_bits(self.adj[v] & member):
                adj[index[v]] |= 1 << index[u]
        return Graph._wrap(len(order), adj), order


_ROW_SHIFTS = np.arange(8, dtype=np.uint64)[:, None]
# Samples with fewer pairs than this are drawn on the calling thread.
_BAND_MIN_PAIRS = 1 << 22
# Blocks whose column bytes are collected before one write into `packed`.
_TILE_BLOCKS = 64


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample G(n, p): each unordered pair is an edge independently w.p. p.

    Identical (n, p, seed) always yields the identical graph; see the module
    docstring for the exact pair ordering in the PCG64 stream. n must lie in
    [1, _MAX_VERTICES].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_vertex_count(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    bands = 1 if n * (n - 1) // 2 < _BAND_MIN_PAIRS else os.cpu_count() or 1
    return _sample_banded(n, p, seed, bands)


def _pairs_before(n: int, u: int) -> int:
    """The pairs of rows 1..u-1: the stream position of row u's first draw."""
    return (u - 1) * n - (u - 1) * u // 2


def _sample_banded(n: int, p: float, seed: int, bands: int) -> Graph:
    """`sample_gnp` drawn in at most `bands` row bands; more than one band
    run on a thread each."""
    packed = np.zeros((n + 1, (n + 8) // 8), dtype=np.uint8)
    # Block j holds rows 8j..8j+7. Band k starts at the first block whose
    # rows before it hold k/bands of all pairs; empty bands are dropped.
    blocks = (n + 7) // 8
    cuts = [0]
    for k in range(1, bands):
        cut = bisect_left(
            range(blocks), k * _pairs_before(n, n), key=lambda j: bands * _pairs_before(n, max(8 * j, 1))
        )
        if cuts[-1] < cut < blocks:
            cuts.append(cut)
    cuts.append(blocks)
    work = [_Band(packed, p, seed, first, stop) for first, stop in zip(cuts, cuts[1:])]
    if len(work) == 1:
        work[0].draw()
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(work)) as pool:
            list(pool.map(_Band.draw, work))
    del work  # frees the buffers for the rows below to reuse
    adj = [0] * (n + 1)
    for v in range(1, n + 1):
        adj[v] = int.from_bytes(packed[v].data, "little")
    return Graph._wrap(n, adj)


class _Band:
    """The rows of blocks first..stop-1: their generator and buffers.

    A band is made on the calling thread, so a bad seed raises there, and
    its buffers come from that thread's heap, which the graph's rows reuse
    once the bands are drawn; `draw` may then run on any thread.

    Row u sets bit u of each partner v > u. For the eight rows
    u = base..base+7 (base a multiple of 8) those bits all land in byte
    column base >> 3, so the block's pairs are drawn at once into one bool
    buffer (row i holds the pairs of u = base + i), packed into the block's
    own rows from column base >> 3 on, and transposed into that column.
    The columns of _TILE_BLOCKS blocks are collected in `tile` and ORed
    into `packed` at once, rows and columns from the tile's first row on.

    Two bands never write the same byte: row writes stay inside the band's
    own rows, and tile writes stay inside the band's own columns, at rows
    >= the band's first row. So an earlier band writes only left of this
    band's first column, and a later band only below its last row.
    """

    def __init__(self, packed: np.ndarray, p: float, seed: int, first: int, stop: int):
        n = packed.shape[0] - 1
        top = max(8 * first, 1)
        bitgen = np.random.PCG64(seed)
        bitgen.advance(_pairs_before(n, top))  # one 64-bit step per double
        self.rng = np.random.Generator(bitgen)
        self.packed, self.p, self.first, self.stop = packed, p, first, stop
        self.block = np.zeros((8, 8 * packed.shape[1]), dtype=bool)
        self.lanes = np.zeros((8, packed.shape[1]), dtype=np.dtype("<u8"))
        self.tile = np.zeros((_TILE_BLOCKS, packed.shape[1]), dtype=self.lanes.dtype)
        # Eight rows from the band's first row hold as many pairs as any block.
        self.draws = np.empty(_pairs_before(n, min(top + 8, n)) - _pairs_before(n, top))
        self.hits = np.empty(self.draws.shape, dtype=bool)

    def draw(self) -> None:
        """Draw the band's pairs and set both bits of each edge in `packed`."""
        packed, p, block, lanes, tile, draws, hits = (
            self.packed, self.p, self.block, self.lanes, self.tile, self.draws, self.hits)
        n = packed.shape[0] - 1
        words = block.view(lanes.dtype)
        for tile_first in range(self.first, self.stop, _TILE_BLOCKS):
            tile_stop = min(tile_first + _TILE_BLOCKS, self.stop)
            row0 = 8 * tile_first
            for j in range(tile_first, tile_stop):
                base = 8 * j
                lo, hi = max(base, 1), min(base + 8, n)
                count = _pairs_before(n, hi) - _pairs_before(n, lo)
                self.rng.random(out=draws[:count])
                np.less(draws[:count], p, out=hits[:count])
                # Row i must be False up to its diagonal base + i; the
                # previous block's row i drew from column base - 7 + i on.
                # Columns past n are never drawn.
                block[:, max(base - 7, 0) : base + 8] = False
                offset = 0
                for u in range(lo, hi):
                    block[u - base, u + 1 : n + 1] = hits[offset : offset + n - u]
                    offset += n - u
                rows = min(8, n + 1 - base)
                packed[base : base + rows, base >> 3 :] = np.packbits(block[:rows, base:], axis=1, bitorder="little")
                # Bools are 0/1 bytes, so shifting row i's words by i moves
                # each flag to bit i of its own byte with no carry between
                # bytes: byte v of tile row j - tile_first becomes row v's
                # column byte.
                np.left_shift(words[:, row0 >> 3 :], _ROW_SHIFTS, out=lanes[:, row0 >> 3 :])
                np.bitwise_or.reduce(lanes[:, row0 >> 3 :], axis=0, out=tile[j - tile_first, row0 >> 3 :])
            width = tile_stop - tile_first
            packed[row0:, tile_first : tile_first + width] |= tile.view(np.uint8)[:width, row0 : n + 1].T


def common_non_neighbors(g: Graph, s: Iterable[int]) -> set[int]:
    """Vertices outside s that are adjacent to no member of s.

    Empty s returns all of V.
    """
    sbits = g.bits(s)
    bits = g.all_bits & ~sbits
    for u in iter_bits(sbits):
        bits &= ~g.adj[u]
    return set(iter_bits(bits))


def write_edge_list(g: Graph, fh: TextIO) -> None:
    """Write the text format: first line "n m", then one "u v" line per edge."""
    fh.write(f"{g.n} {g.edge_count}\n")
    for u, v in g.edges():
        fh.write(f"{u} {v}\n")


def read_edge_list(fh: TextIO) -> Graph:
    """Parse the "n m" / "u v" format; rejects duplicates, self-loops,
    out-of-range ids and an n past _MAX_VERTICES, and requires u < v on
    every edge line."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = (int(tok) for tok in header)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    _check_vertex_count(n)
    adj = [0] * (n + 1)
    seen = 0
    for line in fh:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (1 <= u < v <= n):
            raise ValueError(f"edge ({u}, {v}) violates 1 <= u < v <= n")
        if adj[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        seen += 1
    if seen != m:
        raise ValueError(f"header claims {m} edges, file has {seen}")
    # Every check Graph(n, adj) would make has been made per line above, and
    # each edge was set in both rows.
    return Graph._wrap(n, adj)
