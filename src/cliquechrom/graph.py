"""Undirected simple graphs on {1..n} with bitset adjacency rows.

Vertices are 1-based everywhere in the public API. Each adjacency row is a
Python int used as a bitset: bit v of ``adj[u]`` is set iff u~v (bit 0 is
never used). Python ints give arbitrary-width AND/OR/popcount, which is what
the clique machinery lives on.

Random graphs are sampled from a named, stable generator (numpy PCG64).
For a given (n, p, seed) the sample is bit-identical across platforms: the
pair (u, v) with u < v consumes one uniform double, in row-major order
(all pairs with u = 1 first, then u = 2, ...).
"""

from __future__ import annotations

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
    """Pack an iterable of vertex ids into a bitset."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions (vertex ids) in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """Sample G(n, p): each unordered pair is an edge independently w.p. p.

    Identical (n, p, seed) always yields the identical graph; see the module
    docstring for the exact pair ordering in the PCG64 stream.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    nbytes = (n + 8) // 8
    packed = np.zeros((n + 1, nbytes), dtype=np.uint8)
    # Row u sets bit u of each partner v > u. For the eight rows
    # u = base..base+7 (base a multiple of 8) those bits all land in byte
    # column base >> 3, so the block is drawn into one bool buffer (row i
    # holds the pairs of u = base + i) and transposed into that column.
    block = np.zeros((8, 8 * nbytes), dtype=bool)
    words = block.view(np.dtype("<u8"))
    lanes = np.zeros_like(words)
    column = np.zeros(nbytes, dtype=words.dtype)
    for base in range(0, n, 8):
        # Row i must be False up to its diagonal base + i; the previous
        # block's row i drew from column base - 7 + i on. Columns past n
        # are never drawn.
        block[:, max(base - 7, 0) : base + 8] = False
        for i in range(max(1 - base, 0), min(8, n - base)):
            u = base + i
            np.less(rng.random(n - u), p, out=block[i, u + 1 : n + 1])
        rows = min(8, n + 1 - base)
        packed[base : base + rows] |= np.packbits(block, axis=1, bitorder="little")[:rows]
        # Bools are 0/1 bytes, so shifting row i's words by i moves each
        # flag to bit i of its own byte with no carry between bytes.
        np.left_shift(words, _ROW_SHIFTS, out=lanes)
        np.bitwise_or.reduce(lanes, axis=0, out=column)
        packed[:, base >> 3] |= column.view(np.uint8)[: n + 1]
    adj = [0] * (n + 1)
    for v in range(1, n + 1):
        adj[v] = int.from_bytes(packed[v].data, "little")
    return Graph._wrap(n, adj)


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
    """Parse the "n m" / "u v" format; rejects duplicates, self-loops and
    out-of-range ids, and requires u < v on every edge line."""
    header = fh.readline().split()
    if len(header) != 2:
        raise ValueError("first line must be 'n m'")
    n, m = (int(tok) for tok in header)
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
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
