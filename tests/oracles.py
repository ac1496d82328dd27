"""Brute-force reference implementations used only by the tests.

Everything here enumerates subsets or assignments outright, with no shared
code paths into the library; the library must agree with these on small
instances.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Optional

import numpy as np

from cliquechrom.graph import Graph


def subset_is_clique(g: Graph, mask: int) -> bool:
    vs = [v for v in range(1, g.n + 1) if mask >> v & 1]
    return all(g.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :])


def subset_is_maximal_clique(g: Graph, mask: int) -> bool:
    if mask == 0 or not subset_is_clique(g, mask):
        return False
    for v in range(1, g.n + 1):
        if mask >> v & 1:
            continue
        if mask & ~g.adj[v] == 0:  # v adjacent to the whole subset
            return False
    return True


def brute_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """All maximal cliques by checking every one of the 2^n subsets."""
    out = set()
    for raw in range(1, 1 << g.n):
        mask = raw << 1  # vertex v lives at bit v
        if subset_is_maximal_clique(g, mask):
            out.add(frozenset(v for v in range(1, g.n + 1) if mask >> v & 1))
    return out


def brute_monochromatic_maximal(g: Graph, colors: tuple[int, ...]) -> set[frozenset[int]]:
    """Maximal cliques of size >= 2 that sit inside one color class."""
    out = set()
    for clique in brute_maximal_cliques(g):
        if len(clique) < 2:
            continue
        if len({colors[v - 1] for v in clique}) == 1:
            out.add(clique)
    return out


def brute_is_valid(g: Graph, colors: tuple[int, ...]) -> bool:
    return not brute_monochromatic_maximal(g, colors)


def brute_clique_chromatic(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique chromatic number by trying every assignment, palette
    sizes 1, 2, ... in lexicographic order. Tiny n only."""
    if g.n == 0:
        return 0, ()
    q = 1
    while True:
        for assignment in product(range(1, q + 1), repeat=g.n):
            if brute_is_valid(g, assignment):
                return q, assignment
        q += 1


def brute_chromatic(g: Graph) -> int:
    """Exact ordinary chromatic number, same exhaustive scheme."""
    if g.n == 0:
        return 0
    q = 1
    while True:
        for assignment in product(range(1, q + 1), repeat=g.n):
            if all(assignment[u - 1] != assignment[v - 1] for u, v in g.edges()):
                return q
        q += 1


def _unprojected_bron_kerbosch(adj: list[int], r: int, p: int, x: int) -> Iterator[int]:
    # Pivoted Bron-Kerbosch on the full-width rows: the pivot is the first
    # vertex of P ∪ X, in id order, with the largest cover of P.
    if p == 0 and x == 0:
        yield r
        return
    best_cover = -1
    full = p.bit_count()
    pivot_adj = 0
    scan = p | x
    while scan:
        low = scan & -scan
        scan ^= low
        u = low.bit_length() - 1
        cover = (p & adj[u]).bit_count()
        if cover > best_cover:
            best_cover = cover
            pivot_adj = adj[u]
            if cover == full:
                break
    cand = p & ~pivot_adj
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        yield from _unprojected_bron_kerbosch(adj, r | low, p & adj[v], x & adj[v])
        p &= ~low
        x |= low


def reference_maximal_cliques_within(g: Graph, members: int) -> Iterator[int]:
    """The maximal cliques of g inside the vertex bitset `members`, by the
    pivoted search with every outside vertex in X as a full-width row. The
    library's projected search must yield the same cliques in the same
    order."""
    return _unprojected_bron_kerbosch(g.adj, 0, members, g.all_bits & ~members)


def _dominating_dfs(adj: list[int], wb: int, outside: int, k_max: int) -> Optional[int]:
    # DFS over cliques in w in ascending vertex order; `alive` tracks the
    # outside vertices still adjacent to the whole partial clique.
    def rec(kb: int, size: int, cand: int, alive: int) -> Optional[int]:
        if alive == 0:
            return kb
        if size == k_max:
            return None
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            hit = rec(kb | low, size + 1, cand & adj[v], alive & adj[v])
            if hit is not None:
                return hit
        return None

    return rec(0, 0, wb, outside)


def reference_sample_gnp(n: int, p: float, seed: int) -> Graph:
    """G(n, p) drawn one row at a time: row u's pairs (u, v), v > u, take
    the next n - u doubles of the PCG64 stream, and each hit is scattered
    into column u of its partner's row. The library's sampler must give the
    same graph for every (n, p, seed)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    nbytes = (n + 8) // 8
    packed = np.zeros((n + 1, nbytes), dtype=np.uint8)
    row = np.zeros(n + 1, dtype=bool)
    for u in range(1, n):
        hits = rng.random(n - u) < p
        row[: u + 1] = False
        row[u + 1 :] = hits
        packed[u] |= np.packbits(row, bitorder="little")[:nbytes]
        partners = np.nonzero(hits)[0] + (u + 1)
        packed[partners, u >> 3] |= np.uint8(1 << (u & 7))
    adj = [0] * (n + 1)
    for v in range(1, n + 1):
        adj[v] = int.from_bytes(packed[v].tobytes(), "little")
    return Graph._wrap(n, adj)
