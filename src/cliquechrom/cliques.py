"""Maximal-clique machinery on bitset graphs.

Enumeration is pivoted Bron-Kerbosch: the pivot is the vertex of P ∪ X whose
neighborhood covers most of the candidate set P, so branches under a vertex
that dominates P die immediately. `maximal_cliques_within` exploits this to
enumerate only cliques that are maximal in the *whole* graph yet contained
in a given vertex set, by seeding X with everything outside the set; that is
the workhorse of clique-coloring validity checks.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Optional

from .graph import Graph, bits_of, iter_bits

__all__ = [
    "enumerate_maximal_cliques",
    "maximal_cliques_within",
    "is_clique",
    "is_maximal_clique",
    "extend_to_maximal",
    "find_clique_dominating_outside",
]


def _bron_kerbosch(adj: list[int], r: int, p: int, x: int) -> Iterator[int]:
    """Yield bitsets of the maximal cliques K with R ⊆ K ⊆ R ∪ P such that
    no vertex of X is adjacent to all of K."""
    if p == 0 and x == 0:
        yield r
        return
    # Tomita pivot: u in P ∪ X maximizing |P ∩ Γ(u)|.
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
        yield from _bron_kerbosch(adj, r | low, p & adj[v], x & adj[v])
        p &= ~low
        x |= low


def enumerate_maximal_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """All inclusion-maximal cliques of g, as frozensets of vertex ids.

    Isolated vertices are emitted as size-1 maximal cliques (callers that
    care about clique-coloring validity ignore those).
    """
    for kb in maximal_cliques_within(g, g.all_bits):
        yield frozenset(iter_bits(kb))


def maximal_cliques_within(g: Graph, members: int) -> Iterator[int]:
    """Bitsets of the cliques that are maximal in g and contained in the
    vertex bitset `members`."""
    return _bron_kerbosch(g.adj, 0, members, g.all_bits & ~members)


def is_clique(g: Graph, k: Iterable[int]) -> bool:
    kb = bits_of(k)
    if kb & ~g.all_bits:
        return False
    for v in iter_bits(kb):
        if kb & ~g.adj[v] & ~(1 << v):
            return False
    return True


def _common_neighbors_bits(g: Graph, kb: int) -> int:
    bits = g.all_bits
    for v in iter_bits(kb):
        bits &= g.adj[v]
    return bits


def is_maximal_clique(g: Graph, k: Iterable[int]) -> bool:
    """True iff k is a clique and no vertex outside k is adjacent to all of k.

    The empty set is never maximal on a nonempty graph.
    """
    kb = bits_of(k)
    if kb == 0:
        return g.n == 0
    if not is_clique(g, iter_bits(kb)):
        return False
    return _common_neighbors_bits(g, kb) == 0


def extend_to_maximal(g: Graph, k: Iterable[int], forbidden: Iterable[int] = ()) -> frozenset[int]:
    """Grow the clique k to an inclusion-maximal clique.

    Greedy and deterministic: at each step the smallest-id common neighbor is
    added, preferring vertices outside `forbidden`; forbidden vertices are
    used only once no other extension exists.
    """
    kb = bits_of(k)
    if not is_clique(g, iter_bits(kb)):
        raise ValueError("k is not a clique")
    fb = bits_of(forbidden)
    if fb & kb:
        raise ValueError("forbidden set intersects k")
    if kb == 0:
        # Seed with the smallest allowed vertex so the loop below has a base.
        pool = (g.all_bits & ~fb) or g.all_bits
        if pool == 0:
            return frozenset()
        low = pool & -pool
        kb = low
    cn = _common_neighbors_bits(g, kb)
    while cn:
        pool = cn & ~fb
        low = (pool or cn)
        low &= -low
        kb |= low
        cn &= g.adj[low.bit_length() - 1]
    return frozenset(iter_bits(kb))


def find_clique_dominating_outside(
    g: Graph,
    w: Iterable[int],
    k_max: int = 6,
    restarts: int = 1000,
    seed: int = 0,
) -> Optional[frozenset[int]]:
    """Search for a clique K ⊆ w such that no vertex of V \\ w is adjacent
    to all of K, i.e. every outside vertex has a non-neighbor in K.

    The search first exhausts all cliques inside w of size up to k_max, then
    falls back to `restarts` random greedy completions; absence within this
    budget is reported as None. A successful K is extended (necessarily
    inside w) to a clique that is inclusion-maximal in g before returning.
    """
    wb = g.bits(w)
    outside = g.all_bits & ~wb
    if wb == 0:
        return None

    # With no vertex outside w, the empty clique already qualifies.
    found = _dominating_search(g.adj, [wb] * k_max, outside)[0] if outside else 0
    if found is None and restarts > 0:
        found = _dominating_restarts(g, wb, outside, restarts, seed)
    return None if found is None else extend_to_maximal(g, iter_bits(found), forbidden=iter_bits(outside))


def _dominating_search(
    adj: list[int], slots: list[int], outside: int, budget: Optional[int] = None
) -> tuple[Optional[int], int, bool]:
    """Depth-first search for a non-empty clique K, no vertex of `outside`
    adjacent to all of it, with one vertex from each of a prefix of `slots`
    (vertex bitsets) inside the common neighbourhood of the vertices before.
    A run of equal slots takes ascending ids, so each clique is met once.
    Each vertex placed is one node; the search stops at the first such K or
    once `budget` nodes (None: no cap) are spent. Returns (K or None, nodes,
    budget spent)."""
    nodes, spent = 0, False

    def grow(depth: int, cand: int, common: int, kb: int, alive: int) -> Optional[int]:
        nonlocal nodes, spent
        more = depth + 1 < len(slots)
        while cand:
            if nodes == budget:
                spent = True
                return None
            nodes += 1
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            left = alive & adj[v]
            if left == 0:
                return kb | low
            if more:
                nxt = cand if slots[depth + 1] == slots[depth] else slots[depth + 1] & common
                hit = grow(depth + 1, nxt & adj[v], common & adj[v], kb | low, left)
                if hit is not None or spent:
                    return hit
        return None

    found = grow(0, slots[0], -1, 0, outside) if slots else None
    return found, nodes, spent


def _dominating_restarts(g: Graph, wb: int, outside: int, restarts: int, seed: int) -> Optional[int]:
    rng = random.Random(seed)
    members = list(iter_bits(wb))
    for _ in range(restarts):
        rng.shuffle(members)
        kb = 0
        alive = outside
        for v in members:
            if kb & ~g.adj[v]:
                continue
            kb |= 1 << v
            alive &= g.adj[v]
            if alive == 0:
                return kb
    return None
