"""Maximal-clique machinery on bitset graphs.

Enumeration is pivoted Bron-Kerbosch: the pivot is the vertex of P ∪ X whose
neighborhood covers most of the candidate set P, the first such vertex in id
order, so branches under a vertex that dominates P die immediately.
`maximal_cliques_within(g, W)` enumerates only the cliques that are maximal
in the *whole* graph yet contained in W, by seeding X with everything
outside W; that is the workhorse of clique-coloring validity checks.

A proper subset W is handled in three steps before the search:
  gate:       if an outside vertex is adjacent to all of W, it extends
              every clique in W, so nothing is yielded (the greedy color
              classes, whose members share a neighbor, end here);
  projection: only Γ(u) ∩ W matters for an outside u, so the |W| rows are
              transposed with numpy into one |W|-bit mask per outside
              vertex, and the search runs on |W|-bit local labels;
  dedup:      outside vertices with the same non-empty mask behave alike,
              so each distinct mask is kept once and stands for its lowest
              vertex id. A mask contained in another is still kept.
The pivot scan compares covers of in-class vertices and outside masks and
breaks ties by the smaller global id, so the cliques come out in exactly
the order of the unprojected search. The outside masks are also kept as
rows of uint64 words: from 32 masks in XO on, their covers are taken in
one numpy pass (AND with P's words, popcount, row sums) and the first
maximum wins, the mask the one-at-a-time scan would pick; fewer masks are
scanned one at a time. The whole-graph call runs the same search with no
outside masks and the identity labelling.

Every search charges its nodes, the vertices it places into R, to a
`NodeCount`; a capped count stops the search with BudgetExceeded.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .graph import Graph, _popcounts, _unpack, bits_of, iter_bits

__all__ = [
    "BudgetExceeded",
    "NodeCount",
    "enumerate_maximal_cliques",
    "maximal_cliques_within",
    "is_clique",
    "is_maximal_clique",
    "extend_to_maximal",
    "find_clique_dominating_outside",
]


class _Outside(NamedTuple):
    """The outside vertices of a projected search, one entry per distinct
    non-empty mask j, ascending in `reps`."""

    masks: list[int]  # Γ(u) ∩ W in local labels, for the outside u of mask j
    words: np.ndarray  # row j: masks[j] as little-endian uint64 words
    outadj: list[int]  # per local label v: the bitset of the masks containing v
    ids: list[int]  # per local label: its global id
    reps: list[int]  # the lowest global id with mask j


class BudgetExceeded(Exception):
    """A search ran out of its budget; `nodes` counts the `unit` spent."""

    def __init__(self, nodes: int, unit: str = "nodes"):
        super().__init__(f"search budget exhausted after {nodes} {unit}")
        self.nodes = nodes


class NodeCount:
    """Bron-Kerbosch nodes, the vertices placed into R (one per recursive call
    or leaf answered inline). Each call charges all its branches on entry; a
    charge past `cap` (None: no cap) raises BudgetExceeded, so a capped
    search yields a prefix of the uncapped order, then raises."""

    __slots__ = ("nodes", "cap")

    def __init__(self, cap: Optional[int] = None):
        self.nodes = 0
        self.cap = math.inf if cap is None else cap


_NO_OUTSIDE = _Outside([], np.zeros((0, 1), "<u8"), [], [], [])
# Scanning XO one mask at a time costs about 0.35 us per mask, the numpy pass
# over the word rows about 10 us (x86, Python 3.11, numpy 2.4; 16 to 1000-bit
# masks): the pass takes XO from this many masks on.
_PIVOT_KERNEL_MIN = 32


def _bron_kerbosch(
    adj: list[int], out: _Outside, count: Optional[NodeCount], r: int, p: int, x: int, xo: int
) -> Iterator[int]:
    """Yield bitsets of the maximal cliques K with R ⊆ K ⊆ R ∪ P such that
    no vertex of X and no outside vertex of a mask in XO is adjacent to all
    of K. All bitsets are in the labels of `adj`.

    It recurses at module level with `out` passed down: a recursive closure
    would be a reference cycle that keeps each class's masks alive until
    the cyclic collector runs."""
    if p == 0 and x == 0 and xo == 0:
        yield r
        return
    # Tomita pivot: u in P ∪ X maximizing |P ∩ Γ(u)|, first in id order.
    best = -1
    full = p.bit_count()
    scan = p | x
    while scan:
        low = scan & -scan
        scan ^= low
        u = low.bit_length() - 1
        cover = (p & adj[u]).bit_count()
        if cover > best:
            best = cover
            pivot = u
            if cover == full:
                break
    pivot_adj = adj[pivot] if best >= 0 else 0
    # A pivot covering all of P leaves no branch, so when an in-class vertex
    # does, the outside masks cannot change the outcome.
    if xo and best < full:
        j, cover = _outside_pivot(p, xo, out, full)
        if cover > best or (cover == best and out.reps[j] < out.ids[pivot]):
            pivot_adj = out.masks[j]
    cand = p & ~pivot_adj
    if count is not None:
        count.nodes += cand.bit_count()
        if count.nodes > count.cap:
            raise BudgetExceeded(count.cap)
    while cand:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        row = adj[v]
        xo_v = xo and xo & out.outadj[v]
        # A branch with nothing left to add is a leaf, answered here rather
        # than by a recursive call: R + v is maximal iff X and XO are empty.
        if p & row:
            yield from _bron_kerbosch(adj, out, count, r | low, p & row, x & row, xo_v)
        elif not (x & row or xo_v):
            yield r | low
        p &= ~low
        x |= low


def _outside_pivot(p: int, xo: int, out: _Outside, full: int) -> tuple[int, int]:
    """The first mask j in XO with the largest cover |P ∩ masks[j]|, and
    that cover."""
    if xo.bit_count() >= _PIVOT_KERNEL_MIN:
        sel = _unpack(xo)
        covers = _popcounts(out.words[sel], p)
        i = int(covers.argmax())  # the first maximum, as the scan below keeps
        return int(sel[i]), int(covers[i])
    best = -1
    while xo:
        low = xo & -xo
        xo ^= low
        j = low.bit_length() - 1
        cover = (p & out.masks[j]).bit_count()
        if cover > best:
            best = cover
            pivot = j
            if cover == full:
                break
    return pivot, best


def enumerate_maximal_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """All inclusion-maximal cliques of g, as frozensets of vertex ids.

    Isolated vertices are emitted as size-1 maximal cliques (callers that
    care about clique-coloring validity ignore those).
    """
    for kb in maximal_cliques_within(g, g.all_bits):
        yield frozenset(iter_bits(kb))


def maximal_cliques_within(g: Graph, members: int, count: Optional[NodeCount] = None) -> Iterator[int]:
    """Bitsets of the cliques that are maximal in g and contained in the
    vertex bitset `members`; raises ValueError for a bit outside [1, n].
    The search charges its nodes to `count` (None: nothing is counted)."""
    if members & ~g.all_bits:
        raise ValueError(f"vertex ids must lie in [1, {g.n}]")
    outside = g.all_bits & ~members
    if outside == 0:
        return _bron_kerbosch(g.adj, _NO_OUTSIDE, count, 0, members, 0, 0)
    # Gate: an outside vertex adjacent to all of W dominates every clique in
    # W. Narrow the candidates to at most one, then test what is left.
    # A few members narrow it, so they are taken one at a time.
    common, rest = outside, members
    while rest and common & (common - 1):
        low = rest & -rest
        rest ^= low
        common &= g.adj[low.bit_length() - 1]
    if any(members & ~g.adj[u] == 0 for u in iter_bits(common)):
        return iter(())
    return _projected(g, list(iter_bits(members)), count)


def _projected(g: Graph, ws: list[int], count: Optional[NodeCount]) -> Iterator[int]:
    """The search on W = ws with label i for ws[i], each clique mapped back
    to global ids."""
    k, n = len(ws), g.n
    # Row u of `cols` holds Γ(u) ∩ W as a |W|-bit little-endian mask.
    nbytes = (n + 8) // 8
    width = 8 * ((k + 63) // 64)  # whole uint64 words per mask
    cols = np.zeros((n + 1, width), dtype=np.uint8)
    # Eight rows per pass make one byte of every mask, with an 8 (n + 1)-byte
    # bool buffer whatever |W| is.
    for at in range(0, k, 8):
        rows = b"".join(g.adj[w].to_bytes(nbytes, "little") for w in ws[at : at + 8])
        bits = np.unpackbits(np.frombuffer(rows, np.uint8).reshape(-1, nbytes), axis=1, count=n + 1, bitorder="little")
        cols[:, at >> 3] = np.packbits(bits, axis=0, bitorder="little")[0]
    keys = cols.view("<u8" if width == 8 else np.dtype((np.void, width))).ravel()
    out_ids = np.setdiff1d(np.arange(1, n + 1), ws, assume_unique=True)
    # np.unique's first index of each key is its lowest outside id.
    first = np.unique(keys[out_ids], return_index=True)[1]
    reps = out_ids[np.sort(first[cols[out_ids[first]].any(axis=1)])]
    rep_cols = cols[reps]
    # Column v of `holders` packs, over the masks, whether each contains v.
    holders = np.packbits(np.unpackbits(rep_cols, axis=1, count=k, bitorder="little"), axis=0, bitorder="little")
    outadj = [int.from_bytes(col.tobytes(), "little") for col in holders.T]

    def ints(rows: np.ndarray) -> list[int]:
        return rows.tolist() if width == 8 else [int.from_bytes(row, "little") for row in rows.tolist()]

    out = _Outside(ints(keys[reps]), rep_cols.view("<u8"), outadj, ws, reps.tolist())
    for kb in _bron_kerbosch(ints(keys[ws]), out, count, 0, (1 << k) - 1, 0, (1 << len(out.masks)) - 1):
        yield sum(1 << ws[i] for i in iter_bits(kb))


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
    if not is_clique(g, iter_bits(kb)):
        return False
    return _common_neighbors_bits(g, kb) == 0


def extend_to_maximal(g: Graph, k: Iterable[int]) -> frozenset[int]:
    """Grow the clique k to an inclusion-maximal clique.

    Greedy and deterministic: at each step the smallest-id common neighbor is
    added (from the empty set, vertex 1). If no vertex outside a set W is
    adjacent to all of k, every vertex added lies in W.
    """
    kb = bits_of(k)
    if not is_clique(g, iter_bits(kb)):
        raise ValueError("k is not a clique")
    cn = _common_neighbors_bits(g, kb)
    while cn:
        low = cn & -cn
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
    return None if found is None else extend_to_maximal(g, iter_bits(found))


def _dominating_search(
    adj: list[int], slots: list[int], outside: int, budget: Optional[int] = None
) -> tuple[Optional[int], int]:
    """Depth-first search for a non-empty clique K, no vertex of `outside`
    adjacent to all of it, with one vertex from each of a prefix of `slots`
    (vertex bitsets) inside the common neighbourhood of the vertices before.
    A run of equal slots takes ascending ids, so each clique is met once.
    Each vertex placed is one node; the search stops at the first such K or
    once `budget` nodes (None: no cap) are spent. Returns (K or None, nodes)."""
    nodes = 0

    def grow(depth: int, cand: int, common: int, kb: int, alive: int) -> Optional[int]:
        nonlocal nodes
        more = depth + 1 < len(slots)
        while cand:
            if nodes == budget:
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
                if hit is not None:
                    return hit
        return None

    found = grow(0, slots[0], -1, 0, outside) if slots else None
    return found, nodes


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
