"""Brute-force reference implementations used only by the tests.

Everything here enumerates subsets or assignments outright, with no shared
code paths into the library; the library must agree with these on small
instances. The exceptions are the earlier versions of library functions,
kept unchanged as references (they use the library's small helpers), and
the last section: two entry points over library internals that only the
tests call.
"""

from __future__ import annotations

import math
import random
from itertools import product
from typing import Iterable, Iterator, Optional

import numpy as np

from cliquechrom.cliques import BudgetExceeded, _common_neighbors_bits, is_clique
from cliquechrom.coloring import Coloring, _solve_hypergraph_coloring
from cliquechrom.graph import Graph, bits_of, iter_bits
from cliquechrom.lowerbound import _fewest_non_neighbors, _useful


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


def reference_iter_bits(bits: int) -> Iterator[int]:
    """The set bit positions of bits, ascending, lowest bit first, one big-int
    step per bit."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def reference_bits_of(vertices: Iterable[int]) -> int:
    """The ids ORed into a bitset one at a time."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def reference_class_bits(colors: tuple[int, ...]) -> dict[int, int]:
    """Color -> member bitset, each vertex ORed into its class, colors in
    first-appearance order."""
    out: dict[int, int] = {}
    for v, c in enumerate(colors, start=1):
        out[c] = out.get(c, 0) | (1 << v)
    return out


def reference_outside_pivot(p: int, xo: int, masks: list[int], full: int) -> tuple[int, int]:
    """The first mask j in XO, ascending, with the largest cover
    |P ∩ masks[j]|, and that cover; the scan stops at a cover of all of P."""
    best = -1
    while xo:
        low = xo & -xo
        xo ^= low
        j = low.bit_length() - 1
        cover = (p & masks[j]).bit_count()
        if cover > best:
            best = cover
            pivot = j
            if cover == full:
                break
    return pivot, best


def reference_partition_rounds(
    g: Graph, wb: int, m: int, a: int, b: int, seed: int, max_attempts: int
) -> tuple[Optional[tuple[int, list[int], list[int], int]], dict[str, int]]:
    """The randomized rounds of `pseudo_partition` on the class bitset wb,
    each vertex ORed into its part and each outside vertex checked and
    ranked by its own big-int popcounts. Returns ((A, [B_i], the degree
    order of V \\ W, attempts) or None, failure counts)."""

    def first_bits(bits: int, count: int) -> int:
        out = 0
        for _ in range(count):
            low = bits & -bits
            out |= low
            bits ^= low
        return out

    size = wb.bit_count()
    outside = g.all_bits & ~wb
    rng = random.Random(seed)
    failures = {"a_plus": 0, "b_plus": 0, "trim": 0}
    for attempt in range(1, max_attempts + 1):
        a_plus, b_plus = 0, [0] * m
        for v in reference_iter_bits(wb):
            slot = rng.randrange(2 * m)
            if slot < m:
                b_plus[slot] |= 1 << v
            else:
                a_plus |= 1 << v
        if a_plus.bit_count() < size / 4:
            failures["a_plus"] += 1
            continue
        if any(
            (b_plus[i] & ~g.adj[v]).bit_count() < (wb & ~g.adj[v]).bit_count() / (4 * m)
            for v in reference_iter_bits(outside)
            for i in range(m)
        ):
            failures["b_plus"] += 1
            continue
        a_bits = first_bits(a_plus, a)
        order = sorted(reference_iter_bits(outside), key=lambda u: (-(g.adj[u] & a_bits).bit_count(), u))
        pools = [b_plus[i] & ~g.adj[order[i]] for i in range(m)]
        if any(pool.bit_count() < b for pool in pools):
            failures["trim"] += 1
            continue
        return (a_bits, [first_bits(pool, b) for pool in pools], order, attempt), failures
    return None, failures


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


_SERIES_CHUNK = 1 << 20
_SERIES_TERM_LIMIT = 500_000_000


def _reference_phi(x: np.ndarray) -> np.ndarray:
    naive = (1.0 + x) * np.log1p(np.where(x > -1.0, x, 0.0)) - x
    series = x * x * (0.5 - x / 6.0 + x * x / 12.0 - x * x * x / 20.0)
    return np.where(np.abs(x) < 1e-4, series, naive)


def _reference_rate(sch, i):
    return _reference_phi(np.expm1(sch.zeta * i)) * sch.p


def _reference_levels(last: int, reverse: bool = False) -> Iterator[np.ndarray]:
    if last > _SERIES_TERM_LIMIT:
        raise ValueError(
            f"level series has {last} terms; direct summation is infeasible "
            "at this (n, p)"
        )
    starts = range(2, last + 1, _SERIES_CHUNK)
    return (
        np.arange(lo, min(lo + _SERIES_CHUNK, last + 1), dtype=np.float64)
        for lo in (reversed(starts) if reverse else starts)
    )


def reference_walk_series(sch, reverse: bool = False) -> tuple[float, float, float]:
    """(Pi_alpha, Pi_{1/log n}, density-series minimum) by the chunked walk
    over whole 2^20-level float64 arrays: every chunk's indices, rates and
    terms are fresh arrays. The library's blocked walk must return the same
    bits and raise the same errors wherever this walk stays finite."""
    ln_n = math.log(sch.n)
    km = sch.k - sch.m
    try:
        step = math.expm1(sch.zeta * km)  # (e^{zeta (k-m)} - 1)
    except OverflowError:
        raise ValueError(f"level series step e^(zeta (k-m)) overflows at k-m={km}") from None
    lasts = (sch.last_index(sch.alpha), sch.last_index(1.0 / ln_n))
    dens_last = sch.last_index(1.0)
    best = math.nan
    if reverse or sch.ell0 <= 0.0 or dens_last > _SERIES_TERM_LIMIT:
        dens_last = 0
    else:
        correction = ln_n**3 / sch.ell0
        rate = _reference_rate(sch, np.ones(min(dens_last, 1)))  # level 1, if any
        best = float(np.min(np.ceil(ln_n / rate) * (rate - correction), initial=math.inf))
    totals = [0.0, 0.0]
    for i in _reference_levels(max(*lasts, dens_last), reverse):
        lo = int(i[0])
        rate = _reference_rate(sch, i)
        if dens_last >= lo:
            d = dens_last - lo + 1
            best = min(best, float((np.ceil(ln_n / rate[:d]) * (rate[:d] - correction)).min()))
        x = np.divide(ln_n, rate, out=rate)
        top = max(max(lasts) - lo + 1, 0)
        terms = x[:top] * np.exp(km * (math.log(sch.p) + sch.zeta * i[:top])) * step
        for j, last in enumerate(lasts):
            part = terms[: max(last - lo + 1, 0)]
            if part.size:
                totals[j] += float(np.add.reduce(part[::-1] if reverse else part))
    return totals[0], totals[1], best


# The exact solver as it was before the class bitsets, kept unchanged: each
# clique is checked when its largest member gets a colour, by walking its
# other members bit by bit. The library's solver must return the same value
# and witness, or raise BudgetExceeded at the same node count.
def reference_solve_hypergraph_coloring(
    n: int, cliques: list[int], budget: int
) -> tuple[int, Coloring]:
    """Smallest palette such that no clique bitset is monochromatic, found by
    canonical backtracking over palette sizes 1, 2, ...

    `budget` counts assignment attempts across the whole search.
    """
    if n == 0:
        return 0, Coloring(())
    if not cliques:
        return 1, Coloring((1,) * n)

    # For each vertex, the cliques it completes (it is the largest member).
    closing: list[list[int]] = [[] for _ in range(n + 1)]
    for kb in cliques:
        closing[kb.bit_length() - 1].append(kb)

    nodes = 0

    def search(q: int) -> Optional[list[int]]:
        nonlocal nodes
        assignment = [0] * (n + 1)

        def rec(v: int, used: int) -> bool:
            nonlocal nodes
            if v > n:
                return True
            cap = min(q, used + 1)  # canonical: at most one brand-new color
            for color in range(1, cap + 1):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(nodes)
                assignment[v] = color
                ok = True
                for kb in closing[v]:
                    mono = True
                    rest = kb & ~(1 << v)
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        if assignment[low.bit_length() - 1] != color:
                            mono = False
                            break
                    if mono:
                        ok = False
                        break
                if ok and rec(v + 1, max(used, color)):
                    return True
            assignment[v] = 0
            return False

        return assignment if rec(1, 0) else None

    q = 1
    while True:
        got = search(q)
        if got is not None:
            return q, Coloring(tuple(got[1:]))
        q += 1


# The clique extension as it was while it took a `forbidden` set, kept
# unchanged. Every search that feeds the library's extension returns a
# clique that no vertex outside its class W is adjacent to all of, so with
# forbidden = V \ W the library's extension must grow it the same way.
def reference_extend_to_maximal(g: Graph, k: Iterable[int], forbidden: Iterable[int] = ()) -> frozenset[int]:
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


# -- Entry points over library internals -------------------------------------------


def exact_chromatic_number(g: Graph, budget: int = 20_000_000) -> tuple[int, Coloring]:
    """Exact ordinary chromatic number (no monochromatic edge), by the exact
    clique-coloring engine with every edge as a clique."""
    edges = [(1 << u) | (1 << v) for u, v in g.edges()]
    return _solve_hypergraph_coloring(g.n, edges, budget)


def is_useful(g: Graph, w: Iterable[int], sch, relax: Optional[float] = None) -> bool:
    """The library's usefulness test for the vertex set w: |V \\ W| >= max(s-1, 1)
    and every outside vertex has at least ell_1(W) non-neighbors in W
    (relax*|W| instead when relax is given)."""
    wb = g.bits(w)
    return _useful(g, wb, _fewest_non_neighbors(g, wb)[1], sch, relax)
