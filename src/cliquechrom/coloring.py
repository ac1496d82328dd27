"""Colorings, clique-coloring validity, and the exact desk-scale solver.

A coloring is valid when no inclusion-maximal clique of size >= 2 is
monochromatic; isolated vertices are ignored. The exact solver enumerates
the maximal cliques once and backtracks over canonical color assignments
(colors appear in first-use order, so vertex 1 always has color 1), which
makes the returned witness the lexicographically least valid assignment.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping, Optional, TextIO

from .cliques import BudgetExceeded, NodeCount, maximal_cliques_within
from .graph import Graph, bits_of, iter_bits

__all__ = [
    "Coloring",
    "BudgetExceeded",
    "color_classes",
    "offending_cliques",
    "monochromatic_maximal_cliques",
    "is_valid_clique_coloring",
    "exact_clique_chromatic_number",
    "read_coloring",
    "write_coloring",
]


def require_budget(budget: int, name: str = "budget") -> None:
    """Raise ValueError for a budget below 0."""
    if budget < 0:
        raise ValueError(f"{name} must be >= 0, got {budget}")


@dataclass(frozen=True)
class Coloring:
    """Total map vertex -> color id, stored as a tuple indexed by vertex-1."""

    colors: tuple[int, ...]

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping[int, int]) -> "Coloring":
        if set(mapping) != set(range(1, n + 1)):
            raise ValueError("coloring must assign every vertex in [1, n] exactly once")
        return cls(tuple(mapping[v] for v in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.colors)

    def color_of(self, v: int) -> int:
        return self.colors[v - 1]

    @property
    def palette_size(self) -> int:
        return len(set(self.colors))

    def class_bits(self) -> dict[int, int]:
        """Each color's members as a bitset, colors in first-appearance order.

        The vertices are grouped in one pass and each class packed once, as
        ORing each vertex into its class would cost O(n) big-int work per
        vertex."""
        members: defaultdict[int, list[int]] = defaultdict(list)
        for v, c in enumerate(self.colors, start=1):
            members[c].append(v)
        return {c: bits_of(vs) for c, vs in members.items()}


def color_classes(g: Graph, c: Coloring) -> list[tuple[int, int]]:
    """(color, member bitset) of each class of c, in ascending color order.

    Rejects colorings that do not cover exactly the vertices of g.
    """
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")
    return sorted(c.class_bits().items())


def offending_cliques(g: Graph, members: int, count: Optional[NodeCount] = None) -> Iterator[int]:
    """Bitsets of the maximal cliques of g of size >= 2 inside the vertex bitset
    `members`, which a color class equal to `members` leaves monochromatic.
    The search charges its nodes to `count`, as `maximal_cliques_within`."""
    return (kb for kb in maximal_cliques_within(g, members, count) if kb.bit_count() >= 2)


def monochromatic_maximal_cliques(
    g: Graph, c: Coloring, limit: Optional[int] = None
) -> list[frozenset[int]]:
    """Inclusion-maximal cliques of size >= 2 whose vertices share one color,
    at most `limit` of them (which must be at least 1) when it is given.

    Empty result <=> c is a valid clique coloring. Rejects colorings that do
    not cover every vertex.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    out: list[frozenset[int]] = []
    for _color, members in color_classes(g, c):
        for kb in offending_cliques(g, members):
            out.append(frozenset(iter_bits(kb)))
            if len(out) == limit:
                return out
    return out


def is_valid_clique_coloring(g: Graph, c: Coloring) -> bool:
    return not monochromatic_maximal_cliques(g, c, limit=1)


# -- Exact solvers ------------------------------------------------------------


def _solve_hypergraph_coloring(
    n: int, cliques: list[int], budget: int
) -> tuple[int, Coloring]:
    """Smallest palette such that no clique bitset is monochromatic, found by
    canonical backtracking over palette sizes 1, 2, ...

    A clique is checked when its largest member v gets a colour: its other
    members, all coloured by then, share colour c (that of their lowest
    member) exactly when their bitset lies inside class c's bitset. So one
    mask of the colours that would close a monochromatic clique is built on
    entering v. `budget` counts assignment attempts across the whole search,
    masked colours included. ValueError for a clique bitset with fewer than
    2 members or a member outside [1, n].
    """
    # For each vertex v, the cliques it completes (it is the largest member),
    # as (lowest other member, bitset of the other members).
    closing: list[list[tuple[int, int]]] = [[] for _ in range(n + 1)]
    for kb in cliques:
        if kb.bit_count() < 2 or kb & 1 or kb >> (n + 1):
            raise ValueError(f"clique bitset {kb:#x} needs 2 or more members, all in [1, {n}]")
        v = kb.bit_length() - 1
        rest = kb ^ (1 << v)
        closing[v].append(((rest & -rest).bit_length() - 1, rest))
    if not cliques:  # one colour for all, none when there is no vertex
        return min(n, 1), Coloring((1,) * n)

    nodes = 0

    def search(q: int) -> Optional[list[int]]:
        assignment = [0] * (n + 1)
        classes = [0] * (q + 1)  # colour -> bitset of the vertices holding it

        def rec(v: int, used: int) -> bool:
            nonlocal nodes
            if v > n:
                return True
            forbidden = 0
            for low, rest in closing[v]:
                c = assignment[low]
                if rest & classes[c] == rest:
                    forbidden |= 1 << c
            bit = 1 << v
            for color in range(1, min(q, used + 1) + 1):  # canonical: one brand-new color at most
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(nodes)
                if forbidden >> color & 1:
                    continue
                assignment[v] = color
                classes[color] |= bit
                if rec(v + 1, max(used, color)):
                    return True
                classes[color] ^= bit
            return False

        return assignment if rec(1, 0) else None

    q = 1
    while True:
        got = search(q)
        if got is not None:
            return q, Coloring(tuple(got[1:]))
        q += 1


def exact_clique_chromatic_number(
    g: Graph, budget: int = 20_000_000
) -> tuple[int, Coloring]:
    """Exact clique chromatic number with a witness coloring.

    Lists the maximal cliques of size >= 2 once, then backtracks. `budget`
    bounds both steps: more than `budget` such cliques, or more than
    `budget` search nodes, raise BudgetExceeded rather than returning a
    wrong number. At budget 2*10^5, G(n, 0.3) with seeds 1000-1007 runs
    over on 0, 4, 6 and 7 of 8 graphs at n = 35, 40, 45, 50 (README "Notes
    on scale" gives the times). The edgeless graph has value 1 (0 when
    there are no vertices at all).
    """
    require_budget(budget)
    cliques = list(islice(offending_cliques(g, g.all_bits), budget + 1))
    if len(cliques) > budget:
        raise BudgetExceeded(len(cliques), "maximal cliques")
    return _solve_hypergraph_coloring(g.n, cliques, budget)


# -- File format ---------------------------------------------------------------


def write_coloring(c: Coloring, fh: TextIO) -> None:
    """One "vertex color" line per vertex."""
    for v in range(1, c.n + 1):
        fh.write(f"{v} {c.color_of(v)}\n")


def read_coloring(fh: TextIO, n: Optional[int] = None) -> Coloring:
    """Parse "vertex color" lines; must cover 1..n exactly once.

    When n is None it is taken to be the largest vertex id present.
    """
    mapping: dict[int, int] = {}
    for line in fh:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed coloring line: {line!r}")
        v, color = int(parts[0]), int(parts[1])
        if v in mapping:
            raise ValueError(f"vertex {v} colored twice")
        if color < 0:
            raise ValueError(f"negative color id {color}")
        mapping[v] = color
    if n is None:
        n = max(mapping, default=0)
    return Coloring.from_mapping(n, mapping)
