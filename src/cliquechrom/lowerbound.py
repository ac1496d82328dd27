"""Lower-bound certification pipeline.

Given a coloring with few classes, the pipeline hunts for a monochromatic
inclusion-maximal clique inside one class: pick a promising ("useful") class
W, randomly split most of it into parts A, B_1..B_m so that each of the m
highest-A-degree outside vertices misses one part, and search the candidate
family C+ (k-m vertices of A, one of each B_i) depth first for a clique with
no common neighbor outside W. Such a clique extends to a maximal clique
inside W, certifying that the coloring is not a valid clique coloring. When
C+ holds none, a Bron-Kerbosch search of the whole class settles it.

The thresholds the asymptotic argument uses (ell_1, usefulness) are usually
unattainable at desk scale; every entry point therefore accepts a `relax`
fraction that replaces ell_1(W) by relax*|W|. Relaxation is always recorded
in the outputs, never silent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .cliques import BudgetExceeded, NodeCount, _dominating_search, extend_to_maximal, is_maximal_clique
from .coloring import Coloring, color_classes, offending_cliques, require_budget
from .graph import Graph, _popcounts, _rows, bits_of, common_non_neighbors, iter_bits
from .params import ParamSchedule

__all__ = [
    "Selection",
    "select_useful_class",
    "PartitionWitness",
    "PartitionError",
    "pseudo_partition",
    "validate_witness",
    "CertifyReport",
    "certify",
]


def _threshold(size: int, sch: ParamSchedule, relax: Optional[float]) -> float:
    if relax is not None:
        if not 0.0 < relax <= 1.0:
            raise ValueError("relax fraction must lie in (0, 1]")
        return relax * size
    return sch.ell1(size)


def _useful(g: Graph, wb: int, fewest: int, sch: ParamSchedule, relax: Optional[float]) -> bool:
    """True iff |V \\ W| >= max(s-1, 1) and every outside vertex has at least
    ell_1(W) non-neighbors in the class bitset wb (relax*|W| instead when
    relax is given), given its `_fewest_non_neighbors` count `fewest`."""
    if (g.all_bits & ~wb).bit_count() < max(sch.s - 1, 1):
        return False
    return fewest >= _threshold(wb.bit_count(), sch, relax)


def _fewest_non_neighbors(g: Graph, wb: int) -> tuple[Optional[int], int]:
    """The vertex outside the bitset wb with the fewest non-neighbors in wb
    (ties: smallest id) and that count; None when no vertex lies outside."""
    best_v, most = None, -1
    for v in iter_bits(g.all_bits & ~wb):
        common = (g.adj[v] & wb).bit_count()
        if common > most:
            best_v, most = v, common
    return best_v, wb.bit_count() - most


# -- Useful-class selection ------------------------------------------------------


@dataclass(frozen=True)
class Selection:
    """Evidence for the chosen color class: the per-class minimizers S, their
    mutual non-neighbors N, and the winning class."""

    class_color: int
    s_vertices: tuple[int, ...]
    non_neighbors: frozenset[int]
    overlap: int  # |W_j cap N|
    average: float  # |N| / number of classes
    class_count: int
    class_count_ok: bool  # class count <= schedule's s
    relax: Optional[float]


def select_useful_class(
    g: Graph, c: Coloring, sch: ParamSchedule, relax: Optional[float] = None
) -> Optional[Selection]:
    """Pick the class the lower-bound argument would interrogate.

    For each class W_i take a vertex v_i outside W_i with the fewest
    non-neighbors in W_i (ties: smallest id); let N be the mutual
    non-neighbors of S = {v_1, ...}. Among classes with |W_j cap N| at least
    the average |N|/#classes, the one with the largest overlap (ties:
    smallest color) that is useful wins. Returns None when no such class is
    useful, a legitimate desk-scale outcome.

    A coloring with more classes than the schedule's s is processed anyway
    (the averaging bound still holds with the actual class count); the
    evidence records `class_count_ok=False` in that case.
    """
    return _select(g, color_classes(g, c), sch, relax)


def _select(
    g: Graph, classes: list[tuple[int, int]], sch: ParamSchedule, relax: Optional[float]
) -> Optional[Selection]:
    """`select_useful_class` on the classes `color_classes` gives."""
    t = len(classes)
    scans = [_fewest_non_neighbors(g, wb) for _color, wb in classes]
    s_vertices = [v for v, _fewest in scans if v is not None]

    non_neighbors = frozenset(common_non_neighbors(g, s_vertices))
    nb = bits_of(non_neighbors)
    average = len(non_neighbors) / t if t else 0.0

    ranked = sorted(
        ((color, wb, (wb & nb).bit_count(), fewest) for (color, wb), (_v, fewest) in zip(classes, scans)),
        key=lambda item: (-item[2], item[0]),
    )
    for color, wb, overlap, fewest in ranked:
        if overlap < average:
            break
        if _useful(g, wb, fewest, sch, relax):
            return Selection(
                class_color=color,
                s_vertices=tuple(s_vertices),
                non_neighbors=non_neighbors,
                overlap=overlap,
                average=average,
                class_count=t,
                class_count_ok=t <= sch.s,
                relax=relax,
            )
    return None


# -- Pseudo-partition --------------------------------------------------------------


class PartitionError(RuntimeError):
    """All attempts at the randomized partition construction failed."""

    def __init__(self, message: str, failures: dict[str, int]):
        super().__init__(message)
        self.failures = failures


@dataclass(frozen=True)
class PartitionWitness:
    """A realized pseudo-partition A, B_1..B_m of W.

    high_degree_order lists all of V \\ W by |Γ(u) ∩ A| descending (ties by
    id); L is its first m entries, and Γ(u_i) ∩ B_i = ∅ for each i.
    """

    w: frozenset[int]
    a_set: frozenset[int]
    b_sets: tuple[frozenset[int], ...]
    high_degree_order: tuple[int, ...]
    a: int
    b: int
    attempts: int
    failures: dict[str, int]
    ell1_value: float
    relax: Optional[float]

    @property
    def m(self) -> int:
        return len(self.b_sets)

    @property
    def l_set(self) -> tuple[int, ...]:
        return self.high_degree_order[: self.m]


def pseudo_partition(
    g: Graph,
    w: Iterable[int],
    sch: ParamSchedule,
    seed: int,
    max_attempts: int = 200,
    relax: Optional[float] = None,
) -> PartitionWitness:
    """Randomized rounds of the two-stage partition construction.

    Each attempt places every vertex of W independently into A+ (prob 1/2)
    or one of B_1+..B_m+ (prob 1/(2m) each), and is accepted when no count
    in the collection {|A+|} ∪ {|B_i+ \\ Γ(v)|} falls below half its mean.
    The accepted placement is trimmed: A is the lexicographically first
    a = ceil(|W|/4) vertices of A+, and B_i the first b = ceil(ell_1(W)/(4m))
    vertices of B_i+ \\ Γ(u_i). Raises PartitionError with per-condition
    failure counts when max_attempts rounds all fail.
    """
    wb = g.bits(w)
    members = sorted(iter_bits(wb))
    size = len(members)
    m = sch.m
    outside = g.all_bits & ~wb
    if outside.bit_count() < m:
        raise ValueError(f"need at least m={m} vertices outside w")
    ell = _threshold(size, sch, relax)
    a = math.ceil(size / 4)
    b = math.ceil(ell / (4 * m))
    if b < 1 or a < 1:
        raise PartitionError(
            f"degenerate part sizes a={a}, b={b} (ell_1={ell:.3g}); "
            "use a relax fraction at desk scale",
            {},
        )

    # Every attempt counts, per outside vertex u, its neighbours in a few
    # bitsets: one numpy pass over the rows of V \ W per bitset.
    out_ids = list(iter_bits(outside))
    rows = _rows(g, out_ids)
    # A quarter of each outside vertex's non-neighbours in W, per part.
    quotas = (size - _popcounts(rows, wb)) / (4 * m)
    rng = random.Random(seed)
    failures = {"a_plus": 0, "b_plus": 0, "trim": 0}
    for attempt in range(1, max_attempts + 1):
        a_ids: list[int] = []
        b_ids: list[list[int]] = [[] for _ in range(m)]
        for v in members:
            slot = rng.randrange(2 * m)
            (b_ids[slot] if slot < m else a_ids).append(v)
        a_plus = bits_of(a_ids)
        b_plus = [bits_of(ids) for ids in b_ids]

        if a_plus.bit_count() < size / 4:
            failures["a_plus"] += 1
            continue
        # |B_i+ \ Γ(u)| against u's quota, for every outside u and part i.
        if any((part.bit_count() - _popcounts(rows, part) < quotas).any() for part in b_plus):
            failures["b_plus"] += 1
            continue

        a_bits = _first_bits(a_plus, a)
        # By |Γ(u) ∩ A| descending; the stable sort keeps ties in id order.
        order = [out_ids[i] for i in np.argsort(-_popcounts(rows, a_bits), kind="stable")]
        b_bits = []
        for i in range(m):
            pool = b_plus[i] & ~g.adj[order[i]]
            if pool.bit_count() < b:
                b_bits = None
                break
            b_bits.append(_first_bits(pool, b))
        if b_bits is None:
            failures["trim"] += 1
            continue

        witness = PartitionWitness(
            w=frozenset(members),
            a_set=frozenset(iter_bits(a_bits)),
            b_sets=tuple(frozenset(iter_bits(bb)) for bb in b_bits),
            high_degree_order=tuple(order),
            a=a,
            b=b,
            attempts=attempt,
            failures=dict(failures),
            ell1_value=ell,
            relax=relax,
        )
        validate_witness(g, witness)
        return witness

    raise PartitionError(
        f"no acceptable partition in {max_attempts} attempts", failures
    )


def _first_bits(bits: int, count: int) -> int:
    out = 0
    for _ in range(count):
        low = bits & -bits
        out |= low
        bits ^= low
    return out


def validate_witness(g: Graph, pw: PartitionWitness) -> None:
    """Deterministic re-check of every witness invariant; raises on violation."""
    parts = [pw.a_set, *pw.b_sets]
    union: set[int] = set()
    for part in parts:
        if not part <= pw.w:
            raise AssertionError("partition part leaves W")
        if union & part:
            raise AssertionError("partition parts overlap")
        union |= part
    if len(pw.a_set) != pw.a:
        raise AssertionError("|A| != ceil(|W|/4)")
    if any(len(bs) != pw.b for bs in pw.b_sets):
        raise AssertionError("|B_i| != ceil(ell_1/(4m))")
    for i, u in enumerate(pw.l_set):
        if any(g.has_edge(u, x) for x in pw.b_sets[i]):
            raise AssertionError(f"Γ(u_{i+1}) meets B_{i+1}")


# -- End-to-end certification -----------------------------------------------------------


@dataclass(frozen=True)
class CertifyReport:
    found: bool
    clique: Optional[frozenset[int]]
    class_color: Optional[int]
    method: Optional[str]  # "sampled" (C+; perfbench counts this name) | "dominating" (Bron-Kerbosch)
    candidates_tested: int  # search nodes: vertices placed by both searches
    relax: Optional[float]
    selection: Optional[Selection]
    partition_attempts: int
    validated: bool
    exhausted: bool  # the search budget ran out before an answer

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "clique": sorted(self.clique) if self.clique else None,
            "class_color": self.class_color,
            "method": self.method,
            "candidates_tested": self.candidates_tested,
            "relax": self.relax,
            "class_count_ok": self.selection.class_count_ok if self.selection else None,
            "partition_attempts": self.partition_attempts,
            "validated": self.validated,
            "exhausted": self.exhausted,
        }


def certify(
    g: Graph,
    c: Coloring,
    sch: ParamSchedule,
    seed: int,
    budget: int = 10_000,
    relax: Optional[float] = None,
) -> CertifyReport:
    """Hunt for a monochromatic inclusion-maximal clique (size >= 2) in some
    color class of c.

    Classes are taken useful class first (else largest first). On each, the
    paper's search runs with half of the budget left: build a
    pseudo-partition A, B_1..B_m of the class and search the candidate
    family C+ (k-m vertices of A, one of each B_i) for a clique with no
    common neighbor outside the class, which extends to a maximal clique
    inside it. If that finds nothing, a pivoted Bron-Kerbosch search takes
    the class's first offending clique with the rest. Both searches draw on
    one `budget` of search nodes, the vertices they place; spending it ends
    the hunt with exhausted=True. The second search is complete, so
    found=False with exhausted=False means c is a valid clique coloring.
    """
    require_budget(budget)
    classes = color_classes(g, c)
    class_bits = dict(classes)
    rng = random.Random(seed)
    selection = _select(g, classes, sch, relax)
    if selection is not None:
        first = selection.class_color
        order = [first] + [color for color in class_bits if color != first]
    else:
        order = sorted(class_bits, key=lambda color: (-class_bits[color].bit_count(), color))

    nodes = attempts_total = 0
    clique = method = None
    spent = False
    for color in order:
        wb = class_bits[color]
        outside = g.all_bits & ~wb
        try:
            witness = pseudo_partition(g, iter_bits(wb), sch, seed=rng.randrange(2**63), relax=relax)
        except (PartitionError, ValueError):
            witness = None
        if witness is not None:
            attempts_total += witness.attempts
            slots = [bits_of(witness.a_set)] * (sch.k - sch.m) + [bits_of(bs) for bs in witness.b_sets]
            hit, used = _dominating_search(g.adj, slots, outside, (budget - nodes) // 2)
            nodes += used
            grown = hit and extend_to_maximal(g, iter_bits(hit), forbidden=iter_bits(outside))
            if grown and len(grown) >= 2:
                clique, method = grown, "sampled"
                break
        count = NodeCount(budget - nodes)
        try:
            kb = next(offending_cliques(g, wb, count), None)
        except BudgetExceeded:
            nodes, spent = budget, True
            break
        nodes += count.nodes
        if kb is not None:
            clique, method = frozenset(iter_bits(kb)), "dominating"
            break

    found = clique is not None
    return CertifyReport(
        found=found,
        clique=clique,
        class_color=color if found else None,
        method=method,
        candidates_tested=nodes,
        relax=relax,
        selection=selection,
        partition_attempts=attempts_total,
        validated=found and len(clique) >= 2 and is_maximal_clique(g, clique)
        and len({c.color_of(v) for v in clique}) == 1,
        exhausted=spent,
    )
