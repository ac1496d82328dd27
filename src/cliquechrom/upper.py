"""Two-phase upper-bound coloring procedures plus a validity repair loop.

Both procedures share the greedy first phase: walk v_1..v_s in vertex order,
give color i to every still-uncolored neighbor of v_i, then give the
uncolored part of {v_1..v_s} color s+1. Every vertex colored i <= s is
adjacent to v_i, so no maximal clique fits inside those classes; class s+1
is independent. Any monochromatic maximal clique must therefore live in the
leftover set N, which the two variants color differently:

  variant A: N splits into z = ceil(4/p) contiguous blocks, one fresh color
             each, giving the structural palette bound s + z + 1;
  variant B: z = ceil(8/(p sqrt(log n))); the induced leftover graph is
             recursively colored by variant A and that palette is folded
             (round-robin) into z fresh colors, overflow flagged.

The guarantees behind these choices are asymptotic; at finite n a
monochromatic maximal clique can survive, so `repair` recolors its smallest
vertex with a fresh color until the coloring is valid or a budget runs out.

`run` is the whole color -> validate -> repair pipeline, shared by
`cliquechrom color` and the sweep harness. Its report's `mono_pre_repair`
is counted, up to 100, by repair's first Bron-Kerbosch pass over each
color class, so each coloring is enumerated once. `procedure_A` and
`procedure_B` are `run` with a repair budget of 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .coloring import Coloring, color_classes, offending_cliques, require_budget
from .graph import Graph, iter_bits
from .params import clamp_delta, class_count

__all__ = [
    "GreedyPhase",
    "greedy_phase",
    "ProcedureReport",
    "procedure_A",
    "procedure_B",
    "RepairResult",
    "repair",
    "run",
]


@dataclass(frozen=True)
class GreedyPhase:
    assignment: tuple[int, ...]  # 0 = still uncolored; index = vertex - 1
    leftover: tuple[int, ...]  # N, ascending


def greedy_phase(g: Graph, s: int) -> GreedyPhase:
    """First-phase coloring with pivots v_1..v_s (vertex order); colors 1..s+1."""
    if not 0 <= s <= g.n:
        raise ValueError(f"s must lie in [0, {g.n}]")
    assignment = [0] * (g.n + 1)
    uncolored = g.all_bits
    for i in range(1, s + 1):
        grab = uncolored & g.adj[i]
        for v in iter_bits(grab):
            assignment[v] = i
        uncolored &= ~grab
    s_bits = ((1 << s) - 1) << 1 if s else 0
    for v in iter_bits(uncolored & s_bits):
        assignment[v] = s + 1
    uncolored &= ~s_bits
    return GreedyPhase(
        assignment=tuple(assignment[1:]),
        leftover=tuple(iter_bits(uncolored)),
    )


@dataclass(frozen=True)
class ProcedureReport:
    variant: str
    n: int
    p: float
    delta: float
    delta_raw: float
    delta_clamped: bool
    s: int
    z: int
    leftover: int
    leftover_window_ok: bool  # |N| within [n^(1-delta)/2, 2 n^(1-delta)]
    palette: int
    palette_cap: int  # s + z + 1
    mono_pre_repair: int
    cap_overflow: bool  # variant B only: inner coloring needed > z colors


def _variant_a_delta(n: int, p: float) -> tuple[float, float, bool]:
    """delta = 1/2 - rho/2 + rho^2/(1-lambda) + lambda with
    lambda = 6 loglog(n)/log(n); clamped to 1/2 outside (0, 1)."""
    if n < 3:
        return 0.5, math.nan, True
    ln_n = math.log(n)
    rho = math.log(1.0 / p) / ln_n
    lam = 6.0 * math.log(ln_n) / ln_n
    raw = 0.5 - rho / 2.0 + rho * rho / (1.0 - lam) + lam
    if 0.0 < raw < 1.0:
        return raw, raw, False
    return 0.5, raw, True


def _leftover_window_ok(n: int, delta: float, leftover: int) -> bool:
    target = n ** (1.0 - delta)
    return 0.5 * target <= leftover <= 2.0 * target


def _split_blocks(items: tuple[int, ...], z: int) -> list[list[int]]:
    """Split into z contiguous blocks in the given order, sizes as equal as
    possible (never exceeding 2 len/z for len >= z); the empty blocks of
    z > len are not built, as z = ceil(4/p) can be astronomical."""
    blocks: list[list[int]] = []
    total = len(items)
    base, extra = divmod(total, z)
    at = 0
    for i in range(min(z, total)):
        width = base + (1 if i < extra else 0)
        blocks.append(list(items[at : at + width]))
        at += width
    return blocks


def _color(
    g: Graph, p: float, variant: str, epsilon: Optional[float] = None
) -> tuple[Coloring, dict]:
    """The variant's two-phase coloring plus every ProcedureReport field
    except mono_pre_repair; raises ValueError for inputs it cannot color."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if variant == "A":
        if g.n < 1:
            raise ValueError("variant A needs a graph with at least 1 vertex")
        delta, raw, clamped = _variant_a_delta(g.n, p)
        blocks = 4.0 / p
    elif variant == "B":
        if g.n < 2:
            raise ValueError("variant B needs a graph with at least 2 vertices (log n > 0)")
        ln_n = math.log(g.n)
        if epsilon is None:
            epsilon = 0.4 - math.log(1.0 / p) / ln_n
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive (p must exceed n^(-2/5))")
        raw = 2.5 * epsilon
        delta, clamped = clamp_delta(raw)
        blocks = 8.0 / (p * math.sqrt(ln_n))
    else:
        raise ValueError(f"unknown variant {variant!r} (expected 'A' or 'B')")
    if math.isinf(blocks):
        raise ValueError("p is too small: the block count z overflows")
    z = math.ceil(blocks)
    s = min(max(class_count(g.n, p, delta), 0), g.n)

    phase = greedy_phase(g, s)
    assignment = list(phase.assignment)
    cap_overflow = False
    if variant == "A":
        for i, block in enumerate(_split_blocks(phase.leftover, z), start=1):
            for v in block:
                assignment[v - 1] = s + 1 + i
    elif phase.leftover:
        sub, order = g.induced(phase.leftover)
        inner = _color(sub, p, "A")[0].colors if sub.n >= 3 else range(1, sub.n + 1)
        cap_overflow = len(set(inner)) > z
        for v, inner_color in zip(order, inner):
            assignment[v - 1] = s + 1 + ((inner_color - 1) % z) + 1
    coloring = Coloring(tuple(assignment))
    fields = dict(
        variant=variant,
        n=g.n,
        p=p,
        delta=delta,
        delta_raw=raw,
        delta_clamped=clamped,
        s=s,
        z=z,
        leftover=len(phase.leftover),
        leftover_window_ok=_leftover_window_ok(g.n, delta, len(phase.leftover)),
        palette=coloring.palette_size,
        palette_cap=s + z + 1,
        cap_overflow=cap_overflow,
    )
    return coloring, fields


def procedure_A(g: Graph, p: float) -> tuple[Coloring, ProcedureReport]:
    """Variant A's coloring, unrepaired: its palette never exceeds s + z + 1."""
    report, result = run(g, p, "A", repair_budget=0)
    return result.coloring, report


def procedure_B(g: Graph, p: float, epsilon: Optional[float] = None) -> tuple[Coloring, ProcedureReport]:
    """Variant B's coloring, unrepaired, for p = n^(-2/5 + epsilon); omitting
    epsilon derives it from p, and it must come out positive."""
    report, result = run(g, p, "B", epsilon, repair_budget=0)
    return result.coloring, report


_MONO_CAP = 100  # the most monochromatic cliques a count reports


@dataclass(frozen=True)
class RepairResult:
    coloring: Coloring
    extra_colors: int
    recolored: tuple[int, ...]
    exhausted: bool
    remaining_mono: int  # cliques still monochromatic on exhaustion, at most _MONO_CAP

    def to_dict(self) -> dict:
        return {
            "extra_colors": self.extra_colors,
            "recolored": list(self.recolored),
            "exhausted": self.exhausted,
            "remaining_mono": self.remaining_mono,
        }


def _repair(g: Graph, c: Coloring, budget: int) -> tuple[RepairResult, int]:
    """`repair`, plus the number of monochromatic maximal cliques in `c`,
    at most _MONO_CAP.

    Each class's first Bron-Kerbosch pass supplies the count. After a
    recolor the class is enumerated afresh up to its first offending
    clique; once the budget is spent, that pass and every later class are
    counted for remaining_mono. Each count stops at _MONO_CAP cliques of a
    class, so no dense class is enumerated in full.
    """
    require_budget(budget, "repair budget")
    assignment = list(c.colors)
    fresh = max(assignment, default=0)
    recolored: list[int] = []
    found = remaining = 0
    exhausted = False
    for _, members in color_classes(g, c):
        first_pass = True
        while True:
            cliques = offending_cliques(g, members)
            kb = next(cliques, None)
            if kb is None:
                break
            exhausted = len(recolored) >= budget
            if first_pass or exhausted:
                count = 1 + sum(1 for _ in islice(cliques, _MONO_CAP - 1))
                found += count if first_pass else 0
                remaining += count if exhausted else 0
            if exhausted:
                break
            first_pass = False
            victim = (kb & -kb).bit_length() - 1
            fresh += 1
            assignment[victim - 1] = fresh
            members &= ~(1 << victim)
            recolored.append(victim)

    result = RepairResult(
        coloring=Coloring(tuple(assignment)),
        extra_colors=len(set(assignment)) - len(set(c.colors)),
        recolored=tuple(recolored),
        exhausted=exhausted,
        remaining_mono=min(remaining, _MONO_CAP),
    )
    return result, min(found, _MONO_CAP)


def repair(g: Graph, c: Coloring, budget: int = 1000) -> RepairResult:
    """Recolor until no monochromatic maximal clique of size >= 2 remains.

    Each step takes one offending clique and moves its smallest vertex to a
    brand-new color. The new class is a singleton (harmless) and the old
    class loses every offending clique through that vertex, so the count of
    monochromatic maximal cliques strictly decreases; the loop ends with a
    valid coloring or an explicit exhaustion report after `budget` recolors.
    """
    return _repair(g, c, budget)[0]


def run(
    g: Graph,
    p: float,
    variant: str,
    epsilon: Optional[float] = None,
    repair_budget: int = 1000,
) -> tuple[ProcedureReport, RepairResult]:
    """Color g with variant "A" or "B", then repair the coloring.

    The report describes the unrepaired coloring, as `procedure_A` and
    `procedure_B` would; its mono_pre_repair is counted inside the repair
    pass rather than by a separate validity pass.
    """
    coloring, fields = _color(g, p, variant, epsilon)
    fixed, mono = _repair(g, coloring, repair_budget)
    return ProcedureReport(**fields, mono_pre_repair=mono), fixed
