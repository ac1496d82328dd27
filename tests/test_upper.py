"""Greedy-phase procedures, palette bounds, and the repair loop."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cliquechrom import coloring, upper
from cliquechrom.cliques import maximal_cliques_within
from cliquechrom.coloring import Coloring, is_valid_clique_coloring, monochromatic_maximal_cliques
from cliquechrom.graph import Graph, sample_gnp
from cliquechrom.params import class_count
from cliquechrom.upper import (
    greedy_phase,
    procedure_A,
    procedure_B,
    repair,
    run,
)

from oracles import brute_is_valid, brute_monochromatic_maximal


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestGreedyPhase:
    def test_edgeless(self):
        g = Graph.from_edges(6, [])
        phase = greedy_phase(g, 3)
        assert phase.assignment[:3] == (4, 4, 4)  # pivots fall through to s+1
        assert phase.leftover == (4, 5, 6)

    def test_complete_graph_single_pivot(self):
        phase = greedy_phase(complete(5), 1)
        assert phase.assignment == (2, 1, 1, 1, 1)
        assert phase.leftover == ()

    def test_colored_vertices_adjacent_to_their_pivot(self):
        rng = random.Random(3)
        for _ in range(20):
            g = sample_gnp(40, 0.3, seed=rng.randrange(2**32))
            s = rng.randint(1, 12)
            phase = greedy_phase(g, s)
            for v, color in enumerate(phase.assignment, start=1):
                if 1 <= color <= s:
                    assert g.has_edge(v, color)

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            greedy_phase(complete(3), 5)


class TestProcedureA:
    def test_palette_cap_structural(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.choice([50, 120, 400])
            p = rng.choice([0.1, 0.2, 0.3, 0.6])
            g = sample_gnp(n, p, seed=rng.randrange(2**32))
            coloring, rep = procedure_A(g, p)
            assert rep.palette <= rep.palette_cap == rep.s + rep.z + 1
            delta, _, _ = upper._variant_a_delta(n, p)
            s = min(max(class_count(n, p, delta), 0), n)
            assert rep.palette_cap == s + math.ceil(4.0 / p) + 1

    def test_z_at_p_fifth(self):
        _, rep = procedure_A(sample_gnp(100, 0.2, seed=1), 0.2)
        assert rep.z == 20

    def test_s_plus_one_class_is_independent(self):
        rng = random.Random(11)
        for _ in range(15):
            g = sample_gnp(60, 0.3, seed=rng.randrange(2**32))
            coloring, rep = procedure_A(g, 0.3)
            members = [v for v in range(1, 61) if coloring.color_of(v) == rep.s + 1]
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert not g.has_edge(u, v)

    def test_leftover_blocks_balanced(self):
        g = sample_gnp(3000, 0.15, seed=7)
        coloring, rep = procedure_A(g, 0.15)
        if rep.leftover >= rep.z:
            sizes = [
                sum(1 for v in range(1, 3001) if coloring.color_of(v) == rep.s + 1 + i)
                for i in range(1, rep.z + 1)
            ]
            assert max(sizes) <= 2 * rep.leftover / rep.z

    @pytest.mark.parametrize("variant", "AB")
    def test_overflowing_block_count_is_a_value_error(self, variant):
        with pytest.raises(ValueError, match="block count"):
            run(Graph.from_edges(5, []), 1e-308, variant, epsilon=0.1)

    def test_more_blocks_than_leftover_vertices(self):
        # one vertex a block; the empty blocks color nothing and are not built
        assert upper._split_blocks((4, 7, 9), 5) == [[4], [7], [9]]
        assert upper._split_blocks((), 5) == []
        assert upper._split_blocks((4, 7, 9), 2) == [[4, 7], [9]]

    def test_delta_clamp_flagged_at_desk_scale(self):
        _, rep = procedure_A(sample_gnp(200, 0.2, seed=1), 0.2)
        assert rep.delta_clamped and rep.delta == 0.5
        assert rep.delta_raw > 1.0


class TestProcedureB:
    def test_z_formula(self):
        g = sample_gnp(10_000, 0.2, seed=3)
        _, rep = procedure_B(g, 0.2)
        assert rep.z == 14 == math.ceil(8.0 / (0.2 * math.sqrt(math.log(10_000))))

    def test_delta_is_five_halves_epsilon(self):
        g = sample_gnp(500, 0.25, seed=2)
        _, rep = procedure_B(g, 0.25, epsilon=0.04)
        assert rep.delta == pytest.approx(0.1)

    def test_dense_fluke_empty_leftover(self):
        coloring, rep = procedure_B(complete(20), 0.5, epsilon=0.1)
        assert rep.leftover == 0
        assert rep.palette == rep.s + 1

    def test_rejects_nonpositive_epsilon(self):
        g = sample_gnp(100, 0.05, seed=1)  # p below n^(-2/5)
        with pytest.raises(ValueError):
            procedure_B(g, 0.05)

    def test_palette_within_cap(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.choice([150, 300])
            p = float(n) ** rng.uniform(-0.38, -0.2)
            g = sample_gnp(n, p, seed=rng.randrange(2**32))
            _, rep = procedure_B(g, p)
            assert rep.palette <= rep.palette_cap


class TestRepair:
    def test_valid_coloring_untouched(self):
        g = complete(4)
        c = Coloring((1, 2, 1, 2))
        out = repair(g, c)
        assert out.coloring == c and out.extra_colors == 0

    def test_monochromatic_triangle_single_recolor(self):
        g = complete(3)
        out = repair(g, Coloring((1, 1, 1)))
        assert out.extra_colors == 1 and len(out.recolored) == 1
        assert is_valid_clique_coloring(g, out.coloring)

    def test_budget_exhaustion_is_reported(self):
        g = sample_gnp(60, 0.3, seed=4)
        c = Coloring(tuple(1 + v % 2 for v in range(60)))
        out = repair(g, c, budget=3)
        assert out.exhausted and out.remaining_mono > 0
        assert len(out.recolored) == 3

    def test_progress_bounded_by_initial_count(self):
        # every recolor removes at least one offending clique
        rng = random.Random(6)
        for _ in range(10):
            g = sample_gnp(50, 0.35, seed=rng.randrange(2**32))
            c = Coloring(tuple(rng.randint(1, 3) for _ in range(50)))
            before = len(monochromatic_maximal_cliques(g, c))
            out = repair(g, c, budget=10_000)
            assert not out.exhausted
            assert len(out.recolored) <= before
            assert is_valid_clique_coloring(g, out.coloring)

    def test_post_repair_validity_on_procedure_output(self):
        rng = random.Random(8)
        for _ in range(10):
            g = sample_gnp(1000, 0.2, seed=rng.randrange(2**32))
            coloring, _ = procedure_A(g, 0.2)
            out = repair(g, coloring, budget=1000)
            assert not out.exhausted
            assert is_valid_clique_coloring(g, out.coloring)

    def test_palette_never_below_exact_value(self):
        rng = random.Random(21)
        from cliquechrom.coloring import exact_clique_chromatic_number

        for _ in range(10):
            n = rng.randint(4, 12)
            p = rng.choice([0.3, 0.6])
            g = sample_gnp(n, p, seed=rng.randrange(2**32))
            coloring, _ = procedure_A(g, p)
            out = repair(g, coloring, budget=100)
            exact, _ = exact_clique_chromatic_number(g)
            assert out.coloring.palette_size >= exact


class TestTinyGraphs:
    @pytest.mark.parametrize(
        "n, edges, p, colors, s",
        [
            (1, [], 0.5, (2,), 0),
            (2, [], 0.1, (3, 3), 2),
            (2, [], 0.5, (2, 3), 0),
            (2, [(1, 2)], 0.1, (2, 1), 2),
            (2, [(1, 2)], 0.9, (2, 3), 0),
        ],
    )
    def test_variant_a_keeps_its_result(self, n, edges, p, colors, s):
        coloring, rep = procedure_A(Graph.from_edges(n, edges), p)
        assert coloring.colors == colors and rep.s == s and rep.mono_pre_repair == 0

    def test_too_small_graphs_raise_value_error(self):
        with pytest.raises(ValueError, match="at least 1 vertex"):
            procedure_A(Graph.from_edges(0, []), 0.5)
        for n in (0, 1):
            with pytest.raises(ValueError, match="at least 2 vertices"):
                procedure_B(Graph.from_edges(n, []), 0.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            run(complete(4), 0.5, "C")


class TestRun:
    def test_matches_procedure_then_repair(self):
        rng = random.Random(17)
        for _ in range(12):
            n = rng.choice([40, 100, 300])
            p = rng.choice([0.2, 0.3, 0.5])
            g = sample_gnp(n, p, seed=rng.randrange(2**32))
            budget = rng.choice([0, 1, 1000])
            for variant in "AB":
                coloring, rep = procedure_A(g, p) if variant == "A" else procedure_B(g, p, 0.1)
                assert run(g, p, variant, 0.1, budget) == (rep, repair(g, coloring, budget))

    def test_counts_without_a_separate_validity_pass(self, monkeypatch):
        calls = []

        def counted(g, members, count=None):
            calls.append(members)
            return maximal_cliques_within(g, members, count)

        monkeypatch.setattr(coloring, "maximal_cliques_within", counted)
        # n=100, p=0.2, seed 12: variant B leaves two monochromatic cliques
        rep, fixed = run(sample_gnp(100, 0.2, seed=12), 0.2, "B")
        assert rep.mono_pre_repair == 2 and len(fixed.recolored) == 2
        # One enumeration per class, plus one restart per recolour; a
        # separate validity pass would add another per class.
        assert len(calls) == rep.palette + len(fixed.recolored)


def test_repair_counts_stop_at_one_hundred():
    # K_{3,3,3,3,3} has 3^5 = 243 maximal cliques, all in one class
    parts = [range(3 * i + 1, 3 * i + 4) for i in range(5)]
    g = Graph.from_edges(15, [(u, v) for i, a in enumerate(parts) for b in parts[i + 1 :] for u in a for v in b])
    c = Coloring((1,) * 15)
    assert len(monochromatic_maximal_cliques(g, c, limit=1000)) == 243
    for budget in (0, 1000):
        fixed, count = upper._repair(g, c, budget)
        assert count == 100
        assert fixed.remaining_mono == (100 if budget == 0 else 0)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=9),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    classes=st.integers(min_value=1, max_value=3),
    palette_seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.sampled_from([0, 1, 2, 1000]),
)
def test_repair_counts_every_monochromatic_clique(n, p, seed, classes, palette_seed, budget):
    g = sample_gnp(n, p, seed)
    palette = random.Random(palette_seed)
    c = Coloring(tuple(palette.randint(1, classes) for _ in range(n)))
    fixed, count = upper._repair(g, c, budget)
    assert count == len(brute_monochromatic_maximal(g, c.colors))
    if fixed.exhausted:
        left = len(brute_monochromatic_maximal(g, fixed.coloring.colors))
        assert fixed.remaining_mono == min(left, 100) > 0
    else:
        assert brute_is_valid(g, fixed.coloring.colors)
