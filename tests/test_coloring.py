"""Clique-coloring validity, the exact solver, and the wrong-length check
that every consumer of a coloring shares."""

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from cliquechrom.coloring import (
    BudgetExceeded,
    Coloring,
    _solve_hypergraph_coloring,
    exact_clique_chromatic_number,
    is_valid_clique_coloring,
    monochromatic_maximal_cliques,
    offending_cliques,
    read_coloring,
    write_coloring,
)
from cliquechrom.graph import Graph, iter_bits, sample_gnp
from cliquechrom.harness import SweepConfig
from cliquechrom.lowerbound import certify, select_useful_class
from cliquechrom.params import build_schedule
from cliquechrom.upper import repair

from oracles import (
    brute_clique_chromatic,
    brute_is_valid,
    brute_monochromatic_maximal,
    exact_chromatic_number,
    reference_class_bits,
    reference_solve_hypergraph_coloring,
)


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def petersen():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return Graph.from_edges(10, outer + spokes + inner)


class TestValidity:
    def test_monochromatic_triangle(self):
        got = monochromatic_maximal_cliques(complete(3), Coloring((1, 1, 1)))
        assert got == [frozenset({1, 2, 3})]

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_two_colors_suffice_on_complete_graph(self, n):
        colors = (1,) + (2,) * (n - 1)
        assert monochromatic_maximal_cliques(complete(n), Coloring(colors)) == []

    def test_isolated_vertices_ignored(self):
        g = Graph.from_edges(4, [])
        assert monochromatic_maximal_cliques(g, Coloring((1, 1, 1, 1))) == []

    def test_rejects_partial_coloring(self):
        with pytest.raises(ValueError):
            monochromatic_maximal_cliques(complete(3), Coloring((1, 1)))

    def test_limit(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        got = monochromatic_maximal_cliques(g, Coloring((1, 1, 1, 1)), limit=1)
        assert len(got) == 1

    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_is_rejected(self, limit):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(ValueError, match="limit"):
            monochromatic_maximal_cliques(g, Coloring((1, 1, 1, 1)), limit=limit)

    def test_decision_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 8)
            g = sample_gnp(n, rng.choice([0.25, 0.5, 0.75]), seed=rng.randrange(2**32))
            colors = tuple(rng.randint(1, 3) for _ in range(n))
            got = set(monochromatic_maximal_cliques(g, Coloring(colors)))
            assert got == brute_monochromatic_maximal(g, colors)
            assert is_valid_clique_coloring(g, Coloring(colors)) == brute_is_valid(g, colors)


class TestExactSolver:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_complete_graphs_need_two(self, n):
        value, witness = exact_clique_chromatic_number(complete(n))
        assert value == 2
        assert is_valid_clique_coloring(complete(n), witness)

    def test_c5_needs_three(self):
        c5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        value, witness = exact_clique_chromatic_number(c5)
        # independent oracle: exhaustive search over all assignments
        assert brute_clique_chromatic(c5)[0] == 3
        assert value == 3
        assert is_valid_clique_coloring(c5, witness)
        # triangle-free, so the ordinary chromatic number agrees
        assert exact_chromatic_number(c5)[0] == 3

    def test_petersen_needs_three(self):
        g = petersen()
        value, witness = exact_clique_chromatic_number(g)
        assert value == 3
        assert is_valid_clique_coloring(g, witness)
        assert exact_chromatic_number(g)[0] == 3  # triangle-free: chi_c = chi

    def test_edgeless_and_empty(self):
        assert exact_clique_chromatic_number(Graph.from_edges(4, []))[0] == 1
        assert exact_clique_chromatic_number(Graph(0, [0]))[0] == 0

    def test_single_edge_needs_two(self):
        value, _ = exact_clique_chromatic_number(Graph.from_edges(2, [(1, 2)]))
        assert value == 2

    def test_never_exceeds_chromatic_number(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(2, 10)
            g = sample_gnp(n, rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(2**32))
            cc, _ = exact_clique_chromatic_number(g)
            chi, _ = exact_chromatic_number(g)
            assert cc <= chi

    def test_any_edge_forces_two(self):
        rng = random.Random(5)
        for _ in range(30):
            g = sample_gnp(rng.randint(2, 9), 0.4, seed=rng.randrange(2**32))
            value, _ = exact_clique_chromatic_number(g)
            assert value >= (2 if g.edge_count else 1)

    def test_witness_matches_brute_lexicographic_minimum(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(2, 6)
            g = sample_gnp(n, 0.5, seed=rng.randrange(2**32))
            value, witness = exact_clique_chromatic_number(g)
            brute_value, brute_witness = brute_clique_chromatic(g)
            assert value == brute_value
            assert witness.colors == brute_witness

    def test_budget_exceeded_is_distinct(self):
        with pytest.raises(BudgetExceeded):
            exact_clique_chromatic_number(petersen(), budget=5)

    def test_budget_bounds_the_clique_list_then_the_search(self):
        # Petersen has 15 maximal cliques (its edges); the search needs 31 nodes.
        with pytest.raises(BudgetExceeded, match="after 15 maximal cliques"):
            exact_clique_chromatic_number(petersen(), budget=14)
        with pytest.raises(BudgetExceeded, match="after 21 nodes"):
            exact_clique_chromatic_number(petersen(), budget=20)
        assert exact_clique_chromatic_number(petersen(), budget=31)[0] == 3


def solve_outcome(solve, n, cliques, budget):
    """(value, witness colours), or the node count BudgetExceeded reports."""
    try:
        value, witness = solve(n, cliques, budget)
    except BudgetExceeded as exc:
        return "budget", exc.nodes
    return value, witness.colors


class TestClassBitsetSolver:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=14),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        budget=st.integers(min_value=0, max_value=3000),
        edges=st.booleans(),
    )
    def test_matches_the_reference_solver(self, n, p, seed, budget, edges):
        g = sample_gnp(n, p, seed)
        if edges:  # as oracles.exact_chromatic_number passes them
            cliques = [(1 << u) | (1 << v) for u, v in g.edges()]
        else:
            cliques = list(offending_cliques(g, g.all_bits))
        assert solve_outcome(_solve_hypergraph_coloring, n, cliques, budget) == solve_outcome(
            reference_solve_hypergraph_coloring, n, cliques, budget
        )

    # A singleton can never be bichromatic, so no palette would colour
    # [0b10]; vertex 0 and vertices past n do not exist.
    @pytest.mark.parametrize(
        "n, cliques", [(3, [0b10]), (3, [0]), (3, [1 << 5]), (3, [0b11]), (3, [0b110, -6]), (0, [0b110])]
    )
    def test_degenerate_clique_bitsets_are_rejected(self, n, cliques):
        with pytest.raises(ValueError, match=rf"needs 2 or more members, all in \[1, {n}\]"):
            _solve_hypergraph_coloring(n, cliques, 10**5)


WRONG_LENGTH_CHECKS = {
    "monochromatic_maximal_cliques": lambda g, c: monochromatic_maximal_cliques(g, c),
    "repair": lambda g, c: repair(g, c),
    "select_useful_class": lambda g, c: select_useful_class(g, c, build_schedule(g.n, 0.5)),
    "certify": lambda g, c: certify(g, c, build_schedule(g.n, 0.5), seed=0),
}


@pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CHECKS))
@pytest.mark.parametrize("colors", [(1, 2), (1, 2, 1, 2)])
def test_coloring_of_the_wrong_length_is_rejected(name, colors):
    with pytest.raises(ValueError, match="coloring covers"):
        WRONG_LENGTH_CHECKS[name](complete(3), Coloring(colors))


NEGATIVE_BUDGET_CHECKS = {
    "exact_clique_chromatic_number": lambda b: exact_clique_chromatic_number(complete(3), budget=b),
    "repair": lambda b: repair(complete(3), Coloring((1, 1, 1)), budget=b),
    "certify": lambda b: certify(complete(3), Coloring((1, 1, 1)), build_schedule(3, 0.5), seed=0, budget=b),
    "SweepConfig.repair_budget": lambda b: SweepConfig(n_grid=(10,), p_grid=(0.5,), repair_budget=b),
    "SweepConfig.certify_budget": lambda b: SweepConfig(n_grid=(10,), p_grid=(0.5,), certify_budget=b),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_BUDGET_CHECKS))
def test_budget_below_zero_is_rejected(name):
    with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
        NEGATIVE_BUDGET_CHECKS[name](-1)
    NEGATIVE_BUDGET_CHECKS[name](100)


class TestColoringIO:
    def test_roundtrip(self):
        c = Coloring((1, 2, 1, 3))
        buf = io.StringIO()
        write_coloring(c, buf)
        buf.seek(0)
        assert read_coloring(buf) == c

    @settings(max_examples=200, deadline=None)
    @given(
        colors=st.lists(st.integers(min_value=0, max_value=50), max_size=39).flatmap(
            lambda rest: st.permutations([0, *rest])  # colour 0 is a legal id
        )
    )
    def test_roundtrip_property(self, colors):
        c = Coloring(tuple(colors))
        buf = io.StringIO()
        write_coloring(c, buf)
        buf.seek(0)
        assert read_coloring(buf, c.n) == c

    def test_rejects_double_assignment(self):
        with pytest.raises(ValueError):
            read_coloring(io.StringIO("1 1\n1 2\n"))

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            read_coloring(io.StringIO("1 1\n3 2\n"))

    def test_palette_and_classes(self):
        c = Coloring((1, 2, 1))
        assert c.palette_size == 2
        assert {col: set(iter_bits(bits)) for col, bits in c.class_bits().items()} == {1: {1, 3}, 2: {2}}

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=30_000)),
        palette=st.lists(st.one_of(st.integers(min_value=0, max_value=9), st.integers(min_value=2**63, max_value=2**80)),
                         min_size=1, max_size=6, unique=True),
        singletons=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_class_bits_match_the_or_loop(self, n, palette, singletons, seed):
        # Few classes of many vertices (packed), or one class per vertex; colors
        # past int64 are allowed, as read_coloring takes any non-negative id.
        rnd = random.Random(seed)
        colors = tuple(range(n, 0, -1)) if singletons else tuple(rnd.choice(palette) for _ in range(n))
        got = Coloring(colors).class_bits()
        assert list(got.items()) == list(reference_class_bits(colors).items())
