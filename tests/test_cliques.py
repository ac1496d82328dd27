"""Maximal-clique enumeration, maximality tests, extension, dominating search."""

import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquechrom.cliques import (
    BudgetExceeded,
    NodeCount,
    _Outside,
    _dominating_restarts,
    _dominating_search,
    _outside_pivot,
    enumerate_maximal_cliques,
    extend_to_maximal,
    find_clique_dominating_outside,
    is_maximal_clique,
    maximal_cliques_within,
)
from cliquechrom.coloring import color_classes, offending_cliques
from cliquechrom.graph import Graph, iter_bits, sample_gnp
from cliquechrom.upper import _color

from oracles import (
    _dominating_dfs,
    brute_maximal_cliques,
    reference_extend_to_maximal,
    reference_maximal_cliques_within,
    reference_outside_pivot,
)


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestEnumeration:
    def test_triangle(self):
        assert set(enumerate_maximal_cliques(complete(3))) == {frozenset({1, 2, 3})}

    def test_path(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        assert set(enumerate_maximal_cliques(g)) == {frozenset({1, 2}), frozenset({2, 3})}

    def test_isolated_vertices_are_emitted(self):
        g = Graph.from_edges(3, [(1, 2)])
        assert frozenset({3}) in set(enumerate_maximal_cliques(g))

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(120):
            n = rng.randint(1, 12)
            g = sample_gnp(n, rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(2**32))
            assert set(enumerate_maximal_cliques(g)) == brute_maximal_cliques(g)

    def test_output_duplicate_free_and_maximal(self):
        for seed in range(40):
            g = sample_gnp(11, 0.5, seed=seed)
            cliques = list(enumerate_maximal_cliques(g))
            assert len(cliques) == len(set(cliques))
            for k in cliques:
                assert is_maximal_clique(g, k)


# Sequences are compared on their first _ORDER_CAP + 1 cliques: dense draws
# such as n = 60, p = 0.95 hold about 8 * 10^5 maximal cliques.
_ORDER_CAP = 20_000


def assert_same_order(g, members):
    ours = list(islice(maximal_cliques_within(g, members), _ORDER_CAP + 1))
    assert ours == list(islice(reference_maximal_cliques_within(g, members), _ORDER_CAP + 1))
    return ours


class TestProjectedOrder:
    """`maximal_cliques_within` gates, projects and deduplicates before it
    searches; it must yield the unprojected search's cliques in its order,
    since repair keeps the first offending clique of each class."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=60),
        p=st.one_of(st.just(0.0), st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_same_sequence_as_the_unprojected_search(self, data, n, p, seed):
        g = sample_gnp(n, p, seed)
        members = data.draw(st.integers(min_value=0, max_value=2**n - 1)) << 1
        assert_same_order(g, members)

    @pytest.mark.parametrize("n,p", [(1, 0.5), (12, 0.0), (12, 1.0), (30, 0.3), (40, 0.7)])
    def test_empty_full_and_singleton_member_sets(self, n, p):
        g = sample_gnp(n, p, seed=n)
        assert assert_same_order(g, 0) == []
        assert assert_same_order(g, g.all_bits)
        for v in range(1, n + 1):
            assert_same_order(g, 1 << v)

    def test_class_dominated_by_an_outside_vertex(self):
        g = sample_gnp(40, 0.4, seed=3)
        for v in range(1, 41):
            assert assert_same_order(g, g.adj[v]) == []

    @pytest.mark.parametrize("n,p,seed", [(100, 0.2, 1), (130, 0.3, 2), (160, 0.5, 3)])
    def test_classes_wider_than_64_bits(self, n, p, seed):
        g = sample_gnp(n, p, seed)
        pick = random.Random(seed)
        members = sum(1 << v for v in range(1, n + 1) if pick.random() < 0.75)
        assert members.bit_count() > 64
        assert assert_same_order(g, members)

    @pytest.mark.parametrize("p", [0.1, 0.3])
    def test_upper_sweep_color_classes(self, p):
        g = sample_gnp(10_000, p, seed=2403)
        for variant in "AB":
            coloring, _ = _color(g, p, variant)
            for _, members in color_classes(g, coloring):
                assert_same_order(g, members)


class TestOutsidePivot:
    """The pivot over the outside masks, a numpy pass from 32 masks on,
    against the scan it replaces: the first mask with the largest cover."""

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(min_value=1, max_value=200),
        m=st.integers(min_value=1, max_value=300),
        density=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
        share=st.sampled_from([0.01, 0.2, 1.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_the_scan(self, k, m, density, share, seed):
        rnd = random.Random(seed)
        # Every mask is non-empty, as the projection keeps only those.
        masks = [sum(1 << i for i in range(k) if rnd.random() < density) or 1 << rnd.randrange(k) for _ in range(m)]
        width = (k + 63) // 64
        words = np.frombuffer(b"".join(mask.to_bytes(8 * width, "little") for mask in masks), "<u8")
        out = _Outside(masks, words.reshape(m, width), [], [], [])
        p = rnd.getrandbits(k) or 1
        xo = sum(1 << j for j in range(m) if rnd.random() < share) or 1 << rnd.randrange(m)
        full = p.bit_count()
        assert _outside_pivot(p, xo, out, full) == reference_outside_pivot(p, xo, masks, full)


class TestMemberRange:
    @pytest.mark.parametrize("members", [1, 0b11, 1 << 11, -2], ids=["bit0", "bit0-and-1", "bit-n+1", "negative"])
    @pytest.mark.parametrize("entry", [maximal_cliques_within, offending_cliques])
    def test_bits_outside_the_vertex_range_raise(self, entry, members):
        # bit 0 once yielded the clique {0}, and bit n + 1 an IndexError
        g = sample_gnp(10, 0.5, seed=1)
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            entry(g, members)


class TestNodeCount:
    """A capped search yields a prefix of the uncapped order, then raises."""

    @pytest.mark.parametrize("share", [1.0, 0.6], ids=["whole-graph", "class"])
    def test_capped_search_is_a_prefix_of_the_uncapped_one(self, share):
        g = sample_gnp(40, 0.7, seed=4)
        rng = random.Random(4)
        members = g.bits(v for v in range(1, 41) if rng.random() < share)
        full = NodeCount()
        order = list(maximal_cliques_within(g, members, full))
        again = NodeCount()
        assert list(maximal_cliques_within(g, members, again)) == order
        assert again.nodes == full.nodes > len(order)
        for cap in (0, 1, full.nodes // 3, full.nodes - 1):
            count, got = NodeCount(cap), []
            with pytest.raises(BudgetExceeded, match=f"after {cap} nodes"):
                for kb in maximal_cliques_within(g, members, count):
                    got.append(kb)
            assert got == order[: len(got)] and count.nodes > cap
        exact = NodeCount(full.nodes)
        assert list(maximal_cliques_within(g, members, exact)) == order
        assert exact.nodes == full.nodes

    def test_gated_class_costs_no_node(self):
        # vertex 4 is adjacent to both members, so nothing is searched
        g = Graph.from_edges(4, [(1, 2), (1, 4), (2, 4)])
        count = NodeCount(0)
        assert list(maximal_cliques_within(g, 0b110, count)) == [] and count.nodes == 0


class TestNetworkxCrossCheck:
    """Both enumerations against networkx's independent `find_cliques`. At
    p = 0.7 only n = 50 is checked: G(100, 0.7) already has about 4*10^5
    maximal cliques, and G(200, 0.7) far more."""

    CELLS = [(n, p) for n in (50, 100, 200) for p in (0.1, 0.3)] + [(50, 0.7)]

    @pytest.mark.parametrize("n,p", CELLS)
    def test_matches_find_cliques(self, n, p):
        nx = pytest.importorskip("networkx")
        g = sample_gnp(n, p, seed=n + round(100 * p))
        ng = nx.Graph()
        ng.add_nodes_from(range(1, n + 1))
        ng.add_edges_from(g.edges())
        theirs = {frozenset(k) for k in nx.find_cliques(ng)}
        assert set(enumerate_maximal_cliques(g)) == theirs

        rng = random.Random(n * p)
        w = {v for v in range(1, n + 1) if rng.random() < 0.5}
        within = {frozenset(iter_bits(kb)) for kb in maximal_cliques_within(g, g.bits(w))}
        assert within == {k for k in theirs if k <= w}


class TestMaximality:
    def test_strict_subset_of_k4(self):
        assert not is_maximal_clique(complete(4), {1, 2, 3})

    def test_k4_itself(self):
        assert is_maximal_clique(complete(4), {1, 2, 3, 4})

    def test_path_edge(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        assert is_maximal_clique(g, {1, 2})

    def test_non_clique(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        assert not is_maximal_clique(g, {1, 3})


class TestExtension:
    def test_k4_from_pair(self):
        assert extend_to_maximal(complete(4), {1, 2}) == frozenset({1, 2, 3, 4})

    def test_already_maximal(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        assert extend_to_maximal(g, {2, 3}) == frozenset({2, 3})

    def test_rejects_non_clique(self):
        g = Graph.from_edges(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            extend_to_maximal(g, {1, 3})

    def test_output_always_maximal(self):
        rng = random.Random(7)
        for _ in range(60):
            g = sample_gnp(10, 0.5, seed=rng.randrange(2**32))
            v = rng.randint(1, 10)
            got = extend_to_maximal(g, {v})
            assert is_maximal_clique(g, got)

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_empty_set(self, n):
        # From nothing the extension starts at vertex 1; the empty set is
        # maximal only on the graph with no vertex.
        g = complete(n)
        assert extend_to_maximal(g, ()) == reference_extend_to_maximal(g, ()) == frozenset(range(1, n + 1))
        assert is_maximal_clique(g, ()) is (n == 0)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        w_seed=st.integers(min_value=0, max_value=2**32 - 1),
        k=st.integers(min_value=1, max_value=6),
    )
    def test_hits_grow_as_if_outside_were_forbidden(self, n, p, seed, w_seed, k):
        # The searches return cliques that no outside vertex is adjacent to
        # all of, so a preference for vertices of W would never bind.
        g = sample_gnp(n, p, seed)
        pick = random.Random(w_seed)
        w = sum(1 << v for v in range(1, n + 1) if pick.random() < 0.5) or 1 << pick.randint(1, n)
        outside = g.all_bits & ~w
        hits = [_dominating_search(g.adj, [w] * k, outside)[0], _dominating_restarts(g, w, outside, 20, w_seed)]
        for hit in hits:
            if hit is not None:
                got = extend_to_maximal(g, iter_bits(hit))
                assert got == reference_extend_to_maximal(g, iter_bits(hit), iter_bits(outside))
                assert g.bits(got) & outside == 0


class TestDominatingSearch:
    def test_near_k4_has_none(self):
        g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        assert find_clique_dominating_outside(g, {3, 4}) is None

    def test_disjoint_triangles(self):
        g = Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)])
        assert find_clique_dominating_outside(g, {1, 2, 3}) == frozenset({1, 2, 3})

    def test_isolated_vertex(self):
        g = Graph.from_edges(1, [])
        assert find_clique_dominating_outside(g, {1}) == frozenset({1})

    def test_result_extends_inside_w(self):
        rng = random.Random(3)
        for _ in range(40):
            g = sample_gnp(14, 0.4, seed=rng.randrange(2**32))
            w = {v for v in range(1, 15) if rng.random() < 0.5}
            got = find_clique_dominating_outside(g, w, seed=1)
            if got is None:
                continue
            assert got <= w
            assert extend_to_maximal(g, got) <= w
            assert is_maximal_clique(g, got)
            outside = set(range(1, 15)) - w
            for v in outside:
                assert any(not g.has_edge(v, u) for u in got)


class TestDominatingSearchEngine:
    def test_runs_of_equal_slots_ascend_and_other_slots_do_not(self):
        # The only clique dominating vertex 4 pairs 3 (slot A) with 1 (slot B).
        g = Graph.from_edges(4, [(1, 3), (2, 3), (2, 4), (3, 4)])
        a, b, outside = 1 << 3, (1 << 1) | (1 << 2), 1 << 4
        assert _dominating_search(g.adj, [a, b], outside) == ((1 << 1) | (1 << 3), 2)
        # Two slots over {2, 3} meet the pair {2, 3} once, never as {3, 2}.
        w = (1 << 2) | (1 << 3)
        assert _dominating_search(complete(4).adj, [w, w], 0b10010) == (None, 3)

    def test_budget_counts_vertices_placed(self):
        g = sample_gnp(60, 0.9, seed=5)
        w = sum(1 << v for v in range(1, 61, 2))
        outside = g.all_bits & ~w
        hit, nodes = _dominating_search(g.adj, [w] * 3, outside)
        assert hit is None and nodes > 10
        for budget in (0, 1, 10, nodes - 1, nodes):
            assert _dominating_search(g.adj, [w] * 3, outside, budget) == (None, budget)

    def test_no_slots_finds_nothing(self):
        assert _dominating_search(complete(3).adj, [], 0b10) == (None, 0)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=14),
    p=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    w_seed=st.integers(min_value=0, max_value=2**32 - 1),
    k_max=st.integers(min_value=0, max_value=5),
)
def test_engine_over_one_class_matches_the_dominating_dfs(n, p, seed, w_seed, k_max):
    g = sample_gnp(n, p, seed)
    pick = random.Random(w_seed)
    w = sum(1 << v for v in range(1, n + 1) if pick.random() < 0.5)
    outside = g.all_bits & ~w
    if outside == 0:
        w, outside = w & ~(1 << n), 1 << n  # the oracle accepts K = {} there
    hit, nodes = _dominating_search(g.adj, [w] * k_max, outside)
    assert hit == _dominating_dfs(g.adj, w, outside, k_max)
    assert _dominating_search(g.adj, [w] * k_max, outside, nodes)[0] == hit
