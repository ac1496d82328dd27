"""Useful classes, pseudo-partitions, certification."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from cliquechrom.cliques import find_clique_dominating_outside, is_maximal_clique
from cliquechrom.coloring import Coloring, monochromatic_maximal_cliques
from cliquechrom.graph import Graph, common_non_neighbors, iter_bits, sample_gnp
from cliquechrom.lowerbound import (
    PartitionError,
    certify,
    pseudo_partition,
    select_useful_class,
    validate_witness,
)
from cliquechrom.params import build_schedule, make_schedule

from oracles import is_useful, reference_partition_rounds


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


class TestEll1:
    def test_reference_point(self):
        # tau degenerates here, so the max is decided by |W| - 2np = 5000
        sch = make_schedule(1e4, 0.2, delta=0.5, m=1, k=3, epsilon=0.005)
        assert sch.s == 20
        assert sch.ell1(9000) == 5000.0

    def test_small_w_takes_first_branch(self):
        sch = make_schedule(1e6, 0.2, delta=0.25, m=1, k=3, epsilon=0.005)
        assert sch.tau < 1.0
        # |W| <= 2np makes the second branch nonpositive
        w = range(1, 101)
        expected = (1.0 - sch.tau) * 1e6**0.75 / sch.s
        assert sch.ell1(len(w)) == pytest.approx(expected, rel=1e-12)

    def test_empty_set_is_ell0(self):
        sch = build_schedule(1000, 0.2)
        assert sch.ell1(0) == sch.ell0


class TestVertexIds:
    """Every entry point that takes a vertex set rejects ids outside [1, n]
    rather than counting them as vertices."""

    N = 60
    W = list(range(1, 31))
    ENTRY_POINTS = {
        "pseudo_partition": lambda g, sch, w: pseudo_partition(g, w, sch, seed=1, relax=0.5),
        "find_clique_dominating_outside": lambda g, sch, w: find_clique_dominating_outside(g, w),
        "common_non_neighbors": lambda g, sch, w: common_non_neighbors(g, w),
    }

    @pytest.mark.parametrize("bad", [0, N + 1])
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_out_of_range_id_raises(self, entry, bad):
        g = sample_gnp(self.N, 0.3, seed=6)
        sch = build_schedule(self.N, 0.3)
        call = self.ENTRY_POINTS[entry]
        call(g, sch, self.W)  # in-range ids are accepted
        with pytest.raises(ValueError):
            call(g, sch, self.W + [bad])


class TestIsUseful:
    def test_whole_vertex_set_is_not_useful(self):
        g = sample_gnp(20, 0.3, seed=1)
        sch = build_schedule(20, 0.3)
        assert not is_useful(g, range(1, 21), sch)

    def test_edgeless_graph_useful(self):
        g = Graph.from_edges(20, [])
        sch = build_schedule(20, 0.3)
        assert is_useful(g, range(1, 11), sch)

    def test_matches_direct_two_loop_verification(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(8, 24)
            g = sample_gnp(n, rng.choice([0.2, 0.5]), seed=rng.randrange(2**32))
            sch = build_schedule(n, 0.3)
            w = {v for v in range(1, n + 1) if rng.random() < 0.5}
            relax = rng.choice([None, 0.3, 0.6])
            need = relax * len(w) if relax else sch.ell1(len(w))
            outside = set(range(1, n + 1)) - w
            direct = len(outside) >= max(sch.s - 1, 1) and all(
                sum(1 for u in w if not g.has_edge(v, u)) >= need for v in outside
            )
            assert is_useful(g, w, sch, relax) == direct


class TestSelection:
    def test_single_out_vertex_lands_in_s(self):
        # class 1 covers everything except vertex 6, so its minimizer is
        # forced to be 6 and N avoids 6's neighborhood
        g = Graph.from_edges(6, [(5, 6)])
        sch = build_schedule(6, 0.3)
        sel = select_useful_class(g, Coloring((1, 1, 1, 1, 1, 2)), sch)
        assert sel is not None
        assert 6 in sel.s_vertices
        assert 5 not in sel.non_neighbors

    def test_edgeless_tie_returns_least_color(self):
        g = Graph.from_edges(6, [])
        sch = build_schedule(6, 0.3)
        sel = select_useful_class(g, Coloring((1, 1, 1, 2, 2, 2)), sch)
        assert sel.class_color == 1
        assert sel.overlap == sel.average == 2.0

    def test_overlap_beats_class_average(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(10, 30)
            g = sample_gnp(n, 0.3, seed=rng.randrange(2**32))
            classes = rng.randint(2, 4)
            coloring = Coloring(tuple(1 + (v % classes) for v in range(n)))
            sel = select_useful_class(g, coloring, sch := build_schedule(n, 0.3), relax=0.2)
            if sel is None:
                continue
            assert sel.overlap >= len(sel.non_neighbors) / sel.class_count
            # the chosen class is in fact useful under the same relaxation
            members = {v for v in range(1, n + 1) if coloring.color_of(v) == sel.class_color}
            assert is_useful(g, members, sch, relax=0.2)


class TestPseudoPartition:
    def test_edgeless_first_attempt_when_counts_suffice(self):
        g = Graph.from_edges(40, [])
        sch = build_schedule(40, 0.2)
        pw = pseudo_partition(g, range(1, 21), sch, seed=3, relax=0.8)
        assert pw.attempts >= 1
        validate_witness(g, pw)

    def test_sizes_and_disjointness(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.choice([30, 50, 80])
            p = rng.choice([0.15, 0.3])
            g = sample_gnp(n, p, seed=rng.randrange(2**32))
            sch = build_schedule(n, p)
            w = set(rng.sample(range(1, n + 1), n // 2))
            try:
                pw = pseudo_partition(g, w, sch, seed=rng.randrange(2**32), relax=0.4)
            except PartitionError:
                continue
            validate_witness(g, pw)  # raises on any invariant violation
            assert pw.a == math.ceil(len(w) / 4)
            assert pw.b == math.ceil(0.4 * len(w) / (4 * sch.m))

    def test_degenerate_threshold_is_refused(self):
        g = sample_gnp(30, 0.4, seed=2)
        sch = build_schedule(30, 0.4)
        assert sch.ell0 < 0  # desk scale: the honest threshold collapses
        with pytest.raises(PartitionError, match="relax"):
            pseudo_partition(g, range(1, 16), sch, seed=1)

    def test_deterministic_given_seed(self):
        g = sample_gnp(40, 0.25, seed=8)
        sch = build_schedule(40, 0.25)
        a = pseudo_partition(g, range(1, 21), sch, seed=5, relax=0.5)
        b = pseudo_partition(g, range(1, 21), sch, seed=5, relax=0.5)
        assert (a.a_set, a.b_sets, a.high_degree_order) == (b.a_set, b.b_sets, b.high_degree_order)

    def test_needs_outside_vertices(self):
        g = Graph.from_edges(10, [])
        sch = build_schedule(10, 0.3)
        with pytest.raises(ValueError):
            pseudo_partition(g, range(1, 11), sch, seed=0, relax=0.5)

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=8, max_value=400),
        p=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
        m=st.integers(min_value=1, max_value=3),
        relax=st.sampled_from([0.1, 0.4, 0.9]),
        share=st.sampled_from([0.3, 0.5, 0.8]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rounds_match_the_one_vertex_at_a_time_reference(self, n, p, m, relax, share, seed):
        # The parts, the checks and the degree order are numpy passes over
        # the outside rows; the witness and the failure counts must be those
        # of the loops over single vertices.
        rng = random.Random(seed)
        g = sample_gnp(n, p, seed)
        sch = make_schedule(1e4, 0.2, delta=0.5, m=m, k=3, epsilon=0.005)
        w = [v for v in range(1, n + 1) if rng.random() < share]
        if n - len(w) < m:
            return
        wb = g.bits(w)
        a, b = math.ceil(len(w) / 4), math.ceil(relax * len(w) / (4 * m))
        if a < 1:
            return
        want, failures = reference_partition_rounds(g, wb, m, a, b, seed, max_attempts=20)
        try:
            pw = pseudo_partition(g, w, sch, seed=seed, max_attempts=20, relax=relax)
        except PartitionError as exc:
            assert want is None and exc.failures == failures
            return
        a_bits, b_bits, order, attempts = want
        assert pw.a_set == frozenset(iter_bits(a_bits))
        assert pw.b_sets == tuple(frozenset(iter_bits(bb)) for bb in b_bits)
        assert pw.high_degree_order == tuple(order)
        assert (pw.attempts, pw.failures) == (attempts, failures)

    def test_dominating_outsider_becomes_u1(self):
        # vertex 20 adjacent to almost all of W: it tops the degree order and
        # joins L, so B_1 dodges its neighborhood
        edges = [(v, 20) for v in range(1, 10)]
        g = Graph.from_edges(30, edges)
        sch = build_schedule(30, 0.3)
        pw = pseudo_partition(g, set(range(1, 13)), sch, seed=1, relax=0.2)
        assert pw.high_degree_order[0] == 20
        assert not any(g.has_edge(20, x) for x in pw.b_sets[0])


class TestCertify:
    def test_monochromatic_k4(self):
        g = complete(4)
        sch = build_schedule(4, 0.5)
        rep = certify(g, Coloring((1, 1, 1, 1)), sch, seed=0)
        assert rep.found and rep.clique == frozenset({1, 2, 3, 4})
        assert rep.validated

    def test_valid_two_coloring_of_k4_yields_nothing(self):
        g = complete(4)
        sch = build_schedule(4, 0.5)
        rep = certify(g, Coloring((1, 2, 1, 2)), sch, seed=0)
        assert not rep.found and rep.clique is None

    def test_edgeless_yields_nothing(self):
        g = Graph.from_edges(6, [])
        sch = build_schedule(6, 0.5)
        rep = certify(g, Coloring((1, 1, 1, 1, 1, 1)), sch, seed=0)
        assert not rep.found

    def test_coarse_coloring_of_random_graph(self):
        g = sample_gnp(500, 0.3, seed=12)
        sch = build_schedule(500, 0.3)
        coloring = Coloring(tuple(1 + (v % 2) for v in range(500)))
        rep = certify(g, coloring, sch, seed=3, relax=0.25)
        assert rep.found
        clique = rep.clique
        assert len(clique) >= 2
        assert len({coloring.color_of(v) for v in clique}) == 1
        assert is_maximal_clique(g, clique)
        # independent re-validation through the coloring module
        offenders = set(monochromatic_maximal_cliques(g, coloring, limit=100_000))
        assert clique in offenders
        assert rep.validated

    def test_report_is_serializable(self):
        g = complete(4)
        sch = build_schedule(4, 0.5)
        doc = certify(g, Coloring((1, 1, 1, 1)), sch, seed=0).to_dict()
        assert doc["found"] is True and doc["clique"] == [1, 2, 3, 4]
        assert doc["exhausted"] is False

    def test_cplus_search_certifies_the_acceptance_instances(self):
        # Acceptance 10's instances: the pseudo-partition path answers every
        # one, and the fallback over the whole class is never needed.
        sch = build_schedule(500, 0.3)
        coloring = Coloring(tuple(1 + (v % 2) for v in range(1, 501)))
        for seed in range(20):
            g = sample_gnp(500, 0.3, seed=100_000 + seed)
            rep = certify(g, coloring, sch, seed=seed, relax=0.25)
            assert rep.found and rep.validated and rep.method == "sampled"
            assert not rep.exhausted and rep.candidates_tested <= 1000

    def test_spent_budget_ends_the_hunt(self):
        # On G(400, 0.9) the outside vertices dominate every small clique of
        # the odd vertices, so a certificate has about 30 of them.
        g = sample_gnp(400, 0.9, seed=1)
        coloring = Coloring(tuple(1 + (v % 2) for v in range(1, 401)))
        sch = build_schedule(400, 0.9)
        rep = certify(g, coloring, sch, seed=1, budget=0, relax=0.25)
        assert rep.exhausted and not rep.found and not rep.validated
        assert rep.candidates_tested == 0
        assert rep.to_dict()["exhausted"] is True
        # The Bron-Kerbosch search finds one well within 1000 nodes.
        rep = certify(g, coloring, sch, seed=1, budget=1000, relax=0.25)
        assert rep.found and rep.validated and not rep.exhausted
        assert rep.method == "dominating" and rep.candidates_tested <= 1000

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=40),
        p=st.sampled_from([0.2, 0.5, 0.8]),
        classes=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_an_unspent_hunt_decides_validity(self, n, p, classes, seed):
        nx = pytest.importorskip("networkx")
        g = sample_gnp(n, p, seed)
        rng = random.Random(seed)
        coloring = Coloring(tuple(rng.randint(1, classes) for _ in range(n)))
        ng = nx.Graph()
        ng.add_nodes_from(range(1, n + 1))
        ng.add_edges_from(g.edges())
        mono = any(len(k) >= 2 and len({coloring.color_of(v) for v in k}) == 1 for k in nx.find_cliques(ng))
        rep = certify(g, coloring, build_schedule(n, p), seed=seed, budget=10**6, relax=0.25)
        assert not rep.exhausted
        assert rep.found == rep.validated == mono

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            certify(complete(4), Coloring((1, 1, 1, 1)), build_schedule(4, 0.5), seed=0, budget=-1)
