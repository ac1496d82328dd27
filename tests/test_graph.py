"""Graph representation, G(n, p) sampling, and neighborhood primitives."""

import concurrent.futures
import io
import math
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cliquechrom
from cliquechrom import graph as graph_module
from cliquechrom.graph import (
    Graph,
    _sample_banded,
    bits_of,
    common_non_neighbors,
    iter_bits,
    read_edge_list,
    sample_gnp,
    write_edge_list,
)
from oracles import reference_bits_of, reference_iter_bits, reference_sample_gnp


def no_pool(*args, **kwargs):
    raise AssertionError("a thread pool was started")


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def path3():
    return Graph.from_edges(3, [(1, 2), (2, 3)])


class TestSampling:
    def test_p_zero_is_edgeless(self):
        assert sample_gnp(5, 0.0, seed=123).edge_count == 0

    def test_p_one_is_complete(self):
        g = sample_gnp(5, 1.0, seed=123)
        assert g.edge_count == 10

    def test_edge_count_binomial_window(self):
        # oracle: direct edge count; 4-sigma binomial window around N/2
        g = sample_gnp(1000, 0.5, seed=7)
        pairs = 1000 * 999 // 2
        slack = 4 * math.sqrt(pairs * 0.25)
        assert abs(g.edge_count - pairs / 2) <= slack

    def test_deterministic(self):
        a = sample_gnp(300, 0.2, seed=42)
        b = sample_gnp(300, 0.2, seed=42)
        assert a == b and a.adj == b.adj

    def test_seed_changes_sample(self):
        assert sample_gnp(300, 0.2, seed=1) != sample_gnp(300, 0.2, seed=2)

    @pytest.mark.parametrize("n,p,seed", [(50, 0.3, 0), (200, 0.1, 5), (120, 0.8, 9)])
    def test_symmetry_and_no_self_loops_all_pairs(self, n, p, seed):
        g = sample_gnp(n, p, seed)
        for u in range(1, n + 1):
            assert not g.has_edge(u, u)
            for v in range(1, n + 1):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_gnp(0, 0.5, seed=1)
        with pytest.raises(ValueError):
            sample_gnp(5, -0.1, seed=1)
        with pytest.raises(ValueError):
            sample_gnp(5, 1.5, seed=1)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=80),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_matches_reference_sampler(self, n, p, seed):
        assert sample_gnp(n, p, seed).adj == reference_sample_gnp(n, p, seed).adj

    @pytest.mark.parametrize("n", [2000, 10_000])
    def test_matches_reference_sampler_full_width(self, n):
        assert sample_gnp(n, 0.3, seed=2403).adj == reference_sample_gnp(n, 0.3, seed=2403).adj

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1300),
        p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        bands=st.integers(min_value=1, max_value=7),
    )
    @example(n=1030, p=0.5, seed=77, bands=2)  # a band of more than one tile
    @example(n=1300, p=0.5, seed=77, bands=3)
    def test_bands_match_reference_sampler(self, n, p, seed, bands):
        # Up to 1300 rows, band cuts fall on both sides of the 512-row tile
        # edge, and off tile boundaries.
        assert _sample_banded(n, p, seed, bands).adj == reference_sample_gnp(n, p, seed).adj

    def test_more_band_threads_than_cpus_switching_often(self):
        # Seven bands write one shared byte matrix from seven threads; a lost
        # or misplaced write would show as a difference from the oracle.
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.append(_sample_banded(3001, 0.5, 9, 7)))
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert result[0].adj == reference_sample_gnp(3001, 0.5, 9).adj

    def test_negative_seed_raises_on_the_calling_thread(self, monkeypatch):
        # The same ValueError as PCG64's own, raised before any pool starts.
        with pytest.raises(ValueError) as expected:
            np.random.PCG64(-1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        for bands in (1, 4):
            with pytest.raises(ValueError) as error:
                _sample_banded(3000, 0.1, -1, bands)
            assert str(error.value) == str(expected.value)
        with pytest.raises(ValueError, match=str(expected.value)):
            sample_gnp(3000, 0.1, seed=-1)

    def test_small_samples_stay_on_the_calling_thread(self, monkeypatch):
        # 2896 vertices make 4,191,960 pairs, just under 2^22.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert sample_gnp(2896, 0.01, seed=5).edge_count > 0

    @pytest.mark.parametrize("cpus,threads", [(None, 0), (1, 0), (3, 3)])
    def test_threads_never_exceed_the_cpus(self, monkeypatch, cpus, threads):
        # 2897 vertices make 4,194,856 pairs, just over 2^22.
        pools = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(graph_module.os, "cpu_count", lambda: cpus)
        g = sample_gnp(2897, 0.3, seed=8)
        assert pools == ([threads] if threads else [])
        assert g.adj == _sample_banded(2897, 0.3, 8, 1).adj

    def test_max_degree_tail_proxy(self):
        # fast version of the 2np degree-cap proxy; the acceptance suite
        # runs the full 200-sample check at n = 2000
        hits = sum(
            max(row.bit_count() for row in sample_gnp(500, 0.05, seed=s).adj) <= 2 * 500 * 0.05
            for s in range(30)
        )
        assert hits >= 29


class TestCommonNonNeighbors:
    def test_triangle_center(self):
        assert common_non_neighbors(complete(3), {1}) == set()

    def test_path(self):
        assert common_non_neighbors(path3(), {1}) == {3}

    def test_edgeless_pair(self):
        g = Graph.from_edges(4, [])
        assert common_non_neighbors(g, {1, 2}) == {3, 4}

    def test_empty_set_returns_everything(self):
        assert common_non_neighbors(path3(), set()) == {1, 2, 3}

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            common_non_neighbors(path3(), {9})


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = sample_gnp(40, 0.3, seed=11)
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        assert read_edge_list(buf) == g

    @pytest.mark.parametrize(
        "text",
        [
            "2 1\n1 1\n",  # self-loop
            "2 1\n2 1\n",  # u > v
            "2 1\n1 3\n",  # out of range
            "3 2\n1 2\n1 2\n",  # duplicate
            "3 2\n1 2\n",  # count mismatch
            "oops\n",  # bad header
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO(text))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_roundtrip_property(self, n, p, seed):
        g = sample_gnp(n, p, seed) if n else Graph(0, [0])
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        assert read_edge_list(buf) == g

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=0, max_value=30))
    def test_matches_the_validating_constructor(self, data, n):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        edges = data.draw(st.permutations(pairs).map(lambda ps: ps[: data.draw(st.integers(0, len(ps)))]))
        text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        adj = [0] * (n + 1)
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        assert read_edge_list(io.StringIO(text)) == Graph(n, adj)

    def test_huge_edgeless_header_reads_in_linear_time(self, tmp_path):
        # A quadratic validation pass would take minutes at n = 10^6.
        path = tmp_path / "huge.edges"
        path.write_text("1000000 0\n")
        script = (
            "import sys; from cliquechrom.graph import read_edge_list; "
            "print(read_edge_list(open(sys.argv[1])).n)"
        )
        src = str(Path(cliquechrom.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, timeout=30, env={"PYTHONPATH": src, "PATH": ""},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "1000000\n"

    def test_vertex_count_bound(self):
        # reading and sampling accept n up to the bound and refuse n past it
        top = graph_module._MAX_VERTICES
        assert read_edge_list(io.StringIO(f"{top} 0\n")).n == top
        with pytest.raises(ValueError, match="largest supported vertex count"):
            read_edge_list(io.StringIO(f"{top + 1} 0\n"))
        with pytest.raises(ValueError, match="largest supported vertex count"):
            sample_gnp(top + 1, 0.5, seed=1)


class TestGraphBasics:
    def test_induced_relabels(self):
        g = Graph.from_edges(5, [(1, 3), (3, 5), (2, 4)])
        sub, order = g.induced([1, 3, 5])
        assert order == [1, 3, 5]
        assert sub.n == 3 and sorted(sub.edges()) == [(1, 2), (2, 3)]

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Graph(2, [0, 0b100, 0])  # asymmetric
        with pytest.raises(ValueError):
            Graph(2, [0, 0b010, 0])  # self loop

    @pytest.mark.parametrize(
        "adj, message",
        [
            ([0, 0b0001, 0, 0], "outside"),  # bit 0
            ([0, 0b10000, 0, 0], "outside"),  # bit n + 1
            ([0, -0b0100, 0b0010, 0], "outside"),  # negative row
            ([0, 0, 0b0100, 0], "self-loop"),
            ([0, 0b0100, 0, 0], "asymmetric"),
        ],
    )
    def test_constructor_rejects_bad_rows(self, adj, message):
        with pytest.raises(ValueError, match=message):
            Graph(3, adj)

    def test_bits_packs_in_range_ids(self):
        assert path3().bits([1, 3]) == 0b1010
        assert path3().bits([]) == 0

    @pytest.mark.parametrize("bad", [0, 4, -1])
    def test_bits_rejects_out_of_range_ids(self, bad):
        with pytest.raises(ValueError):
            path3().bits([1, bad])


def set_positions(width, positions):
    """The int with exactly the given bit positions set, built bytewise."""
    raw = bytearray((width + 7) // 8)
    for i in positions:
        raw[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(raw, "little")


@st.composite
def wide_bitsets(draw):
    """Ints up to about 3*10^4 bits wide: empty, one high bit, every bit, or
    a random density, the top bit set so that the width is the drawn one."""
    width = draw(st.one_of(st.integers(0, 300), st.integers(0, 30_000)))
    shape = draw(st.sampled_from(["empty", "top", "full", "random"]))
    if width == 0 or shape == "empty":
        return 0
    if shape == "top":
        return 1 << (width - 1)
    if shape == "full":
        return (1 << width) - 1
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0003, 0.003, 0.03, 0.3, 0.9]))
    count = min(width - 1, int(density * width))
    return set_positions(width, rnd.sample(range(width - 1), count)) | 1 << (width - 1)


class TestBitsetKernels:
    """iter_bits and bits_of against the one-bit-at-a-time loops they replace
    on wide inputs."""

    @settings(max_examples=250, deadline=None)
    @given(bits=wide_bitsets())
    @example(bits=(1 << 30_000) - 1)
    @example(bits=(1 << 64) - 1)
    @example(bits=(1 << 65) - 1)
    @example(bits=0b1011)
    def test_iter_bits_matches_the_walk(self, bits):
        assert list(iter_bits(bits)) == list(reference_iter_bits(bits))

    def test_both_sides_of_the_crossover_run(self):
        # exact_small's graphs (n <= 40) stay on the walk; wide dense sets unpack.
        assert not any(graph_module._unpack_pays(count, width) for width in range(65) for count in range(width + 1))
        assert graph_module._unpack_pays(1000, 2000)
        assert not graph_module._unpack_pays(1, 30_000)
        assert graph_module._pack_pays(1000, 2000)
        assert not graph_module._pack_pays(20, 30_000)

    def test_negative_ints_raise(self):
        with pytest.raises(ValueError):
            iter_bits(-1)

    @settings(max_examples=250, deadline=None)
    @given(
        bits=wide_bitsets(),
        seed=st.integers(0, 2**32 - 1),
        form=st.sampled_from([list, tuple, frozenset, iter]),
        repeats=st.integers(0, 3),
    )
    def test_bits_of_matches_the_loop(self, bits, seed, form, repeats):
        rnd = random.Random(seed)
        ids = list(reference_iter_bits(bits))
        ids += [rnd.choice(ids) for _ in range(repeats)] if ids else []
        rnd.shuffle(ids)
        assert bits_of(form(ids)) == reference_bits_of(ids) == bits

    @pytest.mark.parametrize("count", [3, 30, 3000])
    @pytest.mark.parametrize("bad, error", [(-1, ValueError), (-3000, ValueError), (2.5, TypeError),
                                            (2.0, TypeError), ("7", TypeError), (None, TypeError),
                                            ([1], TypeError)])
    def test_bits_of_raises_what_the_loop_raises(self, count, bad, error):
        ids = list(range(count, 0, -1))
        ids.insert(count // 2, bad)
        with pytest.raises(error):
            reference_bits_of(ids)
        with pytest.raises(error):
            bits_of(ids)
        with pytest.raises(error):
            Graph(count, [0] * (count + 1)).bits(ids)

    def test_bits_of_takes_bools_as_ids_0_and_1(self):
        ids = [True, False] * 30 + list(range(5, 40))
        assert bits_of(ids) == reference_bits_of(ids)
