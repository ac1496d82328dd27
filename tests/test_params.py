"""Parameter schedule, Lambda/Pi calculus, Janson exponents, predictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cliquechrom import params

from cliquechrom.params import (
    ALPHA,
    NU,
    SIGMA,
    ParamSchedule,
    build_schedule,
    class_count,
    inequality_check,
    janson_exponent,
    lambda_report,
    make_schedule,
    phi,
    predicted_bounds,
)
from oracles import reference_walk_series


class TestPhi:
    def test_zero(self):
        assert phi(0.0) == 0.0

    def test_e_minus_one(self):
        assert phi(math.e - 1.0) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("x", [0.01, 0.1, 1.0, 10.0])
    def test_classical_lower_bound(self, x):
        # phi(x) = x^2/2 - x^3/6 + ... sits strictly below min(x, x^2)/2 for
        # x < 2, so the provable Bennett-style bound is asserted instead
        assert phi(x) >= x * x / (2.0 * (1.0 + x / 3.0))

    def test_convex_increasing_on_grid(self):
        xs = [0.001 * 1.3**i for i in range(40)]
        vals = [phi(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        # chord midpoint above the curve
        for a, b in zip(xs, xs[2:]):
            assert (phi(a) + phi(b)) / 2.0 >= phi((a + b) / 2.0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            phi(-1.0)
        assert phi(-0.5) > 0.0


class TestBuildSchedule:
    def test_dense_case_m_and_k(self):
        # rho = 0.01 sits exactly on the case boundary p >= n^-sigma
        sch = build_schedule(1e6, 1e6**-0.01)
        assert (sch.m, sch.k) == (66, 101)

    def test_sparse_case_indicator_false(self):
        sch = build_schedule(1000, 1000**-0.35)
        assert (sch.m, sch.k) == (1, 3)

    def test_sparse_case_indicator_true(self):
        sch = build_schedule(1000, 1000**-0.2)
        assert (sch.m, sch.k) == (1, 6)

    @pytest.mark.parametrize("n", [1e3, 1e5, 1e8])
    @pytest.mark.parametrize("rho", [0.005, 0.02, 0.15, 0.3, 0.39])
    def test_case_split_matches_p_threshold(self, n, rho):
        p = float(n) ** -rho
        sch = build_schedule(n, p)
        assert (sch.m >= 2) == (p >= n**-SIGMA)

    @pytest.mark.parametrize("n", [1e3, 1e6, 1e12])
    @pytest.mark.parametrize("p", [0.01, 0.1, 0.5, 0.9])
    def test_class_count_floor_identity(self, n, p):
        sch = build_schedule(n, p)
        ratio = sch.delta * math.log(n) / -math.log1p(-p)
        assert sch.s <= ratio < sch.s + 1

    def test_delta_clamped_at_desk_scale(self):
        # dense case at small n: the loglog correction pushes delta negative
        sch = build_schedule(1e4, 0.95)
        assert sch.m >= 2
        assert sch.delta_clamped and 0.01 <= sch.delta <= 0.99
        assert not 0.0 < sch.delta_raw < 1.0

    def test_series_monotone(self):
        sch = build_schedule(1e4, 0.2)
        rs = [np.exp(sch.zeta * i) for i in range(1, 30)]
        assert all(b > a for a, b in zip(rs, rs[1:]))
        assert all(math.log(sch.n) / sch.rate(i) > 0 for i in range(1, 30))

    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.2, 1.2, 2e-309):  # 1/2e-309 overflows to inf
            with pytest.raises(ValueError):
                build_schedule(100, p)

    def test_class_count_overflow_is_a_value_error(self):
        # delta log(n) / p overflows although 1/p does not
        with pytest.raises(ValueError, match="overflows"):
            class_count(1e6, 1e-308, 0.5)

    @pytest.mark.parametrize("n", [math.inf, math.nan])
    def test_rejects_non_finite_n(self, n):
        with pytest.raises(ValueError, match="finite"):
            build_schedule(n, 0.5)
        with pytest.raises(ValueError, match="finite"):
            make_schedule(n, 0.5, delta=0.5, m=1, k=3, epsilon=0.005)
        with pytest.raises(ValueError, match="finite"):
            predicted_bounds(n, 0.5)


class TestRefinedDelta:
    def test_matches_very_sparse_prediction(self):
        # with p = n^(-2/5+eps), eps*log(n) equals log(n^(2/5) p)
        n, eps = 1e8, 0.03
        p = n ** (-0.4 + eps)
        pred = {b.label: b.value for b in predicted_bounds(n, p)}
        assert pred["very_sparse_5_2"] == pytest.approx(2.5 * eps * math.log(n) / p, rel=1e-9)


class TestLambdaCalculus:
    def test_empty_series_when_p_exceeds_cutoff(self):
        sch = build_schedule(100, 0.9)  # p > alpha and p > 1/log n
        rep = lambda_report(sch)
        assert rep.pi_alpha == 0.0 and rep.pi_invlog == 0.0

    def test_m1_assembly_includes_point_seven(self):
        sch = build_schedule(1e4, 0.2)
        assert sch.m == 1
        rep = lambda_report(sch)
        assert rep.lam == rep.lambda0 + (rep.pi_invlog + 0.7)

    def test_m2_assembly(self):
        sch = build_schedule(1e6, 1e6**-0.005)
        assert sch.m >= 2
        rep = lambda_report(sch)
        assert rep.lam == rep.lambda0 + rep.pi_alpha

    @pytest.mark.parametrize("n", [1e3, 1e4, 1e6])
    @pytest.mark.parametrize("rho", [0.005, 0.05, 0.2, 0.35])
    def test_forward_reverse_summation_agree(self, n, rho):
        sch = build_schedule(n, float(n) ** -rho)
        fwd = lambda_report(sch)
        rev = lambda_report(sch, reverse=True)
        for a, b in [(fwd.pi_alpha, rev.pi_alpha), (fwd.pi_invlog, rev.pi_invlog)]:
            if a == b == 0.0:
                continue
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    def test_huge_n_no_overflow(self):
        # p above the series cutoffs keeps the Pi sums empty, so this
        # exercises the log-space scalar path at an absurd n
        sch = build_schedule(1e300, 0.9)
        rep = lambda_report(sch)
        assert math.isfinite(rep.lam) and rep.lam >= 0.0
        assert rep.pi_alpha == 0.0

    def test_infeasible_series_is_refused(self):
        with pytest.raises(ValueError, match="series"):
            lambda_report(build_schedule(1e300, 0.3))

    @pytest.mark.parametrize("n,p", [(3, 0.9999), (10, 0.99999)])
    def test_overflowing_step_is_refused(self, n, p):
        # p near 1 drives k - m into the thousands, so e^(zeta (k-m)) overflows
        sch = build_schedule(n, p)
        for evaluate in (lambda_report, inequality_check):
            with pytest.raises(ValueError, match="overflows"):
                evaluate(sch)

    @pytest.mark.parametrize("n", [3, 10, 1e6])
    def test_tiny_p_is_refused(self, n):
        # p = 1e-308 overflows x_1 = ln n / rate_1 and the rate at the last
        # level; the walk refuses it before any of them is evaluated
        sch = build_schedule(n, 1e-308)
        for evaluate in (lambda_report, inequality_check):
            with pytest.raises(ValueError, match="overflows float64"):
                evaluate(sch)

    def test_counting_flag(self):
        sch = build_schedule(1e4, 0.2)
        rep = lambda_report(sch)
        assert rep.counting_ok == (1.0 - rep.lam >= NU)


class TestJansonExponent:
    def test_collapse_at_p_one(self):
        # b/k^2 = 1 and p = 1 collapse both min-terms to nu/(4 k^2)
        k = 3
        sch = ParamSchedule(
            n=100.0, p=1.0, epsilon=0.005, rho=0.0, zeta=0.1,
            delta=0.5, s=5, m=1, k=k, tau=0.1, ell0=10.0,
        )
        got = janson_exponent(sch, a=9, b=9)
        assert got.general == pytest.approx(NU / (4 * k * k), rel=1e-12)
        assert got.improved == pytest.approx(NU / (4 * k * k), rel=1e-12)

    def test_improved_dominates_general_for_m1(self):
        sch = build_schedule(2000, 2000**-0.35)
        assert sch.m == 1 and sch.k == 3
        for a in (30, 60, 120):
            for b in (10, 20, 30):
                if a < b:
                    continue
                got = janson_exponent(sch, a, b)
                assert got.improved >= got.general

    def test_no_improved_for_dense_case(self):
        sch = build_schedule(1e6, 1e6**-0.005)
        assert janson_exponent(sch, 100, 50).improved is None

    def test_rejects_degenerate_sizes(self):
        sch = build_schedule(1000, 0.2)
        with pytest.raises(ValueError):
            janson_exponent(sch, 0, 5)


class TestSeriesWalk:
    def test_forward_sums_are_walked_once_and_reverse_every_time(self, monkeypatch):
        calls = []
        walk = params._walk_series

        def counted(sch, reverse=False):
            calls.append(reverse)
            return walk(sch, reverse)

        monkeypatch.setattr(params, "_walk_series", counted)
        sch = build_schedule(1e6, 1e6**-0.3)
        lam = lambda_report(sch)
        inequality_check(sch, lam)
        assert lambda_report(sch) == lam
        inequality_check(sch)
        assert calls == [False]
        assert lambda_report(sch, reverse=True) == lambda_report(sch, reverse=True)
        assert calls == [False, True, True]

    def test_reverse_reads_no_cached_sums(self):
        sch = build_schedule(1e6, 1e6**-0.3)
        sch.__dict__["_series"] = (1.0, 2.0, 3.0)
        assert (lambda_report(sch).pi_alpha, inequality_check(sch).values["density_series_lhs"]) == (1.0, 3.0)
        assert lambda_report(sch, reverse=True).pi_alpha != 1.0

    @pytest.mark.parametrize("n, rho", [(1e6, 0.3), (1e9, 0.45)])  # 1 and 2 chunks
    def test_sums_and_minimum_match_a_single_array_walk(self, n, rho):
        sch = build_schedule(n, n**-rho)
        ln_n = math.log(n)
        km = sch.k - sch.m
        i = np.arange(1, sch.last_index(1.0) + 1, dtype=np.float64)
        rate = sch.rate(i)
        dens = np.ceil(ln_n / rate) * (rate - ln_n**3 / sch.ell0)
        terms = (ln_n / rate) * np.exp(km * (math.log(sch.p) + sch.zeta * i)) * math.expm1(sch.zeta * km)
        pi = [math.fsum(terms[1 : sch.last_index(cut)]) for cut in (sch.alpha, 1.0 / ln_n)]
        rep = lambda_report(sch)
        assert rep.pi_alpha == pytest.approx(pi[0], rel=1e-12)
        assert rep.pi_invlog == pytest.approx(pi[1], rel=1e-12)
        assert inequality_check(sch, rep).values["density_series_lhs"] == float(dens.min())


def walk_outcome(walk, sch, reverse):
    try:
        return repr(walk(sch, reverse))
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestBlockedWalk:
    """The blocked walk gives the bits and the refusals of the chunked
    whole-array walk in tests/oracles.py."""

    def assert_same(self, sch, reverse):
        want = walk_outcome(reference_walk_series, sch, reverse)
        assert walk_outcome(params._walk_series, sch, reverse) == want

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.floats(min_value=0.5, max_value=9.0).map(lambda e: 10.0**e),
        rho=st.floats(min_value=0.001, max_value=0.7),
        reverse=st.booleans(),
    )
    def test_matches_the_chunked_walk(self, n, rho, reverse):
        self.assert_same(build_schedule(n, n**-rho), reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("offset", [1, 2])
    @pytest.mark.parametrize("span", [params._BLOCK, params._CHUNK])
    @pytest.mark.parametrize("cutoff", ["one", "alpha", "invlog"])
    def test_chunk_and_block_edges(self, cutoff, span, offset, reverse):
        # the last level of one cutoff's series is span + offset: the walk
        # from level 2 ends on a block (or chunk) edge, or one level past it
        n = 1e9
        ln_n = math.log(n)
        cut = {"one": 1.0, "alpha": ALPHA, "invlog": 1.0 / ln_n}[cutoff]
        sch = build_schedule(n, math.exp(math.log(cut) - (span + offset + 0.5) / ln_n**4))
        assert sch.last_index(cut) == span + offset
        self.assert_same(sch, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_small_x_prefix_over_several_blocks(self, reverse):
        # phi's series branch serves every level with expm1(zeta i) < 1e-4,
        # which here runs past the first two blocks
        sch = build_schedule(1e50, 1e50**-0.002)
        assert math.expm1(sch.zeta * (2 + 2 * params._BLOCK)) < 1e-4
        self.assert_same(sch, reverse)


class TestInequalities:
    def test_k_range_fails_at_desk_scale_for_tiny_rho(self):
        # k = 101 exceeds log n until n reaches e^101
        sch = build_schedule(1e6, 1e6**-0.01)
        assert sch.k == 101
        assert not inequality_check(sch).flags["k_range"]

    def test_k_range_passes_at_astronomical_n(self):
        n = math.exp(52.0)
        sch = build_schedule(n, n**-0.02)
        assert sch.k == 51 and math.log(n) > sch.k
        assert inequality_check(sch).flags["k_range"]

    def test_class_count_with_explicit_delta(self):
        sch = make_schedule(1e6, 0.1, delta=0.5, m=1, k=3, epsilon=0.005)
        assert sch.s == 65
        assert inequality_check(sch).flags["class_count"]

    def test_deterministic(self):
        sch = build_schedule(1e5, 0.15)
        a = inequality_check(sch)
        b = inequality_check(sch)
        assert a.flags == b.flags and a.values == b.values

    def test_delta_formula_flags_clamping(self):
        sch = build_schedule(1e4, 0.95)  # dense case, clamped at desk scale
        assert not inequality_check(sch).flags["delta_formula"]
        sch2 = build_schedule(1e4, 0.2)  # sparse case, no clamp
        assert inequality_check(sch2).flags["delta_formula"]


class TestPredictedBounds:
    def test_values_at_reference_point(self):
        pred = {b.label: b.value for b in predicted_bounds(1e4, 0.2)}
        assert pred["order_log_over_p"] == pytest.approx(46.0517018598809, rel=1e-12)
        assert pred["sparse_half"] == pytest.approx(23.0258509299404, rel=1e-12)

    def test_boundary_p_gives_zero(self):
        n = 1e10
        pred = {b.label: b.value for b in predicted_bounds(n, n**-0.4)}
        assert pred["very_sparse_5_2"] == pytest.approx(0.0, abs=1e-9)

    def test_half_log_base_ratio_exceeds_one_for_large_p(self):
        n = 1e6
        pred = {b.label: b.value for b in predicted_bounds(n, 0.7)}
        ratio = pred["sparse_half"] / pred["half_log_base"]
        assert ratio == pytest.approx(-math.log1p(-0.7) / 0.7, rel=1e-12)
        assert ratio > 1.0

    def test_dense_windows_follow_the_schedule_at_the_boundary(self):
        # p = n^-sigma is in the dense case. rho = log(1/p)/log(n) recomputed
        # from it can round above sigma; the dense-case windows must still
        # agree with build_schedule's case split.
        disagree = []
        for e in range(4, 301):
            for n in (float(f"1e{e}"), 2.0**e, float(f"3.7e{e}")):
                p = n**-SIGMA
                dense = build_schedule(n, p).m >= 2
                windows = {b.label: b.in_range for b in predicted_bounds(n, p)}
                if windows["sparse_half"] != dense or windows["half_log_base"] != dense:
                    disagree.append(n)
        assert disagree == []

    def test_in_range_windows(self):
        labels_in = {b.label for b in predicted_bounds(1e6, 0.3) if b.in_range}
        assert "order_log_over_p" in labels_in
        # far below n^(-1/2): everything out of range
        assert not any(b.in_range for b in predicted_bounds(100, 0.05))
