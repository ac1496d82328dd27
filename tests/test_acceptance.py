"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Statistical thresholds below were calibrated by pilot runs and are
frozen here; they are desk-scale proxies for asymptotic statements, so the
pass fractions (not the formulas) are the contract.
"""

import io
import math
import random
import time

from cliquechrom.cliques import enumerate_maximal_cliques, is_maximal_clique
from cliquechrom.coloring import (
    Coloring,
    exact_clique_chromatic_number,
    is_valid_clique_coloring,
    monochromatic_maximal_cliques,
)
from cliquechrom.graph import Graph, common_non_neighbors, sample_gnp
from cliquechrom.harness import SweepConfig, run_sweep, write_records
from cliquechrom.lowerbound import (
    PartitionError,
    certify,
    pseudo_partition,
)
from cliquechrom.params import (
    build_schedule,
    class_count,
    lambda_report,
)
from cliquechrom.upper import procedure_A, repair

from oracles import brute_is_valid, brute_maximal_cliques, exact_chromatic_number


def _report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def complete(n):
    return Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def test_01_validity_oracle_equivalence():
    start = time.time()
    rng = random.Random(101)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(1, 8)
        g = sample_gnp(n, rng.choice([0.2, 0.45, 0.7]), seed=rng.randrange(2**32))
        colors = tuple(rng.randint(1, 3) for _ in range(n))
        mine = is_valid_clique_coloring(g, Coloring(colors))
        if mine != brute_is_valid(g, colors):
            disagreements += 1
    elapsed = time.time() - start
    _report(
        1,
        "validity-oracle",
        disagreements == 0 and elapsed < 120.0,
        f"(500 graphs, {disagreements} disagreements, {elapsed:.1f}s)",
    )


def test_02_enumeration_oracle_equivalence():
    rng = random.Random(202)
    disagreements = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        g = sample_gnp(n, rng.choice([0.2, 0.5, 0.8]), seed=rng.randrange(2**32))
        if set(enumerate_maximal_cliques(g)) != brute_maximal_cliques(g):
            disagreements += 1
    _report(2, "enumeration-oracle", disagreements == 0, f"(500 graphs, {disagreements} disagreements)")


def test_03_exact_solver():
    ok = True
    details = []
    for n in range(2, 13):
        value, witness = exact_clique_chromatic_number(complete(n))
        ok &= value == 2 and is_valid_clique_coloring(complete(n), witness)
    details.append("K_n=2 for n<=12")

    c5 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    ok &= exact_clique_chromatic_number(c5)[0] == 3 == exact_chromatic_number(c5)[0]

    petersen = Graph.from_edges(
        10,
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1),
         (1, 6), (2, 7), (3, 8), (4, 9), (5, 10),
         (6, 8), (8, 10), (10, 7), (7, 9), (9, 6)],
    )
    ok &= exact_clique_chromatic_number(petersen)[0] == 3 == exact_chromatic_number(petersen)[0]
    details.append("C5=3, Petersen=3")

    rng = random.Random(303)
    violations = 0
    for _ in range(100):
        n = rng.randint(2, 10)
        g = sample_gnp(n, rng.choice([0.3, 0.5, 0.7]), seed=rng.randrange(2**32))
        if exact_clique_chromatic_number(g)[0] > exact_chromatic_number(g)[0]:
            violations += 1
    ok &= violations == 0
    details.append(f"chi_c<=chi on 100 graphs ({violations} violations)")
    _report(3, "exact-solver", ok, "(" + "; ".join(details) + ")")


def test_04_deterministic_palette_bound():
    grid = [
        (10_000, 0.1, 10), (10_000, 0.2, 10), (10_000, 0.3, 10),
        (1_000, 0.1, 60), (1_000, 0.2, 60), (1_000, 0.3, 60),
        (300, 0.1, 264), (300, 0.2, 264), (300, 0.3, 264),
    ]
    runs = 0
    violations = 0
    for n, p, trials in grid:
        for t in range(trials):
            g = sample_gnp(n, p, seed=40_000 + runs)
            _, rep = procedure_A(g, p)
            runs += 1
            if rep.palette > rep.s + rep.z + 1:
                violations += 1
    _report(
        4,
        "palette-bound",
        runs >= 1000 and violations == 0,
        f"({runs} runs incl. (1e3,1e4)x(0.1,0.2,0.3), {violations} violations)",
    )


def test_05_whp_proxy_at_desk_scale():
    # thresholds frozen from a pilot run (30/30 on all three counts)
    pre = post = small = 0
    trials = 100
    for seed in range(trials):
        g = sample_gnp(3000, 0.15, seed=50_000 + seed)
        coloring, rep = procedure_A(g, 0.15)
        if rep.mono_pre_repair == 0:
            pre += 1
        out = repair(g, coloring, budget=200)
        if not out.exhausted and is_valid_clique_coloring(g, out.coloring):
            post += 1
        if out.extra_colors <= 10:
            small += 1
    _report(
        5,
        "whp-proxy",
        pre >= 90 and post == 100 and small >= 90,
        f"(pre {pre}/100, post {post}/100, <=10 extras {small}/100)",
    )


def test_06_pseudo_partition_postconditions():
    rng = random.Random(606)
    witnesses = 0
    attempts = 0
    bad = 0
    while witnesses < 1000:
        n = rng.choice([40, 60, 80])
        p = rng.choice([0.1, 0.2, 0.3])
        g = sample_gnp(n, p, seed=rng.randrange(2**32))
        sch = build_schedule(n, p)
        w = set(rng.sample(range(1, n + 1), rng.randint(n // 3, n // 2)))
        relax = 0.4
        try:
            pw = pseudo_partition(g, w, sch, seed=rng.randrange(2**32), relax=relax)
        except PartitionError:
            attempts += 200
            continue
        attempts += pw.attempts
        witnesses += 1
        # direct re-checks, independent of the library's own validator
        if len(pw.a_set) != math.ceil(len(w) / 4):
            bad += 1
        elif any(len(b) != math.ceil(relax * len(w) / (4 * sch.m)) for b in pw.b_sets):
            bad += 1
        elif any(
            g.has_edge(u, x) for i, u in enumerate(pw.l_set) for x in pw.b_sets[i]
        ):
            bad += 1
        elif not all(part <= pw.w for part in (pw.a_set, *pw.b_sets)):
            bad += 1
    failure_rate = (attempts - witnesses) / attempts
    _report(
        6,
        "pseudo-partition",
        bad == 0 and failure_rate <= 0.74,
        f"({witnesses} witnesses, {bad} bad, attempt-failure rate {failure_rate:.3f})",
    )


def test_08_lambda_self_consistency():
    ns = [1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7, 1e8]
    rhos = [0.003, 0.007, 0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35]
    checked = 0
    worst = 0.0
    m1_assembly_ok = True
    for n in ns:
        for rho in rhos:
            sch = build_schedule(n, float(n) ** -rho)
            fwd = lambda_report(sch)
            rev = lambda_report(sch, reverse=True)
            for a, b in [(fwd.pi_alpha, rev.pi_alpha), (fwd.pi_invlog, rev.pi_invlog)]:
                if a == b == 0.0:
                    continue
                worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
            if sch.m == 1:
                m1_assembly_ok &= fwd.lam == fwd.lambda0 + (fwd.pi_invlog + 0.7)
            else:
                m1_assembly_ok &= fwd.lam == fwd.lambda0 + fwd.pi_alpha
            checked += 1
    _report(
        8,
        "lambda-consistency",
        checked >= 100 and worst <= 1e-9 and m1_assembly_ok,
        f"({checked} schedules, worst order-disagreement {worst:.2e})",
    )


def test_09_tail_bound_proxies():
    cap = 2 * 2000 * 0.05
    good_deg = sum(
        max(row.bit_count() for row in sample_gnp(2000, 0.05, seed=90_000 + s).adj) <= cap
        for s in range(200)
    )
    # |S| = s for a delta with n^(1-delta) p >> log^2(n), where the
    # non-neighbor tail bound has teeth
    s = class_count(2000, 0.05, 0.05)
    g = sample_gnp(2000, 0.05, seed=91_000)
    rng = random.Random(909)
    floor_ = 0.9 * 2000 * (1 - 0.05) ** s
    good_nn = sum(
        len(common_non_neighbors(g, rng.sample(range(1, 2001), s))) >= floor_
        for _ in range(100)
    )
    _report(
        9,
        "tail-proxies",
        good_deg >= 198 and good_nn >= 99,
        f"(max-degree {good_deg}/200, non-neighbors {good_nn}/100 at s={s})",
    )


def test_10_end_to_end_certification():
    sch = build_schedule(500, 0.3)
    ok = 0
    slow = 0
    for seed in range(20):
        t0 = time.time()
        g = sample_gnp(500, 0.3, seed=100_000 + seed)
        coloring = Coloring(tuple(1 + (v % 2) for v in range(1, 501)))
        rep = certify(g, coloring, sch, seed=seed, relax=0.25)
        elapsed = time.time() - t0
        if elapsed >= 30.0:
            slow += 1
        if rep.found:
            k = rep.clique
            independent = (
                len(k) >= 2
                and len({coloring.color_of(v) for v in k}) == 1
                and is_maximal_clique(g, k)
                and k in set(monochromatic_maximal_cliques(g, coloring, limit=100_000))
            )
            if independent:
                ok += 1
    _report(10, "certification", ok >= 18 and slow == 0, f"({ok}/20 certificates, {slow} over 30s)")


def test_11_replay_determinism():
    cfg = SweepConfig(
        n_grid=(60, 120),
        p_grid=(0.2, 0.35),
        trials=3,
        master_seed=314,
        procedures=("A", "certify"),
        relax=0.25,
    )
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        write_records(run_sweep(cfg).records, buf)
        outputs.append(buf.getvalue().encode())
    _report(11, "replay-determinism", outputs[0] == outputs[1], f"({len(outputs[0])} bytes)")
