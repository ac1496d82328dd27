"""The benchmark's own tests: a tiny-size run of every workload, and each
output check rejecting a corrupted output.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import run
import workloads
from spans import Span, self_times
from workloads import (
    CertifySweep,
    Coloring,
    Op,
    Round,
    UpperSweep,
    certificate_ok,
    csv_sha256,
    record_ok,
    series_ok,
    witness_ok,
)

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Layer metrics that must be positive in each workload's traced run.
BUSY_LAYER = {
    "upper_sweep": ["graph.sample_gnp.s", "upper.procedure.s", "upper.repair.s", "coloring.validity.s"],
    "certify_sweep": ["lowerbound.certify.s", "lowerbound.pseudo_partition.s", "cliques.dominating.s"],
    "params_series": ["params.lambda_report.s", "params.inequality_check.s", "params.series_refusals"],
    "exact_small": ["coloring.exact.s", "cliques.enumerate.s", "cliques.enumerate.cliques"],
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    result, report = run.run_benchmark(workload, 5, 0.3, trace, tiny=True, probes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report["failures"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"] and math.isfinite(entry["value"])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    if trace:
        assert all(values[name] > 0 for name in BUSY_LAYER[workload]), values
    else:
        assert all(v > 0 for v in values.values()), values  # end-to-end metrics are never 0


def test_tail_latency_keeps_ten_ops_above():
    assert run.tail_latency([float(i) for i in range(99)]) == (98.0, 100.0, 0)
    assert run.tail_latency([float(i) for i in range(200)]) == (189.0, 95.0, 10)


def test_self_time_subtracts_covered_child_time():
    spans = [Span("op", 0.0, 10.0, -1, 0), Span("a", 1.0, 3.0, 0, 0), Span("b", 2.0, 5.0, 0, 0), Span("c", 7.0, 8.0, 0, 0)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_tracing_overhead_leaves_out_probe_spans():
    tracer = run.Tracer()
    tracer.merge([Span("op", 0.0, 3.0, -1, 0), Span("upper.repair", 0.5, 1.0, 0, 0),
                  Span("coloring.validity", 1.0, 2.0, 0, 0)], {})
    tracer.merge([Span("op", 5.0, 6.0, -1, 0)], {})
    assert run.core_times(tracer.spans) == [2.0, 1.0]
    untraced = [Round([Op(1.5), Op(1.0)])]
    assert run.tracing_overhead(untraced, tracer) == pytest.approx(0.2)


@pytest.fixture(scope="module")
def upper_round():
    return UpperSweep(5, 1.0, tiny=True).round(0)


def test_upper_check_rejects_bad_records_and_changed_bytes(upper_round):
    rec = upper_round.ops[0].detail
    assert record_ok(rec)
    assert not record_ok(replace(rec, valid=False))
    assert not record_ok(replace(rec, error="ValueError: boom"))
    work = UpperSweep(5, 1.0, tiny=True)
    good = work.round(0)
    assert csv_sha256(good.csv) == csv_sha256(upper_round.csv)
    work.check([good], traced=False)
    assert not any(op.failed for op in good.ops)
    tampered = replace(good, ops=[replace(op, failed=False) for op in good.ops], csv=good.csv + "\n")
    work.check([tampered], traced=False)
    assert all(op.failed for op in tampered.ops)


def test_certificate_check_rejects_non_maximal_and_non_cliques():
    g = workloads.sample_gnp(30, 0.4, 9)
    one_colour = (1,) * g.n
    clique = max(workloads.enumerate_maximal_cliques(g), key=len)
    assert len(clique) >= 3 and certificate_ok(g, one_colour, clique)
    assert not certificate_ok(g, one_colour, sorted(clique)[:-1])  # extendable: not maximal
    outsider = next(v for v in range(1, g.n + 1) if v not in clique and not all(g.has_edge(v, u) for u in clique))
    assert not certificate_ok(g, one_colour, set(clique) | {outsider})  # not a clique
    two_colours = tuple(1 + (v == min(clique)) for v in range(1, g.n + 1))
    assert not certificate_ok(g, two_colours, clique)  # not monochromatic


def test_certify_check_rejects_a_claim_the_rederivation_does_not_confirm():
    work = CertifySweep(5, 1.0, tiny=True)
    rnd = work.round(0)
    work.check([rnd], traced=False)
    assert not any(op.failed for op in rnd.ops)
    rec = rnd.ops[0].detail[0]
    assert rec.certificate_found
    forged = Round([Op(0.1, detail=(rec, (True, False))), Op(0.1, detail=(rec, (False, False)))])
    work.check([forged], traced=True)
    assert all(op.failed for op in forged.ops)


def test_exact_witness_check_rejects_invalid_colourings():
    g = workloads.sample_gnp(12, 0.5, 4)
    value, witness = workloads.exact_clique_chromatic_number(g)
    cliques = [k for k in workloads.enumerate_maximal_cliques(g) if len(k) >= 2]
    assert witness_ok(g.n, cliques, value, witness)
    assert not witness_ok(g.n, cliques, value + 1, witness)  # palette differs from the value
    assert not witness_ok(g.n, cliques, 1, Coloring((1,) * g.n))  # monochromatic cliques


def test_series_check_rejects_disagreement_and_non_finite_values():
    sch = workloads.build_schedule(1e5, 1e5**-0.3, epsilon=0.005)
    forward = workloads.lambda_report(sch)
    reverse = workloads.lambda_report(sch, reverse=True)
    ineq = workloads.inequality_check(sch, forward)
    janson = workloads.janson_exponent(sch, 5, 5)
    assert series_ok(sch, forward, reverse, ineq, janson)
    assert not series_ok(sch, forward, replace(reverse, pi_alpha=reverse.pi_alpha * (1 + 1e-6) + 1e-300), ineq, janson)
    assert not series_ok(sch, replace(forward, lam=math.nan), reverse, ineq, janson)
    assert not series_ok(sch, forward, reverse, ineq, replace(janson, general=math.inf))
