"""Sweep harness: determinism, CSV schema, comparison tables."""

import dataclasses
import io
import json

import pytest

from cliquechrom import harness, upper
from cliquechrom.coloring import BudgetExceeded
from cliquechrom.harness import (
    RECORD_COLUMNS,
    CERTIFY_EXHAUSTED,
    REPAIR_EXHAUSTED,
    ExperimentRecord,
    SweepConfig,
    compare_with_theory,
    mix_seed,
    read_records,
    render_compare_table,
    run_sweep,
    write_records,
)
from cliquechrom.params import predicted_bounds


def tiny_config(**overrides):
    base = dict(n_grid=(30,), p_grid=(0.3,), trials=1, master_seed=7, procedures=("A",))
    base.update(overrides)
    return SweepConfig(**base)


def make_record(n, p, palette, procedure="A", seed=0):
    return ExperimentRecord(
        n=n,
        p=p,
        seed=seed,
        procedure=procedure,
        palette=palette,
        valid=True,
        repairs=0,
        leftover=5,
        s=10,
        z=20,
        delta=0.5,
        certificate_found=None,
        error="",
        predictions={b.label: b.value for b in predicted_bounds(n, p)},
        wall_time=0.0,
    )


class TestSeedMixing:
    def test_deterministic(self):
        assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)

    def test_distinct_across_cells_and_trials(self):
        seeds = {mix_seed(99, c, t) for c in range(50) for t in range(50)}
        assert len(seeds) == 2500

    def test_range(self):
        assert 0 <= mix_seed(2**63, 10**6, 10**6) < 2**63


class TestSweep:
    def test_one_cell_one_trial_one_record(self):
        result = run_sweep(tiny_config())
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.procedure == "A" and rec.valid is True and rec.error == ""

    def test_rerun_is_byte_identical(self):
        cfg = tiny_config(n_grid=(30, 50), trials=3)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_records(run_sweep(cfg).records, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_per_trial_failure_is_recorded_not_raised(self):
        # p below n^(-2/5) makes procedure B reject its epsilon
        cfg = tiny_config(n_grid=(100,), p_grid=(0.05,), procedures=("B",))
        result = run_sweep(cfg)
        rec = result.records[0]
        assert rec.error.startswith("ValueError")
        assert rec.palette is None and rec.valid is None

    def test_certify_procedure_records_certificate(self):
        cfg = tiny_config(n_grid=(60,), p_grid=(0.4,), procedures=("certify",), relax=0.25)
        rec = run_sweep(cfg).records[0]
        assert rec.procedure == "certify"
        assert rec.certificate_found is not None
        assert rec.palette == 2
        # a found certificate proves the 2-coloring invalid
        if rec.certificate_found:
            assert rec.valid is False

    def test_certify_trial_decides_validity_without_a_validity_pass(self, monkeypatch):
        from cliquechrom import coloring
        from cliquechrom.graph import sample_gnp

        cfg = tiny_config(procedures=("certify",), trials=2, relax=0.25)
        expected = {}
        for classes in (2, 6, 30):
            for rec in run_sweep(dataclasses.replace(cfg, certify_classes=classes)).records:
                colors = coloring.Coloring(tuple(1 + (v - 1) % classes for v in range(1, rec.n + 1)))
                expected[classes, rec.seed] = coloring.is_valid_clique_coloring(sample_gnp(rec.n, rec.p, rec.seed), colors)

        def no_pass(*args, **kwargs):
            raise AssertionError("a separate validity pass ran")

        # every validity check in the package goes through this function
        monkeypatch.setattr(coloring, "monochromatic_maximal_cliques", no_pass)
        for classes in (2, 6, 30):
            for rec in run_sweep(dataclasses.replace(cfg, certify_classes=classes)).records:
                assert rec.error == "" and rec.valid is expected[classes, rec.seed]
                assert rec.certificate_found is not rec.valid
        assert True in expected.values()

    def test_rho_grid_resolves_per_cell(self):
        cfg = tiny_config(n_grid=(100,), p_grid=(), rho_grid=(0.25,))
        rec = run_sweep(cfg).records[0]
        assert rec.p == pytest.approx(100**-0.25)

    def test_worker_pool_matches_sequential(self):
        cfg = tiny_config(n_grid=(30, 40), trials=2)
        seq = run_sweep(cfg, workers=1)
        par = run_sweep(cfg, workers=2)
        strip = lambda recs: [
            (r.n, r.p, r.seed, r.palette, r.valid, r.repairs) for r in recs
        ]
        assert strip(seq.records) == strip(par.records)

    def test_valid_record_revalidates_on_replay(self):
        from cliquechrom.coloring import is_valid_clique_coloring
        from cliquechrom.graph import sample_gnp
        from cliquechrom.upper import procedure_A, repair

        cfg = tiny_config(n_grid=(80,), p_grid=(0.25,), trials=3)
        for rec in run_sweep(cfg).records:
            assert rec.valid is True
            g = sample_gnp(rec.n, rec.p, rec.seed)
            coloring, _ = procedure_A(g, rec.p)
            fixed = repair(g, coloring, budget=cfg.repair_budget)
            assert is_valid_clique_coloring(g, fixed.coloring)
            assert fixed.coloring.palette_size == rec.palette


class TestSweepControl:
    def test_rejects_workers_below_one(self):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                tiny_config(workers=workers)
        with pytest.raises(ValueError, match="workers"):
            run_sweep(tiny_config(), workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_procedures_gives_no_records(self, workers):
        assert run_sweep(tiny_config(procedures=()), workers=workers).records == ()

    def test_pool_size_is_capped_by_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        assert harness._pool_size(64, 100) == 4
        assert harness._pool_size(64, 3) == 3
        assert harness._pool_size(2, 100) == 2
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._pool_size(8, 100) == 1

    def test_repair_exhaustion_flags_the_sweep(self):
        # n=40, p=0.3, master seed 1: the variant B trial needs one recolor
        cfg = tiny_config(n_grid=(40,), procedures=("B",), master_seed=1, repair_budget=0)
        result = run_sweep(cfg)
        assert result.records[0].error == REPAIR_EXHAUSTED
        assert result.budget_exhausted

    def test_certify_exhaustion_flags_the_sweep(self):
        cfg = tiny_config(
            n_grid=(60,), p_grid=(0.3,), procedures=("certify",), trials=2, relax=0.25, certify_budget=0
        )
        result = run_sweep(cfg)
        assert [rec.error for rec in result.records] == [CERTIFY_EXHAUSTED] * 2
        assert all(rec.valid is None and rec.certificate_found is False for rec in result.records)
        assert result.budget_exhausted

    def test_search_budget_error_is_not_repair_exhaustion(self, monkeypatch):
        def exceeded(*args, **kwargs):
            raise BudgetExceeded(7)

        monkeypatch.setattr(upper, "run", exceeded)
        result = run_sweep(tiny_config())
        assert result.records[0].error == "BudgetExceeded: search budget exhausted after 7 nodes"
        assert not result.budget_exhausted


class TestConfigFile:
    def test_roundtrip(self):
        doc = {"version": 1, "n": [100], "p": [0.2], "trials": 2, "master_seed": 5}
        cfg = SweepConfig.from_json(io.StringIO(json.dumps(doc)))
        assert cfg.n_grid == (100,) and cfg.trials == 2

    def test_every_field_is_read_under_its_own_name(self):
        doc = {
            "version": 1, "n": [50, 80], "rho": [0.25], "trials": 3, "master_seed": 9,
            "procedures": ["A", "certify"], "epsilon": 0.05, "repair_budget": 7,
            "relax": 0.3, "certify_classes": 3, "certify_budget": 55, "workers": 2,
        }
        cfg = SweepConfig.from_json(io.StringIO(json.dumps(doc)))
        assert cfg == SweepConfig(
            n_grid=(50, 80), rho_grid=(0.25,), trials=3, master_seed=9,
            procedures=("A", "certify"), epsilon=0.05, repair_budget=7, relax=0.3,
            certify_classes=3, certify_budget=55, workers=2,
        )

    def test_defaults_come_from_the_dataclass(self):
        cfg = SweepConfig.from_json(io.StringIO(json.dumps({"version": 1, "n": [10], "p": [0.5]})))
        assert cfg == SweepConfig(n_grid=(10,), p_grid=(0.5,))

    @pytest.mark.parametrize("doc", [
        {"version": 1, "p": [0.2]},
        {"version": 1, "n_grid": [10], "p": [0.2]},
        {"version": 1, "n": 100, "p": [0.2]},
        {"version": 1, "n": [100], "p": [0.2], "trials": None},
        [1, 2],
    ])
    def test_rejects_malformed_documents(self, doc):
        with pytest.raises(ValueError):
            SweepConfig.from_json(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("key, value", [
        ("n", [12.9]), ("n", [True]), ("n", ["12"]), ("trials", 2.7), ("trials", True), ("workers", "1"),
        ("master_seed", "3"), ("repair_budget", 0.5), ("certify_classes", False), ("certify_budget", [1]),
    ])
    def test_rejects_non_integer_values_of_int_fields(self, key, value):
        doc = {"version": 1, "n": [12], "p": [0.5], key: value}
        with pytest.raises(ValueError, match="integer"):
            SweepConfig.from_json(io.StringIO(json.dumps(doc)))

    def test_integral_floats_of_int_fields_read_as_ints(self):
        doc = {"version": 1, "n": [12.0], "p": [0.5], "trials": 2.0, "master_seed": -3.0}
        cfg = SweepConfig.from_json(io.StringIO(json.dumps(doc)))
        assert cfg == SweepConfig(n_grid=(12,), p_grid=(0.5,), trials=2, master_seed=-3)
        assert type(cfg.n_grid[0]) is int and type(cfg.trials) is int

    @pytest.mark.parametrize("key, value, match", [
        ("relax", 2, r"relax fraction must lie in \(0, 1\]"),
        ("relax", 0, r"relax fraction must lie in \(0, 1\]"),
        ("relax", "x", "expected a number"),
        ("relax", True, "expected a number"),
        ("epsilon", -1, "epsilon must be positive"),
        ("epsilon", 0, "epsilon must be positive"),
        ("epsilon", float("nan"), "epsilon must be positive"),
        ("epsilon", float("inf"), "epsilon must be positive"),
        ("epsilon", True, "expected a number"),
        ("certify_classes", 0, "certify_classes must be >= 1"),
        ("procedures", "AB", "expected a list"),
        ("procedures", [["A"]], "unknown procedures"),
        ("n", [12, 2**20 + 1], "exceeds the largest supported vertex count"),
        ("p", [0.3, 1.5], r"p must lie in \(0, 1\)"),
        ("p", [float("nan")], r"p must lie in \(0, 1\)"),
        ("p", ["0.3"], "expected a number"),
        ("p", {"0.3": 1}, "expected a list"),
    ])
    def test_rejects_values_no_trial_could_run(self, key, value, match, monkeypatch):
        # No trial could run these, or they would run as another value, so
        # the config is refused before any trial runs.
        monkeypatch.setattr(harness, "_run_trial", None)
        doc = {"version": 1, "n": [12], "p": [0.5], "procedures": ["A", "B", "certify"], key: value}
        with pytest.raises(ValueError, match=match):
            run_sweep(SweepConfig.from_json(io.StringIO(json.dumps(doc))))

    @pytest.mark.parametrize("rho", [0.0, -1.0, -400.0])
    def test_rejects_a_rho_grid_whose_p_leaves_the_unit_interval(self, rho):
        # 12^400 overflows a float, the others give p >= 1
        doc = {"version": 1, "n": [12], "rho": [0.5, rho]}
        with pytest.raises(ValueError):
            SweepConfig.from_json(io.StringIO(json.dumps(doc)))

    def test_accepts_the_bounds_of_each_range(self):
        doc = {"version": 1, "n": [2, 2**20], "rho": [0.5], "relax": 1, "epsilon": 1e-9, "certify_classes": 1}
        cfg = SweepConfig.from_json(io.StringIO(json.dumps(doc)))
        assert (cfg.relax, cfg.epsilon, cfg.certify_classes) == (1.0, 1e-9, 1)
        assert [p for _, p, _ in cfg.cells()] == [2.0**-0.5, float(2**20) ** -0.5]

    def test_rejects_unknown_keys(self):
        doc = {"version": 1, "n": [100], "p": [0.2], "bogus": 1}
        with pytest.raises(ValueError):
            SweepConfig.from_json(io.StringIO(json.dumps(doc)))

    def test_rejects_wrong_version(self):
        doc = {"version": 2, "n": [100], "p": [0.2]}
        with pytest.raises(ValueError):
            SweepConfig.from_json(io.StringIO(json.dumps(doc)))

    def test_rejects_empty_grid_and_bad_trials(self):
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(), p_grid=(0.1,))
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(10,), p_grid=(0.1,), trials=0)
        with pytest.raises(ValueError):
            SweepConfig(n_grid=(10,), p_grid=(0.1,), rho_grid=(0.2,))


class TestRecordsCSV:
    def test_roundtrip(self):
        records = run_sweep(tiny_config()).records
        buf = io.StringIO()
        write_records(records, buf)
        buf.seek(0)
        rows = read_records(buf)
        assert len(rows) == 1 and rows[0]["n"] == "30"

    def test_records_survive_write_read_parse(self):
        cfg = tiny_config(
            n_grid=(40, 60), p_grid=(0.3, 0.5), trials=2, procedures=("A", "B", "certify"),
            relax=0.25,
        )
        records = run_sweep(cfg).records
        assert {rec.procedure for rec in records} == {"A", "B", "certify"}
        buf = io.StringIO()
        write_records(records, buf)
        buf.seek(0)
        parsed = [ExperimentRecord.from_csv_row(row) for row in read_records(buf)]
        assert parsed == [dataclasses.replace(rec, wall_time=0.0) for rec in records]

    def test_unknown_columns_rejected(self):
        buf = io.StringIO()
        write_records(run_sweep(tiny_config()).records, buf)
        tampered = buf.getvalue().replace("schema_version", "schema_version,extra", 1)
        with pytest.raises(ValueError):
            read_records(io.StringIO(tampered))

    def test_header_order_is_fixed(self):
        assert RECORD_COLUMNS[0] == "schema_version"
        assert RECORD_COLUMNS.index("palette") < RECORD_COLUMNS.index("error")


class TestCompare:
    def test_reference_ratio(self):
        rows = compare_with_theory([make_record(10_000, 0.2, palette=41)])
        ratio = rows[0].ratios["order_log_over_p"]
        assert ratio == pytest.approx(41 / 46.051701859880914, rel=1e-9)
        assert f"{ratio:.4f}".startswith("0.890")

    def test_out_of_range_predictions_are_na(self):
        rows = compare_with_theory([make_record(100, 0.05, palette=10)])
        assert all(r is None for r in rows[0].ratios.values())

    def test_ratio_scale_free(self):
        a = compare_with_theory([make_record(10_000, 0.2, palette=41)])[0]
        b = compare_with_theory([make_record(10_000, 0.2, palette=82)])[0]
        assert b.ratios["order_log_over_p"] == pytest.approx(
            2 * a.ratios["order_log_over_p"]
        )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            compare_with_theory([])

    def test_render_has_na_and_values(self):
        rows = compare_with_theory(
            [make_record(10_000, 0.2, palette=41), make_record(100, 0.05, palette=10)]
        )
        table = render_compare_table(rows)
        assert "n/a" in table and "0.8903" in table


class TestPaletteVsLogOverP:
    def test_mean_palette_ratio_matches_pilot(self):
        # Pilot (20 trials each, master seed 42): mean palette 35.6 at n=1e3
        # and 40.35 at n=1e4 against log(n)/p = 34.54 and 46.05. The ratio
        # sits below 1.0 only at n=1e4: at n=1e3 the clamped delta = 1/2
        # forces s+z+1 = 36 > log(n)/p, so the sub-1.0 claim is structurally
        # out of reach there and the pilot band is asserted instead.
        import math

        cfg = SweepConfig(
            n_grid=(1000, 10_000), p_grid=(0.2,), trials=4, master_seed=42,
            procedures=("A",),
        )
        by_n = {}
        for rec in run_sweep(cfg).records:
            by_n.setdefault(rec.n, []).append(rec.palette)
        mean_small = sum(by_n[1000]) / len(by_n[1000])
        mean_big = sum(by_n[10_000]) / len(by_n[10_000])
        assert 33.0 <= mean_small <= 38.0
        assert mean_big / (math.log(10_000) / 0.2) < 1.0
