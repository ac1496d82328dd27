"""Golden hashes that pin the sweep CSV, repair's recolour lists, the
`color` command's outputs, the level-series calculus and the G(n, p)
sampler's PCG64 stream.

The first three digests were computed with the code from before `repair`
counted monochromatic cliques in its own first pass (when the procedures
ran a separate validity pass). The series digest and the certify sweep
digest were computed with the code from before the level series r_i, x_i
moved behind `ParamSchedule` (when `params` and `lowerbound` each built
them) and before the record columns were derived from `ExperimentRecord`;
the series transcript then also ended in three density-event lines, which
were dropped with the density-event counter, so the digest is of its first
20 lines only.
The sampler digest was computed with the code from before `sample_gnp`
drew eight rows at a time (when it scattered each row's hits into the
columns of its partners).
A change to any sampled edge, colouring, recolour order, exhaustion report,
CSV byte or bit of a series value shows up here.
"""

import dataclasses
import hashlib
import io
import json
import random

import pytest

from cliquechrom.cli import main
from cliquechrom.coloring import Coloring
from cliquechrom.graph import sample_gnp
from cliquechrom.harness import SweepConfig, run_sweep, write_records
from cliquechrom.params import build_schedule, inequality_check, lambda_report
from cliquechrom.upper import repair

SWEEP_CSV_SHA256 = "9e9a8465ef3bf400e7b3bb5a3bb066c9b72a597c2a57962609d3b4c46e0bb022"
# A, B and certify at n in {300, 600}, p in {0.05, 0.3}: 8 certify rows and
# 4 error rows (variant B refuses p = 0.05 at both n).
CERTIFY_SWEEP_CSV_SHA256 = "377d77f71e94be74e4ff8ac08df67ff2902c02660e858857214a2e848d450895"
SERIES_SHA256 = "ed4178ad673c38c6d987009322da2863c9ed4c772935ff586d288ca990685894"
SAMPLER_SHA256 = "834258dacd723ed76fcf425c676c4db973d30d07ebefce818ab41c44ef56252e"
REPAIR_TRANSCRIPT_SHA256 = "b482c8056adc3be76404aeb1b198e05298a4f3e9e6b477705b59552efbfe2b6c"
# (report JSON, coloring file) of `color --n 100 --p 0.2 --seed 12`; variant B
# starts with two monochromatic maximal cliques and recolors two vertices.
COLOR_SHA256 = {
    "A": ("b743c390f668b7655fbf96555de543d260121827c5c449dcef9cfc89ee57f5ec",
          "38dde9ef676be03a21934d4a194e4f70806cf592f7743f55feb0f2cf335ec046"),
    "B": ("7ff7e4aa0915cf633d2f5e9a87ca7993dd594abe9a036edf5dfca36770cd356a",
          "4373e09374a4086962c7bc351b6bbfceef3817e515fc0d43ba3bae1f6c52d602"),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def records_csv(cfg: SweepConfig) -> str:
    buf = io.StringIO()
    write_records(run_sweep(cfg).records, buf)
    return buf.getvalue()


def sweep_csv() -> str:
    return records_csv(SweepConfig(
        n_grid=(300, 1000),
        p_grid=(0.1, 0.3, 0.5),
        trials=3,
        master_seed=2403,
        procedures=("A", "B"),
    ))


def certify_sweep_csv() -> str:
    return records_csv(SweepConfig(
        n_grid=(300, 600),
        p_grid=(0.05, 0.3),
        trials=2,
        master_seed=2403,
        procedures=("A", "B", "certify"),
        relax=0.25,
        certify_budget=2000,
    ))


def _hex(value):
    return float.hex(value) if isinstance(value, float) else value


def series_transcript() -> str:
    """One JSON line per schedule: Lambda/Pi summed forward and in reverse
    and the inequality values and flags, every float as float.hex."""
    lines = []
    for n in (1e4, 1e6, 1e9, 1e12):
        for rho in (0.1, 0.2, 0.3, 0.38, 0.45):
            sch = build_schedule(n, n**-rho)
            forward = lambda_report(sch)
            reverse = lambda_report(sch, reverse=True)
            ineq = inequality_check(sch, forward)
            lines.append(json.dumps([
                n, rho,
                {k: _hex(v) for k, v in dataclasses.asdict(forward).items()},
                {k: _hex(v) for k, v in dataclasses.asdict(reverse).items()},
                {k: _hex(v) for k, v in ineq.values.items()},
                ineq.flags,
            ], sort_keys=True))
    return "\n".join(lines) + "\n"


def sampler_transcript() -> str:
    """One line per (n, p, seed): the SHA-256 of the adjacency rows, each
    row as (n + 8) // 8 little-endian bytes, slot 0 included."""
    lines = []
    for n in (1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 500, 2000):
        for p in (0.0, 0.05, 0.3, 0.9, 1.0):
            for seed in (0, 2403):
                rows = b"".join(row.to_bytes((n + 8) // 8, "little")
                                for row in sample_gnp(n, p, seed).adj)
                lines.append(f"{n} {p} {seed} {hashlib.sha256(rows).hexdigest()}")
    return "\n".join(lines) + "\n"


def repair_transcript() -> str:
    """One JSON line per (coarse random colouring, budget)."""
    rng = random.Random(2403)
    lines = []
    for case in range(40):
        n = rng.choice([30, 60, 120])
        p = rng.choice([0.2, 0.35, 0.5])
        classes = rng.randint(1, 4)
        g = sample_gnp(n, p, seed=rng.randrange(2**32))
        c = Coloring(tuple(rng.randint(1, classes) for _ in range(n)))
        for budget in (0, 2, 1000):
            out = repair(g, c, budget=budget)
            lines.append(json.dumps([
                case, budget, list(out.recolored), out.exhausted,
                out.remaining_mono, out.extra_colors,
            ]))
    return "\n".join(lines) + "\n"


def test_sweep_csv_matches_golden_hash():
    assert sha256(sweep_csv()) == SWEEP_CSV_SHA256


def test_certify_sweep_csv_matches_golden_hash():
    assert sha256(certify_sweep_csv()) == CERTIFY_SWEEP_CSV_SHA256


def test_series_values_match_golden_hash():
    assert sha256(series_transcript()) == SERIES_SHA256


def test_sampler_matches_golden_hash():
    assert sha256(sampler_transcript()) == SAMPLER_SHA256


def test_repair_transcript_matches_golden_hash():
    assert sha256(repair_transcript()) == REPAIR_TRANSCRIPT_SHA256


@pytest.mark.parametrize("variant", ["A", "B"])
def test_color_outputs_match_golden_hashes(tmp_path, variant):
    report, colors = tmp_path / "r.json", tmp_path / "c.colors"
    args = ["color", "--n", "100", "--p", "0.2", "--seed", "12", "--variant", variant,
            "--report", str(report), "--out", str(colors)]
    assert main(args) == 0
    assert (sha256(report.read_text()), sha256(colors.read_text())) == COLOR_SHA256[variant]
