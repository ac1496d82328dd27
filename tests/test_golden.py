"""Golden hashes that pin the sweep CSV, repair's recolour lists and the
`color` command's outputs.

The expected digests were computed with the code from before `repair`
counted monochromatic cliques in its own first pass (when the procedures
ran a separate validity pass); a change to any colouring, recolour order,
exhaustion report or CSV byte shows up here.
"""

import hashlib
import io
import json
import random

import pytest

from cliquechrom.cli import main
from cliquechrom.coloring import Coloring
from cliquechrom.graph import sample_gnp
from cliquechrom.harness import SweepConfig, run_sweep, write_records
from cliquechrom.upper import repair

SWEEP_CSV_SHA256 = "9e9a8465ef3bf400e7b3bb5a3bb066c9b72a597c2a57962609d3b4c46e0bb022"
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


def sweep_csv() -> str:
    cfg = SweepConfig(
        n_grid=(300, 1000),
        p_grid=(0.1, 0.3, 0.5),
        trials=3,
        master_seed=2403,
        procedures=("A", "B"),
    )
    buf = io.StringIO()
    write_records(run_sweep(cfg).records, buf)
    return buf.getvalue()


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


def test_repair_transcript_matches_golden_hash():
    assert sha256(repair_transcript()) == REPAIR_TRANSCRIPT_SHA256


@pytest.mark.parametrize("variant", ["A", "B"])
def test_color_outputs_match_golden_hashes(tmp_path, variant):
    report, colors = tmp_path / "r.json", tmp_path / "c.colors"
    args = ["color", "--n", "100", "--p", "0.2", "--seed", "12", "--variant", variant,
            "--report", str(report), "--out", str(colors)]
    assert main(args) == 0
    assert (sha256(report.read_text()), sha256(colors.read_text())) == COLOR_SHA256[variant]
