"""Time the upper-bound pipeline one stage at a time on a fixed grid.

    python3 bench/stages.py --out bench/BENCH_<label>.json

Run from the repository root; it imports the package from `src/`. On
G(n, p) with n = 10^4, p in {0.1, 0.3} and seed 2403 it times, each alone:

  sample_gnp  `graph.sample_gnp(n, p, seed)`;
  color       `upper._color(g, p, variant)`, the two-phase colouring;
  validity    `coloring.monochromatic_maximal_cliques(g, coloring)`, the
              Bron-Kerbosch pass over every colour class;
  repair      `upper._repair(g, coloring, 1000)`, which enumerates again.

for variants A and B. The graph of each p is sampled once outside the timed
region of the other stages. Repeats are interleaved (every stage once per
repeat) so that a drift in the machine's speed spreads over all stages, and
each stage's times are summarised by perfbench/spread.py's `summarize`
(median, quartiles, spread). The file also records the machine, the Python
and numpy versions, the commit, and each cell's outputs (palette,
monochromatic cliques before repair, recoloured vertices), so two files
can be checked for the same behaviour before their times are compared.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from cliquechrom import upper  # noqa: E402
from cliquechrom.coloring import monochromatic_maximal_cliques  # noqa: E402
from cliquechrom.graph import sample_gnp  # noqa: E402
from run import environment  # noqa: E402
from spread import summarize  # noqa: E402

N = 10_000
PS = (0.1, 0.3)
VARIANTS = ("A", "B")
SEED = 2403
REPEATS = 7
REPAIR_BUDGET = 1000
STAGES = ("sample_gnp", "color", "validity", "repair")


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def measure(n: int = N, repeats: int = REPEATS) -> dict:
    """Run the grid at vertex count n; returns the BENCH document."""
    graphs = {p: sample_gnp(n, p, SEED) for p in PS}
    cells = [(p, variant) for p in PS for variant in VARIANTS]
    colorings = {(p, v): upper._color(graphs[p], p, v)[0] for p, v in cells}
    times: dict[str, dict[str, list[float]]] = {stage: {} for stage in STAGES}
    outputs: dict[str, dict] = {}
    for _ in range(repeats):
        for p in PS:
            times["sample_gnp"].setdefault(f"p={p}", []).append(_timed(sample_gnp, n, p, SEED)[0])
        for p, variant in cells:
            g, coloring, key = graphs[p], colorings[p, variant], f"{variant},p={p}"
            out = {}
            for stage, fn, args in (
                ("color", upper._color, (g, p, variant)),
                ("validity", monochromatic_maximal_cliques, (g, coloring)),
                ("repair", upper._repair, (g, coloring, REPAIR_BUDGET)),
            ):
                seconds, out[stage] = _timed(fn, *args)
                times[stage].setdefault(key, []).append(seconds)
            fixed, mono = out["repair"]
            outputs[key] = {
                "palette": fixed.coloring.palette_size,
                "mono_pre_repair": mono,
                "mono_cliques": [sorted(k) for k in out["validity"]],
                "recolored": list(fixed.recolored),
                "exhausted": fixed.exhausted,
            }
    return {
        "grid": {"n": n, "p": list(PS), "variants": list(VARIANTS), "seed": SEED,
                 "repeats": repeats, "repair_budget": REPAIR_BUDGET},
        "environment": dict(environment(), machine=platform.machine(), platform=platform.platform(),
                            src_modified=_src_modified()),
        "stages": {stage: {cell: summarize(values) for cell, values in by_cell.items()}
                   for stage, by_cell in times.items()},
        "outputs": outputs,
    }


def _src_modified():
    """Whether src/ differs from the recorded commit (None without git)."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True, help="BENCH JSON file to write")
    args = parser.parse_args(argv)
    doc = measure()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for stage, by_cell in doc["stages"].items():
        for cell, row in by_cell.items():
            print(f"{stage:10s} {cell:10s} median {row['median']:.4f} s  q1 {row['q1']:.4f}  q3 {row['q3']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
