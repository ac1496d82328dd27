"""Time the colouring and certificate pipelines one stage at a time on a
fixed grid.

    python3 bench/stages.py --out bench/BENCH_<label>.json
    python3 bench/stages.py --against <rev> --out bench/BENCH_<label>.json

Run from the repository root; it imports the package from `src/`. On
G(n, p) with n = 10^4, p in {0.1, 0.3} and seed 2403 it times, each alone:

  sample_gnp  `graph.sample_gnp(n, p, seed)`;
  color       `upper._color(g, p, variant)`, the two-phase colouring;
  validity    `coloring.monochromatic_maximal_cliques(g, coloring)`, the
              Bron-Kerbosch pass over every colour class;
  repair      `upper._repair(g, coloring, 1000)`, which enumerates again.

for variants A and B; on G(500, 0.3), G(2000, 0.3) and G(400, 0.9), seed
2403, with the round-robin 2-colouring:

  certify     `lowerbound.certify(g, coloring, schedule, 2403, 10^4, 0.25)`,
              the certify_sweep trial's search (relax 0.25, budget 10^4);

at (n, rho) in {(10^6, 0.3), (10^12, 0.3), (10^20, 0.3), (10^12, 0.45)},
with p = n^-rho:

  series      `params.build_schedule(n, p)`, then `lambda_report` and
              `inequality_check` on it: the Lambda/Pi and density series;

and on G(n, p), seed 2403, with n in {35, 40} and p in {0.3, 0.7}:

  exact       `coloring.exact_clique_chromatic_number(g, budget=20000)`,
              the exact_small op: clique list, then backtracking.

Each graph, colouring and schedule is made once, outside the timed region
of the stages that use it. Repeats are interleaved (every stage once per
repeat) so that a drift in the machine's speed spreads over all stages,
and each stage's times are summarised by perfbench/spread.py's
`summarize` (median, quartiles, spread). The file also records the
machine, the Python and numpy versions, the commit, and each cell's
outputs (palette, monochromatic cliques before repair, recoloured
vertices; whether certify found a clique, the clique, its method, search
nodes, partition attempts and exhaustion; every Lambda report field and
inequality value as `float.hex`; the exact value and witness colours, or
the node count at which the budget ran out), so two files can be checked
for the same behaviour before their times are compared.

With --against, the package of <rev> (extracted with `git archive` into a
temporary directory) is timed in the same run as this checkout's `src/`.
Each tree gets one child process, which sets the grid up once and stays
up; each repeat then times every stage once in each child, alternating
which tree goes first. `stages` holds this checkout's times, `base_stages`
those of <rev>, and `ratios` the per-repeat ratio (this checkout / <rev>)
of every stage and cell; `trees` names both commits and digests both
`src/` trees. The run fails, writing nothing, if the outputs differ
between the trees or between repeats.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cliquechrom  # noqa: E402
from cliquechrom import upper  # noqa: E402
from cliquechrom.coloring import (  # noqa: E402
    BudgetExceeded,
    Coloring,
    exact_clique_chromatic_number,
    monochromatic_maximal_cliques,
)
from cliquechrom.graph import sample_gnp  # noqa: E402
from cliquechrom.lowerbound import certify  # noqa: E402
from cliquechrom.params import build_schedule, inequality_check, lambda_report  # noqa: E402
from run import environment  # noqa: E402
from spread import summarize  # noqa: E402

N = 10_000
PS = (0.1, 0.3)
VARIANTS = ("A", "B")
SEED = 2403
REPEATS = 7
REPAIR_BUDGET = 1000
CERTIFY_CELLS = ((500, 0.3), (2000, 0.3), (400, 0.9))
CERTIFY_CLASSES = 2
CERTIFY_RELAX = 0.25
CERTIFY_BUDGET = 10_000
# (n, rho) with p = n^-rho; (10^12, 0.45) is params_series' costliest point.
SERIES_CELLS = ((1e6, 0.3), (1e12, 0.3), (1e20, 0.3), (1e12, 0.45))
# (n, p) of the exact solves; at p = 0.3 the backtracking sets the time.
EXACT_CELLS = ((35, 0.3), (35, 0.7), (40, 0.3), (40, 0.7))
EXACT_BUDGET = 20_000  # exact_small's node budget
STAGES = ("sample_gnp", "color", "validity", "repair", "certify", "series", "exact")

# A child process of --against: imports the package under argv[2] before
# this module (from the directory argv[1]), whose imports then find it
# loaded, and serves one repeat per line of stdin.
_CHILD = (
    "import json, sys; sys.path.insert(0, sys.argv[2]); import cliquechrom; sys.path.insert(0, sys.argv[1]); "
    "import stages; stages.serve(**json.loads(sys.argv[3]))"
)


def _timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _series(n: float, p: float):
    sch = build_schedule(n, p)
    lam = lambda_report(sch)
    return lam, inequality_check(sch, lam)


def _exact(g) -> dict:
    try:
        value, witness = exact_clique_chromatic_number(g, budget=EXACT_BUDGET)
    except BudgetExceeded as exc:
        return {"budget_exceeded": exc.nodes}
    return {"value": value, "witness": list(witness.colors)}


class _Grid:
    """The stage grid at vertex count n, the certify cells, the series at
    each (n, rho) of series_cells, and the exact solve at each exact cell.
    The graph of each p and of each certify and exact cell, and the
    colouring of each cell, are made once, here; `repeat` times every stage
    once."""

    def __init__(self, n: int, series_cells):
        self.n, self.series_cells = n, series_cells
        self.graphs = {p: sample_gnp(n, p, SEED) for p in PS}
        self.colorings = {(p, v): upper._color(self.graphs[p], p, v)[0] for p in PS for v in VARIANTS}
        self.certify_args = {
            f"n={cn},p={cp}": (
                sample_gnp(cn, cp, SEED),
                Coloring(tuple(1 + (v - 1) % CERTIFY_CLASSES for v in range(1, cn + 1))),
                build_schedule(cn, cp),
                SEED,
                CERTIFY_BUDGET,
                CERTIFY_RELAX,
            )
            for cn, cp in CERTIFY_CELLS
        }
        self.exact_graphs = {f"n={en},p={ep}": sample_gnp(en, ep, SEED) for en, ep in EXACT_CELLS}

    def repeat(self) -> tuple[dict, dict]:
        """One time per stage and cell, and each cell's outputs."""
        times: dict[str, dict[str, float]] = {stage: {} for stage in STAGES}
        outputs: dict[str, dict] = {}
        for p in PS:
            times["sample_gnp"][f"p={p}"] = _timed(sample_gnp, self.n, p, SEED)[0]
        for (p, variant), coloring in self.colorings.items():
            g, key = self.graphs[p], f"{variant},p={p}"
            out = {}
            for stage, fn, args in (
                ("color", upper._color, (g, p, variant)),
                ("validity", monochromatic_maximal_cliques, (g, coloring)),
                ("repair", upper._repair, (g, coloring, REPAIR_BUDGET)),
            ):
                times[stage][key], out[stage] = _timed(fn, *args)
            fixed, mono = out["repair"]
            outputs[key] = {
                "palette": fixed.coloring.palette_size,
                "mono_pre_repair": mono,
                "mono_cliques": [sorted(k) for k in out["validity"]],
                "recolored": list(fixed.recolored),
                "exhausted": fixed.exhausted,
            }
        for key, args in self.certify_args.items():
            times["certify"][key], report = _timed(certify, *args)
            outputs[key] = {
                "found": report.found,
                "method": report.method,
                "clique": sorted(report.clique) if report.clique else None,
                "candidates_tested": report.candidates_tested,
                "partition_attempts": report.partition_attempts,
                "exhausted": report.exhausted,
            }
        for series_n, rho in self.series_cells:
            key = f"n={series_n:g},rho={rho}"
            times["series"][key], (lam, ineq) = _timed(_series, series_n, series_n**-rho)
            values = {**{k: v for k, v in asdict(lam).items() if isinstance(v, float)}, **ineq.values}
            outputs[key] = {name: float.hex(value) for name, value in values.items()}
        for key, g in self.exact_graphs.items():
            times["exact"][key], outputs[key] = _timed(_exact, g)
        return times, outputs


def serve(n: int, series_cells) -> None:
    """The --against child: set the grid up, print the package's file, then
    print one repeat as a JSON line per line read from stdin."""
    grid = _Grid(n, series_cells)
    print(json.dumps(cliquechrom.__file__), flush=True)
    for _ in sys.stdin:
        print(json.dumps(grid.repeat()), flush=True)


def _join(runs: list[dict]) -> dict:
    """Per-repeat {stage: {cell: seconds}} -> {stage: {cell: [seconds, ...]}}."""
    return {stage: {cell: [run[stage][cell] for run in runs] for cell in by_cell}
            for stage, by_cell in runs[0].items()}


def _summaries(times: dict) -> dict:
    return {stage: {cell: summarize(values) for cell, values in by_cell.items()} for stage, by_cell in times.items()}


def _document(n: int, repeats: int, series_cells, times: dict, outputs: dict) -> dict:
    return {
        "grid": {"n": n, "p": list(PS), "variants": list(VARIANTS), "seed": SEED,
                 "repeats": repeats, "repair_budget": REPAIR_BUDGET,
                 "certify_cells": [list(cell) for cell in CERTIFY_CELLS], "certify_classes": CERTIFY_CLASSES,
                 "certify_relax": CERTIFY_RELAX, "certify_budget": CERTIFY_BUDGET,
                 "series_cells": [list(cell) for cell in series_cells],
                 "exact_cells": [list(cell) for cell in EXACT_CELLS], "exact_budget": EXACT_BUDGET},
        "environment": dict(environment(), machine=platform.machine(), platform=platform.platform(),
                            src_modified=_src_modified()),
        "stages": _summaries(times),
        "outputs": outputs,
    }


def measure(n: int = N, repeats: int = REPEATS, series_cells=SERIES_CELLS) -> dict:
    """Run the grid at vertex count n, and the series at each (n, rho) of
    series_cells; returns the BENCH document."""
    grid = _Grid(n, series_cells)
    runs = [grid.repeat() for _ in range(repeats)]
    return _document(n, repeats, series_cells, _join([times for times, _ in runs]), runs[-1][1])


def measure_against(rev: str, n: int = N, repeats: int = REPEATS, series_cells=SERIES_CELLS) -> dict:
    """Time this checkout's package and that of git revision `rev` in one
    alternating run; returns the BENCH document. ValueError when the two
    trees' outputs differ."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tempfile.TemporaryDirectory(prefix="bench-stages-") as tmp:
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout, check=True)
        archive.stdout.close()
        if archive.wait():
            raise RuntimeError(f"git archive {commit} failed")
        trees = {"change": ROOT / "src", "base": Path(tmp) / "src"}
        runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in trees}
        children = {}
        try:
            for name, src in trees.items():
                children[name] = _Child(src, n, series_cells)
            for repeat in range(repeats):
                for name in list(trees)[:: 1 if repeat % 2 == 0 else -1]:
                    runs[name].append(children[name].repeat())
        finally:
            for child in children.values():
                child.close()
        digests = {name: _src_sha256(src) for name, src in trees.items()}
    first = runs["change"][0][1]
    every = [outputs for name in trees for _, outputs in runs[name]]
    differing = sorted({cell for out in every for cell in out.keys() | first.keys()
                        if out.get(cell) != first.get(cell)})
    if differing:
        raise ValueError(f"outputs differ between this checkout and {rev} in cells {differing}")
    times = {name: _join([times for times, _ in runs[name]]) for name in trees}
    doc = _document(n, repeats, series_cells, times["change"], first)
    doc["trees"] = {
        "change": {"commit": doc["environment"]["commit"], "src_modified": doc["environment"]["src_modified"],
                   "src_sha256": digests["change"]},
        "base": {"rev": rev, "commit": commit, "src_sha256": digests["base"]},
    }
    doc["base_stages"] = _summaries(times["base"])
    doc["ratios"] = {
        stage: {cell: summarize([c / b for c, b in zip(values, times["base"][stage][cell])])
                for cell, values in by_cell.items()}
        for stage, by_cell in times["change"].items()
    }
    return doc


class _Child:
    """A `serve` process importing the package from `src`; it stays up for
    the whole run, so each tree sets its grid up once."""

    def __init__(self, src: Path, n: int, series_cells):
        args = json.dumps({"n": n, "series_cells": [list(cell) for cell in series_cells]})
        self.src = src
        self.proc = subprocess.Popen([sys.executable, "-c", _CHILD, str(Path(__file__).parent), str(src), args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        package = Path(json.loads(self._line()))
        if not package.resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"the child imported {package}, not the package under {src}")

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the stages failed on {self.src} (exit {self.proc.wait()})")
        return line

    def repeat(self) -> tuple[dict, dict]:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        times, outputs = json.loads(self._line())
        return times, outputs

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def _src_sha256(src: Path) -> str:
    """A digest of the package's sources: names the measured tree even when
    it is not committed."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


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
    parser.add_argument("--against", metavar="REV", help="also time the package of git revision REV, alternating")
    args = parser.parse_args(argv)
    try:
        doc = measure_against(args.against) if args.against else measure()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for stage, by_cell in doc["stages"].items():
        for cell, row in by_cell.items():
            line = f"{stage:10s} {cell:18s} median {row['median']:.4f} s  q1 {row['q1']:.4f}  q3 {row['q3']:.4f}"
            if args.against:
                base, ratio = doc["base_stages"][stage][cell], doc["ratios"][stage][cell]
                line += f"  | {args.against} {base['median']:.4f} s  ratio {ratio['median']:.3f}" \
                        f" ({ratio['q1']:.3f}-{ratio['q3']:.3f})"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
