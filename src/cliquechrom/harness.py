"""Config-driven Monte-Carlo sweeps and theory comparison tables.

A sweep walks the grid (n-values x p-values x procedures), runs `trials`
seeded trials per cell, and emits one record per trial. Replay is exact:
the trial seed is a documented mix of (master seed, cell index, trial
index), cells are enumerated in grid order, and records are merged in
(cell, trial) order no matter how workers finish, so reruns produce
byte-identical CSV. Wall-clock timings are inherently nondeterministic and
therefore live only in the JSON report, never in the CSV.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional, Sequence, TextIO, get_args, get_type_hints

from .coloring import Coloring, require_budget
from .graph import _check_vertex_count, sample_gnp
from .lowerbound import certify
from .params import _check_cell, build_schedule, predicted_bounds
from . import upper

__all__ = [
    "SCHEMA_VERSION",
    "REPAIR_EXHAUSTED",
    "CERTIFY_EXHAUSTED",
    "RECORD_COLUMNS",
    "ExperimentRecord",
    "SweepConfig",
    "mix_seed",
    "run_sweep",
    "SweepResult",
    "write_records",
    "read_records",
    "compare_with_theory",
    "CompareRow",
    "render_compare_table",
]

SCHEMA_VERSION = 1

# The error column of a trial whose repair loop, or whose certificate search,
# ran out of budget; the only error texts that make a sweep report budget
# exhaustion.
REPAIR_EXHAUSTED = "budget exhausted in repair"
CERTIFY_EXHAUSTED = "budget exhausted in certify"

PREDICTION_LABELS = (
    "order_log_over_p",
    "sparse_half",
    "very_sparse_5_2",
    "upper_refined",
    "one_third_order",
    "half_log_base",
)

@dataclass(frozen=True, kw_only=True)
class ExperimentRecord:
    """One trial. Its fields up to `error` are the CSV columns, in order,
    after schema_version; one pred_<label> column per prediction follows."""

    n: int
    p: float
    seed: int
    procedure: str
    palette: Optional[int] = None
    valid: Optional[bool] = None
    repairs: Optional[int] = None
    leftover: Optional[int] = None
    s: Optional[int] = None
    z: Optional[int] = None
    delta: Optional[float] = None
    certificate_found: Optional[bool] = None
    error: str
    predictions: dict[str, float]
    wall_time: float  # seconds; JSON-report only, excluded from the CSV

    def csv_row(self) -> list[str]:
        cells = [str(SCHEMA_VERSION)]
        cells.extend(_fmt(getattr(self, name)) for name in _CELL_PARSERS)
        cells.extend(repr(self.predictions[label]) for label in PREDICTION_LABELS)
        return cells

    @classmethod
    def from_csv_row(cls, row: dict[str, str]) -> "ExperimentRecord":
        """Inverse of `csv_row` for a `read_records` row; wall_time reads 0."""
        return cls(
            **{name: parse(row[name]) for name, parse in _CELL_PARSERS.items()},
            predictions={label: float(row[f"pred_{label}"]) for label in PREDICTION_LABELS},
            wall_time=0.0,
        )


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cell_parser(hint):
    """CSV text -> value for a field annotated `hint`; an empty cell of an
    Optional field, and a boolean cell other than true/false, read None."""
    optional = type(None) in get_args(hint)
    base = get_args(hint)[0] if optional else hint
    parse = {"true": True, "false": False}.get if base is bool else base
    return (lambda text: parse(text) if text else None) if optional else parse


_CELL_PARSERS = {
    name: _cell_parser(hint)
    for name, hint in get_type_hints(ExperimentRecord).items()
    if name not in ("predictions", "wall_time")
}

RECORD_COLUMNS = (
    "schema_version",
    *_CELL_PARSERS,
    *(f"pred_{label}" for label in PREDICTION_LABELS),
)


@dataclass(frozen=True)
class SweepConfig:
    """Versioned sweep description; see `from_json` for the file format."""

    n_grid: tuple[int, ...]
    p_grid: tuple[float, ...] = ()
    rho_grid: tuple[float, ...] = ()  # p = n^(-rho), resolved per cell
    trials: int = 1
    master_seed: int = 0
    procedures: tuple[str, ...] = ("A",)
    epsilon: Optional[float] = None
    repair_budget: int = 1000
    relax: Optional[float] = None
    certify_classes: int = 2
    certify_budget: int = 10_000
    workers: int = 1

    def __post_init__(self):
        if not self.n_grid:
            raise ValueError("n grid must be nonempty")
        if min(self.n_grid) < 2:
            raise ValueError(f"every n must be >= 2, got {min(self.n_grid)}")
        _check_vertex_count(max(self.n_grid))
        if bool(self.p_grid) == bool(self.rho_grid):
            raise ValueError("exactly one of the p grid and the rho grid must be given")
        for n, p in self._points():
            _check_cell(n, p)
        if self.epsilon is not None and not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.relax is not None and not 0.0 < self.relax <= 1.0:
            raise ValueError(f"relax fraction must lie in (0, 1], got {self.relax!r}")
        if self.certify_classes < 1:
            raise ValueError("certify_classes must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        require_budget(self.repair_budget, "repair_budget")
        require_budget(self.certify_budget, "certify_budget")
        bad = [proc for proc in self.procedures if proc not in ("A", "B", "certify")]
        if bad:
            raise ValueError(f"unknown procedures: {bad}")

    def _points(self) -> list[tuple[int, float]]:
        """(n, p) in grid order, p = n^(-rho) for a rho grid."""
        return [(n, float(raw) if self.p_grid else float(n) ** -float(raw))
                for n in self.n_grid for raw in self.p_grid or self.rho_grid]

    def cells(self) -> list[tuple[int, float, str]]:
        return [(n, p, proc) for n, p in self._points() for proc in self.procedures]

    @classmethod
    def from_json(cls, fh: TextIO) -> "SweepConfig":
        """Read a config document: "version" plus the grids under the keys
        n, p and rho, and any other field under its own name."""
        doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("version") != SCHEMA_VERSION:
            raise ValueError(f"config must be a JSON object with version {SCHEMA_VERSION}")
        grids = {"n": ("n_grid", _integer), "p": ("p_grid", _real), "rho": ("rho_grid", _real)}
        scalars = {f.name: f.default for f in dataclasses.fields(cls) if not f.name.endswith("_grid")}
        unknown = set(doc) - {"version"} - set(grids) - set(scalars)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "n" not in doc:
            raise ValueError("config needs an n grid")
        try:
            kwargs = {name: tuple(map(convert, _list(doc[key])))
                      for key, (name, convert) in grids.items() if key in doc}
            for name, default in scalars.items():
                if name in doc:
                    # Fields defaulting to None (epsilon, relax) take a number or null.
                    convert = {int: _integer, tuple: _list}.get(type(default), _real)
                    kwargs[name] = None if doc[name] is None and default is None else convert(doc[name])
            return cls(**kwargs)  # n^(-rho) may overflow here
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"malformed config value: {exc}") from exc


def _integer(value) -> int:
    """A config value of an int field: an int, or a float with an integral
    value; a bool, a string or a fractional number raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _real(value) -> float:
    """A config value of a float field: an int or a float, not a bool or a string."""
    if type(value) not in (int, float):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _list(value) -> tuple:
    if type(value) is not list:
        raise ValueError(f"expected a list, got {value!r}")
    return tuple(value)


_MASK64 = (1 << 64) - 1


def mix_seed(master: int, cell: int, trial: int) -> int:
    """Derive an independent 63-bit trial seed.

    splitmix64 finalizer applied to master + C1*(cell+1) + C2*(trial+1);
    the odd constants are the usual splitmix64/murmur mix constants. Stable
    across platforms and documented so records can be regenerated anywhere.
    """
    x = (master + 0x9E3779B97F4A7C15 * (cell + 1) + 0xBF58476D1CE4E5B9 * (trial + 1)) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x >> 1  # keep it in signed-64 range for portability


def _run_trial(cfg: SweepConfig, n: int, p: float, procedure: str, seed: int) -> ExperimentRecord:
    start = time.perf_counter()
    preds = {b.label: b.value for b in predicted_bounds(n, p)}
    base = dict(n=n, p=p, seed=seed, procedure=procedure, predictions=preds)
    try:
        g = sample_gnp(n, p, seed)
        if procedure in ("A", "B"):
            rep, fixed = upper.run(g, p, procedure, cfg.epsilon, cfg.repair_budget)
            # repair terminates only on a coloring with no monochromatic
            # maximal clique, so validity reduces to non-exhaustion.
            return ExperimentRecord(
                **base,
                palette=fixed.coloring.palette_size,
                valid=not fixed.exhausted,
                repairs=len(fixed.recolored),
                leftover=rep.leftover,
                s=rep.s,
                z=rep.z,
                delta=rep.delta,
                error=REPAIR_EXHAUSTED if fixed.exhausted else "",
                wall_time=time.perf_counter() - start,
            )
        # certify trial: a deliberately coarse round-robin coloring.
        classes = cfg.certify_classes
        coloring = Coloring(tuple(1 + (v - 1) % classes for v in range(1, n + 1)))
        sch = build_schedule(n, p)
        report = certify(g, coloring, sch, seed=seed, budget=cfg.certify_budget, relax=cfg.relax)
        found = report.found and report.validated
        # certify's hunt is complete, so only a spent budget leaves validity unknown
        return ExperimentRecord(
            **base,
            palette=classes,
            valid=None if report.exhausted else not found,
            s=sch.s,
            delta=sch.delta,
            certificate_found=found,
            error=CERTIFY_EXHAUSTED if report.exhausted else "",
            wall_time=time.perf_counter() - start,
        )
    except Exception as exc:  # per-trial failures never abort the sweep
        return ExperimentRecord(
            **base,
            error=f"{type(exc).__name__}: {exc}",
            wall_time=time.perf_counter() - start,
        )


def _pool_size(requested: int, tasks: int) -> int:
    """Worker processes for a sweep: the requested count, capped by the CPUs
    and by the number of tasks."""
    return min(requested, os.cpu_count() or 1, tasks)


@dataclass(frozen=True)
class SweepResult:
    records: tuple[ExperimentRecord, ...]
    budget_exhausted: bool
    elapsed: float


def run_sweep(cfg: SweepConfig, workers: Optional[int] = None) -> SweepResult:
    """Execute every (cell, trial); per-trial errors are recorded in the
    record's error column, never raised."""
    start = time.perf_counter()
    if workers is not None:
        cfg = dataclasses.replace(cfg, workers=workers)
    tasks = [
        (n, p, proc, mix_seed(cfg.master_seed, cell_index, trial))
        for cell_index, (n, p, proc) in enumerate(cfg.cells())
        for trial in range(cfg.trials)
    ]
    # Both maps keep the (cell, trial) order of `tasks`.
    args = (_run_trial, repeat(cfg, len(tasks)), *zip(*tasks))
    nworkers = _pool_size(cfg.workers, len(tasks))
    if nworkers > 1:
        # Workers forked from this process (Linux's default start method)
        # inherit its modules. Every trial samples through numpy.random, which
        # numpy loads lazily, so importing it here spares each worker of this
        # sweep's fresh pool its own import. Importing it at module level
        # would add it to the start-up of every command.
        import numpy.random  # noqa: F401

        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            records = tuple(pool.map(*args, chunksize=1))
    else:
        records = tuple(map(*args))
    exhausted = any(rec.error in (REPAIR_EXHAUSTED, CERTIFY_EXHAUSTED) for rec in records)
    return SweepResult(records=records, budget_exhausted=exhausted, elapsed=time.perf_counter() - start)


def write_records(records: Iterable[ExperimentRecord], fh: TextIO) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    for rec in records:
        writer.writerow(rec.csv_row())


def read_records(fh: TextIO) -> list[dict[str, str]]:
    """Read a records CSV back as raw string dicts.

    The header must match the known schema exactly; unknown or missing
    columns, a row of another width and malformed CSV are rejected.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None or tuple(header) != RECORD_COLUMNS:
            raise ValueError("records CSV header does not match the known schema")
        rows = []
        for row in reader:
            if len(row) != len(RECORD_COLUMNS):
                raise ValueError(f"records CSV line {reader.line_num} has {len(row)} cells, not {len(RECORD_COLUMNS)}")
            rows.append(dict(zip(RECORD_COLUMNS, row)))
    except csv.Error as exc:
        raise ValueError(f"malformed records CSV: {exc}") from None
    return rows


# -- Theory comparison -------------------------------------------------------------


@dataclass(frozen=True)
class CompareRow:
    n: int
    p: float
    procedure: str
    trials: int
    mean_palette: float
    min_palette: int
    max_palette: int
    ratios: dict[str, Optional[float]]  # label -> mean/predicted, None = n/a


def compare_with_theory(records: Sequence[ExperimentRecord]) -> list[CompareRow]:
    """Per-cell palette statistics against the in-range leading-order
    predictions. Ratios are empirical mean / predicted value; predictions
    whose p-window excludes the cell are reported as n/a."""
    if not records:
        raise ValueError("no records to compare")
    cells: dict[tuple[int, float, str], list[ExperimentRecord]] = {}
    for rec in records:
        if rec.procedure not in ("A", "B") or rec.palette is None:
            continue
        cells.setdefault((rec.n, rec.p, rec.procedure), []).append(rec)
    rows = []
    for (n, p, proc), group in sorted(cells.items()):
        palettes = [rec.palette for rec in group]
        try:
            mean = sum(palettes) / len(palettes)
        except OverflowError:
            raise ValueError(f"palettes of cell ({n}, {p!r}, {proc}) overflow a float") from None
        ratios: dict[str, Optional[float]] = {}
        for bound in predicted_bounds(n, p):
            usable = bound.in_range and bound.value > 0 and math.isfinite(bound.value)
            ratios[bound.label] = mean / bound.value if usable else None
        rows.append(
            CompareRow(
                n=n,
                p=p,
                procedure=proc,
                trials=len(group),
                mean_palette=mean,
                min_palette=min(palettes),
                max_palette=max(palettes),
                ratios=ratios,
            )
        )
    return rows


def render_compare_table(rows: Sequence[CompareRow]) -> str:
    header = ["n", "p", "proc", "trials", "mean", "min", "max"] + [
        f"ratio_{label}" for label in PREDICTION_LABELS
    ]
    lines = ["\t".join(header)]
    for row in rows:
        cells = [
            str(row.n),
            repr(row.p),
            row.procedure,
            str(row.trials),
            f"{row.mean_palette:.3f}",
            str(row.min_palette),
            str(row.max_palette),
        ]
        for label in PREDICTION_LABELS:
            ratio = row.ratios.get(label)
            cells.append("n/a" if ratio is None else f"{ratio:.4f}")
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"
