"""The four benchmark workloads: their inputs, operations and output checks.

Every workload is a closed loop in one process (the sweeps' worker pool
aside) that runs in rounds; one round runs every cell of the workload's
grid once, so each round does the same mix of work. Inputs derive from the
workload seed alone. Each workload runs the same calls into `cliquechrom`
untraced (the timed run) and traced (`traced_round`), and checks every
operation's output after the timed region.

Every round draws new inputs, except on `certify_sweep`: it cycles through
the inputs of its first `prefix_rounds` rounds, so that its output check,
which re-runs each distinct trial, does a fixed amount of work whatever the
run length.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cliquechrom" / "__init__.py").is_file():
    raise ImportError(f"no cliquechrom sources under {SRC}")
sys.path.insert(0, str(SRC))

import cliquechrom  # noqa: E402
from cliquechrom import (  # noqa: E402
    BudgetExceeded,
    Coloring,
    PartitionError,
    ExperimentRecord,
    SweepConfig,
    build_schedule,
    certify,
    enumerate_maximal_cliques,
    exact_clique_chromatic_number,
    find_clique_dominating_outside,
    greedy_phase,
    inequality_check,
    is_valid_clique_coloring,
    janson_exponent,
    lambda_report,
    mix_seed,
    monochromatic_maximal_cliques,
    predicted_bounds,
    procedure_A,
    procedure_B,
    pseudo_partition,
    repair,
    run_sweep,
    sample_gnp,
    select_useful_class,
    write_records,
)

from spans import NULL, Tracer  # noqa: E402

if Path(cliquechrom.__file__).resolve().parent != SRC / "cliquechrom":
    raise ImportError(f"cliquechrom imported from {cliquechrom.__file__}, not {SRC}")


def derive(*parts: Any) -> int:
    """A 63-bit seed from the workload seed and the position of an input."""
    digest = hashlib.sha256("/".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass
class Op:
    """One unit of user-visible work and what its checks need."""

    latency: float
    answered: bool = True  # False: a documented refusal (series too long, search budget spent)
    palette: Optional[float] = None
    certified: bool = False
    failed: bool = False  # raised, carries an error, or fails its output check
    detail: Any = None


@dataclass
class Round:
    ops: list[Op]
    elapsed: float = 0.0  # wall time of the round less input_s, set by the timed loop
    input_s: float = 0.0  # time the round spent building its inputs
    sweep_elapsed: float = 0.0  # harness-reported elapsed time (sweeps only)
    write_s: float = 0.0  # time in write_records (sweeps only)
    csv: str = ""  # records CSV (sweeps only)


class Workload:
    name = ""
    workers = 1
    prefix_rounds = 1  # every run completes these; the quality metrics are taken over them

    def __init__(self, seed: int, seconds: float, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def round(self, r: int) -> Round:
        """Run round r untraced."""
        raise NotImplementedError

    def traced_round(self, r: int, tracer: Tracer) -> Round:
        """Run round r on the same inputs, adding its spans to `tracer`."""
        raise NotImplementedError

    def check(self, rounds: list[Round], traced: bool) -> None:
        """Mark each op whose output fails its check as failed."""
        raise NotImplementedError


def attempt(fn: Callable, *args) -> tuple[Op, list, Any]:
    """Run one op; an exception fails the op, with its traceback, not the run."""
    start = time.perf_counter()
    try:
        return fn(*args)
    except Exception:
        return Op(time.perf_counter() - start, answered=False, failed=True, detail=traceback.format_exc()), [], {}


def _merge(tracer: Tracer, results: list[tuple[Op, list, Any]]) -> Round:
    for _, spans, counters in results:
        tracer.merge(spans, counters)
    return Round([op for op, _, _ in results])


# -- Sweeps ------------------------------------------------------------------------


class _Sweep(Workload):
    CONFIG: dict = {}
    TINY: dict = {}
    cycle = False  # True: round r replays the inputs of round r % prefix_rounds

    def __init__(self, seed, seconds, tiny):
        super().__init__(seed, seconds, tiny)
        doc = dict(self.CONFIG, **(self.TINY if tiny else {}), version=1, master_seed=0)
        self.cfg = SweepConfig.from_json(io.StringIO(json.dumps(doc)))
        self.workers = self.cfg.workers

    def config(self, r: int) -> SweepConfig:
        if self.cycle:
            r %= self.prefix_rounds
        return replace(self.cfg, master_seed=derive(self.name, self.seed, r))

    def tasks(self, r: int) -> list[tuple]:
        """(n, p, procedure, trial seed) in run_sweep's order for round r."""
        cfg = self.config(r)
        return [
            (n, p, proc, mix_seed(cfg.master_seed, cell, trial))
            for cell, (n, p, proc) in enumerate(cfg.cells())
            for trial in range(cfg.trials)
        ]

    def round(self, r):
        result = run_sweep(self.config(r))
        start = time.perf_counter()
        buf = io.StringIO()
        write_records(result.records, buf)
        write_s = time.perf_counter() - start
        ops = [self.op_of(rec) for rec in result.records]
        return Round(ops, sweep_elapsed=result.elapsed, write_s=write_s, csv=buf.getvalue())

    def op_of(self, rec: ExperimentRecord) -> Op:
        raise NotImplementedError


def record_ok(rec: ExperimentRecord) -> bool:
    """A sweep record is good when it carries no error and, for the colouring
    procedures, a valid colouring (a certify trial that found a certificate
    must record its colouring as invalid)."""
    if rec.error:
        return False
    if rec.procedure == "certify":
        return not (rec.certificate_found and rec.valid)
    return rec.valid is True


def csv_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class UpperSweep(_Sweep):
    """The paper's upper-bound experiment, single process."""

    name = "upper_sweep"
    CONFIG = dict(n=[10_000], p=[0.1, 0.3], procedures=["A", "B"], trials=1, repair_budget=1000, workers=1)
    TINY = dict(n=[400])
    prefix_rounds = 2

    def op_of(self, rec):
        return Op(rec.wall_time, palette=rec.palette, certified=rec.valid is True, detail=rec)

    def traced_round(self, r, tracer):
        cfg = self.config(r)
        results = [
            attempt(traced_upper_trial, n, p, proc, seed, cfg.repair_budget) for n, p, proc, seed in self.tasks(r)
        ]
        return _merge(tracer, results)

    def check(self, rounds, traced):
        for rnd in rounds:
            for op in rnd.ops:
                op.failed = op.failed or not record_ok(op.detail)
        if not traced and rounds:
            # Byte-identity contract: the same config replays to the same CSV.
            if csv_sha256(self.round(0).csv) != csv_sha256(rounds[0].csv):
                for op in rounds[0].ops:
                    op.failed = True


def traced_upper_trial(n: int, p: float, procedure: str, seed: int, repair_budget: int):
    """harness._run_trial's upper-bound path through public calls, plus two
    sibling probes on the procedure's colouring: its greedy phase and the
    validity pass (`monochromatic_maximal_cliques`)."""
    tr = Tracer()
    start = time.perf_counter()
    with tr.span("op"):
        with tr.span("params.predicted_bounds"):
            preds = {b.label: b.value for b in predicted_bounds(n, p)}
        with tr.span("graph.sample_gnp"):
            g = sample_gnp(n, p, seed)
        tr.count("graph.pairs", n * (n - 1) // 2)
        with tr.span("upper.procedure"):
            coloring, rep = procedure_A(g, p) if procedure == "A" else procedure_B(g, p)
        with tr.span("upper.repair"):
            fixed = repair(g, coloring, budget=repair_budget)
        tr.count("upper.repair.recolors", len(fixed.recolored))
        tr.count("upper.mono_pre_repair", rep.mono_pre_repair)
        with tr.span("upper.greedy_phase"):
            greedy_phase(g, rep.s)
        with tr.span("coloring.validity"):
            mono = monochromatic_maximal_cliques(g, coloring)
        # maximal_cliques_within also yields each isolated vertex as a clique.
        isolated = sum(1 for v in range(1, n + 1) if g.adj[v] == 0)
        tr.count("coloring.validity.cliques", len(mono) + isolated)
    rec = ExperimentRecord(
        n=n, p=p, seed=seed, procedure=procedure, palette=fixed.coloring.palette_size,
        valid=not fixed.exhausted, repairs=len(fixed.recolored), leftover=rep.leftover, s=rep.s,
        z=rep.z, delta=rep.delta, certificate_found=None,
        error="budget exhausted in repair" if fixed.exhausted else "", predictions=preds,
        wall_time=time.perf_counter() - start,
    )
    op = Op(rec.wall_time, palette=rec.palette, certified=rec.valid is True, detail=rec)
    return op, tr.spans, tr.counters


def round_robin(n: int, classes: int) -> Coloring:
    """The deliberately coarse colouring a certify trial hunts in."""
    return Coloring(tuple(1 + (v - 1) % classes for v in range(1, n + 1)))


def certificate_ok(g, colors: tuple[int, ...], clique) -> bool:
    """Independent check that `clique` is a monochromatic inclusion-maximal
    clique of size >= 2, reading the adjacency bitsets directly."""
    members = sorted(set(clique))
    if len(members) < 2 or not all(1 <= v <= g.n for v in members):
        return False
    if len({colors[v - 1] for v in members}) != 1:
        return False
    kb = 0
    for v in members:
        kb |= 1 << v
    for v in members:
        if (g.adj[v] | (1 << v)) & kb != kb:
            return False  # two members are not adjacent
    for u in range(1, g.n + 1):
        if not kb >> u & 1 and g.adj[u] & kb == kb:
            return False  # u extends the clique, so it is not maximal
    return True


def rederive_certificate(n, p, seed, classes, budget, relax) -> tuple[bool, bool]:
    """Re-run a certify trial's certification; returns (found and validated
    by the program, certificate passes the independent check)."""
    g = sample_gnp(n, p, seed)
    coloring = round_robin(n, classes)
    report = certify(g, coloring, build_schedule(n, p), seed=seed, budget=budget, relax=relax)
    found = report.found and report.validated
    return found, found and certificate_ok(g, coloring.colors, report.clique)


class CertifySweep(_Sweep):
    """The lower-bound path on a 2-colouring, over the harness's 2-process pool.
    Its trials run in workers that each run_sweep call starts afresh, so a
    replayed round shares no process state with its earlier pass."""

    name = "certify_sweep"
    CONFIG = dict(
        n=[500, 2000], p=[0.3], procedures=["certify"], trials=10, certify_classes=2,
        relax=0.25, certify_budget=10_000, workers=2,
    )
    TINY = dict(n=[60, 90], trials=2)
    prefix_rounds = 2
    cycle = True

    def op_of(self, rec):
        return Op(rec.wall_time, palette=rec.palette, certified=bool(rec.certificate_found), detail=(rec, None))

    def _args(self, n, p, seed):
        cfg = self.cfg
        return n, p, seed, cfg.certify_classes, cfg.certify_budget, cfg.relax

    def traced_round(self, r, tracer):
        # A pool per round, as run_sweep starts one per call.
        jobs = [self._args(n, p, seed) for n, p, _, seed in self.tasks(r)]
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            results = list(pool.map(attempt, repeat(traced_certify_trial), *zip(*jobs), chunksize=1))
        return _merge(tracer, results)

    def check(self, rounds, traced):
        ops = [op for rnd in rounds for op in rnd.ops]
        ops = [op for op in ops if not op.failed]
        # Re-derive each distinct trial once; replayed rounds reuse the result.
        jobs = sorted({self._args(op.detail[0].n, op.detail[0].p, op.detail[0].seed) for op in ops
                       if op.detail[1] is None})
        if jobs:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                rederived = dict(zip(jobs, pool.map(rederive_certificate, *zip(*jobs), chunksize=4)))
            for op in ops:
                if op.detail[1] is None:
                    rec = op.detail[0]
                    op.detail = (rec, rederived[self._args(rec.n, rec.p, rec.seed)])
        for op in ops:
            rec, (found, independent_ok) = op.detail
            op.failed = op.failed or not (
                record_ok(rec) and found == bool(rec.certificate_found) and (independent_ok or not found)
            )


def traced_certify_trial(n, p, seed, classes, budget, relax):
    """harness._run_trial's certify path through public calls. Before the
    real `certify` call it probes the stages certify runs on its first class:
    useful-class selection, the pseudo-partition and the dominating search."""
    tr = Tracer()
    start = time.perf_counter()
    with tr.span("op"):
        with tr.span("params.predicted_bounds"):
            preds = {b.label: b.value for b in predicted_bounds(n, p)}
        with tr.span("graph.sample_gnp"):
            g = sample_gnp(n, p, seed)
        tr.count("graph.pairs", n * (n - 1) // 2)
        coloring = round_robin(n, classes)
        with tr.span("params.build_schedule"):
            sch = build_schedule(n, p)
        with tr.span("lowerbound.select_useful_class"):
            selection = select_useful_class(g, coloring, sch, relax)
        class_bits = coloring.class_bits()
        if selection is not None:
            first = selection.class_color
        else:
            first = min(class_bits, key=lambda c: (-class_bits[c].bit_count(), c))
        members = [v for v in range(1, n + 1) if coloring.colors[v - 1] == first]
        with tr.span("lowerbound.pseudo_partition"):
            try:
                # certify seeds its first pseudo_partition call with this draw
                witness = pseudo_partition(g, members, sch, seed=random.Random(seed).randrange(2**63), relax=relax)
                tr.count("lowerbound.pseudo_partition.attempts", witness.attempts)
            except (PartitionError, ValueError) as exc:
                tr.count("lowerbound.pseudo_partition.attempts", sum(getattr(exc, "failures", {}).values()))
                tr.count("lowerbound.pseudo_partition.errors")
        with tr.span("cliques.dominating"):
            hit = find_clique_dominating_outside(g, members, k_max=max(sch.k, 6), restarts=1000, seed=seed)
        tr.count("cliques.dominating.hits", int(hit is not None and len(hit) >= 2))
        with tr.span("lowerbound.certify"):
            report = certify(g, coloring, sch, seed=seed, budget=budget, relax=relax)
        found = report.found and report.validated
        tr.count("lowerbound.certify.candidates_tested", report.candidates_tested)
        tr.count("lowerbound.certify.found", int(found))
        tr.count("lowerbound.certify.sampled", int(found and report.method == "sampled"))
        valid = False
        if not found:
            with tr.span("coloring.validity"):
                valid = is_valid_clique_coloring(g, coloring)
    rec = ExperimentRecord(
        n=n, p=p, seed=seed, procedure="certify", palette=classes, valid=valid, repairs=None,
        leftover=None, s=sch.s, z=None, delta=sch.delta, certificate_found=found, error="",
        predictions=preds, wall_time=time.perf_counter() - start,
    )
    checked = (found, found and certificate_ok(g, coloring.colors, report.clique))
    op = Op(rec.wall_time, palette=classes, certified=found, detail=(rec, checked))
    return op, tr.spans, tr.counters


# -- Exact solver -------------------------------------------------------------------


class ExactSmall(Workload):
    """Exact clique chromatic number of small G(n, p). Each round samples its
    graphs before solving them, outside the timed ops and the round's elapsed
    time: sampling is about 5% of a round and belongs to another layer."""

    name = "exact_small"
    NS = (30, 35, 40)
    # p = 0.3 is backtracking-bound and p = 0.7 enumeration-bound. p = 0.5 is
    # left out: at n = 40 its solve times spread from 9 ms (median) to over
    # 200 ms (p99), so the tail latency of a run, set by its ten slowest
    # solves, moved by 25-30% between seeds.
    PS = (0.3, 0.7)
    TINY_NS = (10, 14)
    # Node budget per solve. At n = 40, p = 0.3 single solves under the
    # library default (2e7 nodes) take from milliseconds to tens of seconds;
    # a bounded search keeps every op, and the run, bounded. A solve that
    # spends it raises BudgetExceeded, the CLI's exit-2 outcome: it counts as
    # unanswered (answered_frac, coloring.exact.budget_exceeded), not failed.
    BUDGET = 20_000
    prefix_rounds = 120  # 720 solves for answered_frac and the other quality metrics

    def graphs(self, r: int) -> tuple[list, float]:
        """Round r's graphs and the seconds spent sampling them."""
        start = time.perf_counter()
        ns = self.TINY_NS if self.tiny else self.NS
        graphs = [sample_gnp(n, p, derive(self.name, self.seed, r, n, p)) for n in ns for p in self.PS]
        return graphs, time.perf_counter() - start

    def round(self, r):
        graphs, built = self.graphs(r)
        return Round([attempt(exact_op, g, self.BUDGET, NULL)[0] for g in graphs], input_s=built)

    def traced_round(self, r, tracer):
        graphs, built = self.graphs(r)
        rnd = _merge(tracer, [attempt(exact_op, g, self.BUDGET, Tracer()) for g in graphs])
        rnd.input_s = built
        return rnd

    def check(self, rounds, traced):
        nx = _networkx()
        for rnd in rounds:
            for op in rnd.ops:
                if op.failed:
                    continue
                g, value, witness = op.detail
                cliques = clique_list(g, nx)
                if cliques is None:
                    op.failed = True
                elif op.answered:
                    op.certified = witness_ok(g.n, cliques, value, witness)
                    op.failed = op.failed or not op.certified


def clique_list(g, nx):
    """The maximal cliques of size >= 2 of g: networkx.find_cliques when
    networkx imports, else the program's enumeration. None when the two
    disagree in number."""
    ours = [k for k in enumerate_maximal_cliques(g) if len(k) >= 2]
    if nx is None:
        return ours
    graph = nx.Graph()
    graph.add_nodes_from(range(1, g.n + 1))
    graph.add_edges_from(g.edges())
    theirs = [k for k in nx.find_cliques(graph) if len(k) >= 2]
    return theirs if len(theirs) == len(ours) else None


def _networkx():
    try:
        import networkx
    except ImportError:
        return None
    return networkx


def witness_ok(n: int, cliques, value: int, witness: Coloring) -> bool:
    """The witness colours all n vertices with `value` colours and leaves no
    maximal clique (size >= 2) of the given list monochromatic."""
    if witness.n != n or len(set(witness.colors)) != value:
        return False
    return all(len({witness.colors[v - 1] for v in k}) > 1 for k in cliques)


def exact_op(g, budget: int, tr):
    start = time.perf_counter()
    with tr.span("op"):
        try:
            with tr.span("coloring.exact"):
                value, witness = exact_clique_chromatic_number(g, budget=budget)
            answered = True
        except BudgetExceeded:
            value, witness, answered = None, None, False
            tr.count("coloring.exact.budget_exceeded")
        if tr.enabled:
            with tr.span("cliques.enumerate"):
                tr.count("cliques.enumerate.cliques", sum(1 for _ in enumerate_maximal_cliques(g)))
    op = Op(time.perf_counter() - start, answered=answered, palette=value, detail=(g, value, witness))
    return op, getattr(tr, "spans", []), getattr(tr, "counters", {})


# -- Series calculus ----------------------------------------------------------------


class ParamsSeries(Workload):
    """The computation behind `cliquechrom params` over an (n, rho) grid."""

    name = "params_series"
    NS = (1e6, 1e9, 1e12, 1e100)
    RHOS = (0.1, 0.3, 0.45)
    TINY_NS = (1e4, 1e100)
    EPSILON = 0.005  # the `params` command's default
    JITTER = 0.05  # each round scales every n by a seeded factor in [1, 1 + JITTER)

    def points(self, r: int) -> list[tuple[float, float]]:
        out = []
        for n0 in self.TINY_NS if self.tiny else self.NS:
            for rho in self.RHOS:
                u = derive(self.name, self.seed, r, n0, rho) / 2.0**63
                n = n0 * (1.0 + self.JITTER * u)
                out.append((n, n**-rho))
        return out

    def round(self, r):
        return Round([attempt(params_point, n, p, self.EPSILON, NULL)[0] for n, p in self.points(r)])

    def traced_round(self, r, tracer):
        results = [attempt(params_point, n, p, self.EPSILON, Tracer()) for n, p in self.points(r)]
        return _merge(tracer, results)

    def check(self, rounds, traced):
        for rnd in rounds:
            for op in rnd.ops:
                if op.answered and not op.failed:
                    sch, lam, ineq, janson = op.detail
                    op.certified = series_ok(sch, lam, lambda_report(sch, reverse=True), ineq, janson)
                    op.failed = op.failed or not op.certified


SERIES_TOLERANCE = 1e-9  # acceptance 08: forward and reverse summation agree


def series_ok(sch, forward, reverse, ineq, janson) -> bool:
    """Reverse-order summation agrees with the forward sum, and every value is
    finite. The one exception is the documented sentinel: with ell0 <= 0
    the density-series values are -inf/+inf and its flag is False."""
    for a, b in ((forward.pi_alpha, reverse.pi_alpha), (forward.pi_invlog, reverse.pi_invlog)):
        if a != b and abs(a - b) > SERIES_TOLERANCE * max(abs(a), abs(b)):
            return False
    values = [forward.lambda0, forward.pi_alpha, forward.pi_invlog, forward.lam, forward.nu, janson.general]
    values += [] if janson.improved is None else [janson.improved]
    for key, value in ineq.values.items():
        degenerate = key.startswith("density_series") and sch.ell0 <= 0.0 and not ineq.flags["density_series"]
        if not (degenerate and math.isinf(value)):
            values.append(value)
    return all(math.isfinite(v) for v in values)


def params_point(n: float, p: float, epsilon: float, tr):
    """cli.cmd_params without the JSON: schedule, Janson exponent at ell0,
    predictions, Lambda report and inequality check. A refused series (too
    many terms to sum directly) is the command's documented partial answer."""
    start = time.perf_counter()
    with tr.span("op"):
        with tr.span("params.build_schedule"):
            sch = build_schedule(n, p, epsilon=epsilon)
        a = max(math.ceil(max(sch.ell0, 0.0) / 4), 1)
        b = max(math.ceil(max(sch.ell0, 0.0) / (4 * sch.m)), 1)
        with tr.span("params.janson_exponent"):
            janson = janson_exponent(sch, a, b)
        with tr.span("params.predicted_bounds"):
            preds = {b.label: b.value for b in predicted_bounds(n, p)}
        try:
            with tr.span("params.lambda_report"):
                lam = lambda_report(sch)
        except ValueError:
            lam = None
            tr.count("params.series_refusals")
        try:
            with tr.span("params.inequality_check"):
                ineq = inequality_check(sch, lam)
        except ValueError:
            ineq = None
            tr.count("params.series_refusals")
    op = Op(
        time.perf_counter() - start,
        answered=lam is not None and ineq is not None,
        palette=preds["upper_refined"] if lam is not None else None,
        detail=(sch, lam, ineq, janson),
    )
    return op, getattr(tr, "spans", []), getattr(tr, "counters", {})


WORKLOADS: dict[str, Callable[[int, float, bool], Workload]] = {
    w.name: w for w in (UpperSweep, CertifySweep, ParamsSeries, ExactSmall)
}
