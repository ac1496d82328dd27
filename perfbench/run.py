"""Benchmark for cliquechrom: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With --trace 0 the workload runs untraced in
a closed loop for about S seconds and the run prints every end-to-end metric
of BENCHMARK.json; with --trace 1 it alternates untraced rounds with traced
rounds on the same inputs, which record spans around each call into the
program, for about S seconds in all, and prints every per-layer metric.
Every op's output is checked after the timed region. The last stdout line is {"correct", "attempted", "failed", "metrics"}; the line
before it is a fuller report, also written with the spans to perfbench/out/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

from spans import Tracer, self_times, summarize  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("upper_sweep", "certify_sweep", "params_series", "exact_small")
SETUP_PROBES = 3  # extra set-ups, each in a fresh interpreter, for the setup_s median
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with at least this many ops above it

# Per-layer metrics named "<span>.s" are seconds per traced op in that span;
# the others, unless computed specially below, are counters per traced op.
SPAN_NAMES = {
    "graph.sample_gnp", "upper.procedure", "upper.greedy_phase", "upper.repair",
    "coloring.validity", "coloring.exact", "cliques.enumerate", "cliques.dominating",
    "lowerbound.select_useful_class", "lowerbound.pseudo_partition", "lowerbound.certify",
    "params.build_schedule", "params.lambda_report", "params.inequality_check",
    "params.predicted_bounds",
}
# Spans that time extra calls the untraced op does not make; the tracing
# overhead is measured on the op's time without them.
PROBE_SPANS = {
    "upper.greedy_phase", "coloring.validity", "cliques.enumerate",
    "lowerbound.select_useful_class", "lowerbound.pseudo_partition", "cliques.dominating",
}
COUNTER_NAMES = {
    "upper.repair.recolors", "upper.mono_pre_repair", "coloring.validity.cliques",
    "coloring.exact.budget_exceeded", "cliques.enumerate.cliques", "cliques.dominating.hits",
    "lowerbound.pseudo_partition.attempts", "lowerbound.pseudo_partition.errors",
    "lowerbound.certify.candidates_tested", "params.series_refusals",
}


def timed_loop(run_rounds: list, seconds: float, min_rounds: int) -> list[list]:
    """Run round 0, 1, ... of each function in `run_rounds` in turn until the
    next turn would likely end after `seconds`; one list of rounds per function."""
    out: list[list] = [[] for _ in run_rounds]
    elapsed, done = 0.0, 0
    while True:
        for rounds, run_round in zip(out, run_rounds):
            start = time.perf_counter()
            rnd = run_round(done)
            rnd.elapsed = time.perf_counter() - start - rnd.input_s
            rounds.append(rnd)
            elapsed += rnd.elapsed
        done += 1
        if done >= min_rounds and elapsed * (done + 1) / done > seconds:
            return out


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops above it) of the highest percentile with at
    least TAIL_BEYOND ops above it. With fewer than 10 * TAIL_BEYOND ops that
    percentile would lie below p90, and would move between op clusters as
    the op count changes from run to run, so the maximum is reported."""
    xs = sorted(latencies)
    if len(xs) < 10 * TAIL_BEYOND:
        return xs[-1], 100.0, 0
    k = len(xs) - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / len(xs), TAIL_BEYOND


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child, such as one sweep worker (Linux reports both in KiB). With two
    workers this leaves out the other worker's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def probe_setup(workload: str, seed: int, seconds: float, tiny: bool, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(seconds), str(int(tiny))],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def end_to_end(work, rounds: list, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    ops = [op for rnd in rounds for op in rnd.ops]
    done = sum(not op.failed for op in ops)
    tail, pct, beyond = tail_latency([op.latency for op in ops])
    prefix = [op for rnd in rounds[: work.prefix_rounds] for op in rnd.ops]
    palettes = [op.palette for op in prefix if op.palette is not None and not op.failed]
    values = {
        "ops_per_s": done / sum(rnd.elapsed for rnd in rounds),
        "op_p50_s": statistics.median(op.latency for op in ops),
        "op_tail_s": tail,
        "answered_frac": sum(op.answered and not op.failed for op in prefix) / len(prefix),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "palette_mean": statistics.fmean(palettes) if palettes else 0.0,
        "certified_frac": sum(op.certified and not op.failed for op in prefix) / len(prefix),
    }
    info = {"op_tail_percentile": pct, "op_tail_ops_above": beyond, "quality_ops": len(prefix)}
    return values, info


def core_times(spans: list) -> list[float]:
    """Per traced op: its "op" span's duration minus its probe spans."""
    core: dict[int, float] = {}
    for s in spans:
        if s.name == "op":
            core[s.op] = core.get(s.op, 0.0) + s.end - s.start
        elif s.name in PROBE_SPANS:
            core[s.op] = core.get(s.op, 0.0) - (s.end - s.start)
    return [core[op] for op in sorted(core)]


def tracing_overhead(untraced: list, tracer) -> float:
    """Time of the traced ops, without their probes, over the untraced time
    of the same ops (round r of each half has the same inputs), minus 1."""
    plain = [op.latency for rnd in untraced for op in rnd.ops]
    core = core_times(tracer.spans)
    pairs = min(len(plain), len(core))
    return sum(core[:pairs]) / sum(plain[:pairs]) - 1.0


def per_layer(work, untraced: list, tracer, spec: dict) -> dict:
    summary = summarize(tracer.spans)
    ops = max(tracer.ops, 1)
    counters = tracer.counters
    seconds = {name: row["total_s"] for name, row in summary.items()}
    sample_s = seconds.get("graph.sample_gnp", 0.0)
    found = counters.get("lowerbound.certify.found", 0)
    sweep = [r for r in untraced if r.sweep_elapsed > 0.0]
    busy = sum(op.latency for r in sweep for op in r.ops)
    special = {
        "graph.sample_gnp.pairs_per_s": counters.get("graph.pairs", 0) / sample_s if sample_s else 0.0,
        "lowerbound.certify.sampled_share": counters.get("lowerbound.certify.sampled", 0) / found if found else 0.0,
        "harness.trial_busy_s": busy,
        "harness.parallel_efficiency": (
            busy / (sum(r.sweep_elapsed for r in sweep) * work.workers) if sweep else 0.0
        ),
        "harness.write_records.s": sum(r.write_s for r in sweep),
        "trace.overhead_frac": tracing_overhead(untraced, tracer),
        "trace.op_self_s": summary.get("op", {}).get("self_s", 0.0) / ops,
    }
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in special:
            values[name] = special[name]
        elif name.endswith(".s") and name[:-2] in SPAN_NAMES:
            values[name] = seconds.get(name[:-2], 0.0) / ops
        elif name in COUNTER_NAMES:
            values[name] = counters.get(name, 0) / ops
        else:
            raise KeyError(f"BENCHMARK.json names an unknown per-layer metric {name!r}")
    return values


def environment() -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = ""
    try:
        import networkx

        nx_version = networkx.__version__
    except ImportError:
        nx_version = None
    return {
        "cpu": cpu or platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": nx_version,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """The checkout's commit read from .git, without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    tiny: bool = False,
    setup_start: Optional[float] = None,
    probes: int = SETUP_PROBES,
    spans_path: Optional[Path] = None,
) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full report). A traced run
    writes its spans to `spans_path` when given."""
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    start = time.perf_counter() if setup_start is None else setup_start
    work = WORKLOADS[workload](seed, seconds, tiny)
    setup = [time.perf_counter() - start]
    report: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        (rounds,) = timed_loop([work.round], seconds, work.prefix_rounds)
        rss = peak_rss_mb()
        work.check(rounds, traced=False)
        setup += probe_setup(workload, seed, seconds, tiny, probes)
        values, info = end_to_end(work, rounds, statistics.median(setup), rss)
        report.update(info, setup_samples_s=setup)
        metrics = spec["end_to_end"]
        checked = rounds
    else:
        tracer = Tracer()
        # Untraced and traced passes alternate, so drift in machine speed
        # falls on both alike.
        untraced, traced = timed_loop([work.round, lambda r: work.traced_round(r, tracer)], seconds, 1)
        work.check(untraced, traced=False)
        work.check(traced, traced=True)
        values = per_layer(work, untraced, tracer, spec)
        metrics = spec["per_layer"]
        checked = untraced + traced
        if spans_path is not None:
            write_spans(spans_path, tracer)
    ops = [op for rnd in checked for op in rnd.ops]
    failed = sum(op.failed for op in ops)
    report.update(
        environment=environment(),
        rounds=len(checked),
        ops=len(ops),
        failed=failed,
        unanswered=sum(not op.answered for op in ops),
        elapsed_s=sum(rnd.elapsed for rnd in checked),
        round_s=[rnd.elapsed for rnd in checked],
        failures=[str(op.detail)[:300] for op in ops if op.failed][:3],
        metrics=values,
    )
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    return result, report


def write_spans(path: Path, tracer) -> None:
    doc = {
        "fields": ["name", "start", "end", "parent", "op", "self_s"],
        "spans": [list(s) + [own] for s, own in zip(tracer.spans, self_times(tracer.spans))],
        "by_name": summarize(tracer.spans),
        "counters": dict(tracer.counters),
        "ops": tracer.ops,
    }
    path.write_text(json.dumps(doc))


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not SPEC.is_file():
        print(f"error: {SPEC.name} not found next to {HERE.name}/", file=sys.stderr)
        return 2
    try:
        import workloads  # noqa: F401  (imports the program from src/)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    result, report = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        setup_start=START, spans_path=OUT / f"spans-{stem}.json" if args.trace else None,
    )
    (OUT / f"report-{stem}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
