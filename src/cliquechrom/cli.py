"""Command-line interface.

Subcommands: gen, chromatic, validate, color, certify, params, sweep,
compare. Exit codes: 0 success, 1 invalid input (including an invalid
coloring under `validate`), 2 budget exhaustion somewhere.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from typing import Optional

from .coloring import (
    BudgetExceeded,
    monochromatic_maximal_cliques,
    exact_clique_chromatic_number,
    read_coloring,
    write_coloring,
)
from .graph import Graph, read_edge_list, sample_gnp, write_edge_list
from .harness import (
    SweepConfig,
    compare_with_theory,
    read_records,
    render_compare_table,
    run_sweep,
    write_records,
    ExperimentRecord,
)
from .lowerbound import certify
from .params import (
    build_schedule,
    inequality_check,
    janson_exponent,
    lambda_report,
    predicted_bounds,
)
from .upper import run

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_BUDGET = 2


def _edge_probability(args) -> float:
    """The edge probability p: --p for a sampled graph, --assume-p with --graph."""
    p = args.p if args.p is not None else args.assume_p
    if p is None:
        raise SystemExit("--p (or --assume-p with --graph) is required")
    return p


def _load_graph(args) -> Graph:
    if args.graph:
        with open(args.graph) as fh:
            return read_edge_list(fh)
    if args.n is None or args.p is None:
        raise SystemExit("either --graph or both --n and --p are required")
    return sample_gnp(args.n, args.p, args.seed)


def _graph_source_args(sub, seed_default=0):
    sub.add_argument("--graph", help="edge-list file ('n m' header, 'u v' lines)")
    sub.add_argument("--n", type=int, help="vertex count for a sampled graph")
    sub.add_argument("--p", type=float, help="edge probability for a sampled graph")
    sub.add_argument("--seed", type=int, default=seed_default, help="sampling seed")


def _emit(doc: dict, path: Optional[str]) -> None:
    text = json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite(obj):
    """JSON has no NaN or infinity: such floats become "nan", "inf", "-inf"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(float(obj))
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return obj


def cmd_gen(args) -> int:
    g = sample_gnp(args.n, args.p, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            write_edge_list(g, fh)
    else:
        write_edge_list(g, sys.stdout)
    return EXIT_OK


def cmd_chromatic(args) -> int:
    g = _load_graph(args)
    try:
        value, witness = exact_clique_chromatic_number(g, budget=args.budget)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(value)
    if args.out:
        with open(args.out, "w") as fh:
            write_coloring(witness, fh)
    return EXIT_OK


def cmd_validate(args) -> int:
    g = _load_graph(args)
    with open(args.coloring) as fh:
        coloring = read_coloring(fh, n=g.n)
    offenders = monochromatic_maximal_cliques(g, coloring, limit=args.limit)
    doc = {
        "valid": not offenders,
        "monochromatic_maximal_cliques": [sorted(k) for k in offenders],
    }
    _emit(doc, args.report)
    return EXIT_OK if not offenders else EXIT_INVALID


def cmd_color(args) -> int:
    g = _load_graph(args)
    report, fixed = run(g, _edge_probability(args), args.variant, args.epsilon, args.repair_budget)
    doc = asdict(report)
    doc["repair"] = fixed.to_dict()
    doc["palette_final"] = fixed.coloring.palette_size
    doc["valid"] = not fixed.exhausted
    _emit(doc, args.report)
    if args.out:
        with open(args.out, "w") as fh:
            write_coloring(fixed.coloring, fh)
    return EXIT_BUDGET if fixed.exhausted else EXIT_OK


def cmd_certify(args) -> int:
    g = _load_graph(args)
    with open(args.coloring) as fh:
        coloring = read_coloring(fh, n=g.n)
    sch = build_schedule(g.n, _edge_probability(args), epsilon=args.epsilon)
    report = certify(g, coloring, sch, seed=args.seed, budget=args.budget, relax=args.relax)
    _emit(report.to_dict(), args.report)
    return EXIT_BUDGET if report.exhausted else EXIT_OK


def cmd_params(args) -> int:
    if args.p is None and args.rho is None:
        raise SystemExit("one of --p and --rho is required")
    p = args.p if args.p is not None else float(args.n) ** -args.rho
    sch = build_schedule(args.n, p, epsilon=args.epsilon)
    a = max(math.ceil(max(sch.ell0, 0.0) / 4), 1)
    b = max(math.ceil(max(sch.ell0, 0.0) / (4 * sch.m)), 1)
    doc = {
        "schedule": asdict(sch),
        "janson_exponent_at_ell0": asdict(janson_exponent(sch, a, b)),
        "predicted": [asdict(bound) for bound in predicted_bounds(args.n, p)],
    }
    # At extreme n the defining series outgrow direct summation; report the
    # sections that still make sense instead of dying wholesale. Both series
    # sections rest on the one walk, so a refused walk fails them both.
    try:
        lam = lambda_report(sch)
        ineq = inequality_check(sch, lam)
        doc["lambda"] = asdict(lam)
        doc["inequalities"] = {"flags": ineq.flags, "values": ineq.values}
    except ValueError as exc:
        doc["lambda"] = doc["inequalities"] = {"error": str(exc)}
    _emit(doc, args.report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        cfg = SweepConfig.from_json(fh)
    result = run_sweep(cfg, workers=args.workers)
    with open(args.out, "w") as fh:
        write_records(result.records, fh)
    if args.report:
        doc = {
            "version": 1,
            "elapsed": result.elapsed,
            "budget_exhausted": result.budget_exhausted,
            "trials": [asdict(rec) for rec in result.records],
        }
        _emit(doc, args.report)
    print(f"{len(result.records)} records -> {args.out}")
    return EXIT_BUDGET if result.budget_exhausted else EXIT_OK


def cmd_compare(args) -> int:
    with open(args.records) as fh:
        records = [ExperimentRecord.from_csv_row(row) for row in read_records(fh)]
    rows = compare_with_theory(records)
    table = render_compare_table(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquechrom",
        description="Clique-chromatic-number laboratory for random graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("gen", help="sample G(n, p) to an edge-list file")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out")
    sub.set_defaults(func=cmd_gen)

    sub = subs.add_parser("chromatic", help="exact clique chromatic number")
    _graph_source_args(sub)
    sub.add_argument("--budget", type=int, default=20_000_000, help="clique and search-node budget")
    sub.add_argument("--out", help="write the witness coloring here")
    sub.set_defaults(func=cmd_chromatic)

    sub = subs.add_parser("validate", help="exit 0 iff the coloring is valid")
    _graph_source_args(sub)
    sub.add_argument("--coloring", required=True, help="'vertex color' lines")
    sub.add_argument("--limit", type=int, default=10, help="offending cliques to list (>= 1)")
    sub.add_argument("--report", help="write the JSON report here")
    sub.set_defaults(func=cmd_validate)

    sub = subs.add_parser("color", help="run an upper-bound coloring procedure")
    _graph_source_args(sub)
    sub.add_argument("--variant", choices=("A", "B"), default="A")
    sub.add_argument("--epsilon", type=float, help="variant B: p = n^(-2/5+epsilon)")
    sub.add_argument("--repair-budget", type=int, default=1000)
    sub.add_argument("--assume-p", type=float, help="p to use with --graph input")
    sub.add_argument("--out", help="write the coloring here")
    sub.add_argument("--report", help="write the JSON report here")
    sub.set_defaults(func=cmd_color)

    sub = subs.add_parser("certify", help="hunt for a monochromatic maximal clique")
    _graph_source_args(sub)
    sub.add_argument("--coloring", required=True)
    sub.add_argument("--budget", type=int, default=10_000,
                     help="search nodes: C+ vertices placed plus Bron-Kerbosch calls and leaves")
    sub.add_argument("--relax", type=float, help="replace ell_1(W) by this fraction of |W|")
    sub.add_argument("--epsilon", type=float, default=0.005)
    sub.add_argument("--assume-p", type=float, help="p to use with --graph input")
    sub.add_argument("--report", help="write the JSON report here")
    sub.set_defaults(func=cmd_certify)

    sub = subs.add_parser("params", help="parameter schedule and bound calculus")
    sub.add_argument("--n", type=float, required=True)
    sub.add_argument("--p", type=float)
    sub.add_argument("--rho", type=float, help="use p = n^(-rho)")
    sub.add_argument("--epsilon", type=float, default=0.005)
    sub.add_argument("--report", help="write the JSON report here")
    sub.set_defaults(func=cmd_params)

    sub = subs.add_parser("sweep", help="run a config-driven Monte-Carlo sweep")
    sub.add_argument("--config", required=True, help="JSON sweep config")
    sub.add_argument("--out", required=True, help="records CSV path")
    sub.add_argument("--report", help="JSON report path (includes wall times)")
    sub.add_argument("--workers", type=int, help="override the config's worker count")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("compare", help="palette statistics vs predictions")
    sub.add_argument("--records", required=True, help="records CSV from `sweep`")
    sub.add_argument("--out", help="write the table here instead of stdout")
    sub.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
