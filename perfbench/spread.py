"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads upper_sweep exact_small \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0] [--out perfbench/out/spread.json]

Runs `perfbench/run.py` once per (workload, seed) from the repository root
with BENCHMARK.json's run_seconds and prints, per workload and metric, the
median, the quartiles and the spread: the distance between the quartiles as
a share of the median, as `statistics.quantiles(values, n=4)` gives them.
End-to-end spreads are compared with their bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else None,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary JSON here")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs, walls = [], []
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
            ]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            walls.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            report = json.loads(lines[-2])
            summary.setdefault("environment", report["environment"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f} s, correct={runs[-1]['correct']}, "
                  f"ops={report['ops']}, rounds={report['rounds']}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["metrics"]:
            row = summarize([run["metrics"][name]["value"] for run in runs])
            row["bound"] = bounds.get(name)
            metrics[name] = row
            flag = ""
            if row["bound"] is not None and row["spread"] is not None:
                flag = "ok" if row["spread"] <= row["bound"] / 3 else ("WITHIN BOUND" if row["spread"] <= row["bound"] else "OVER BOUND")
            spread = "n/a" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {workload:14s} {name:38s} median {row['median']:<14.6g} spread {spread:8s} {flag}")
        summary["workloads"][workload] = {
            "all_correct": all(run["correct"] for run in runs),
            "seeds": args.seeds,
            "wall_s": walls,
            "metrics": metrics,
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
