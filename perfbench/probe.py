"""Time one benchmark set-up in a fresh interpreter and print the seconds:
imports, config parsing and input generation, as before a run's first op.

    python3 perfbench/probe.py WORKLOAD SEED SECONDS TINY(0|1)
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

name, seed, seconds, tiny = sys.argv[1:]
workloads.WORKLOADS[name](int(seed), float(seconds), tiny == "1")
print(time.perf_counter() - START)
