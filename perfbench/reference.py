"""Reference figures for perfbench/README.md, at the benchmark's scale.

    python3 perfbench/reference.py

Prints three markdown tables over the paper's statements (F-q1..F-q9 at
their default parameters, plus the MEDIAN and PERCENTILE statements):

1. ``ExactExecutor`` time per statement against approximate latency
   under Scan and ActivePeek (default bounder), each ratio with its base;
2. blocks fetched per (statement x bounder x strategy) from one fixed
   start block and δ -- the paper's Table 5/6 comparison;
3. Scan against ActivePeek latency and blocks on the GROUP BY statements.

Times are medians of ``REPS`` resolutions in one process.  Run from the
root of a checkout.
"""

from __future__ import annotations

import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

BOUNDERS = ("hoeffding", "hoeffding+rt", "bernstein", "bernstein+rt")
STRATEGIES = ("scan", "activesync", "activepeek")
DELTA = 1e-6
START_BLOCK = 0
REPS = 3


def resolve(scramble, spec, strategy, bounder="bernstein+rt"):
    import repro

    conn = repro.connect(scramble, delta=DELTA, strategy=strategy, bounder=bounder,
                         rng=np.random.default_rng(0))
    start = time.perf_counter()
    result = conn.sql(spec.sql(), stopping=spec.fallback_stopping()).result(start_block=START_BLOCK)
    return time.perf_counter() - start, result


def main() -> int:
    import repro
    from repro.datasets import generate_flights

    table = generate_flights(rows=workloads.ROWS, seed=workloads.DATA_SEED)
    scramble = workloads.make_scramble(table)
    specs = [s for s in workloads.paper_statements(["ORD"])
             if s.name not in ("F-q2[7]", "F-q2[14]", "F-q3[1350]", "F-q3[1800]")]
    workloads.warm_metadata(scramble, specs)
    exact = repro.ExactExecutor(scramble)

    def median_time(call):
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    print(f"{workloads.ROWS:,} rows, {scramble.num_blocks:,} blocks, δ={DELTA:g}, "
          f"start block {START_BLOCK}, median of {REPS}\n")
    print("| statement | exact ms | Scan ms | Scan / exact | ActivePeek ms | ActivePeek / exact |")
    print("|---|---:|---:|---:|---:|---:|")
    for spec in specs:
        query = repro.parse_query(spec.sql(), stopping=spec.fallback_stopping())
        t_exact = median_time(lambda: exact.execute(query))
        t_scan = median_time(lambda: resolve(scramble, spec, "scan"))
        t_peek = median_time(lambda: resolve(scramble, spec, "activepeek"))
        print(f"| {spec.name} | {1e3 * t_exact:.1f} | {1e3 * t_scan:.1f} | {t_scan / t_exact:.2f} "
              f"| {1e3 * t_peek:.1f} | {t_peek / t_exact:.2f} |")

    print("\nBlocks fetched (of", f"{scramble.num_blocks:,}):\n")
    header = [f"{b} / {s}" for b in BOUNDERS for s in STRATEGIES]
    print("| statement | " + " | ".join(header) + " |")
    print("|---|" + "---:|" * len(header))
    for spec in specs:
        cells = [resolve(scramble, spec, s, b)[1].metrics.blocks_fetched
                 for b in BOUNDERS for s in STRATEGIES]
        print(f"| {spec.name} | " + " | ".join(f"{c:,}" for c in cells) + " |")

    print("\nScan against ActivePeek on the GROUP BY statements (bernstein+rt):\n")
    print("| statement | Scan ms | ActivePeek ms | ActivePeek / Scan | Scan blocks | ActivePeek blocks |")
    print("|---|---:|---:|---:|---:|---:|")
    for spec in specs:
        if not spec.group_by:
            continue
        t_scan = median_time(lambda: resolve(scramble, spec, "scan"))
        t_peek = median_time(lambda: resolve(scramble, spec, "activepeek"))
        b_scan = resolve(scramble, spec, "scan")[1].metrics.blocks_fetched
        b_peek = resolve(scramble, spec, "activepeek")[1].metrics.blocks_fetched
        print(f"| {spec.name} | {1e3 * t_scan:.1f} | {1e3 * t_peek:.1f} | {t_peek / t_scan:.2f} "
              f"| {b_scan:,} | {b_peek:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
