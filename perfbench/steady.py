"""Repeat the benchmark, summarise its spread, compare two result sets.

    python3 perfbench/steady.py run --runs 10 --out A.json [--workloads a,b]
        Run each workload RUNS times, seeds 1..RUNS, for BENCHMARK.json's
        run_seconds and untraced, one run at a time, and save every result
        line to A.json.

    python3 perfbench/steady.py summary A.json
        Per (workload, metric): median, quartiles, interquartile spread as
        a share of the median, max/min ratio and the metric's bound from
        BENCHMARK.json.  A spread above the bound is UNRESOLVED.

    python3 perfbench/steady.py compare A.json B.json
        One row per workload: each end-to-end metric's median in A and B,
        the change in the metric's worse direction, and the verdict against
        its bound (ok, REGRESSED, or UNRESOLVED when either side spreads
        more than the bound and B does not beat A on every run), plus the
        failed-op share of both sets.

Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return {"spec": spec, "metrics": metrics}


def run(args) -> int:
    spec = load_benchmark()["spec"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results: dict = {}
    for workload in workloads:
        for seed in range(1, args.runs + 1):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exit {done.returncode}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"seconds": seconds, "results": results}, handle, indent=1)
    return 0


def stats(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    low, high = min(values), max(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "ratio": high / low if low > 0 else float("nan"),
    }


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["results"]


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def summary(args) -> int:
    bench = load_benchmark()["metrics"]
    results = load(args.results)
    print(f"{'workload':10s} {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'max/min':>7s} {'bound':>6s}")
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: {len(runs)} runs, all correct={all(r['correct'] for r in runs)}, "
              f"failed share per run={shares}")
        for name in runs[0]["metrics"]:
            s = stats([r["metrics"][name]["value"] for r in runs])
            bound = bench.get(name, {}).get("bound")
            flag = ""
            if bound is not None and s["spread"] > bound:
                flag = "UNRESOLVED"
            print(f"{workload:10s} {name:26s} {s['median']:12.4f} {s['q1']:12.4f} {s['q3']:12.4f} "
                  f"{s['spread']:7.3f} {s['ratio']:7.3f} "
                  f"{'' if bound is None else bound:>6} {flag}")
    return 0


def compare(args) -> int:
    bench = load_benchmark()["metrics"]
    base, new = load(args.base), load(args.new)
    status = 0
    for workload in base:
        if workload not in new:
            print(f"{workload}: missing from {args.new}")
            status = 1
            continue
        cells = []
        for name, metric in bench.items():
            if "bound" not in metric or name not in base[workload][0]["metrics"]:
                continue
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            sa, sb = stats(a), stats(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
            always_better = all(sign * (y - x) < 0 for x in a for y in b)
            if max(sa["spread"], sb["spread"]) > metric["bound"] and not always_better:
                verdict = "UNRESOLVED"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                status = 1
            else:
                verdict = "ok"
            cells.append(f"{name} {sa['median']:.4g}->{sb['median']:.4g} "
                         f"({100 * worse:+.1f}% worse, bound {100 * metric['bound']:.0f}%) {verdict}")
        fa, fb = failed_share(base[workload]), failed_share(new[workload])
        if fb > fa:
            status = 1
        print(f"{workload}: failed share {fa:.4f}->{fb:.4f}; " + "; ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("run")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default="")
    p = commands.add_parser("summary")
    p.add_argument("results")
    p = commands.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    return {"run": run, "summary": summary, "compare": compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
