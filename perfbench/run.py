"""End-to-end benchmark of the approximate query engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the engine is imported from ``src``.
One process, one client in a closed loop, parallelism 1.  The run sets
the workload up several times (``setup_s`` is the median), runs one
untimed warm-up round, then runs whole rounds of ops until the ops' own
time reaches ``--seconds`` and enough ops lie beyond the tail
percentile.  Every answer is checked against the numpy oracle.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (block stores, span dumps).
WORKDIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
#: Timed rounds at least, so every op position is timed three times.
MIN_ROUNDS = 3


def import_engine():
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no engine sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def install_spans(tracer) -> None:
    """Wrap each layer's entry point at the binding its callers use."""
    import repro.api.connection as connection
    import repro.fastframe.executor as executor
    from repro.bounders.base import ErrorBounder
    from repro.fastframe.bitmap import BlockBitmapIndex
    from repro.fastframe.scan import SamplingStrategy
    from repro.fastframe.scramble import Scramble
    from repro.fastframe.storage import MmapBlockStore
    from repro.fastframe.viewpool import ViewPool
    from repro.fastframe.window import WindowFrame
    from repro.stopping.conditions import StoppingCondition

    tracer.wrap(connection, "parse_statements", "sql")
    tracer.wrap_family(SamplingStrategy, "select_blocks", "scan")
    tracer.wrap(BlockBitmapIndex, "probe_batch_any", "scan")
    tracer.wrap(BlockBitmapIndex, "probe_batch", "scan")
    for method in ("__init__", "values", "combined_codes", "predicate_mask"):
        tracer.wrap(WindowFrame, method, "window")
    tracer.wrap(MmapBlockStore, "block", "storage")
    tracer.wrap(executor, "partition_ingest", "kernels")
    # Views with fewer than 32 groups run on the executor's per-view
    # engine, so its merge, bound and stopping stages are wrapped too.
    tracer.wrap(ViewPool, "apply_ingest", "viewpool")
    tracer.wrap(executor.ApproximateExecutor, "_ingest_scalar_delta", "viewpool")
    for method in ("_recompute_bounds", "_recompute_bounds_pool"):
        tracer.wrap(executor.ApproximateExecutor, method, "bounders")
    for method in ("confidence_interval", "confidence_interval_batch"):
        tracer.wrap_family(ErrorBounder, method, "bounders")
    for method in ("satisfied", "active_groups", "satisfied_columns", "active_mask"):
        tracer.wrap_family(StoppingCondition, method, "stopping")
    tracer.wrap(Scramble, "insert_rows", "scramble")
    tracer.wrap(BlockBitmapIndex, "__init__", "metadata")
    # A group domain served from the scramble's metadata cache is no
    # rebuild; only a miss is recorded.
    tracer.wrap(
        executor.ApproximateExecutor, "_group_domain", "metadata",
        when=lambda ex, group_by: ("domain", group_by) not in ex.scramble.metadata_cache,
    )


class Runner:
    """Runs rounds of ops, timing each op and checking its answer."""

    def __init__(self, workload, ops, tracer=None) -> None:
        self.workload = workload
        self.ops = ops
        self.tracer = tracer
        self.errors: list[str] = []
        self.failures: dict[str, str] = {}
        self.records: list[dict] = []

    def round(self, traced: bool = False, timed: bool = True) -> None:
        self.workload.begin_round()
        for op in self.ops:
            gc.collect()
            op_id = len(self.records)
            call = op.run
            if traced:
                call = lambda op=op, op_id=op_id: self.tracer.op(op_id, op.run)  # noqa: E731
            start = time.perf_counter()
            try:
                output = call()
            except Exception as error:  # an op that fails is counted, not fatal
                elapsed = time.perf_counter() - start
                self.failures.setdefault(op.label, f"{type(error).__name__}: {error}")
                if not op.fails:
                    traceback.print_exc(file=sys.stderr)
                record = {"ok": False, "seconds": elapsed}
            else:
                elapsed = time.perf_counter() - start
                record = {"ok": True, "seconds": elapsed, "counters": op.counters(output)}
                errors = op.check(output)
                if errors:
                    self.errors.extend(f"{op.label}: {e}" for e in errors)
            record.update(traced=traced, op_id=op_id)
            if timed:
                self.records.append(record)


def tail_ok(records, percentile: int) -> bool:
    ok = sum(1 for r in records if r["ok"])
    return ok * (100 - percentile) / 100 >= 10


def end_to_end(records, percentile: int, setup_s: float) -> dict:
    """The end-to-end metrics of the timed rounds, from every op's own time."""
    ok = [r for r in records if r["ok"]]
    latencies = [1000.0 * r["seconds"] for r in ok]
    return {
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (float(np.percentile(latencies, percentile)), "ms"),
        "ops_per_s": (len(ok) / sum(r["seconds"] for r in records), "1/s"),
        "blocks_per_op": (
            statistics.fmean(r["counters"]["blocks_fetched"] for r in ok), "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(records, tracer, phases: dict) -> dict:
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    ok = [r for r in traced if r["ok"]]
    self_s, spans = tracer.self_times(r["op_id"] for r in traced)

    def ms(name):
        return (1000.0 * self_s.get(name, 0.0) / len(traced), "ms")

    def mean(counter):
        return (statistics.fmean(r["counters"][counter] for r in ok), "count")

    def per_op(name):
        return (spans.get(name, 0) / len(traced), "count")

    storage = {c: statistics.fmean(r["counters"][c] for r in ok)
               for c in ("blocks_read", "cache_hits")}
    lookups = storage["blocks_read"] + storage["cache_hits"]
    overhead = 1000.0 * (
        statistics.fmean(r["seconds"] for r in traced)
        - statistics.fmean(r["seconds"] for r in plain)
    )
    return {
        "sql.compile_ms": ms("sql"),
        "scan.select_ms": ms("scan"),
        "scan.blocks_skipped": mean("blocks_skipped"),
        "scan.batch_probes": mean("batch_probes"),
        "window.gather_ms": ms("window"),
        "window.values_gathered": mean("values_gathered"),
        "storage.read_ms": ms("storage"),
        "storage.blocks_read": mean("blocks_read"),
        "storage.bytes_read": (mean("bytes_read")[0], "bytes"),
        "storage.cache_hits": mean("cache_hits"),
        "storage.cache_evictions": mean("cache_evictions"),
        "storage.prefetch_hits": mean("prefetch_hits"),
        "storage.hit_ratio": (storage["cache_hits"] / lookups if lookups else 0.0, "ratio"),
        "kernels.partition_ms": ms("kernels"),
        "kernels.calls": per_op("kernels"),
        "viewpool.merge_ms": ms("viewpool"),
        "bounders.bound_ms": ms("bounders"),
        "bounders.bounds_recomputed": mean("bounds_recomputed"),
        "stopping.check_ms": ms("stopping"),
        "stopping.rounds": mean("rounds"),
        "api.self_ms": ms("op"),
        "scramble.insert_ms": ms("scramble"),
        "metadata.rebuild_ms": ms("metadata"),
        "metadata.rebuilds": per_op("metadata"),
        "setup.generate_s": (phases["generate_s"], "s"),
        "setup.spill_s": (phases["spill_s"], "s"),
        "setup.warm_s": (phases["warm_s"], "s"),
        "trace.overhead_ms": (overhead, "ms"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_engine()
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}")
    os.makedirs(WORKDIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    percentile = workloads.TAIL_PERCENTILE[args.workload]

    setup_times, phases = [], []
    try:
        for repeat in range(SETUP_REPEATS):
            if repeat:
                workload.teardown()
                gc.collect()
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            phases.append(workload.phases)
        ops = workload.ops()
        tracer = Tracer() if args.trace else None
        runner = Runner(workload, ops, tracer)
        runner.round(timed=False)  # warm-up
        gc.collect()
        gc.freeze()
        gc.disable()
        if tracer is not None:
            install_spans(tracer)
        busy, rounds = 0.0, 0
        # A traced run alternates untraced and traced rounds; the
        # difference between them is the tracing overhead.
        while (
            rounds < (2 if tracer is not None else MIN_ROUNDS)
            or busy < args.seconds
            or (tracer is None and not tail_ok(runner.records, percentile))
        ):
            runner.round(traced=tracer is not None and rounds % 2 == 1)
            busy = sum(r["seconds"] for r in runner.records)
            rounds += 1
        gc.enable()
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(os.path.join(WORKDIR, f"spans-{args.workload}-{args.seed}.jsonl"))
    finally:
        workload.teardown()

    for label, failure in sorted(runner.failures.items()):
        print(f"failed op {label}: {failure}", file=sys.stderr)
    for error in runner.errors[:20]:
        print(f"wrong answer: {error}", file=sys.stderr)
    setup_s = statistics.median(setup_times)
    median_phases = {key: statistics.median(p[key] for p in phases) for key in phases[0]}
    if tracer is None:
        metrics = end_to_end(runner.records, percentile, setup_s)
    else:
        metrics = per_layer(runner.records, tracer, median_phases)
    records = runner.records
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
