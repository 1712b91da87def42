"""The benchmark's four workloads over the synthetic Flights data.

Every workload is a *round*: a fixed list of ops.  Op ``i`` of a round
derives its δ, scan start block and connection seed from the workload
seed and ``i`` alone, so a run's work depends on neither its length nor
its timing, and every round of a run repeats the same ops (block and
storage counters therefore repeat exactly for a given seed).  The data
set is fixed (``DATA_SEED``); the workload seed varies the ops.

The engine is driven only through its public surface: ``repro.connect``,
``conn.sql``, the fluent builder, ``conn.gather``, ``handle.result``,
``Scramble.insert_rows``, ``write_block_store`` / ``open_block_scramble``
and ``generate_flights``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import oracle

ROWS = 300_000
DATA_SEED = 7
#: Seed of the held-out table the ``append`` batches come from.
HELD_OUT_SEED = 1_000_003
APPEND_BATCH_ROWS = 2_000
#: Rows per block file of the out-of-core store (the repo example's size).
STORE_BLOCK_ROWS = 4_096
#: The block cache holds this share of the store's bytes.
CACHE_SHARE = 1 / 8
CONTINUOUS = ("DepDelay", "DepTime")
CATEGORICAL = ("Origin", "Airline", "DayOfWeek")
#: Percentile reported as ``latency_tail_ms``; a run keeps going until at
#: least ten successful ops lie beyond it.
TAIL_PERCENTILE = {"dashboard": 90, "adhoc": 90, "outofcore": 80, "append": 80}
#: Absent from the Origin dictionary: the zero-selectivity end of the
#: Fig. 6 airport sweep.
ABSENT_AIRPORT = "ZZZ"
#: Popularity ranks (1 = busiest) of the Fig. 6 airport sweep.
AIRPORT_RANKS = (1, 3, 10, 30, 100)
#: Fig. 7 HAVING thresholds (F-q2) and Fig. 8 minimum departure times (F-q3).
HAVING_THRESHOLDS = (0.0, 7.0, 14.0)
MIN_DEP_TIMES = (1350.0, 1800.0, 2250.0)


# ----------------------------------------------------------------------
# Query specs: one description feeds the engine (SQL or builder), the
# oracle and the answer checks.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """One single-aggregate query and how its answer is consumed.

    ``stop`` is ``("above", t)``, ``("below", t)``, ``("top", k)``,
    ``("bottom", k)``, ``("ordered",)``, ``("rel", eps)`` or
    ``("abs", eps)``.
    """

    name: str
    aggregate: str
    column: str | None
    stop: tuple
    where: tuple = ()
    group_by: tuple = ()
    p: float | None = None

    def exact(self, columns: dict) -> dict:
        return oracle.evaluate(
            columns, self.aggregate, self.column, self.where, self.group_by, self.p
        )

    def sql(self) -> str:
        call = {
            "COUNT": "COUNT(*)",
            "PERCENTILE": f"PERCENTILE({self.column}, {self.p})",
        }.get(self.aggregate, f"{self.aggregate}({self.column})")
        kind = self.stop[0]
        if self.group_by:
            select = ", ".join(self.group_by)
            if kind not in ("above", "below", "top", "bottom", "ordered"):
                select += f", {call}"
        elif kind in ("above", "below"):
            op = ">" if kind == "above" else "<"
            select = f"(CASE WHEN {call} {op} {self.stop[1]} THEN 1 ELSE 0 END)"
        else:
            select = call
        text = f"SELECT {select} FROM flights"
        if self.where:
            text += " WHERE " + " AND ".join(
                f"{column} {op} {_literal(value)}" for column, op, value in self.where
            )
        if self.group_by:
            text += " GROUP BY " + ", ".join(self.group_by)
            if kind in ("above", "below"):
                text += f" HAVING {call} {'>' if kind == 'above' else '<'} {self.stop[1]}"
        if kind in ("top", "bottom"):
            text += f" ORDER BY {call} {'DESC' if kind == 'top' else 'ASC'} LIMIT {self.stop[1]}"
        elif kind == "ordered":
            text += f" ORDER BY {call}"
        return text

    def fallback_stopping(self):
        """The stopping condition SQL cannot express (accuracy targets)."""
        from repro.stopping import AbsoluteAccuracy, RelativeAccuracy

        kind = self.stop[0]
        if kind == "rel":
            return RelativeAccuracy(self.stop[1])
        if kind == "abs":
            return AbsoluteAccuracy(self.stop[1])
        return None

    def handle(self, conn):
        """This spec as a fluent-builder handle on ``conn``."""
        builder = conn.table().named(self.name)
        for column, op, value in self.where:
            builder = builder.where(column, value) if op == "=" else builder.where(column, op, value)
        if self.group_by:
            builder = builder.group_by(*self.group_by)
        kind = self.stop[0]
        stop = {"ordered": True} if kind == "ordered" else {kind: self.stop[1]}
        if self.aggregate == "COUNT":
            return builder.count(**stop)
        if self.aggregate == "PERCENTILE":
            return builder.percentile(self.column, self.p, **stop)
        return getattr(builder, self.aggregate.lower())(self.column, **stop)


def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


#: The ROADMAP's 6-query Flights dashboard: HAVING x2, a filtered scalar
#: AVG, a top-1, a grouped AVG and a grouped MEDIAN.
DASHBOARD = (
    Spec("having-airline", "AVG", "DepDelay", ("above", 5.0), group_by=("Airline",)),
    Spec("having-origin", "AVG", "DepDelay", ("below", 0.0), group_by=("Origin",)),
    Spec("ord-avg", "AVG", "DepDelay", ("rel", 0.2), where=(("Origin", "=", "ORD"),)),
    Spec("dow-top1", "AVG", "DepDelay", ("top", 1), group_by=("DayOfWeek",)),
    Spec("airline-avg", "AVG", "DepDelay", ("abs", 4.0), group_by=("Airline",)),
    Spec("dow-median", "MEDIAN", "DepDelay", ("abs", 3.0), group_by=("DayOfWeek",)),
)


def fq1(airport) -> Spec:
    return Spec(f"F-q1[{airport}]", "AVG", "DepDelay", ("rel", 0.2),
                where=(("Origin", "=", airport),))


def paper_statements(airports) -> list[Spec]:
    """F-q1..F-q9 over the Fig. 6-8 sweeps, plus a MEDIAN and a PERCENTILE."""
    specs = [fq1(airport) for airport in airports]
    specs += [
        Spec(f"F-q2[{t:g}]", "AVG", "DepDelay", ("above", t), group_by=("Airline",))
        for t in HAVING_THRESHOLDS
    ]
    specs += [
        Spec(f"F-q3[{t:g}]", "AVG", "DepDelay", ("bottom", 2),
             where=(("DepTime", ">", t),), group_by=("Airline",))
        for t in MIN_DEP_TIMES
    ]
    specs += [
        Spec("F-q4", "AVG", "DepDelay", ("above", 10.0), where=(("Origin", "=", "ORD"),)),
        Spec("F-q5", "AVG", "DepDelay", ("below", 0.0), group_by=("Origin",)),
        Spec("F-q6", "AVG", "DepDelay", ("top", 5), where=(("DepTime", ">", 1350.0),),
             group_by=("DayOfWeek", "Origin")),
        Spec("F-q7", "AVG", "DepDelay", ("ordered",), where=(("Airline", "=", "HP"),),
             group_by=("DayOfWeek",)),
        Spec("F-q8", "AVG", "DepDelay", ("top", 1), group_by=("Origin",)),
        Spec("F-q9", "AVG", "DepDelay", ("top", 1), group_by=("Airline",)),
        Spec("median-top1", "MEDIAN", "DepDelay", ("top", 1), group_by=("Airline",)),
        Spec("p90-having", "PERCENTILE", "DepDelay", ("above", 25.0),
             group_by=("DayOfWeek",), p=0.9),
    ]
    return specs


# ----------------------------------------------------------------------
# Answer checks against the oracle
# ----------------------------------------------------------------------


def check_result(spec: Spec, result, exact: dict) -> list[str]:
    """Every way ``result`` may disagree with the exact answers."""
    errors = []
    missing = set(exact) - set(result.groups)
    if missing:
        errors.append(f"{spec.name}: groups missing from the answer: {sorted(missing)[:3]}")
    kind = spec.stop[0]
    for key, group in result.groups.items():
        lo, hi = group.interval.lo, group.interval.hi
        if key not in exact:
            # No row of this group satisfies the predicate.
            if spec.aggregate == "COUNT" and lo > 0:
                errors.append(f"{spec.name}{key}: empty group certified COUNT >= {lo}")
            continue
        value = exact[key]
        slack = 1e-9 * max(1.0, abs(value))
        if not lo - slack <= value <= hi + slack:
            errors.append(f"{spec.name}{key}: exact {value!r} outside [{lo!r}, {hi!r}]")
        if kind in ("above", "below"):
            threshold = spec.stop[1]
            if (lo > threshold and not value > threshold) or (
                hi < threshold and not value < threshold
            ):
                errors.append(f"{spec.name}{key}: HAVING side disagrees with exact {value!r}")
    stopped = result.metrics.stopped_early
    if kind in ("top", "bottom") and stopped:
        k, largest = spec.stop[1], kind == "top"
        want = set(sorted(exact, key=exact.get, reverse=largest)[:k])
        got = set(result.top_k(k, largest=largest))
        if got != want:
            errors.append(f"{spec.name}: top-{k} {sorted(got)} != exact {sorted(want)}")
    if kind == "ordered" and stopped:
        want = sorted(exact, key=exact.get, reverse=True)
        if [key for key in result.ordering() if key in exact] != want:
            errors.append(f"{spec.name}: group order disagrees with exact")
    return errors


def check_empty(spec: Spec, result) -> list[str]:
    """The answer to a predicate no row satisfies: no group, or COUNT 0."""
    errors = []
    for key, group in result.groups.items():
        empty = group.samples == 0 and (
            spec.aggregate != "COUNT" or group.interval.lo <= 0
        )
        if not empty:
            errors.append(f"{spec.name}{key}: answer for a predicate matching no row")
    return errors


def result_record(result) -> dict:
    """A result's groups as exact bit patterns (byte-identity checks)."""
    return {
        json.dumps(list(key)): [
            float(group.estimate).hex(),
            float(group.interval.lo).hex(),
            float(group.interval.hi).hex(),
            int(group.samples),
            bool(group.exhausted),
        ]
        for key, group in result.groups.items()
    }


# ----------------------------------------------------------------------
# Ops
# ----------------------------------------------------------------------


def op_params(seed: int, workload_id: int, index: int, num_blocks: int) -> dict:
    """δ, start block and connection seed of op ``index``."""
    rng = np.random.default_rng([seed, workload_id, index])
    return {
        "delta": float(10.0 ** -rng.uniform(5.0, 7.0)),
        "start_block": int(rng.integers(num_blocks)),
        "conn_seed": int(rng.integers(2**62)),
    }


@dataclass
class Op:
    """One benchmark op: ``run()`` is timed, the rest is not."""

    label: str
    run: object
    check: object
    counters: object
    fails: bool = False


_COUNTERS = (
    "blocks_fetched", "blocks_skipped", "batch_probes", "values_gathered",
    "bounds_recomputed", "blocks_read", "bytes_read", "cache_hits",
    "cache_evictions", "prefetch_hits",
)


def _result_counters(result) -> dict:
    """An op's ``ExecutionMetrics`` counters; ``rounds`` are OptStop rounds."""
    counters = {name: getattr(result.metrics, name) for name in _COUNTERS}
    counters["rounds"] = result.metrics.rounds
    return counters


def _gather_counters(batch) -> dict:
    """A gather's union counters, with its queries' blocks and OptStop rounds.

    ``blocks_fetched`` is summed over the queries (each query charges the
    blocks it asked for), not the union the shared scan fetched: the
    HAVING-by-Origin query reads the whole scramble, so the union would
    not move when another query stops sooner.
    """
    counters = {name: getattr(batch.metrics, name) for name in _COUNTERS}
    for name in ("blocks_fetched", "rounds"):
        counters[name] = sum(getattr(result.metrics, name) for result in batch.results)
    return counters


def dashboard_op(scramble_of, seed: int, index: int, num_blocks: int):
    """``run()`` for op ``index`` of the dashboard (resident or out-of-core)."""
    import repro

    params = op_params(seed, 1, index, num_blocks)

    def run():
        conn = repro.connect(
            scramble_of(), delta=params["delta"],
            rng=np.random.default_rng(params["conn_seed"]),
        )
        return conn.gather(
            [spec.handle(conn) for spec in DASHBOARD],
            start_block=params["start_block"],
        )

    return run


def statement_op(scramble_of, spec: Spec, params: dict, strategy: str, before=None):
    """``run()`` compiling and resolving one SQL statement solo."""
    import repro

    text, fallback = spec.sql(), spec.fallback_stopping()

    def run():
        if before is not None:
            before()
        conn = repro.connect(
            scramble_of(), delta=params["delta"], strategy=strategy,
            rng=np.random.default_rng(params["conn_seed"]),
        )
        handle = conn.sql(text, stopping=fallback, name=spec.name)
        return handle.result(start_block=params["start_block"])

    return run


# ----------------------------------------------------------------------
# Data
# ----------------------------------------------------------------------


def raw_columns(table, rows=slice(None)) -> dict:
    """The benchmark's own copy of a table's columns as raw values."""
    columns = {name: np.array(table.continuous(name)[rows]) for name in CONTINUOUS}
    for name in CATEGORICAL:
        column = table.categorical(name)
        columns[name] = np.asarray(column.dictionary)[np.asarray(column.codes)[rows]]
    return columns


def make_scramble(table):
    """The scramble ``make_flights_scramble(ROWS, DATA_SEED)`` builds."""
    from repro.fastframe import Scramble

    return Scramble(table, rng=np.random.default_rng(DATA_SEED + 1))


def warm_metadata(scramble, specs) -> None:
    """Build the bitmap indexes and group domains the specs will use.

    One shared scan of cheap (one-sample) queries, one per distinct
    GROUP BY set and predicate column, so the first timed op finds the
    load-time metadata a deployed system would have.
    """
    import repro
    from repro.stopping import SamplesTaken

    shapes = {}
    for spec in specs:
        where = tuple(w for w in spec.where if w[2] != ABSENT_AIRPORT)
        shapes[(where, spec.group_by)] = None
    conn = repro.connect(scramble, delta=1e-3, strategy="activepeek",
                         max_queries=len(shapes), rng=np.random.default_rng(0))
    handles = [
        conn.sql(Spec("warm", "AVG", "DepDelay", ("samples",), where, group_by).sql(),
                 stopping=SamplesTaken(1))
        for where, group_by in shapes
    ]
    conn.gather(handles, start_block=0)


def airport_sweep(columns) -> list:
    """Airports at the sweep's popularity ranks, then the absent one."""
    names, counts = np.unique(columns["Origin"], return_counts=True)
    by_popularity = names[np.argsort(-counts, kind="stable")]
    return [str(by_popularity[rank - 1]) for rank in AIRPORT_RANKS] + [ABSENT_AIRPORT]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """Set-up, the round of ops, and the checks of one workload."""

    name = ""
    #: Timed set-up phases (seconds) of the latest set-up.
    phases: dict

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.phases = {}

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the state of the latest set-up."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Untimed preparation before each round."""


class Resident(Workload):
    """Common set-up: generate, scramble, warm metadata, all in memory."""

    specs: tuple = ()

    def setup(self) -> None:
        from repro.datasets import generate_flights

        start = time.perf_counter()
        self.table = generate_flights(rows=ROWS, seed=DATA_SEED)
        self.scramble = make_scramble(self.table)
        warm_start = time.perf_counter()
        warm_metadata(self.scramble, self.warm_specs())
        self.phases = {
            "generate_s": warm_start - start,
            "spill_s": 0.0,
            "warm_s": time.perf_counter() - warm_start,
        }

    def warm_specs(self):
        return self.specs

    def teardown(self) -> None:
        self.table = self.scramble = None


class Dashboard(Resident):
    name = "dashboard"
    specs = DASHBOARD
    ops_per_round = 20

    def ops(self) -> list[Op]:
        columns = raw_columns(self.table)
        exact = [spec.exact(columns) for spec in DASHBOARD]

        def check(batch):
            errors = []
            for spec, result, answers in zip(DASHBOARD, batch.results, exact):
                errors += check_result(spec, result, answers)
            return errors

        return [
            Op(f"dashboard#{i}",
               dashboard_op(lambda: self.scramble, self.seed, i, self.scramble.num_blocks),
               check, _gather_counters)
            for i in range(self.ops_per_round)
        ]


class Adhoc(Resident):
    name = "adhoc"
    strategy = "activepeek"

    def warm_specs(self):
        return paper_statements([])

    def ops(self) -> list[Op]:
        columns = raw_columns(self.table)
        # Every statement twice, from two start blocks: the median op then
        # depends less on where one op happens to start.
        specs = paper_statements(airport_sweep(columns)) * 2
        order = np.random.default_rng([self.seed, 2]).permutation(len(specs))
        ops = []
        for index, position in enumerate(order.tolist()):
            spec = specs[position]
            params = op_params(self.seed, 2, index, self.scramble.num_blocks)
            absent = any(value == ABSENT_AIRPORT for _, _, value in spec.where)
            if absent:
                check = lambda result, spec=spec: check_empty(spec, result)  # noqa: E731
            else:
                answers = spec.exact(columns)
                check = lambda result, spec=spec, answers=answers: check_result(  # noqa: E731
                    spec, result, answers
                )
            ops.append(Op(spec.name,
                          statement_op(lambda: self.scramble, spec, params, self.strategy),
                          check, _result_counters, fails=absent))
        return ops


class Append(Resident):
    """Insert a held-out batch, then certify one statement over it."""

    name = "append"
    strategy = "scan"

    def warm_specs(self):
        return self.statements()

    def statements(self) -> list[Spec]:
        specs = {spec.name: spec for spec in paper_statements(["ORD"])}
        names = ("F-q1[ORD]", "F-q5", "F-q9", "F-q2[0]", "F-q4", "median-top1",
                 "F-q7", "F-q3[2250]", "p90-having", "F-q8", "F-q2[14]")
        # Twice per round, as in adhoc, so the median op depends less on
        # one op's start block.
        return [specs[name] for name in names] * 2

    def setup(self) -> None:
        from repro.datasets import generate_flights

        super().setup()
        start = time.perf_counter()
        specs = self.statements()
        self.held_out = generate_flights(
            rows=len(specs) * APPEND_BATCH_ROWS, seed=HELD_OUT_SEED
        )
        self.phases["generate_s"] += time.perf_counter() - start

    def teardown(self) -> None:
        super().teardown()
        self.held_out = None

    def batch(self, index: int):
        rows = slice(index * APPEND_BATCH_ROWS, (index + 1) * APPEND_BATCH_ROWS)
        raw = raw_columns(self.held_out, rows)
        continuous = {name: raw[name] for name in CONTINUOUS}
        categorical = {name: raw[name].tolist() for name in CATEGORICAL}
        return continuous, categorical

    def begin_round(self) -> None:
        # Every round starts from the same scramble, so it repeats the
        # same inserts and queries.
        self.scramble = make_scramble(self.table)

    def ops(self) -> list[Op]:
        columns = raw_columns(self.table)
        ops = []
        for index, spec in enumerate(self.statements()):
            continuous, categorical = self.batch(index)
            columns = {
                name: np.concatenate([columns[name], np.asarray(
                    continuous[name] if name in continuous else categorical[name])])
                for name in columns
            }
            answers = spec.exact(columns)
            params = op_params(self.seed, 4, index, self.scramble.num_blocks)
            insert_seed = int(np.random.default_rng([self.seed, 4, index, 1]).integers(2**62))

            def insert(continuous=continuous, categorical=categorical, insert_seed=insert_seed):
                self.scramble.insert_rows(
                    continuous, categorical, rng=np.random.default_rng(insert_seed)
                )

            ops.append(Op(
                f"append+{spec.name}",
                statement_op(lambda: self.scramble, spec, params, self.strategy, before=insert),
                lambda result, spec=spec, answers=answers: check_result(spec, result, answers),
                _result_counters,
            ))
        return ops


class OutOfCore(Workload):
    """The dashboard over an mmap block store with a small block cache.

    The store is opened without the asynchronous prefetcher (see setup).

    A separate process generates the data and writes the store, so this
    process never holds the table.  Another one resolves the same ops on
    the resident scramble and computes the oracle's answers, which the
    out-of-core answers must match bit for bit.
    """

    name = "outofcore"
    ops_per_round = 20
    scramble = None

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.directory = os.path.join(workdir, f"store-{os.getpid()}")

    def _helper(self, *args) -> str:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "outofcore_setup.py")
        done = subprocess.run(
            [sys.executable, script, *map(str, args)],
            check=True, capture_output=True, text=True, timeout=170,
        )
        return done.stdout.strip().splitlines()[-1]

    def setup(self) -> None:
        from repro import open_block_scramble

        start = time.perf_counter()
        shutil.rmtree(self.directory, ignore_errors=True)
        timings = json.loads(self._helper("store", self.directory))
        open_start = time.perf_counter()
        store_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(self.directory) for name in names
        )
        self.cache_bytes = int(store_bytes * CACHE_SHARE)
        self.store_bytes = store_bytes
        # Prefetch off: on a 2-core host its page-warming thread made the
        # same op 10-35% slower and its latency vary by a fifth from run
        # to run (perfbench/README.md), which no bound could gate.
        self.scramble = open_block_scramble(
            self.directory, cache_bytes=self.cache_bytes, prefetch=False
        )
        warm_metadata(self.scramble, DASHBOARD)
        self.phases = {
            "generate_s": timings["generate_s"],
            "spill_s": open_start - start - timings["generate_s"],
            "warm_s": time.perf_counter() - open_start,
        }

    def teardown(self) -> None:
        if self.scramble is not None:
            self.scramble.storage.close()
            self.scramble = None
        shutil.rmtree(self.directory, ignore_errors=True)

    def ops(self) -> list[Op]:
        path = os.path.join(self.workdir, f"reference-{os.getpid()}.json")
        try:
            self._helper("reference", path, self.seed, self.ops_per_round)
            with open(path, encoding="utf-8") as handle:
                reference = json.load(handle)
        finally:
            if os.path.exists(path):
                os.remove(path)
        exact = [
            {tuple(json.loads(key)): value for key, value in answers.items()}
            for answers in reference["exact"]
        ]

        def checker(index):
            def check(batch):
                errors = []
                for spec, result, answers, resident in zip(
                    DASHBOARD, batch.results, exact, reference["records"][index]
                ):
                    errors += check_result(spec, result, answers)
                    if result_record(result) != resident:
                        errors.append(f"{spec.name}: out-of-core answer differs from resident")
                return errors

            return check

        return [
            Op(f"outofcore#{i}",
               dashboard_op(lambda: self.scramble, self.seed, i, self.scramble.num_blocks),
               checker(i), _gather_counters)
            for i in range(self.ops_per_round)
        ]


WORKLOADS = {cls.name: cls for cls in (Dashboard, Adhoc, OutOfCore, Append)}
