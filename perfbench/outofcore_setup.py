"""Helper process of the ``outofcore`` workload.

    python3 perfbench/outofcore_setup.py store DIR
        Generate the Flights data, scramble it and write it as a block
        store under DIR; print the generation time as JSON.

    python3 perfbench/outofcore_setup.py reference PATH SEED OPS
        Resolve the first OPS dashboard ops of SEED on the resident
        scramble and write their answers (as bit patterns) and the
        oracle's exact answers to PATH as JSON.

Run it from the root of a checkout; it imports the engine from ``src``.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def write_store(directory: str) -> None:
    from repro import write_block_store
    from repro.datasets import generate_flights

    start = time.perf_counter()
    table = generate_flights(rows=workloads.ROWS, seed=workloads.DATA_SEED)
    scramble = workloads.make_scramble(table)
    generated = time.perf_counter() - start
    write_block_store(directory, scramble, block_rows=workloads.STORE_BLOCK_ROWS)
    print(json.dumps({"generate_s": generated}))


def write_reference(path: str, seed: int, count: int) -> None:
    from repro.datasets import generate_flights

    table = generate_flights(rows=workloads.ROWS, seed=workloads.DATA_SEED)
    scramble = workloads.make_scramble(table)
    records = []
    for index in range(count):
        run = workloads.dashboard_op(lambda: scramble, seed, index, scramble.num_blocks)
        records.append([workloads.result_record(result) for result in run().results])
    columns = workloads.raw_columns(table)
    exact = [
        {json.dumps(list(key)): value for key, value in spec.exact(columns).items()}
        for spec in workloads.DASHBOARD
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"records": records, "exact": exact}, handle)
    print(json.dumps({"ops": count}))


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "store":
        write_store(argv[1])
    elif len(argv) == 4 and argv[0] == "reference":
        write_reference(argv[1], int(argv[2]), int(argv[3]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
