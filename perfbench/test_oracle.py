"""The benchmark oracle against plain Python loops on small tables.

Run:  python3 -m pytest perfbench/test_oracle.py -q
"""

from __future__ import annotations

import math
import operator
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402

_PY_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _loop_answers(columns, aggregate, column, where, group_by, p):
    """The same query, one row at a time in plain Python."""
    n = len(next(iter(columns.values())))
    groups: dict = {}
    for i in range(n):
        if not all(_PY_OPS[op](columns[c][i].item(), v) for c, op, v in where):
            continue
        key = tuple(columns[g][i].item() for g in group_by)
        value = None if column is None else float(columns[column][i])
        groups.setdefault(key, []).append(value)
    if not group_by and not groups and aggregate == "COUNT":
        return {(): 0.0}
    answers = {}
    for key, values in groups.items():
        if aggregate == "COUNT":
            answers[key] = float(len(values))
        elif aggregate == "SUM":
            answers[key] = math.fsum(values)
        elif aggregate == "AVG":
            answers[key] = math.fsum(values) / len(values)
        else:
            level = 0.5 if aggregate == "MEDIAN" else p
            rank = math.ceil(level * len(values))
            answers[key] = sorted(values)[min(max(rank, 1), len(values)) - 1]
    return answers


def _table(seed: int, rows: int = 240):
    rng = np.random.default_rng(seed)
    return {
        "city": rng.choice(np.array(["ABQ", "BOS", "ORD", "SFO"]), rows),
        "day": rng.integers(1, 8, rows),
        "delay": np.round(rng.normal(8.0, 12.0, rows), 1),
        "time": rng.integers(500, 2400, rows).astype(np.float64),
    }


QUERIES = [
    ("AVG", "delay", (), ()),
    ("SUM", "delay", (("city", "=", "ORD"),), ()),
    ("COUNT", None, (("time", ">", 1350.0),), ("city",)),
    ("AVG", "delay", (("time", ">=", 1800.0), ("day", "!=", 3)), ("city", "day")),
    ("MEDIAN", "delay", (), ("day",)),
    ("PERCENTILE", "delay", (("city", "!=", "BOS"),), ("city",)),
    ("PERCENTILE", "time", (("delay", "<", 0.0),), ()),
    ("AVG", "delay", (("city", "=", "ZZZ"),), ()),
    ("COUNT", None, (("city", "=", "ZZZ"),), ()),
    ("MEDIAN", "delay", (("city", "=", "ZZZ"),), ("day",)),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("aggregate,column,where,group_by", QUERIES)
def test_oracle_matches_python_loops(seed, aggregate, column, where, group_by):
    columns = _table(seed)
    p = 0.9 if aggregate == "PERCENTILE" else None
    got = oracle.evaluate(columns, aggregate, column, where, group_by, p=p)
    want = _loop_answers(columns, aggregate, column, where, group_by, p)
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-9), key


def test_quantile_rank_convention():
    # Q(p) = x_(ceil(p n)): the 3rd of 5 for the median, the 1st for tiny p.
    assert oracle.quantile_rank(0.5, 5) == 3
    assert oracle.quantile_rank(0.5, 4) == 2
    assert oracle.quantile_rank(0.01, 5) == 1
    assert oracle.quantile_rank(0.99, 5) == 5
    columns = {"v": np.array([5.0, 1.0, 4.0, 2.0, 3.0])}
    assert oracle.evaluate(columns, "MEDIAN", "v") == {(): 3.0}
    assert oracle.evaluate(columns, "PERCENTILE", "v", p=0.2) == {(): 1.0}
    assert oracle.evaluate(columns, "PERCENTILE", "v", p=0.21) == {(): 2.0}


def test_rejects_unknown_aggregate_and_bad_level():
    columns = {"v": np.arange(3.0)}
    with pytest.raises(ValueError):
        oracle.evaluate(columns, "MAX", "v")
    with pytest.raises(ValueError):
        oracle.evaluate(columns, "PERCENTILE", "v", p=1.0)


def test_imports_nothing_from_the_engine():
    source = open(oracle.__file__, encoding="utf-8").read()
    assert "import repro" not in source and "from repro" not in source
