"""Exact reference answers for the benchmark, computed with numpy alone.

This module imports nothing from ``repro``: it works from the benchmark's
own copy of the generated columns (plus every appended batch), so a fault
in the engine's exact path cannot hide a fault in its approximate path.

Columns are plain arrays of raw values (strings or integers for
categorical columns, floats for continuous ones).  A predicate is a
tuple of ``(column, op, value)`` conjuncts with ``op`` one of
``= != < <= > >=``.  Answers map a group key (a tuple of Python scalars,
``()`` for a scalar query) to the exact aggregate over the rows that
satisfy the predicate.  A group with no matching row has no answer,
except that a scalar COUNT over an empty selection is 0.

Quantiles follow the engine's documented rank convention:
``Q(p) = x_(ceil(p * n))``, the ``ceil(p * n)``-th smallest value
(1-indexed, clamped to ``[1, n]``); MEDIAN is ``Q(0.5)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["AGGREGATES", "evaluate", "quantile_rank", "select"]

AGGREGATES = ("AVG", "SUM", "COUNT", "MEDIAN", "PERCENTILE")

_OPS = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def quantile_rank(p: float, n: int) -> int:
    """1-indexed rank of the ``p``-quantile among ``n`` sorted values."""
    return min(max(int(math.ceil(p * n)), 1), n)


def select(columns: dict, where=()) -> np.ndarray:
    """Boolean row mask of the conjunction ``where``."""
    length = len(next(iter(columns.values())))
    mask = np.ones(length, dtype=bool)
    for column, op, value in where:
        mask &= _OPS[op](columns[column], value)
    return mask


def evaluate(
    columns: dict,
    aggregate: str,
    column: str | None = None,
    where=(),
    group_by=(),
    p: float | None = None,
) -> dict:
    """Exact per-group answers of one single-aggregate query."""
    if aggregate not in AGGREGATES:
        raise ValueError(f"unknown aggregate {aggregate!r}")
    if aggregate == "MEDIAN":
        p = 0.5
    if aggregate in ("MEDIAN", "PERCENTILE") and not (p is not None and 0.0 < p < 1.0):
        raise ValueError(f"quantile level must be in (0, 1), got {p!r}")
    mask = select(columns, where)
    rows = np.flatnonzero(mask)
    if not group_by:
        if rows.size == 0:
            return {(): 0} if aggregate == "COUNT" else {}
        group_of = np.zeros(rows.size, dtype=np.int64)
        keys = [()]
    else:
        # Mixed-radix group codes over per-column dictionaries.
        combined = np.zeros(rows.size, dtype=np.int64)
        dictionaries = []
        for name in group_by:
            values, codes = np.unique(np.asarray(columns[name])[rows], return_inverse=True)
            dictionaries.append(values.tolist())
            combined = combined * max(len(values), 1) + codes.reshape(-1)
        present, group_of = np.unique(combined, return_inverse=True)
        group_of = group_of.reshape(-1)
        keys = []
        for code in present.tolist():
            key = []
            for values in reversed(dictionaries):
                code, digit = divmod(code, len(values))
                key.append(values[digit])
            keys.append(tuple(reversed(key)))
    counts = np.bincount(group_of, minlength=len(keys))
    if aggregate == "COUNT":
        answers = counts.astype(np.float64)
    else:
        values = np.asarray(columns[column], dtype=np.float64)[rows]
        if aggregate in ("AVG", "SUM"):
            sums = np.bincount(group_of, weights=values, minlength=len(keys))
            answers = sums if aggregate == "SUM" else sums / counts
        else:
            order = np.lexsort((values, group_of))
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            ranks = np.array(
                [quantile_rank(p, int(n)) for n in counts], dtype=np.int64
            )
            answers = values[order][starts + ranks - 1]
    return {key: float(answer) for key, answer in zip(keys, answers)}
