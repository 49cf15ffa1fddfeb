"""Small pyarrow and numpy helpers shared by the pipelines.

Most reducers sort on a key, find where each key's rows start and end,
then take the first or last row per key, a rank or a segment reduce.
``sort_runs`` is that one boundary scan:

- first row per key under a tiebreak: ``order[starts]``
- last row per key: ``order[ends - 1]``
- per-run reduce: ``ufunc.reduceat(x[order], starts)``
- per-run loop: ``zip(starts, ends)``

``run_offsets`` is its Arrow, null-aware form over a sorted table."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def agg(t: pa.Table, keys: list[str], aggs: dict) -> pa.Table:
    """``t.group_by(keys).aggregate`` with the outputs named by
    ``{out: (column, function)}`` and read by pyarrow's own name
    (``<column>_<function>``; ``count_all`` for ``([], "count_all")``),
    never by position: pyarrow versions differ on the keys-vs-aggregates
    column order. Output columns: the keys, then ``aggs`` in order."""
    g = t.group_by(keys).aggregate(list(aggs.values()))
    return pa.table({**{k: g.column(k) for k in keys},
                     **{out: g.column(f"{c}_{f}" if c else f)
                        for out, (c, f) in aggs.items()}})


def run_offsets(t: pa.Table, keys: list[str]):
    """(starts, ends) row offsets of each run of equal ``keys`` in a
    table already sorted on them: a vectorized adjacent-inequality scan,
    not a per-row Python loop. Nulls equal each other, so a null key is
    one run."""
    n = t.num_rows
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.zeros(n - 1, bool)
    for k in keys:
        c = t.column(k).combine_chunks()
        if pa.types.is_null(c.type):  # all null: one run
            continue
        a, b = c.slice(1), c.slice(0, n - 1)
        neq = pc.not_equal(a, b)
        if c.null_count:
            neq = pc.fill_null(neq, pc.not_equal(a.is_null(), b.is_null()))
        change |= neq.to_numpy(zero_copy_only=False)
    bounds = np.flatnonzero(change) + 1
    starts = np.concatenate([[0], bounds]).astype(np.int64)
    ends = np.concatenate([bounds, [n]]).astype(np.int64)
    return starts, ends


def runs(*cols) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) offsets of the runs of numpy ``cols`` that are
    already sorted: a new run starts wherever any column changes."""
    n = len(cols[0])
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.zeros(n - 1, bool)
    for c in cols:
        change |= c[1:] != c[:-1]
    bounds = np.flatnonzero(change) + 1
    return np.r_[0, bounds], np.r_[bounds, n]


def sort_runs(sort_keys, by: int = 1):
    """``np.lexsort(sort_keys)``, then the runs of its ``by`` most
    significant keys (numpy's convention: the last key is primary) in
    that order. Returns (order, starts, ends)."""
    order = np.lexsort(sort_keys)
    starts, ends = runs(*(k[order] for k in sort_keys[len(sort_keys) - by:]))
    return order, starts, ends


def run_rank(sort_keys) -> tuple[np.ndarray, np.ndarray]:
    """``np.lexsort(sort_keys)``, and each sorted row's 0-based rank in
    its run of equal ``sort_keys[-1]`` (the primary key): the per-run
    top-k is ``order[rank < k]``."""
    order, starts, ends = sort_runs(sort_keys)
    rank = np.arange(len(order), dtype=np.int64) - np.repeat(starts,
                                                             ends - starts)
    return order, rank


def round_half_away(x) -> np.ndarray:
    """``x`` rounded to int64 as DuckDB's ``round()`` rounds: half away
    from zero (``np.rint`` rounds half to even)."""
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)
