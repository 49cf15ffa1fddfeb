"""Small pyarrow helpers shared by the pipelines."""

from __future__ import annotations

import pyarrow as pa


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
