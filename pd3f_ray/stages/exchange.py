"""The library's one exchange, behind six entry points.

The exchange: P = ``input_partitions(ds)`` partitions, sized by the
input as the read is: one partition per 1 MiB (``target_min_block_size``)
of the sources' planned bytes, at most one per CPU, raised to one per
128 MiB Ray block, as Ray's sort made one partition per block. A source
with no size estimate gives one partition per CPU. Rows carry an int
bucket in ``[0, P)`` that the caller tagged in a map it already runs
(``stable_bucket(key, P)``, or ``h % P`` of a 64-bit hash it has); the
exchange range-partitions them on the explicit boundaries ``1 … P−1``
(no sampling pass), whatever the upstream block count, and a reducer
runs once per non-empty partition with every bucket's rows in exactly
that call. Each exchange task (sort map, sort reduce, reducer) costs a
fixed chunk of driver, raylet and worker CPU whatever it holds, so a
table under 2 MiB is one partition (a ``repartition(1)``, no sort),
and from CPUs MiB up P is one reduce wave, one partition per CPU: a
second wave only adds tasks.

A reduce task holds its partition: on average at most 128 MiB of the
sources' bytes times what the maps before the exchange multiply them
by (the band count for minhash's band explode, the table count for
embdup's tables).

The one broadcast rule, ``fits_broadcast(ds)``: a side whose bytes fit
one Ray block, the budget of one reduce task, may be copied into every
task or handled whole by one task instead of being exchanged. Every
broadcast-or-exchange and local-or-distributed choice asks it, over the
same planned bytes that size P.

The entry points:

- ``bucket_exchange(ds, key, fn)``: the plan already computed the
  bucket (a url crc, a digest prefix, a key hash, each modulo P), and
  ``fn`` groups on its own real key, so a call over several buckets
  returns the union of their outputs. Pages, ``joins.cogroup`` and the
  hash-bucketed pipeline reducers use it.
- ``group_map(ds, keys, fn)``: ``fn`` sees exactly one group. Rows are
  tagged with the ``stable_bucket`` of ``keys`` over P, and each
  reduce task sorts on ``keys`` and calls ``fn`` once per key run. For
  natural keys (a language, an event type, a source) and for reducers
  that read the group's key or treat their input as one group (range
  bands).
- ``fold(ds, partial, merge)``: the one-task finish. ``partial`` runs
  per block, fused into the upstream map, then ``repartition(1)`` and
  ONE ``merge`` task over the partials: a register sketch (HLL max,
  Bloom OR, Count-Min sum), a checksum, a k-means step.
- ``finish_agg(ds, keys, aggs)``: a Sum/Count/Min/Max over a small key
  domain (a language, an event type, a nation): a ``fold`` whose
  partial and merge are ``arrowkit.agg``.
- ``top_k(ds, sort_keys, k)``: the first k rows in ``sort_keys`` order,
  a ``fold`` that keeps k rows per block and k of their union.
- ``hash_agg(ds, keys, aggs)``: the same aggregate over a large domain
  (a token, a digest, a user): per-block partials tagged with a
  ``stable_bucket``, then one ``bucket_exchange`` whose reducer
  finishes each bucket's keys.

Every key hash is ``stable_bucket``, and every group-by treats a null
key as one key. The aggregates run ``arrowkit.agg`` per block first,
fused into the upstream map, and decompose every aggregate for the
final step (``_FINAL``)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from pd3f_ray.core.arrowkit import agg, run_offsets
from pd3f_ray.core.cluster import cluster_cpus, min_block_partitions
from pd3f_ray.functions.textfns import mix64

# how each per-block partial folds into the final value
_FINAL = {"sum": "sum", "count": "sum", "count_all": "sum",
          "min": "min", "max": "max"}


def _source_bytes(op):
    """Planned in-memory bytes of the sources under a logical operator:
    a read's own estimate (the footers, for the library's parquet read),
    or the metadata of in-memory blocks; None if any source has none."""
    if op.input_dependencies:
        sizes = [_source_bytes(d) for d in op.input_dependencies]
        return None if None in sizes else sum(sizes)
    source = getattr(op, "_datasource", None)
    return (source.estimate_inmemory_data_size() if source is not None
            else op.infer_metadata().size_bytes)


def input_partitions(*datasets) -> int:
    """The read's task count over the planned source bytes of
    ``datasets`` together, raised to one per Ray block (128 MiB); CPUs
    if any source has no size. A map keeps its input's sources, so a
    tagged dataset has the P of the one it was tagged from."""
    from ray.data import DataContext

    sizes = [_source_bytes(ds._logical_plan.dag) for ds in datasets]
    if None in sizes:
        return cluster_cpus()
    nbytes = sum(sizes)
    block = DataContext.get_current().target_max_block_size
    return max(min_block_partitions(nbytes), -(-nbytes // block))


def fits_broadcast(ds) -> bool:
    """Whether ``ds`` fits one Ray block (``target_max_block_size``), the
    memory budget of one task: only then may a plan copy it into every
    task (a broadcast) or hand it whole to one task (a local plan)
    instead of exchanging it. The bytes are the planned bytes of its
    sources, as ``input_partitions`` reads them, which for a
    materialized dataset are its blocks' own. No size: it does not fit."""
    from ray.data import DataContext

    nbytes = _source_bytes(ds._logical_plan.dag)
    return (nbytes is not None
            and nbytes <= DataContext.get_current().target_max_block_size)


def bucket_exchange(ds, key: str, fn):
    """Rows with an int ``key`` in ``[0, P)``, P = ``input_partitions(ds)``
    → ``fn(pa.Table)`` once per non-empty partition, bucket i in
    partition i: each bucket in exactly one call. A key outside
    ``[0, P)`` still lands in exactly one call (the first or the last)."""
    p = input_partitions(ds)
    # empty boundaries would make Ray's sort sample, 1 partition/block
    shuffled = ds.repartition(1) if p == 1 else ds.sort(
        key, boundaries=list(range(1, p)))
    return shuffled.map_batches(fn, batch_size=None, batch_format="pyarrow")


def hash64(col) -> np.ndarray:
    """A uint64 hash per value of one key column (numpy or Arrow), the
    same in every process: Python's ``hash()`` is salted per process.
    Strings hash via ``pd.util.hash_array`` (a fixed-key siphash), other
    values via a splitmix64 integer mix. Nulls all hash to 0."""
    nulls = None
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        if pa.types.is_null(col.type):
            return np.zeros(len(col), np.uint64)
        if col.null_count:
            nulls = col.is_null().to_numpy(zero_copy_only=False)
            if not (pa.types.is_string(col.type)
                    or pa.types.is_large_string(col.type)
                    or pa.types.is_binary(col.type)):
                # a typed fill keeps the column's numpy dtype, so a key
                # hashes alike in blocks with and without nulls
                col = col.fill_null(pa.scalar(0).cast(col.type))
        col = col.to_numpy(zero_copy_only=False)
    if col.dtype == object or col.dtype.kind in ("U", "S"):
        # categorize=False: the categorizing path factorizes first, and
        # its factorize treats strings equal up to a NUL, so a key's hash
        # would depend on the other keys in its array
        x = pd.util.hash_array(col, categorize=False)
    else:
        x = mix64(col)
    if nulls is not None:
        x[nulls] = 0
    return x


def stable_bucket(keys, p: int) -> np.ndarray:
    """Deterministic cross-process bucket in ``[0, p)`` per
    row of one key column, or of a list of them (a multi-column key
    combines the per-column hashes). Null keys share one bucket."""
    cols = keys if isinstance(keys, list) else [keys]
    h = hash64(cols[0])
    for c in cols[1:]:
        h = h * np.uint64(0x9E3779B97F4A7C15) + hash64(c)
    return (h % np.uint64(p)).astype(np.int32)


def _tag_buckets(keys: list[str], p: int):
    """A batch → the batch plus a ``__bucket`` column: the
    ``stable_bucket`` of ``keys`` over ``p``."""
    def tag(t):
        b = stable_bucket([t.column(k) for k in keys], p)
        return t.append_column("__bucket", pa.array(b, pa.int32()))

    return tag


def group_map(ds, keys, fn):
    """``fn(pa.Table)`` once per distinct value of ``keys`` (one column
    name or a list), each group whole and alone, in one
    ``bucket_exchange``: rows are tagged with the ``stable_bucket`` of
    their key, and each reduce task sorts its rows on ``keys`` and calls
    ``fn`` per key run, without the tag column. Null keys form one
    group, as in ``hash_agg``. The outputs of a task's calls are one
    block, so they must share a schema.

    A reduce task holds its partition (see above) plus one group's
    copy. A group must fit one call: the key bounds it (a language, a
    range band), not the corpus."""
    keys = keys if isinstance(keys, list) else [keys]
    order = [(k, "ascending") for k in keys]

    def per_key(t):
        t = t.drop_columns(["__bucket"])
        idx = pc.sort_indices(t, sort_keys=order)
        # one group's rows at a time, not a sorted copy of the partition
        starts, ends = run_offsets(t.select(keys).take(idx), keys)
        return pa.concat_tables([fn(t.take(idx.slice(s, e - s)))
                                 for s, e in zip(starts, ends)])

    return bucket_exchange(
        ds.map_batches(_tag_buckets(keys, input_partitions(ds)),
                       batch_size=None, batch_format="pyarrow"),
        "__bucket", per_key)


def _final_aggs(aggs: dict) -> dict:
    """The final step of ``aggs`` over its per-block partials, whose
    columns carry the output names. Refuses, at plan time, a function
    that does not decompose that way."""
    bad = {out: f for out, (_, f) in aggs.items() if f not in _FINAL}
    if bad:
        raise ValueError(f"not decomposable into per-block partials: {bad}; "
                         f"supported: {sorted(_FINAL)}")
    return {out: (out, _FINAL[f]) for out, (_, f) in aggs.items()}


def fold(ds, partial, merge):
    """``merge(pa.Table)`` once, over the rows ``partial(pa.Table)``
    makes of each block: the partials run fused into the upstream map
    (``batch_size=None``), then ``repartition(1)`` hands all of them to
    ONE task. No sample, no sort, no partition per block. The result is
    one block, so ``merge``'s output is in the order it makes. Ray hands
    ``partial`` no empty block, so an empty input gives no rows.

    The one task holds ≤ blocks × (one block's partial) rows, so a
    partial must be small whatever the corpus size: a fixed-size
    register row, k rows, one row per key of a small domain."""
    return (ds.map_batches(partial, batch_size=None, batch_format="pyarrow")
            .repartition(1)
            .map_batches(merge, batch_size=None, batch_format="pyarrow"))


def finish_agg(ds, keys: list[str], aggs: dict):
    """``arrowkit.agg(rows, keys, aggs)`` over a small key domain, as a
    ``fold``: per-block partials, then ONE task finishes them, instead
    of Ray's sampled sort aggregate (a sample, a map and a reduce task
    per partition).

    ``ds`` holds raw rows. ``aggs`` is ``{out: (column, function)}``
    with sum, count, count_all, min or max; anything else raises
    ``ValueError``; an empty ``aggs`` is a distinct over ``keys``. The
    one task holds ≤ blocks × (distinct keys) rows, so the key domain
    must be small whatever the corpus size (a language, an event type,
    a nation, a month); a large one (a token, a digest, a user) goes
    through ``hash_agg``. The result is one block, so a step that needs
    all of it (a share of the total) is one more ``map_batches(...,
    batch_size=None)``, fused into the same task."""
    final = _final_aggs(aggs)

    def partial(t):
        return agg(t, keys, aggs)

    def finish(t):
        return agg(t, keys, final)

    return fold(ds, partial, finish)


def top_k(ds, sort_keys: list, k: int):
    """The first ``k`` rows of ``ds`` in ``sort_keys`` order (pyarrow's
    ``[(column, "ascending" | "descending"), ...]``, nulls last) as one
    ordered block: a ``fold`` whose partial and merge both keep a
    table's first k rows, since the first k of a union are among the
    first k of its parts. Each block ships ≤ k rows and one task sorts
    ≤ blocks × k. Ties beyond ``sort_keys`` come out in no fixed order,
    so a deterministic top-k ends its keys on a unique column."""
    def best(t):
        return t.take(pc.sort_indices(t, sort_keys=sort_keys)[:k])

    return fold(ds, best, best)


def hash_agg(ds, keys: list[str], aggs: dict):
    """``arrowkit.agg(rows, keys, aggs)`` over a large key domain, in
    one ``bucket_exchange``: each block's partials (fused into the
    upstream map) are tagged with the ``stable_bucket`` of their key,
    and each partition's reducer finishes its bucket's keys, one bucket
    per partition, as in ``group_map``. ``aggs`` as in ``finish_agg``;
    an empty ``aggs`` is a distinct over ``keys``.

    Invariant: every key's output row is in exactly one output block,
    so a per-block top-k over the output is exact. Null keys group as
    one key, as in ``arrowkit.agg``."""
    final = _final_aggs(aggs)
    tag = _tag_buckets(keys, input_partitions(ds))

    def partial(t):
        return tag(agg(t, keys, aggs))

    def finish(t):
        return agg(t, keys, final)

    return bucket_exchange(
        ds.map_batches(partial, batch_size=None, batch_format="pyarrow"),
        "__bucket", finish)
