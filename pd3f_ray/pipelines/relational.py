"""Engine-breadth relational pipelines over the driver's testdata tables.

The reference has no relational operators (SURVEY.md §2.8) — these
demonstrate the engine-level capabilities a Ray-Data-native system needs
(grouped aggregation with map-side partial combine, broadcast join,
global top-k, event-time windowing), each with a DuckDB oracle.

Scale conventions:
- **Partial aggregation**: every groupby is preceded by a per-batch
  combine inside ``map_batches`` so the shuffle moves one row per
  (key, batch) instead of one per input row.
- **Integer units**: monetary/metric sums are emitted as integer cents /
  micros (deterministic, order-independent) so results hash-match the
  SQL oracle exactly — float sums would differ in the last ulp by
  summation order.
- **Broadcast joins**: the small side is ``ray.put`` once and read
  inside each task; no shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from pd3f_ray.core.cluster import read_table


def _round_opts() -> pc.RoundOptions:
    """DuckDB round() is half-away-from-zero; Arrow's default is
    half-to-even — match DuckDB so integer-cent values agree bit-for-bit.
    (Constructed per call: pyarrow options objects are not picklable, and
    these modules ship to workers by value.)"""
    return pc.RoundOptions(round_mode="half_towards_infinity")


def _cents(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    return pc.cast(
        pc.round(pc.multiply(col, pa.scalar(100.0)), options=_round_opts()),
        pa.int64(),
    )


# ---------------------------------------------------------------------------
# Q1-style pricing summary (grouped agg with partial combine)
# ---------------------------------------------------------------------------


def q1_pricing(sf_dir: str):
    """Per (returnflag, linestatus): row count, total quantity, gross and
    discounted revenue in integer cents. Shipdate-filtered like TPC-H Q1."""
    ds = read_table(
        sf_dir, "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_shipdate",
        ],
    )

    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), pa.timestamp("us"))

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch.column("l_shipdate"), cutoff))
        if batch.num_rows == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "n_rows": pa.array([], pa.int64()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_cents": pa.array([], pa.int64()),
                    "sum_disc_cents": pa.array([], pa.int64()),
                }
            )
        base_cents = _cents(batch.column("l_extendedprice"))
        disc_cents = pc.cast(
            pc.round(
                pc.multiply(
                    pc.multiply(batch.column("l_extendedprice"),
                                pc.subtract(pa.scalar(1.0), batch.column("l_discount"))),
                    pa.scalar(100.0),
                ),
                options=_round_opts(),
            ),
            pa.int64(),
        )
        t = pa.table(
            {
                "l_returnflag": batch.column("l_returnflag"),
                "l_linestatus": batch.column("l_linestatus"),
                "qty": pc.cast(batch.column("l_quantity"), pa.int64()),
                "base_cents": base_cents,
                "disc_cents": disc_cents,
            }
        )
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "count"), ("qty", "sum"), ("base_cents", "sum"),
             ("disc_cents", "sum")]
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "n_rows", "sum_qty",
             "sum_base_cents", "sum_disc_cents"]
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_cents", alias_name="sum_base_cents"),
            Sum("sum_disc_cents", alias_name="sum_disc_cents"),
        )
    )


Q1_SQL = """
SELECT l_returnflag,
       l_linestatus,
       count(*)                                            AS n_rows,
       CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT)     AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100) AS BIGINT)) AS BIGINT)
                                                           AS sum_disc_cents
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# global top-k (sort-limit)
# ---------------------------------------------------------------------------


def top_orders(sf_dir: str, k: int = 15):
    """Top-k orders by total price (orderkey tie-break), integer cents."""
    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "total_cents": _cents(batch.column("o_totalprice")),
            }
        )

    return (
        ds.map_batches(project, batch_format="pyarrow")
        .sort(["total_cents", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


TOP_ORDERS_SQL = """
SELECT o_orderkey,
       CAST(round(o_totalprice * 100) AS BIGINT) AS total_cents
FROM orders
ORDER BY total_cents DESC, o_orderkey
LIMIT 15
"""


# ---------------------------------------------------------------------------
# broadcast join: orders ⋈ customer → per-segment stats
# ---------------------------------------------------------------------------


def segment_order_stats(sf_dir: str, broadcast: bool | None = None):
    """Per-segment order stats. Customer is a FACT table at 100 TB-scale
    TPC-H (terabytes), so the scale plan co-partitions per-customer
    order partials against it through a bucketed hash join; when the
    metadata byte size says customer fits in memory
    (≤ BROADCAST_MAX_BYTES — AQE-style planner rule, row-count
    fallback), the broadcast-dict fast path is chosen instead. Both
    paths oracle-exact."""
    from pd3f_ray.pipelines.joins import hash_join, should_broadcast

    if broadcast is None:
        broadcast = should_broadcast(sf_dir, "customer")

    if broadcast:
        import pyarrow.parquet as pq

        ctbl = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_mktsegment"])
        seg_map = dict(zip(ctbl.column("c_custkey").to_pylist(),
                           ctbl.column("c_mktsegment").to_pylist()))
        seg_ref = ray.put(seg_map)

        def bpartial(batch: pa.Table) -> pa.Table:
            seg = ray.get(seg_ref)
            keys = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            segs = [seg.get(int(k), "UNKNOWN") for k in keys]
            g = pa.table(
                {"c_mktsegment": pa.array(segs, pa.string()),
                 "cents": _cents(batch.column("o_totalprice"))}
            ).group_by(["c_mktsegment"]).aggregate(
                [("cents", "count"), ("cents", "sum")]
            )
            return g.rename_columns(
                ["c_mktsegment", "n_orders", "sum_total_cents"])

        return (
            read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
            .map_batches(bpartial, batch_format="pyarrow")
            .groupby("c_mktsegment")
            .aggregate(
                Sum("n_orders", alias_name="n_orders"),
                Sum("sum_total_cents", alias_name="sum_total_cents"),
            )
        )

    ds = read_table(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        g = pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "cents": _cents(batch.column("o_totalprice")),
            }
        ).group_by(["o_custkey"]).aggregate(
            [("cents", "count"), ("cents", "sum")]
        )
        return g.rename_columns(["o_custkey", "n_orders", "sum_total_cents"])

    per_cust = ds.map_batches(partial, batch_format="pyarrow")
    cust = read_table(sf_dir, "customer",
                      columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(per_cust, cust, "o_custkey", "c_custkey",
                       num_buckets=64)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["c_mktsegment", "n_orders", "sum_total_cents"])

    return (
        joined.map_batches(project, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("sum_total_cents", alias_name="sum_total_cents"),
        )
    )


SEGMENT_ORDER_SQL = """
SELECT c.c_mktsegment,
       count(*)                                        AS n_orders,
       CAST(sum(CAST(round(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS sum_total_cents
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


# ---------------------------------------------------------------------------
# event-time tumbling window
# ---------------------------------------------------------------------------

_WINDOW_US = 3_600_000_000  # 1 hour


def events_hourly(sf_dir: str):
    """Tumbling 1-hour windows per event_type: count + value sum in
    integer micros. Window id = floor(epoch_us / 3600e6), matching the
    SQL oracle exactly."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        us = pc.cast(batch.column("ts"), pa.int64())
        # integer division; timestamps are post-epoch so truncation == floor,
        # matching DuckDB's // exactly
        window = pc.divide(us, pa.scalar(_WINDOW_US, pa.int64()))
        micros = pc.cast(
            pc.round(pc.multiply(batch.column("value"), pa.scalar(1e6)),
                     options=_round_opts()),
            pa.int64(),
        )
        g = pa.table(
            {
                "event_type": batch.column("event_type"),
                "window_id": window,
                "micros": micros,
            }
        ).group_by(["event_type", "window_id"]).aggregate(
            [("micros", "count"), ("micros", "sum")]
        )
        return g.rename_columns(
            ["event_type", "window_id", "n_events", "sum_value_micros"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "window_id"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_micros", alias_name="sum_value_micros"),
        )
    )


EVENTS_HOURLY_SQL = """
SELECT event_type,
       epoch_us(ts) // 3600000000                     AS window_id,
       count(*)                                       AS n_events,
       CAST(sum(CAST(round(value * 1000000) AS BIGINT)) AS BIGINT) AS sum_value_micros
FROM events
GROUP BY event_type, window_id
"""


# ---------------------------------------------------------------------------
# exact per-group quantiles (Ray Data has no exact quantile aggregate)
# ---------------------------------------------------------------------------

QUANTILES = (0.25, 0.5, 0.75, 0.95)


def event_value_quantiles(sf_dir: str):
    """Exact discrete quantiles of event value per event_type, with NO
    unbounded group: instead of shuffling raw values to one group per
    type (terabyte groups on a 100 TB event stream), each batch folds
    its values into (event_type, cents, n) partial counts (pyarrow
    group_by — one row per distinct value per block), one hash
    aggregate sums them, and the per-type reduce then operates on the
    DISTINCT-VALUE table only: sort by cents, cumulative-sum the
    counts, and index the quantile positions into the run-length
    representation. Exchange volume and group size are bounded by the
    value cardinality (integer cents of a price-like column), never by
    the event count. Quantiles are ``quantile_disc`` semantics (the
    element at 1-based position ceil(q*n) of the sorted multiset),
    matching DuckDB."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "cents": pa.array(cents, pa.int64()),
        })
        g = t.group_by(["event_type", "cents"]).aggregate([("cents", "count")])
        return g.rename_columns(["event_type", "cents", "n"])

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def per_type(group: pa.Table) -> pa.Table:
        cents = group.column("cents").to_numpy(
            zero_copy_only=False).astype(np.int64)
        counts = group.column("n").to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.argsort(cents, kind="stable")
        cents, counts = cents[order], counts[order]
        cum = np.cumsum(counts)
        n = int(cum[-1])
        row = {"event_type": group.column("event_type").slice(0, 1),
               "n_events": pa.array([n], pa.int64())}
        for q in QUANTILES:
            k = max(int(np.ceil(q * n)), 1)
            idx = int(np.searchsorted(cum, k, side="left"))
            row[f"p{int(q * 100)}_cents"] = pa.array([int(cents[idx])],
                                                     pa.int64())
        return pa.table(row)

    return hist.groupby("event_type").map_groups(per_type,
                                                 batch_format="pyarrow")


EVENT_QUANTILES_SQL = f"""
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       {", ".join(
           f"CAST(quantile_disc(CAST(round(value * 100) AS BIGINT), {q}) "
           f"AS BIGINT) AS p{int(q * 100)}_cents"
           for q in QUANTILES)}
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# customer order-count distribution (TPC-H Q13 shape: left outer join +
# double aggregate — customers with ZERO orders must appear)
# ---------------------------------------------------------------------------


def customer_order_counts(sf_dir: str):
    """(n_orders, n_customers): how many customers placed exactly N
    orders, including N = 0 — the rows only a LEFT OUTER join keeps.
    Plan: per-customer order counts (hash aggregate), LEFT join the
    customer table onto them (bucketed co-partitioning), fill the
    unmatched side with 0, then the tiny distribution groupby."""
    from ray.data.aggregate import Count

    from pd3f_ray.pipelines.joins import left_join

    per_cust = (
        read_table(sf_dir, "orders", columns=["o_custkey"])
        .groupby("o_custkey")
        .aggregate(Count(alias_name="n_orders"))
        .map_batches(lambda b: b, batch_format="pyarrow")  # arrow blocks
    )
    cust = read_table(sf_dir, "customer", columns=["c_custkey"])
    # explicit right schema: per_cust's lineage holds an aggregate
    # exchange — sampling .schema() would execute it twice
    joined = left_join(
        cust, per_cust, "c_custkey", "o_custkey", num_buckets=32,
        right_schema=pa.schema([("o_custkey", pa.int64()),
                                ("n_orders", pa.int64())]),
    )

    def fill(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(batch.column("n_orders"), pa.int64()), 0)
        return pa.table({"n_orders": n})

    return (
        joined.map_batches(fill, batch_format="pyarrow")
        .groupby("n_orders")
        .aggregate(Count(alias_name="n_customers"))
    )


CUSTOMER_ORDER_COUNTS_SQL = """
SELECT n_orders, CAST(count(*) AS BIGINT) AS n_customers
FROM (
  SELECT c.c_custkey,
         CAST(count(o.o_orderkey) AS BIGINT) AS n_orders
  FROM customer c
  LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY c.c_custkey
)
GROUP BY n_orders
"""


# ---------------------------------------------------------------------------
# fixed-width value histogram
# ---------------------------------------------------------------------------

HIST_BIN_WIDTH = 10.0


def event_value_histogram(sf_dir: str):
    """Fixed-width value histogram per event type: bin = floor(value /
    width). Map-side pyarrow partial aggregation per batch, then one
    tiny groupby over (type, bin) partials — the distribution-profile
    op every ingest pipeline runs before choosing quantile cut points.
    Output (event_type, bin, n)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "bin": pa.array(np.floor(v / HIST_BIN_WIDTH).astype(np.int64),
                            pa.int64()),
        })
        g = t.group_by(["event_type", "bin"]).aggregate([("bin", "count")])
        return g.rename_columns(["event_type", "bin", "n"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "bin"])
        .aggregate(Sum("n", alias_name="n"))
    )


EVENT_VALUE_HISTOGRAM_SQL = f"""
SELECT event_type,
       CAST(floor(value / {HIST_BIN_WIDTH}) AS BIGINT) AS bin,
       CAST(count(*) AS BIGINT) AS n
FROM events
GROUP BY event_type, bin
"""


# ---------------------------------------------------------------------------
# one-pass ROLLUP (multi-level grouping sets)
# ---------------------------------------------------------------------------


def customer_rollup(sf_dir: str):
    """ROLLUP(c_nationkey, c_mktsegment) over the customer table in ONE
    pass: the map side explodes each batch into its three grouping
    levels — (nation, segment), (nation, ALL), (ALL, ALL), sentinel -1
    / 'ALL' for collapsed keys — and pre-aggregates, so the single
    exchange carries ≤ 3 partial rows per (block, group) instead of
    three separate aggregation jobs. Money travels as integer cents.
    Output (nationkey, segment, n_customers, sum_acctbal_cents)."""
    ds = read_table(sf_dir, "customer",
                    columns=["c_nationkey", "c_mktsegment", "c_acctbal"])

    def partial(batch: pa.Table) -> pa.Table:
        nk = batch.column("c_nationkey").to_numpy(
            zero_copy_only=False).astype(np.int64)
        seg = np.asarray(batch.column("c_mktsegment").to_pylist(),
                         dtype=object)
        v = batch.column("c_acctbal").to_numpy(zero_copy_only=False) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        all_seg = np.full(len(nk), "ALL", dtype=object)
        levels = [
            (nk, seg),
            (nk, all_seg),
            (np.full(len(nk), -1, dtype=np.int64), all_seg),
        ]
        t = pa.table({
            "nationkey": pa.array(np.concatenate([l[0] for l in levels]),
                                  pa.int64()),
            "segment": pa.array(np.concatenate([l[1] for l in levels]),
                                pa.string()),
            "n_customers": pa.array(np.ones(3 * len(nk), np.int64)),
            "cents": pa.array(np.tile(cents, 3), pa.int64()),
        })
        g = t.group_by(["nationkey", "segment"]).aggregate(
            [("n_customers", "sum"), ("cents", "sum")])
        return g.rename_columns(
            ["nationkey", "segment", "n_customers", "sum_acctbal_cents"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["nationkey", "segment"])
        .aggregate(
            Sum("n_customers", alias_name="n_customers"),
            Sum("sum_acctbal_cents", alias_name="sum_acctbal_cents"),
        )
    )


CUSTOMER_ROLLUP_SQL = """
SELECT CASE WHEN GROUPING(c_nationkey) = 1 THEN -1
       ELSE c_nationkey END AS nationkey,
       CASE WHEN GROUPING(c_mktsegment) = 1 THEN 'ALL'
       ELSE c_mktsegment END AS segment,
       CAST(count(*) AS BIGINT) AS n_customers,
       CAST(sum(CAST(round(c_acctbal * 100) AS BIGINT)) AS BIGINT)
           AS sum_acctbal_cents
FROM customer
GROUP BY ROLLUP(c_nationkey, c_mktsegment)
"""


RANK_BAND = 64  # n_chars units per range bucket — the per-group bound dial


def doc_length_rank(sf_dir: str, band: int = RANK_BAND):
    """Distributed DENSE GLOBAL RANKING (total ordering) of documents by
    (n_chars, doc_id) — the classic two-pass range-partitioned plan that
    replaces a global sort + driver-side row numbering:

    1. map-side partials count rows per value-range bucket
       (``n_chars // band`` — monotone in the sort key, so bucket order
       IS value order); ONE tiny aggregate exchange, then a bounded
       driver read (≤ one row per bucket) computes prefix offsets.
    2. rows shuffle ONCE by bucket; each group sorts its own band and
       adds its bucket's prefix offset — no group ever sees more than a
       band's worth of rows, and no global sort barrier exists.

    Partitioning assumption (documented like the jaccard length bands):
    per-group memory is bounded by the value density within one band ×
    ``band``; a pathological single-value corpus lands in one group —
    shrink ``band`` (or pre-split ties by doc_id range) for such keys.
    Output (doc_id, n_chars, rnk), rnk = 1-based global rank."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def count_partial(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        b, counts = np.unique(nc // band, return_counts=True)
        return pa.table({
            "rbucket": pa.array(b.astype(np.int64), pa.int64()),
            "n_part": pa.array(counts.astype(np.int64), pa.int64()),
        })

    counts = (
        docs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("rbucket")
        .aggregate(Sum("n_part", alias_name="n"))
        .materialize()
    )
    per_bucket: dict[int, int] = {}
    for blk in ray.get(counts.to_arrow_refs()):
        if blk.num_rows == 0:  # trailing empty block has an empty schema
            continue
        per_bucket.update(zip(blk.column("rbucket").to_pylist(),
                              blk.column("n").to_pylist()))
    offsets: dict[int, int] = {}
    acc = 0
    for bk in sorted(per_bucket):
        offsets[bk] = acc
        acc += per_bucket[bk]
    off_ref = ray.put(offsets)

    def tag(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "rbucket", pa.array((nc // band).astype(np.int64), pa.int64()))

    def rank_group(group: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        nc = group.column("n_chars").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, nc))
        base = offs[int(group.column("rbucket")[0].as_py())]
        return pa.table({
            "doc_id": pa.array(did[order].astype(np.int64), pa.int64()),
            "n_chars": pa.array(nc[order].astype(np.int64), pa.int64()),
            "rnk": pa.array(base + np.arange(1, len(did) + 1,
                                             dtype=np.int64), pa.int64()),
        })

    return (
        docs.map_batches(tag, batch_format="pyarrow")
        .groupby("rbucket")
        .map_groups(rank_group, batch_format="pyarrow")
    )


DOC_LENGTH_RANK_SQL = """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars, doc_id) AS BIGINT) AS rnk
FROM documents
"""


# ---------------------------------------------------------------------------
# column profiling (data-quality summary of a fact table)
# ---------------------------------------------------------------------------

PROFILE_COLS = ("l_quantity", "l_extendedprice", "l_discount", "l_tax")


def profile_lineitem(sf_dir: str):
    """Per-column data-quality profile of the lineitem measures: one
    output row per column with (col, n_rows, n_null, min_x100,
    max_x100, sum_x100) — values integer-scaled to cents with
    half-away-from-zero rounding per value, so min/max/sum are exact in
    both engines regardless of summation order.

    Plan: the schema-profile pattern — per-batch partials (one tiny row
    per (block, column): count/nulls/min/max/sum over the block's
    values) followed by one column-keyed aggregate over blocks×|cols|
    rows. The fact table itself never shuffles; the exchange payload is
    metadata-sized at any corpus scale."""
    ds = read_table(sf_dir, "lineitem", columns=list(PROFILE_COLS))

    def partials(batch: pa.Table) -> pa.Table:
        cols, n, nnull, mn, mx, sm = [], [], [], [], [], []
        for c in PROFILE_COLS:
            arr = batch.column(c)
            v = arr.to_numpy(zero_copy_only=False).astype(np.float64)
            null_mask = np.isnan(v)
            vv = v[~null_mask] * 100
            cents = (np.sign(vv) * np.floor(np.abs(vv) + 0.5)).astype(np.int64)
            cols.append(c)
            n.append(len(v))
            nnull.append(int(null_mask.sum()))
            mn.append(int(cents.min()) if len(cents) else np.iinfo(np.int64).max)
            mx.append(int(cents.max()) if len(cents) else np.iinfo(np.int64).min)
            sm.append(int(cents.sum()))
        return pa.table({
            "col": pa.array(cols, pa.string()),
            "n_rows": pa.array(n, pa.int64()),
            "n_null": pa.array(nnull, pa.int64()),
            "min_x100": pa.array(mn, pa.int64()),
            "max_x100": pa.array(mx, pa.int64()),
            "sum_x100": pa.array(sm, pa.int64()),
        })

    agg = (ds.map_batches(partials, batch_format="pyarrow")
           .groupby("col")
           .aggregate(Sum("n_rows", alias_name="n_rows"),
                      Sum("n_null", alias_name="n_null"),
                      Min("min_x100", alias_name="min_x100"),
                      Max("max_x100", alias_name="max_x100"),
                      Sum("sum_x100", alias_name="sum_x100")))

    def finish(batch: pa.Table) -> pa.Table:
        out = {"col": batch.column("col")}
        for c in ("n_rows", "n_null", "min_x100", "max_x100", "sum_x100"):
            out[c] = batch.column(c).cast(pa.int64())
        return pa.table(out)

    return agg.map_batches(finish, batch_format="pyarrow")


PROFILE_LINEITEM_SQL = " UNION ALL ".join(
    f"""
SELECT '{c}' AS col,
       count(*) AS n_rows,
       CAST(count(*) - count({c}) AS BIGINT) AS n_null,
       CAST(min(CAST(round({c} * 100) AS BIGINT)) AS BIGINT) AS min_x100,
       CAST(max(CAST(round({c} * 100) AS BIGINT)) AS BIGINT) AS max_x100,
       CAST(sum(CAST(round({c} * 100) AS BIGINT)) AS BIGINT) AS sum_x100
FROM lineitem"""
    for c in PROFILE_COLS
)


# ---------------------------------------------------------------------------
# grouped MODE: each user's most frequent event type
# ---------------------------------------------------------------------------

_MODE_SHIFT = 8  # ≤ 2^8 distinct event types; count < 2^54


def user_favorite_event(sf_dir: str):
    """Grouped MODE — each user's most frequent event type (ties break
    to the lexicographically smallest type). Mode is not distributive,
    but it decomposes into two combiner-only exchanges:

    1. ``groupby((user, type))`` over map-side pre-counted partials —
       the standard count rollup;
    2. the per-user argmax travels as ONE packed int64
       (``count << 8 | (255 - type_rank)``) so picking the winner is a
       plain ``Max`` — no per-user group materialization. The
       type→rank dictionary is built from a metadata-cheap distinct
       pass and broadcast (event-type vocabularies are tiny by
       construction; the dial is the shift width).

    Output (user_id, favorite_event, n_occurrences)."""
    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])

    def pair_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate(
            [("event_type", "count")])
        return g.rename_columns(["user_id", "event_type", "n"])

    counts = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
    )

    # tiny distinct-type table → sorted rank dict, broadcast once
    types = sorted(
        ds.map_batches(
            lambda b: pa.table(
                {"event_type": b.column("event_type").unique()}),
            batch_format="pyarrow",
        )
        .unique("event_type")
    )
    types = [t["event_type"] if isinstance(t, dict) else t for t in types]
    rank = {t: i for i, t in enumerate(types)}
    if len(rank) >= (1 << _MODE_SHIFT):
        raise ValueError("event-type vocabulary exceeds the pack width; "
                         "raise _MODE_SHIFT")
    rank_ref = ray.put(rank)
    inv_ref = ray.put(types)

    def pack(batch: pa.Table) -> pa.Table:
        r = ray.get(rank_ref)
        et = batch.column("event_type").to_pylist()
        n = batch.column("n").to_numpy(zero_copy_only=False)
        lo = np.fromiter(((1 << _MODE_SHIFT) - 1 - r[t] for t in et),
                         dtype=np.int64, count=len(et))
        packed = (n.astype(np.int64) << _MODE_SHIFT) | lo
        return pa.table({
            "user_id": batch.column("user_id"),
            "packed": pa.array(packed, pa.int64()),
        })

    best = (
        counts.map_batches(pack, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Max("packed", alias_name="packed"))
    )

    def decode(batch: pa.Table) -> pa.Table:
        inv = ray.get(inv_ref)
        p = batch.column("packed").to_numpy(zero_copy_only=False)
        n = p >> _MODE_SHIFT
        ridx = (1 << _MODE_SHIFT) - 1 - (p & ((1 << _MODE_SHIFT) - 1))
        return pa.table({
            "user_id": batch.column("user_id"),
            "favorite_event": pa.array([inv[i] for i in ridx], pa.string()),
            "n_occurrences": pa.array(n, pa.int64()),
        })

    return best.map_batches(decode, batch_format="pyarrow")


USER_FAVORITE_EVENT_SQL = """
SELECT user_id, favorite_event, n_occurrences
FROM (
  SELECT user_id,
         event_type AS favorite_event,
         CAST(count(*) AS BIGINT) AS n_occurrences,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY count(*) DESC, event_type ASC) AS rn
  FROM events
  GROUP BY user_id, event_type
)
WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# robust outliers: median/MAD per type from the distinct-value histogram
# ---------------------------------------------------------------------------

MAD_K = 3  # |v - median| > K * MAD flags an outlier


def event_value_mad(sf_dir: str, k: int = MAD_K):
    """Robust (median/MAD) outlier profile per event type — the
    data-quality screen that, unlike mean/stddev, a few bad rows can't
    drag. Same bounded plan as :func:`event_value_quantiles`: one
    exchange of per-block (type, cents, n) distinct-value partials;
    the per-type reduce then derives EVERYTHING from the run-length
    histogram — median (discrete-quantile indexing), MAD (re-histogram
    |cents−median| with the same counts), and the outlier count (sum of
    counts where the deviation exceeds k·MAD). Group size is bounded by
    value cardinality, never event count. Output
    (event_type, n_events, median_cents, mad_cents, n_outliers)."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "cents": pa.array(cents, pa.int64()),
        })
        g = t.group_by(["event_type", "cents"]).aggregate([("cents", "count")])
        return g.rename_columns(["event_type", "cents", "n"])

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "cents"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def _disc_median(values: np.ndarray, counts: np.ndarray) -> int:
        # quantile_disc(0.5): element at 1-based position ceil(n/2) of
        # the sorted multiset (values must arrive sorted ascending)
        cum = np.cumsum(counts)
        pos = max(int(np.ceil(0.5 * cum[-1])), 1)
        return int(values[np.searchsorted(cum, pos, side="left")])

    def per_type(group: pa.Table) -> pa.Table:
        cents = group.column("cents").to_numpy(
            zero_copy_only=False).astype(np.int64)
        counts = group.column("n").to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.argsort(cents, kind="stable")
        cents, counts = cents[order], counts[order]
        med = _disc_median(cents, counts)
        dev = np.abs(cents - med)
        order = np.argsort(dev, kind="stable")
        mad = _disc_median(dev[order], counts[order])
        n_out = int(counts[dev > k * mad].sum())
        return pa.table({
            "event_type": group.column("event_type").slice(0, 1),
            "n_events": pa.array([int(counts.sum())], pa.int64()),
            "median_cents": pa.array([med], pa.int64()),
            "mad_cents": pa.array([mad], pa.int64()),
            "n_outliers": pa.array([n_out], pa.int64()),
        })

    return hist.groupby("event_type").map_groups(per_type,
                                                 batch_format="pyarrow")


EVENT_VALUE_MAD_SQL = f"""
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS cents
  FROM events
),
m AS (
  SELECT event_type, quantile_disc(cents, 0.5) AS med
  FROM c GROUP BY event_type
),
md AS (
  SELECT c.event_type, quantile_disc(abs(c.cents - m.med), 0.5) AS mad
  FROM c JOIN m USING (event_type) GROUP BY c.event_type
)
SELECT c.event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(m.med AS BIGINT) AS median_cents,
       CAST(md.mad AS BIGINT) AS mad_cents,
       CAST(sum(CASE WHEN abs(c.cents - m.med) > {MAD_K} * md.mad
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
FROM c
JOIN m USING (event_type)
JOIN md USING (event_type)
GROUP BY c.event_type, m.med, md.mad
"""


# ---------------------------------------------------------------------------
# pivot: per-source language-mix matrix (wide reporting shape)
# ---------------------------------------------------------------------------

PIVOT_LANGS = ("de", "en", "es", "fr", "zh")


def source_lang_matrix(sf_dir: str):
    """PIVOT — the wide reporting shape: one row per source, one count
    column per language (the corpus-composition dashboard every crawl
    run ends with). The language axis must be KNOWN/bounded (as for any
    pivot); counts fold map-side into (source, lang, n) partials, one
    small exchange sums them, and the per-source reduce spreads
    languages into columns. Unknown languages would raise, not
    silently drop. Output (source, n_de, n_en, n_es, n_fr, n_zh)."""
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", columns=["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["source", "lang"]).aggregate([("lang", "count")])
        return g.rename_columns(["source", "lang", "n"])

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def spread(group: pa.Table) -> pa.Table:
        langs = group.column("lang").to_pylist()
        ns = group.column("n").to_pylist()
        unknown = set(langs) - set(PIVOT_LANGS)
        if unknown:
            raise ValueError(f"unpivoted languages: {sorted(unknown)}")
        by = dict(zip(langs, ns))
        row = {"source": group.column("source").slice(0, 1)}
        for lg in PIVOT_LANGS:
            row[f"n_{lg}"] = pa.array([int(by.get(lg, 0))], pa.int64())
        return pa.table(row)

    return counts.groupby("source").map_groups(spread,
                                               batch_format="pyarrow")


SOURCE_LANG_MATRIX_SQL = f"""
SELECT source,
       {", ".join(
           f"CAST(sum(CASE WHEN lang = '{lg}' THEN 1 ELSE 0 END) AS BIGINT)"
           f" AS n_{lg}"
           for lg in PIVOT_LANGS)}
FROM documents
GROUP BY source
"""


# ---------------------------------------------------------------------------
# semi-structured promotion: JSON props → typed columns → aggregate
# ---------------------------------------------------------------------------


def props_k_stats(sf_dir: str):
    """Semi-structured handling — the everyday 'promote a JSON field to
    a typed column' step: ``events.props`` carries a JSON object; parse
    it map-side (orjson, per batch), promote ``$.k`` to int64 and fold
    per-type stats BEFORE the (tiny) exchange. Malformed/missing JSON
    must not poison the pipeline: such rows count into ``n_bad`` and
    are excluded from the stats (the dead-letter discipline of the
    extraction kernel, applied to a field). The SQL oracle is only
    defined for int-or-missing ``k`` — a string/float/bool ``k`` is
    dead-lettered here but would raise (or bucket differently) in
    DuckDB's json_extract cast. Output
    (event_type, n, n_bad, sum_k, min_k, max_k)."""
    from ray.data.aggregate import Sum as _Sum

    try:
        import orjson as _json
    except ImportError:  # pragma: no cover
        import json as _json

    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_pylist()
        ps = batch.column("props").to_pylist()
        agg: dict[str, list[int]] = {}
        for t, p in zip(et, ps):
            a = agg.setdefault(t, [0, 0, 0, None, None])
            try:
                k = _json.loads(p)["k"]
                # bool is a subclass of int — JSON true/false must NOT
                # count as k=1/0 (the SQL oracle is only defined for
                # int-or-missing k; non-int k dead-letters into n_bad)
                if not isinstance(k, int) or isinstance(k, bool):
                    raise TypeError
            except Exception:
                a[1] += 1
                continue
            a[0] += 1
            a[2] += k
            a[3] = k if a[3] is None or k < a[3] else a[3]
            a[4] = k if a[4] is None or k > a[4] else a[4]
        keys = list(agg)
        return pa.table({
            "event_type": pa.array(keys, pa.string()),
            "n": pa.array([agg[k][0] for k in keys], pa.int64()),
            "n_bad": pa.array([agg[k][1] for k in keys], pa.int64()),
            "sum_k": pa.array([agg[k][2] for k in keys], pa.int64()),
            "min_k": pa.array([agg[k][3] for k in keys], pa.int64()),
            "max_k": pa.array([agg[k][4] for k in keys], pa.int64()),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(_Sum("n", alias_name="n"),
                   _Sum("n_bad", alias_name="n_bad"),
                   _Sum("sum_k", alias_name="sum_k"),
                   Min("min_k", alias_name="min_k"),
                   Max("max_k", alias_name="max_k"))
    )


PROPS_K_STATS_SQL = """
SELECT event_type,
       CAST(count(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
           AS n,
       CAST(sum(CASE WHEN json_extract(props, '$.k') IS NULL
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_bad,
       CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
           AS sum_k,
       CAST(min(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
           AS min_k,
       CAST(max(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
           AS max_k
FROM events
GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# NTILE: equal-frequency tiling on top of the range-partitioned ranking
# ---------------------------------------------------------------------------

NTILE_K = 10


def doc_length_ntile(sf_dir: str, tiles: int = NTILE_K):
    """Global NTILE(k) by (n_chars, doc_id) — equal-frequency deciles
    for length-balanced sampling/bucketing. Rides the SAME two-pass
    range-partitioned plan as :func:`doc_length_rank` (no global sort
    barrier); the tile is then a closed-form function of the global
    row number and the row count, which comes free from parquet
    metadata (no extra pass). SQL-NTILE semantics: the first
    ``n mod k`` tiles get one extra row. Output
    (doc_id, n_chars, tile)."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    base, rem = divmod(n, tiles)
    cut = rem * (base + 1)

    ranked = doc_length_rank(sf_dir)

    def to_tile(batch: pa.Table) -> pa.Table:
        rnk = batch.column("rnk").to_numpy(zero_copy_only=False)
        big = (rnk - 1) // (base + 1) + 1
        small = rem + (rnk - cut - 1) // max(base, 1) + 1
        tile = np.where(rnk <= cut, big, small).astype(np.int64)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
            "tile": pa.array(tile, pa.int64()),
        })

    return ranked.map_batches(to_tile, batch_format="pyarrow")


def doc_length_ntile_sql(tiles: int = NTILE_K) -> str:
    return f"""
SELECT doc_id, n_chars,
       CAST(ntile({tiles}) OVER (ORDER BY n_chars, doc_id) AS BIGINT)
           AS tile
FROM documents
"""


DOC_LENGTH_NTILE_SQL = doc_length_ntile_sql()


# ---------------------------------------------------------------------------
# CUBE grouping sets: all four (event_type × hour-of-day) combinations
# ---------------------------------------------------------------------------


def events_cube(sf_dir: str):
    """CUBE(event_type, hour_of_day) in ONE pass — the full 2² grouping
    lattice (both keys, each alone, grand total), the other half of the
    grouping-sets family next to :func:`customer_rollup`'s ROLLUP. Same
    plan shape: map-side 4-way explode with sentinels ('ALL' / -1) +
    per-batch pre-aggregation, ONE exchange carrying ≤ 4 partial rows
    per (block, group). Output (event_type, hour, n_events,
    sum_value_cents). Precondition: ts ≥ epoch 0 (floor division here
    vs DuckDB's truncate-toward-zero ``//`` — see hourly_unique_users)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type").to_pylist(),
                        dtype=object)
        us = pc.cast(batch.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False)
        hour = ((us // 3_600_000_000) % 24).astype(np.int64)
        v = batch.column("value").to_numpy(zero_copy_only=False) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        n = len(et)
        all_t = np.full(n, "ALL", dtype=object)
        all_h = np.full(n, -1, dtype=np.int64)
        levels = [(et, hour), (et, all_h), (all_t, hour), (all_t, all_h)]
        t = pa.table({
            "event_type": pa.array(
                np.concatenate([l[0] for l in levels]), pa.string()),
            "hour": pa.array(
                np.concatenate([l[1] for l in levels]), pa.int64()),
            "n_events": pa.array(np.ones(4 * n, np.int64)),
            "cents": pa.array(np.tile(cents, 4), pa.int64()),
        })
        g = t.group_by(["event_type", "hour"]).aggregate(
            [("n_events", "sum"), ("cents", "sum")])
        return g.rename_columns(
            ["event_type", "hour", "n_events", "sum_value_cents"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_cents", alias_name="sum_value_cents"),
        )
    )


EVENTS_CUBE_SQL = """
SELECT CASE WHEN GROUPING(event_type) = 1 THEN 'ALL'
       ELSE event_type END AS event_type,
       CAST(CASE WHEN GROUPING(h) = 1 THEN -1 ELSE h END AS BIGINT)
           AS hour,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
           AS sum_value_cents
FROM (SELECT event_type, (epoch_us(ts) // 3600000000) % 24 AS h, value
      FROM events)
GROUP BY CUBE (event_type, h)
"""


# ---------------------------------------------------------------------------
# referential-integrity audit (cross-table orphan counts)
# ---------------------------------------------------------------------------


def referential_integrity(sf_dir: str):
    """Cross-table integrity audit — before shipping a 100 TB corpus
    you prove the foreign keys hold: count lineitems whose orderkey has
    no order, and orders whose custkey has no customer. Each check is
    ONE bucketed ANTI join over pre-collapsed distinct keys (an orphan
    witness needs one row per key, so the exchange carries distinct
    keys, never facts), then a one-row partial-count fold. Output a
    single row (n_lineitem, n_orders, lineitem_orphans, order_orphans)
    — zeros prove the audit ran against intact data, the injected-break
    test proves it detects damage."""
    import pyarrow.parquet as pq

    from pd3f_ray.pipelines.joins import anti_join  # noqa: F401
    from ray.data.aggregate import Count

    n_li = pq.read_metadata(
        os.path.join(sf_dir, "lineitem.parquet")).num_rows
    n_ord = pq.read_metadata(
        os.path.join(sf_dir, "orders.parquet")).num_rows

    def distinct_col(table: str, col: str):
        ds = read_table(sf_dir, table, columns=[col])

        def uniq(batch: pa.Table) -> pa.Table:
            v = np.unique(batch.column(col).to_numpy(zero_copy_only=False))
            return pa.table({col: pa.array(v.astype(np.int64), pa.int64())})

        return ds.map_batches(uniq, batch_format="pyarrow")

    def orphan_count(left, right, lk, rk) -> "rd.Dataset":
        schema = pa.schema([(lk, pa.int64())])
        orphans = anti_join(left, right, lk, rk, left_schema=schema)
        # per-block distinct keys can repeat ACROSS blocks — count
        # distinct orphan keys, not anti-join rows
        distinct = orphans.groupby(lk).aggregate(Count(alias_name="k"))
        return distinct.map_batches(
            lambda b: pa.table({"n": pa.array([b.num_rows], pa.int64())}),
            batch_format="pyarrow")

    li_orphans = orphan_count(distinct_col("lineitem", "l_orderkey"),
                              distinct_col("orders", "o_orderkey"),
                              "l_orderkey", "o_orderkey")
    ord_orphans = orphan_count(distinct_col("orders", "o_custkey"),
                               distinct_col("customer", "c_custkey"),
                               "o_custkey", "c_custkey")

    def total(ds) -> int:
        blocks = ray.get(ds.materialize().to_arrow_refs())
        return sum(int(x) for b in blocks
                   if "n" in b.column_names  # trailing empty-schema block
                   for x in b.column("n").to_pylist())

    li_n, ord_n = total(li_orphans), total(ord_orphans)

    return rd.from_arrow(pa.table({
        "n_lineitem": pa.array([n_li], pa.int64()),
        "n_orders": pa.array([n_ord], pa.int64()),
        "lineitem_orphans": pa.array([li_n], pa.int64()),
        "order_orphans": pa.array([ord_n], pa.int64()),
    }))


REFERENTIAL_INTEGRITY_SQL = """
SELECT (SELECT CAST(count(*) AS BIGINT) FROM lineitem) AS n_lineitem,
       (SELECT CAST(count(*) AS BIGINT) FROM orders) AS n_orders,
       (SELECT CAST(count(DISTINCT l_orderkey) AS BIGINT) FROM lineitem
        WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders))
           AS lineitem_orphans,
       (SELECT CAST(count(DISTINCT o_custkey) AS BIGINT) FROM orders
        WHERE o_custkey NOT IN (SELECT c_custkey FROM customer))
           AS order_orphans
"""


# ---------------------------------------------------------------------------
# Q6-flavor: pure predicate-pushdown aggregate (no exchange at all)
# ---------------------------------------------------------------------------

Q6_FROM = "1998-01-01"
Q6_TO = "1999-01-01"
Q6_DISC_LO, Q6_DISC_HI = 0.05, 0.07
Q6_QTY_MAX = 24


def q6_forecast_revenue(sf_dir: str):
    """TPC-H Q6-flavor: potential revenue from lifting small discounts —
    the purest scan shape: every predicate (shipdate window, discount
    band, quantity cap) is pushed INTO the parquet read so whole row
    groups are skipped on storage, the projection is 2 columns, and the
    aggregate is map-side partials + a one-row combine. No exchange of
    data rows anywhere. Output one row (revenue_cents, n_items)."""
    import datetime as _dt

    import pyarrow.dataset as pads

    lo = _dt.datetime.fromisoformat(Q6_FROM)
    hi = _dt.datetime.fromisoformat(Q6_TO)
    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo)
               & (pads.field("l_shipdate") < hi)
               & (pads.field("l_discount") >= Q6_DISC_LO)
               & (pads.field("l_discount") <= Q6_DISC_HI)
               & (pads.field("l_quantity") < Q6_QTY_MAX),
    )

    def partial(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        v = ep * dc * 100.0
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return pa.table({
            "revenue_cents": pa.array([int(cents.sum())], pa.int64()),
            "n_items": pa.array([len(cents)], pa.int64()),
        })

    def combine(batch: pa.Table) -> pa.Table:
        return pa.table({
            "revenue_cents": pa.array(
                [pc.sum(batch.column("revenue_cents")).as_py() or 0],
                pa.int64()),
            "n_items": pa.array(
                [pc.sum(batch.column("n_items")).as_py() or 0], pa.int64()),
        })

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(combine, batch_format="pyarrow", batch_size=None)
    )


Q6_FORECAST_SQL = f"""
SELECT CAST(sum(CAST(round(l_extendedprice * l_discount * 100) AS BIGINT))
            AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_FROM}'
  AND l_shipdate <  TIMESTAMP '{Q6_TO}'
  AND l_discount BETWEEN {Q6_DISC_LO} AND {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY_MAX}
"""


# ---------------------------------------------------------------------------
# calendar-month rollup (date_trunc parity, not epoch arithmetic)
# ---------------------------------------------------------------------------


def orders_monthly(sf_dir: str):
    """Orders per calendar month — time-series rollup where the window
    key is CALENDAR logic (month boundaries are irregular), not epoch
    division: the month key is computed vectorized from Arrow's
    year/month kernels (identical to DuckDB ``date_trunc('month')``)
    and encoded as year*100+month so the exchange key is a plain int64.
    Map-side partials as usual. Output
    (month_key, n_orders, sum_total_cents)."""
    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        y = pc.year(batch.column("o_orderdate"))
        m = pc.month(batch.column("o_orderdate"))
        key = pc.add(pc.multiply(pc.cast(y, pa.int64()),
                                 pa.scalar(100, pa.int64())),
                     pc.cast(m, pa.int64()))
        t = pa.table({
            "month_key": key,
            "cents": _cents(batch.column("o_totalprice")),
        })
        g = t.group_by("month_key").aggregate(
            [("cents", "count"), ("cents", "sum")])
        return g.rename_columns(["month_key", "n_orders",
                                 "sum_total_cents"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("month_key")
        .aggregate(Sum("n_orders", alias_name="n_orders"),
                   Sum("sum_total_cents", alias_name="sum_total_cents"))
    )


ORDERS_MONTHLY_SQL = """
SELECT CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT)
           AS month_key,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS sum_total_cents
FROM orders
GROUP BY month_key
"""
