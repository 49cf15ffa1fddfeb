"""Distributed joins.

Ray Data 2.49 does have a native ``Dataset.join``, but on this engine's
exchange workloads it measured far slower than the bucketed plan below
(BASELINE.md, "Native ``Dataset.join`` A/B"), so this module keeps its
own two join strategies, both oracle-checked:

- **broadcast join** (small side ⋈ big side): the small table is
  ``ray.put`` once and probed as a dict inside ``map_batches`` — zero
  shuffle, the pattern reserved for GENUINELY small dimension tables
  (nation: 25 rows). Customer is a fact table at 100 TB-scale TPC-H
  and goes through the bucketed join instead.
- **bucketed join** (big ⋈ big), one plan for all five join kinds
  (inner, left outer, full outer, left semi, left anti): both sides are
  tagged, given a stable ``hash(key) % B`` bucket column, unioned, and
  co-partitioned by ONE ``bucket_exchange`` (stages/exchange.py); in
  each partition one Acero join (``pa.Table.join``) joins the sides —
  pyarrow-native end to end. A reducer call holds ≤ 64 whole buckets,
  so B bounds its memory; all rows of one key share a bucket.

``nation_revenue`` composes them: lineitem ⋈ orders and then
per-custkey partials ⋈ customer via TWO bucketed hash joins (all three
are fact tables), nation names via the one true broadcast (25 rows),
with revenue pre-aggregated before every exchange — the
partial-aggregation pattern that keeps the wide exchanges small.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import bucket_exchange

JOIN_BUCKETS = 128


def _arrow_fields(ds: "rd.Dataset", schema, arg: str) -> dict:
    """{column: pyarrow type} of one join side, captured at plan time —
    the input of the pyarrow-native group reducer. Without an explicit
    schema the side's first block is sampled, and it must be Arrow."""
    if schema is None:
        schema = getattr(ds.schema(), "base_schema", None)
    if not isinstance(schema, pa.Schema):
        raise TypeError(f"join side has no pyarrow schema "
                        f"({type(schema).__name__}); pass {arg}=pa.schema(...)")
    return dict(zip(schema.names, schema.types))


def _side_table(group: pa.Table, side: str, fields: dict) -> pa.Table:
    """One side's rows of a tagged-union partition, projected onto its
    plan-time schema. The union pads a side's missing columns with
    typed nulls (Arrow keeps int64 integral — no pandas float
    promotion), but a partition whose blocks all came from ONE side may
    lack the other side's columns entirely — pad those here."""
    t = group.filter(pc.equal(group.column("__side"), side))
    cols = {}
    for name, typ in fields.items():
        if name in t.column_names:
            c = t.column(name)
            cols[name] = c if c.type == typ else c.cast(typ)
        else:
            cols[name] = pa.nulls(t.num_rows, typ)
    return pa.table(cols)


def _stable_bucket(arr: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic cross-process bucket for join keys. Int64 keys get
    a vectorized splitmix64-style integer mix (NOT Python hash(), which
    is salted per process) — one multiply/shift chain over the whole
    array. String/object keys hash via ``pd.util.hash_array`` (a fixed-
    key 64-bit siphash: vectorized AND stable across processes), which
    is already well-mixed, so it feeds the modulo directly."""
    if arr.dtype == object or arr.dtype.kind in ("U", "S"):
        x = pd.util.hash_array(arr)
    else:
        x = arr.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(num_buckets)).astype(np.int32)


def _bucketed_join(left: "rd.Dataset", right: "rd.Dataset", left_key: str,
                   right_key: str, join_type: str, num_buckets: int,
                   left_schema, right_schema) -> "rd.Dataset":
    """The one plan behind every join kind: both sides are tagged with a
    stable key-hash bucket and their side, unioned, co-partitioned by
    ONE ``bucket_exchange``, and each partition's two sides are joined
    by one Acero ``pa.Table.join`` of ``join_type``. A key's rows share
    a partition, so each row meets every partner it could have and an
    unmatched row is emitted once; a null key never matches.

    Column lists and Arrow types are captured at plan time. Pass
    ``left_schema``/``right_schema`` (pyarrow) when a side's lineage
    contains an all-to-all: ``Dataset.schema()`` samples by executing
    the first block, which for a post-shuffle side runs the ENTIRE
    upstream exchange once just to learn dtypes — and then again for
    real (measured 5.6 s → 21 s when chaining two joins)."""
    membership = join_type in ("left semi", "left anti")
    left_ft = _arrow_fields(left, left_schema, "left_schema")
    if membership:
        # membership needs only the right key: ship that column alone,
        # typed like the left key, and never sample the right schema
        right = right.select_columns([right_key])
        right_ft = {right_key: left_ft[left_key]}
        out_ft = left_ft
    else:
        right_ft = _arrow_fields(right, right_schema, "right_schema")
        out_ft = {**left_ft, **{k: v for k, v in right_ft.items()
                                if k not in left_ft}}
    # Acero coalesces the key pair into the left name; pandas merge keeps
    # both: carry a copy of the right key through (null when unmatched)
    carry = right_key != left_key and not membership

    def tag(side: str, key: str):
        def fn(batch: pa.Table) -> pa.Table:
            keys = batch.column(key)
            if keys.null_count and pa.types.is_integer(keys.type):
                keys = keys.fill_null(0)  # null matches nothing: any bucket
            b = _stable_bucket(keys.to_numpy(zero_copy_only=False),
                               num_buckets)
            return batch.append_column(
                "__bucket", pa.array(b, pa.int32())).append_column(
                "__side", pa.array([side] * batch.num_rows, pa.string()))
        return fn

    def reduce(group: pa.Table) -> pa.Table:
        l = _side_table(group, "l", left_ft)
        r = _side_table(group, "r", right_ft)
        if carry:
            r = r.append_column("__rk", r.column(right_key))
        out = l.join(r, keys=left_key, right_keys=right_key,
                     join_type=join_type)
        if carry:
            out = out.rename_columns(
                [right_key if c == "__rk" else c for c in out.column_names])
        return out.select(list(out_ft))

    tagged = left.map_batches(tag("l", left_key), batch_format="pyarrow").union(
        right.map_batches(tag("r", right_key), batch_format="pyarrow"))
    return bucket_exchange(tagged, "__bucket", num_buckets, reduce)


def hash_join(left, right, left_key: str, right_key: str,
              num_buckets: int = JOIN_BUCKETS, left_schema=None,
              right_schema=None) -> "rd.Dataset":
    """INNER join (one bucketed shuffle). Column names must be disjoint
    apart from the keys; distinct key names keep both key columns."""
    return _bucketed_join(left, right, left_key, right_key, "inner",
                          num_buckets, left_schema, right_schema)


def left_join(left, right, left_key: str, right_key: str,
              num_buckets: int = JOIN_BUCKETS, left_schema=None,
              right_schema=None) -> "rd.Dataset":
    """LEFT OUTER join. Unmatched right-side columns (right key included)
    come back as typed nulls, so every group emits the same schema."""
    return _bucketed_join(left, right, left_key, right_key, "left outer",
                          num_buckets, left_schema, right_schema)


def anti_join(left, right, left_key: str, right_key: str,
              num_buckets: int = JOIN_BUCKETS,
              left_schema=None) -> "rd.Dataset":
    """LEFT ANTI join: left rows whose key does NOT appear on the right
    (a null left key never matches, so it stays). Output = left schema."""
    return _bucketed_join(left, right, left_key, right_key, "left anti",
                          num_buckets, left_schema, None)


def semi_join(left, right, left_key: str, right_key: str,
              num_buckets: int = JOIN_BUCKETS,
              left_schema=None) -> "rd.Dataset":
    """LEFT SEMI join: left rows whose key DOES appear on the right,
    each at most once whatever the right-side multiplicity —
    ``WHERE key IN (...)`` semantics. Output = the left schema."""
    return _bucketed_join(left, right, left_key, right_key, "left semi",
                          num_buckets, left_schema, None)


def full_outer_join(left, right, key: str, num_buckets: int = JOIN_BUCKETS,
                    left_schema=None, right_schema=None) -> "rd.Dataset":
    """FULL OUTER join on a key column named alike on both sides. The key
    is coalesced (COALESCE(l.key, r.key)); unmatched columns come back as
    typed nulls — int64 stays integral, no pandas float promotion."""
    return _bucketed_join(left, right, key, key, "full outer",
                          num_buckets, left_schema, right_schema)


BROADCAST_MAX_BYTES = 256 << 20  # AQE broadcast-vs-shuffle threshold
BROADCAST_MAX_ROWS = 1_000_000  # fallback when metadata lacks byte sizes


def _rows_of(sf_dir: str, table: str) -> int:
    """Metadata-only row count — the planner input for the adaptive
    broadcast decision (no data read)."""
    import pyarrow.parquet as pq

    return pq.read_metadata(
        os.path.join(sf_dir, table + ".parquet")).num_rows


def should_broadcast(sf_dir: str, table: str) -> bool:
    """AQE-style planner gate: broadcast a join side only if it fits in
    a worker's memory. The primary signal is the UNCOMPRESSED byte size
    from parquet metadata (sum of row-group ``total_byte_size``) — the
    honest proxy with wide rows, where a row-count gate lets a
    million-row × 100 KB-blob table through; metadata row count is the
    fallback when the writer recorded no sizes. No data is read."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(os.path.join(sf_dir, table + ".parquet"))
    total = sum(md.row_group(i).total_byte_size
                for i in range(md.num_row_groups))
    if total > 0:
        return total <= BROADCAST_MAX_BYTES
    return md.num_rows <= BROADCAST_MAX_ROWS


def nation_revenue(sf_dir: str, num_buckets: int = JOIN_BUCKETS,
                   broadcast_customer: bool | None = None):
    """Revenue by customer nation:
    lineitem ⋈ orders (bucketed hash join on orderkey, revenue
    pre-aggregated per order inside map_batches) → partial per-custkey
    revenue → SECOND bucketed hash join against customer (at TPC-H
    SF for 100 TB the customer table is terabytes — a fact table, NOT a
    broadcastable side) → the only broadcast is the 25-row nation name
    map → tiny groupby(n_name). Output (n_name, revenue_cents)."""
    import pyarrow.parquet as pq

    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    nkey_to_name = dict(zip(nat.column("n_nationkey").to_pylist(),
                            nat.column("n_name").to_pylist()))
    lookup_ref = ray.put(nkey_to_name)  # 25 rows — genuinely small

    if broadcast_customer is None:
        broadcast_customer = should_broadcast(sf_dir, "customer")

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    lineitem = read_table(sf_dir, "lineitem",
                          ["l_orderkey", "l_extendedprice", "l_discount"])

    # pre-aggregate lineitem revenue per orderkey inside map_batches so
    # the join exchange carries one row per (block, orderkey), not one
    # per lineitem
    def pre_agg(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        # DuckDB round() is half-away-from-zero; np.rint is half-even —
        # match DuckDB (cf. relational._round_opts)
        v = price * (1.0 - disc) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        df = pd.DataFrame({"l_orderkey": ok, "cents": cents})
        g = df.groupby("l_orderkey", as_index=False)["cents"].sum()
        return pa.table({
            "l_orderkey": pa.array(g["l_orderkey"].to_numpy(), pa.int64()),
            "revenue_cents": pa.array(g["cents"].to_numpy(), pa.int64()),
        })

    rev = lineitem.map_batches(pre_agg, batch_format="pyarrow")
    joined = hash_join(rev, orders, "l_orderkey", "o_orderkey",
                       num_buckets=num_buckets)

    # partial per-custkey revenue inside each batch so join #2 moves one
    # row per (block, custkey)
    def per_cust(batch: pa.Table) -> pa.Table:
        g = batch.select(["o_custkey", "revenue_cents"]).group_by(
            ["o_custkey"]).aggregate([("revenue_cents", "sum")])
        return pa.table({"o_custkey": g.column("o_custkey"),
                         "revenue_cents": g.column("revenue_cents_sum")})

    cust_rev = joined.map_batches(per_cust, batch_format="pyarrow")

    if broadcast_customer:
        # AQE-style fast path: customer fits comfortably in memory at
        # this scale (metadata byte size ≤ BROADCAST_MAX_BYTES), so probe
        # a broadcast custkey→nationkey dict — zero extra shuffle
        import pyarrow.parquet as pq

        ctbl = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_nationkey"])
        cmap = dict(zip(ctbl.column("c_custkey").to_pylist(),
                        ctbl.column("c_nationkey").to_pylist()))
        cref = ray.put(cmap)

        def to_nation(batch: pa.Table) -> pa.Table:
            cm = ray.get(cref)
            lookup = ray.get(lookup_ref)
            names = [lookup[cm[c]]
                     for c in batch.column("o_custkey").to_pylist()]
            return pa.table({
                "n_name": pa.array(names, pa.string()),
                "revenue_cents": batch.column("revenue_cents"),
            })

        named = cust_rev.map_batches(to_nation, batch_format="pyarrow")
    else:
        # scale path: customer is a fact table — co-partition it.
        # Explicit schema: cust_rev's lineage holds join #1's exchange,
        # and letting hash_join sample .schema() would execute that
        # exchange twice (see hash_join docstring)
        j2 = hash_join(
            cust_rev, customer, "o_custkey", "c_custkey",
            num_buckets=num_buckets,
            left_schema=pa.schema([("o_custkey", pa.int64()),
                                   ("revenue_cents", pa.int64())]),
        )

        def to_nation(batch: pa.Table) -> pa.Table:
            lookup = ray.get(lookup_ref)
            names = [lookup[n]
                     for n in batch.column("c_nationkey").to_pylist()]
            return pa.table({
                "n_name": pa.array(names, pa.string()),
                "revenue_cents": batch.column("revenue_cents"),
            })

        named = j2.map_batches(to_nation, batch_format="pyarrow")

    return (
        named.groupby("n_name")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
    )


NATION_REVENUE_SQL = """
SELECT n.n_name AS n_name,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o   ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n   ON c.c_nationkey = n.n_nationkey
GROUP BY n.n_name
"""


def supplier_part_join(sf_dir: str, num_buckets: int = 32):
    """Pure bucketed hash-join exercise on two mid-size tables:
    lineitem ⋈ supplier on suppkey, counting lineitems and summing
    quantity per supplier nation. Output (s_nationkey, n_lineitems,
    sum_qty)."""
    supplier = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    lineitem = read_table(sf_dir, "lineitem", ["l_suppkey", "l_quantity"])

    def pre(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        qty = (np.sign(q) * np.floor(np.abs(q) + 0.5)).astype(np.int64)
        df = pd.DataFrame({"l_suppkey": sk, "qty": qty})
        g = df.groupby("l_suppkey", as_index=False).agg(
            n_lineitems=("qty", "size"), sum_qty=("qty", "sum"))
        return pa.table({
            "l_suppkey": pa.array(g["l_suppkey"].to_numpy(), pa.int64()),
            "n_lineitems": pa.array(g["n_lineitems"].to_numpy(), pa.int64()),
            "sum_qty": pa.array(g["sum_qty"].to_numpy(), pa.int64()),
        })

    pre_ds = lineitem.map_batches(pre, batch_format="pyarrow")
    joined = hash_join(pre_ds, supplier, "l_suppkey", "s_suppkey",
                       num_buckets=num_buckets)

    def project(batch: pa.Table) -> pa.Table:
        return batch.select(["s_nationkey", "n_lineitems", "sum_qty"])

    return (
        joined.map_batches(project, batch_format="pyarrow")
        .groupby("s_nationkey")
        .aggregate(
            Sum("n_lineitems", alias_name="n_lineitems"),
            Sum("sum_qty", alias_name="sum_qty"),
        )
    )


SUPPLIER_PART_SQL = """
SELECT s.s_nationkey AS s_nationkey,
       CAST(count(*) AS BIGINT) AS n_lineitems,
       CAST(sum(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
GROUP BY s.s_nationkey
"""


def customers_with_orders(sf_dir: str, num_buckets: int = 32):
    """SEMI-join query: customers that placed at least one order —
    ``WHERE c_custkey IN (SELECT o_custkey FROM orders)``. The right
    side ships only its key column through the bucketed exchange; the
    left rows come out at most once each whatever the per-customer
    order count is. Output (c_custkey, c_name, c_acctbal)."""
    customer = read_table(sf_dir, "customer",
                          ["c_custkey", "c_name", "c_acctbal"])
    orders = read_table(sf_dir, "orders", ["o_custkey"])
    import pyarrow as _pa

    schema = _pa.schema([
        ("c_custkey", _pa.int64()),
        ("c_name", _pa.string()),
        ("c_acctbal", _pa.float64()),
    ])
    return semi_join(customer, orders, "c_custkey", "o_custkey",
                     num_buckets=num_buckets, left_schema=schema)


CUSTOMERS_WITH_ORDERS_SQL = """
SELECT c_custkey, c_name, c_acctbal
FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders)
"""


def click_purchase_matrix(sf_dir: str, num_buckets: int = 32):
    """FULL-OUTER-join query: per-user click counts (even user ids) ⟗
    per-user purchase counts (user ids divisible by 3) — the residue
    filters guarantee genuinely unmatched rows on BOTH sides, which is
    what distinguishes the operator from a left join. Each side is
    pre-aggregated (distributive count) before the join exchange.
    Output (user_id, n_clicks?, n_purchases?) with nullable counts."""
    from ray.data.aggregate import Count

    def side(event_type: str, residue: int, alias: str):
        ds = read_table(sf_dir, "events", ["user_id", "event_type"])

        def pick(batch: pa.Table) -> pa.Table:
            uid = batch.column("user_id").to_numpy(zero_copy_only=False)
            et = np.asarray(batch.column("event_type").to_pylist(),
                            dtype=object)
            keep = (et == event_type) & (uid % residue == 0)
            return batch.filter(pa.array(keep)).select(["user_id"])

        return (ds.map_batches(pick, batch_format="pyarrow")
                .groupby("user_id").aggregate(Count(alias_name=alias)))

    schema_l = pa.schema([("user_id", pa.int64()), ("n_clicks", pa.int64())])
    schema_r = pa.schema([("user_id", pa.int64()),
                          ("n_purchases", pa.int64())])
    joined = full_outer_join(
        side("click", 2, "n_clicks"), side("purchase", 3, "n_purchases"),
        "user_id", num_buckets=num_buckets,
        left_schema=schema_l, right_schema=schema_r,
    )

    # The nullable count columns must ship in the ORACLE-STABLE dtype:
    # DuckDB's .df() renders a nullable BIGINT as float64 with NaN, while
    # nullable int64 Arrow blocks can surface as pandas Int64 — value-
    # equal but hash-DIFFERENT once serialized (r03 driver: rows/schema
    # match, hash mismatch). Cast to float64/null so both sides
    # serialize alike (→ float64/NaN in pandas).
    def to_oracle_dtype(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": batch.column("user_id"),
            "n_clicks": pc.cast(batch.column("n_clicks"), pa.float64()),
            "n_purchases": pc.cast(batch.column("n_purchases"),
                                   pa.float64()),
        })

    return joined.map_batches(to_oracle_dtype, batch_format="pyarrow")


CLICK_PURCHASE_MATRIX_SQL = """
WITH c AS (
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_clicks
    FROM events WHERE event_type = 'click' AND user_id % 2 = 0
    GROUP BY user_id
), p AS (
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_purchases
    FROM events WHERE event_type = 'purchase' AND user_id % 3 = 0
    GROUP BY user_id
)
SELECT COALESCE(c.user_id, p.user_id) AS user_id,
       c.n_clicks, p.n_purchases
FROM c FULL OUTER JOIN p ON c.user_id = p.user_id
"""


def region_brand_revenue(sf_dir: str, num_buckets: int = 64):
    """Deepest join chain in the engine (TPC-H Q5-flavor): revenue per
    (region, part brand) — lineitem ⋈ part ⋈ supplier ⋈ nation ⋈ region.
    Plan: two bucketed fact⋈fact exchanges (partkey, then suppkey), with
    a map-side partial aggregate BETWEEN them collapsing rows to
    ≤ (suppliers × brands) per block before the second join ships
    anything; nation⋈region (25 × 5 rows) folds to ONE broadcast dict.
    Money travels as per-row-rounded integer cents (DuckDB round() is
    half-away-from-zero) so the final small groupby is hash-exact.
    Output (r_name, p_brand, revenue_cents, n_items)."""
    lineitem = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey",
                                               "l_extendedprice",
                                               "l_discount"])
    part = read_table(sf_dir, "part", ["p_partkey", "p_brand"])
    supplier = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def to_cents(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        v = ep * (1.0 - dc) * 100.0
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return pa.table({
            "l_partkey": batch.column("l_partkey"),
            "l_suppkey": batch.column("l_suppkey"),
            "cents": pa.array(cents, pa.int64()),
        })

    li_schema = pa.schema([("l_partkey", pa.int64()),
                           ("l_suppkey", pa.int64()),
                           ("cents", pa.int64())])
    part_schema = pa.schema([("p_partkey", pa.int64()),
                             ("p_brand", pa.string())])
    j1 = hash_join(
        lineitem.map_batches(to_cents, batch_format="pyarrow"), part,
        "l_partkey", "p_partkey", num_buckets=num_buckets,
        left_schema=li_schema, right_schema=part_schema,
    )

    def partial(batch: pa.Table) -> pa.Table:
        g = (batch.select(["l_suppkey", "p_brand", "cents"])
             .group_by(["l_suppkey", "p_brand"])
             .aggregate([("cents", "sum"), ("cents", "count")]))
        # by name: pyarrow versions differ on keys-vs-aggregates order
        return pa.table({"l_suppkey": g.column("l_suppkey"),
                         "p_brand": g.column("p_brand"),
                         "cents": g.column("cents_sum"),
                         "n_items": g.column("cents_count")})

    mid_schema = pa.schema([("l_suppkey", pa.int64()),
                            ("p_brand", pa.string()),
                            ("cents", pa.int64()),
                            ("n_items", pa.int64())])
    supp_schema = pa.schema([("s_suppkey", pa.int64()),
                             ("s_nationkey", pa.int64())])
    j2 = hash_join(
        j1.map_batches(partial, batch_format="pyarrow"), supplier,
        "l_suppkey", "s_suppkey", num_buckets=num_buckets,
        left_schema=mid_schema, right_schema=supp_schema,
    )

    # nation ⋈ region is 25 × 5 rows — the one true broadcast
    import pyarrow.parquet as pq

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"))
    rmap = dict(zip(region.column("r_regionkey").to_pylist(),
                    region.column("r_name").to_pylist()))
    n2r = {nk: rmap[rk]
           for nk, rk in zip(nation.column("n_nationkey").to_pylist(),
                             nation.column("n_regionkey").to_pylist())}
    n2r_ref = ray.put(n2r)

    def to_region(batch: pa.Table) -> pa.Table:
        lookup = ray.get(n2r_ref)
        nk = batch.column("s_nationkey").to_pylist()
        return pa.table({
            "r_name": pa.array([lookup[k] for k in nk], pa.string()),
            "p_brand": batch.column("p_brand"),
            "cents": batch.column("cents"),
            "n_items": batch.column("n_items"),
        })

    return (
        j2.map_batches(to_region, batch_format="pyarrow")
        .groupby(["r_name", "p_brand"])
        .aggregate(Sum("cents", alias_name="revenue_cents"),
                   Sum("n_items", alias_name="n_items"))
    )


REGION_BRAND_REVENUE_SQL = """
SELECT r_name, p_brand,
       CAST(sum(CAST(round(l_extendedprice * (1 - l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem
JOIN part ON l_partkey = p_partkey
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name, p_brand
"""


# ---------------------------------------------------------------------------
# Q3-flavor: shipping-priority top-k (selective filters + semi + hash join)
# ---------------------------------------------------------------------------

Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1998-07-01"
Q3_TOPK = 10


def q3_shipping_priority(sf_dir: str, num_buckets: int = JOIN_BUCKETS,
                         broadcast_customer: bool | None = None):
    """TPC-H Q3-flavor: the k highest-revenue orders from one market
    segment that were placed before the cutoff but (partly) shipped
    after it. The plan is the selective-filter showcase:

    - every filter is PUSHED INTO THE READ (segment on customer,
      orderdate on orders, shipdate on lineitem) — only qualifying
      row groups leave storage;
    - the filtered customer side passes through the AQE gate: broadcast
      its custkey set when parquet metadata says it fits, else the
      bucketed SEMI join (both paths oracle-exact);
    - lineitem revenue is pre-aggregated per orderkey inside
      map_batches BEFORE the orders hash join ships anything;
    - the final top-k uses per-block top-k partials after the orderkey
      aggregate, so the global sort only ever sees ≤ blocks×k rows.

    Output (l_orderkey, o_orderdate, revenue_cents)."""
    import datetime as _dt

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    from ray.data.aggregate import Max, Sum as _Sum

    cutoff = _dt.datetime.fromisoformat(Q3_CUTOFF)

    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pads.field("o_orderdate") < cutoff,
    )

    if broadcast_customer is None:
        broadcast_customer = should_broadcast(sf_dir, "customer")

    if broadcast_customer:
        import pyarrow.parquet as pq

        ct = pq.read_table(
            os.path.join(sf_dir, "customer.parquet"),
            columns=["c_custkey", "c_mktsegment"],
            filters=pads.field("c_mktsegment") == Q3_SEGMENT,
        )
        keys_ref = ray.put(np.sort(
            ct.column("c_custkey").to_numpy(zero_copy_only=False)))

        def keep_segment(batch: pa.Table) -> pa.Table:
            keys = ray.get(keys_ref)  # sorted int64 array, put ONCE
            ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            mask = np.isin(ck, keys, assume_unique=False)
            return batch.filter(pa.array(mask))

        orders_seg = orders.map_batches(keep_segment, batch_format="pyarrow")
    else:
        cust = read_table(
            sf_dir, "customer",
            columns=["c_custkey"],
            filter=pads.field("c_mktsegment") == Q3_SEGMENT,
        )
        orders_schema = pa.schema([("o_orderkey", pa.int64()),
                                   ("o_custkey", pa.int64()),
                                   ("o_orderdate", pa.timestamp("us"))])
        orders_seg = semi_join(orders, cust, "o_custkey", "c_custkey",
                               num_buckets=num_buckets,
                               left_schema=orders_schema)

    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > cutoff,
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        v = ep * (1.0 - dc) * 100.0
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        t = pa.table({"l_orderkey": batch.column("l_orderkey"),
                      "cents": pa.array(cents, pa.int64())})
        g = t.group_by("l_orderkey").aggregate([("cents", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "cents": g.column("cents_sum")})

    li_schema = pa.schema([("l_orderkey", pa.int64()),
                           ("cents", pa.int64())])

    def orders_proj(batch: pa.Table) -> pa.Table:
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64())
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "date_us": date_us})

    o_schema = pa.schema([("o_orderkey", pa.int64()),
                          ("date_us", pa.int64())])

    joined = hash_join(
        lineitem.map_batches(li_partial, batch_format="pyarrow"),
        orders_seg.map_batches(orders_proj, batch_format="pyarrow"),
        "l_orderkey", "o_orderkey", num_buckets=num_buckets,
        left_schema=li_schema, right_schema=o_schema,
    )

    totals = joined.groupby("l_orderkey").aggregate(
        _Sum("cents", alias_name="revenue_cents"),
        Max("date_us", alias_name="date_us"),  # constant per order
    )

    k = Q3_TOPK

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        order = pc.sort_indices(
            batch,
            sort_keys=[("revenue_cents", "descending"),
                       ("l_orderkey", "ascending")],
        )
        return batch.take(order[:k])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "o_orderdate": pc.cast(batch.column("date_us"),
                                   pa.timestamp("us")),
            "revenue_cents": batch.column("revenue_cents"),
        })

    return (
        totals.map_batches(block_topk, batch_format="pyarrow")
        .sort(["revenue_cents", "l_orderkey"], descending=[True, False])
        .limit(k)
        .map_batches(finish, batch_format="pyarrow")
    )


Q3_SHIPPING_SQL = f"""
SELECT l.l_orderkey AS l_orderkey,
       o.o_orderdate AS o_orderdate,
       CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                     AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer c
JOIN orders o   ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_CUTOFF}'
  AND l.l_shipdate  > TIMESTAMP '{Q3_CUTOFF}'
GROUP BY l.l_orderkey, o.o_orderdate
ORDER BY revenue_cents DESC, l_orderkey ASC
LIMIT {Q3_TOPK}
"""


# ---------------------------------------------------------------------------
# percent-of-total: revenue share per nation
# ---------------------------------------------------------------------------


def nation_revenue_share(sf_dir: str):
    """Percent-of-total — every BI rollup's last mile: each nation's
    share of global revenue in integer ppm. The heavy lifting is
    :func:`nation_revenue` (pre-aggregated exchanges); the share step
    operates on the DIMENSION-scale result (≤ |nations| rows), so one
    ``repartition(1)`` puts the whole rollup in a single block and the
    share is computed in-task — the corpus is never touched again.
    Output (n_name, revenue_cents, share_ppm)."""
    rev = nation_revenue(sf_dir)

    def share(batch: pa.Table) -> pa.Table:
        cents = batch.column("revenue_cents").to_pylist()
        total = sum(cents)
        # Python-int arithmetic: numpy int64 would wrap silently once a
        # nation's revenue exceeds ~9.2e12 cents (TPC-H sf≈5-10), while
        # the DuckDB oracle promotes to HUGEINT — the share column is
        # ≤ |nations| values, so unvectorized bignum math is free here
        ppm = np.asarray([c * 1_000_000 // total for c in cents],
                         dtype=np.int64)
        return pa.table({
            "n_name": batch.column("n_name"),
            "revenue_cents": batch.column("revenue_cents"),
            "share_ppm": pa.array(ppm, pa.int64()),
        })

    return rev.repartition(1).map_batches(share, batch_format="pyarrow",
                                          batch_size=None)


NATION_REVENUE_SHARE_SQL = """
WITH rev AS (
  SELECT n.n_name AS n_name,
         CAST(sum(CAST(round(l.l_extendedprice * (1 - l.l_discount) * 100)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem l
  JOIN orders o   ON l.l_orderkey = o.o_orderkey
  JOIN customer c ON o.o_custkey = c.c_custkey
  JOIN nation n   ON c.c_nationkey = n.n_nationkey
  GROUP BY n.n_name
)
SELECT n_name, revenue_cents,
       CAST(revenue_cents * 1000000
            // sum(revenue_cents) OVER () AS BIGINT) AS share_ppm
FROM rev
"""


# ---------------------------------------------------------------------------
# Q4-flavor: order-priority counts gated on an EXISTS lineitem predicate
# ---------------------------------------------------------------------------

Q4_FROM = "1999-01-01"
Q4_TO = "1999-07-01"


def q4_order_priority(sf_dir: str, num_buckets: int = JOIN_BUCKETS):
    """TPC-H Q4-flavor: how many orders per priority, in a date window,
    have AT LEAST ONE late line (l_shipdate after the order quarter's
    end) — the EXISTS-correlated-subquery shape, expressed as the
    engine's bucketed SEMI join: the lineitem side is pre-collapsed to
    its DISTINCT qualifying orderkeys inside map_batches (an EXISTS
    witness needs one row, so per-block dedup bounds the exchange),
    orders carry only (orderkey, priority) with the window pushed into
    the read. Output (o_orderpriority, n_orders)."""
    import datetime as _dt

    import pyarrow.dataset as pads
    from ray.data.aggregate import Count

    lo = _dt.datetime.fromisoformat(Q4_FROM)
    hi = _dt.datetime.fromisoformat(Q4_TO)

    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_orderpriority", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo)
               & (pads.field("o_orderdate") < hi),
    ).map_batches(
        lambda b: b.select(["o_orderkey", "o_orderpriority"]),
        batch_format="pyarrow",
    )

    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_shipdate"],
        filter=pads.field("l_shipdate") >= hi,
    )

    def witness_keys(batch: pa.Table) -> pa.Table:
        keys = np.unique(
            batch.column("l_orderkey").to_numpy(zero_copy_only=False))
        return pa.table({"l_orderkey": pa.array(keys, pa.int64())})

    witnesses = lineitem.map_batches(witness_keys, batch_format="pyarrow")

    orders_schema = pa.schema([("o_orderkey", pa.int64()),
                               ("o_orderpriority", pa.string())])
    hit = semi_join(orders, witnesses, "o_orderkey", "l_orderkey",
                    num_buckets=num_buckets, left_schema=orders_schema)

    return (
        hit.map_batches(
            lambda b: b.select(["o_orderpriority"]),
            batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"))
    )


Q4_ORDER_PRIORITY_SQL = f"""
SELECT o.o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '{Q4_FROM}'
  AND o.o_orderdate <  TIMESTAMP '{Q4_TO}'
  AND EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate >= TIMESTAMP '{Q4_TO}')
GROUP BY o.o_orderpriority
"""
