"""Distributed joins.

Ray Data 2.49 does have a native ``Dataset.join``, but on this engine's
exchange workloads it measured far slower than the bucketed plan below
(BASELINE.md, "Native ``Dataset.join`` A/B"), so this module keeps its
own two join strategies, both oracle-checked:

- **broadcast join** (small side ⋈ big side): the small table is
  ``ray.put`` once and probed as a dict inside ``map_batches`` — zero
  shuffle. The dimension tables (nation: 25 rows) always take it; a
  customer side takes it only when ``exchange.fits_broadcast`` says it
  fits one Ray block (customer is a fact table at 100 TB-scale TPC-H).
- **cogroup** (big ⋈ big), the one co-partitioning plan: every side is
  tagged with a stable ``hash(key) % P`` bucket column and its side
  name, P sized over all the sides' input (``input_partitions``), the
  sides are unioned, and ONE ``bucket_exchange`` (stages/exchange.py)
  hands each partition's rows to ``fn`` as ``{side: pa.Table}``; all
  rows of one key, from every side, share a partition. The five join
  kinds (inner, left outer, full outer, left semi, left anti) are a
  two-side ``cogroup`` whose ``fn`` is one Acero join
  (``pa.Table.join``) — pyarrow-native end to end.

Same-key fold: a plan that aggregates and joins on the SAME key runs
both in one ``cogroup`` — the aggregate's partial runs map-side and its
final ``group_by`` runs inside ``fn`` next to the join
(``click_purchase_matrix``, ``q3_shipping_priority``,
``relational.customer_order_counts``). Every exchange costs a fixed
chunk of driver, raylet and worker CPU, so one fewer exchange is the
saving on small inputs. Steps on DIFFERENT keys keep their own
exchanges.

Next-key fold, the mirror of the same-key fold: when the step after a
join is an aggregate over a small fixed key domain (nations, market
segments, order priorities), ``fn`` joins its partition and
``stages.exchange.finish_agg`` folds the joined rows into partials on
that NEXT key, fused into the same reduce task, and sums the
≤ P × |domain| partials in one task — no second exchange after the
join (``supplier_part_join``: suppkey join, nationkey partials;
``nation_revenue``, ``relational.segment_order_stats``,
``region_brand_revenue``, ``q4_order_priority``).

Every side's schema is known at plan time: a parquet read knows its
own, and a side behind a map or an exchange declares it
(``left_schema=``/``right_schema=`` or ``cogroup``'s ``fields``).
Nothing executes while a plan is built.

``nation_revenue`` composes them: lineitem ⋈ orders and then
per-custkey partials ⋈ customer via TWO bucketed exchanges (all three
are fact tables; customer is broadcast instead when it fits one Ray
block), nation names via the 25-row broadcast,
with revenue pre-aggregated before every exchange — the
partial-aggregation pattern that keeps the wide exchanges small.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from pd3f_ray.core.arrowkit import agg, round_half_away
from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import (
    bucket_exchange,
    finish_agg,
    fits_broadcast,
    input_partitions,
    stable_bucket,
    top_k,
)

MEMBERSHIP = ("left semi", "left anti")  # join kinds that emit left rows only


def _arrow_fields(ds: "rd.Dataset", schema, arg: str) -> dict:
    """{column: pyarrow type} of one join side, captured at plan time —
    the input of the pyarrow-native group reducer. Without an explicit
    schema the side must know its own Arrow schema without running (a
    parquet read, in-memory Arrow data). A side behind a map or an
    exchange must declare it: ``Dataset.schema()`` would execute the
    side's plan once just to learn its dtypes, and then again for real."""
    if schema is None:
        schema = getattr(ds.schema(fetch_if_missing=False), "base_schema",
                         None)
    if not isinstance(schema, pa.Schema):
        raise TypeError(f"join side has no plan-time pyarrow schema "
                        f"({type(schema).__name__}); pass {arg}=pa.schema(...)")
    return dict(zip(schema.names, schema.types))


def _side_table(group: pa.Table, side: str, columns: dict,
                fields: dict) -> pa.Table:
    """One side's rows of a tagged-union partition under the side's own
    column names (``columns`` maps each to its union column), typed as
    ``fields`` declares. Every tagged block has the union schema, but an
    empty input block reaches the exchange untagged (Ray calls no UDF
    on it), and the partition it joins may then lack a union column or
    carry it null-typed: that column is padded or cast here."""
    t = group.filter(pc.equal(group.column("__side"), side))
    cols = {}
    for col, typ in fields.items():
        u = columns[col]
        c = t.column(u) if u in t.column_names else pa.nulls(t.num_rows, typ)
        cols[col] = c if c.type == typ else c.cast(typ)
    return pa.table(cols)


def cogroup(sides: dict, fn) -> "rd.Dataset":
    """Co-partition several datasets on their keys in ONE exchange and
    call ``fn`` once per partition with ``{side: pa.Table}``.

    ``sides`` maps a side name to ``(dataset, key column, fields)``,
    ``fields`` being the side's plan-time ``{column: pyarrow type}``.
    Each side is tagged with a stable key-hash bucket over the P of all
    the sides' input and with its name, the sides are unioned, and one
    ``bucket_exchange`` co-partitions them: every row of a key, from
    every side, reaches the same ``fn`` call.
    A side with no rows in a partition arrives as its typed empty
    table. Null keys all land in one bucket; ``fn`` decides what they
    mean (the joins match them with nothing).

    Every side is tagged onto ONE schema, so the tagged blocks of all
    sides agree: side ``s``'s column ``c`` is the union column
    ``__c<i>`` in its declared type, the other sides' columns are typed
    nulls, then ``__bucket`` and ``__side``."""
    fields = {name: ft for name, (_, _, ft) in sides.items()}
    union_fields = []  # (union column, type) in side order
    columns = {}  # side -> {column: union column}
    for name, ft in fields.items():
        columns[name] = {}
        for col, typ in ft.items():
            columns[name][col] = f"__c{len(union_fields)}"
            union_fields.append((columns[name][col], typ))
    schema = pa.schema(union_fields + [("__bucket", pa.int32()),
                                       ("__side", pa.string())])
    p = input_partitions(*(ds for ds, _, _ in sides.values()))

    def tag(side: str, key: str):
        def fn(batch: pa.Table) -> pa.Table:
            b = stable_bucket(batch.column(key), p)
            n = batch.num_rows
            own = {}
            for col, typ in fields[side].items():
                c = (batch.column(col) if col in batch.column_names
                     else pa.nulls(n, typ))
                own[columns[side][col]] = c if c.type == typ else c.cast(typ)
            arrays = [own[u] if u in own else pa.nulls(n, typ)
                      for u, typ in union_fields]
            arrays += [pa.array(b, pa.int32()),
                       pa.array([side] * n, pa.string())]
            return pa.Table.from_arrays(arrays, schema=schema)
        return fn

    def reduce(group: pa.Table) -> pa.Table:
        return fn({name: _side_table(group, name, columns[name], ft)
                   for name, ft in fields.items()})

    tagged = [ds.map_batches(tag(name, key), batch_format="pyarrow")
              for name, (ds, key, _) in sides.items()]
    union = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return bucket_exchange(union, "__bucket", reduce)


def _acero_join(l: pa.Table, r: pa.Table, left_key: str, right_key: str,
                join_type: str) -> pa.Table:
    """One partition's Acero join. Acero coalesces the key pair into the
    left name; pandas merge keeps both, so a distinctly named right key
    is carried through as its own column (null when unmatched)."""
    carry = right_key != left_key and join_type not in MEMBERSHIP
    if carry:
        r = r.append_column("__rk", r.column(right_key))
    out = l.join(r, keys=left_key, right_keys=right_key, join_type=join_type)
    if carry:
        out = out.rename_columns(
            [right_key if c == "__rk" else c for c in out.column_names])
    return out


def _bucketed_join(left: "rd.Dataset", right: "rd.Dataset", left_key: str,
                   right_key: str, join_type: str, left_schema,
                   right_schema) -> "rd.Dataset":
    """The one plan behind every join kind: a two-side ``cogroup`` whose
    ``fn`` is one Acero ``pa.Table.join`` of ``join_type``. A key's rows
    share a partition, so each row meets every partner it could have
    and an unmatched row is emitted once; a null key never matches.

    Column lists and Arrow types are captured at plan time, and nothing
    runs to learn them. Pass ``left_schema``/``right_schema`` (pyarrow)
    for a side behind a map or an exchange; without it such a side
    raises ``TypeError``. Sampling ``Dataset.schema()`` instead would run
    the side's plan once just to learn dtypes, and then again for real
    (measured 5.6 s → 21 s when chaining two joins)."""
    left_ft = _arrow_fields(left, left_schema, "left_schema")
    if join_type in MEMBERSHIP:
        # membership needs only the right key: ship that column alone,
        # typed like the left key, and never sample the right schema
        right = right.select_columns([right_key])
        right_ft = {right_key: left_ft[left_key]}
        out_cols = list(left_ft)
    else:
        right_ft = _arrow_fields(right, right_schema, "right_schema")
        out_cols = list(left_ft) + [k for k in right_ft if k not in left_ft]

    def join(sides: dict) -> pa.Table:
        return _acero_join(sides["l"], sides["r"], left_key, right_key,
                           join_type).select(out_cols)

    return cogroup({"l": (left, left_key, left_ft),
                    "r": (right, right_key, right_ft)}, join)


def hash_join(left, right, left_key: str, right_key: str,
              left_schema=None, right_schema=None) -> "rd.Dataset":
    """INNER join (one bucketed shuffle). Column names must be disjoint
    apart from the keys; distinct key names keep both key columns."""
    return _bucketed_join(left, right, left_key, right_key, "inner",
                          left_schema, right_schema)


def left_join(left, right, left_key: str, right_key: str,
              left_schema=None, right_schema=None) -> "rd.Dataset":
    """LEFT OUTER join. Unmatched right-side columns (right key included)
    come back as typed nulls, so every group emits the same schema."""
    return _bucketed_join(left, right, left_key, right_key, "left outer",
                          left_schema, right_schema)


def anti_join(left, right, left_key: str, right_key: str,
              left_schema=None) -> "rd.Dataset":
    """LEFT ANTI join: left rows whose key does NOT appear on the right
    (a null left key never matches, so it stays). Output = left schema."""
    return _bucketed_join(left, right, left_key, right_key, "left anti",
                          left_schema, None)


def semi_join(left, right, left_key: str, right_key: str,
              left_schema=None) -> "rd.Dataset":
    """LEFT SEMI join: left rows whose key DOES appear on the right,
    each at most once whatever the right-side multiplicity —
    ``WHERE key IN (...)`` semantics. Output = the left schema."""
    return _bucketed_join(left, right, left_key, right_key, "left semi",
                          left_schema, None)


def full_outer_join(left, right, key: str, left_schema=None,
                    right_schema=None) -> "rd.Dataset":
    """FULL OUTER join on a key column named alike on both sides. The key
    is coalesced (COALESCE(l.key, r.key)); unmatched columns come back as
    typed nulls — int64 stays integral, no pandas float promotion."""
    return _bucketed_join(left, right, key, key, "full outer",
                          left_schema, right_schema)


def nation_revenue(sf_dir: str):
    """Revenue by customer nation:
    lineitem ⋈ orders (bucketed hash join on orderkey, revenue
    pre-aggregated per order inside map_batches) → partial per-custkey
    revenue → customer: a broadcast custkey→nationkey dict when the
    side ``fits_broadcast``, else (at TPC-H SF for 100 TB the customer
    table is terabytes) a SECOND bucketed exchange, each partition
    folded into per-nation partials (the next-key fold) → the 25-row
    nation name map → ``finish_agg`` sums the partials in one task.
    Output (n_name, revenue_cents)."""
    import pyarrow.parquet as pq

    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    nkey_to_name = dict(zip(nat.column("n_nationkey").to_pylist(),
                            nat.column("n_name").to_pylist()))
    lookup_ref = ray.put(nkey_to_name)  # 25 rows — genuinely small

    orders = read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    customer = read_table(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    lineitem = read_table(sf_dir, "lineitem",
                          ["l_orderkey", "l_extendedprice", "l_discount"])

    # pre-aggregate lineitem revenue per orderkey inside map_batches so
    # the join exchange carries one row per (block, orderkey), not one
    # per lineitem
    def pre_agg(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey")
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = round_half_away(price * (1.0 - disc) * 100)
        return agg(pa.table({"l_orderkey": ok,
                             "cents": pa.array(cents, pa.int64())}),
                   ["l_orderkey"], {"revenue_cents": ("cents", "sum")})

    rev = lineitem.map_batches(pre_agg, batch_format="pyarrow")
    joined = hash_join(rev, orders, "l_orderkey", "o_orderkey",
                       left_schema=pa.schema([("l_orderkey", pa.int64()),
                                              ("revenue_cents", pa.int64())]))

    total = {"revenue_cents": ("revenue_cents", "sum")}

    # partial per-custkey revenue inside each batch so join #2 moves one
    # row per (block, custkey)
    def per_cust(batch: pa.Table) -> pa.Table:
        return agg(batch, ["o_custkey"], total)

    cust_rev = joined.map_batches(per_cust, batch_format="pyarrow")

    def by_name(nationkeys: list, cents) -> pa.Table:
        """Revenue rows on the final key, the nation name."""
        lookup = ray.get(lookup_ref)
        return pa.table({
            "n_name": pa.array([lookup[n] for n in nationkeys], pa.string()),
            "revenue_cents": cents})

    if fits_broadcast(customer):
        # customer fits one task's block: probe a broadcast
        # custkey→nationkey dict — zero extra shuffle
        ctbl = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_nationkey"])
        cmap = dict(zip(ctbl.column("c_custkey").to_pylist(),
                        ctbl.column("c_nationkey").to_pylist()))
        cref = ray.put(cmap)

        def to_nation(batch: pa.Table) -> pa.Table:
            cm = ray.get(cref)
            custkeys = batch.column("o_custkey").to_pylist()
            return by_name([cm[c] for c in custkeys],
                           batch.column("revenue_cents"))

        named = cust_rev.map_batches(to_nation, batch_format="pyarrow")
    else:
        # scale path: customer is a fact table — co-partition it, and
        # fold each partition's joined rows into nation partials
        def to_nation(sides: dict) -> pa.Table:
            j = _acero_join(sides["r"], sides["c"], "o_custkey", "c_custkey",
                            "inner")
            return by_name(j.column("c_nationkey").to_pylist(),
                           j.column("revenue_cents"))

        named = cogroup(
            {"r": (cust_rev, "o_custkey", {"o_custkey": pa.int64(),
                                           "revenue_cents": pa.int64()}),
             "c": (customer, "c_custkey",
                   _arrow_fields(customer, None, "customer"))}, to_nation)

    return finish_agg(named, ["n_name"], total)


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


def supplier_part_join(sf_dir: str):
    """Pure bucketed hash-join exercise on two mid-size tables:
    lineitem ⋈ supplier on suppkey, counting lineitems and summing
    quantity per supplier nation. Per-block partials per suppkey and the
    supplier table meet in ONE ``cogroup``; each partition joins them
    and folds the joined rows into partials per nation (the next-key
    fold), and ``finish_agg`` sums the ≤ P × 25 partials in one task.
    Output (s_nationkey, n_lineitems, sum_qty)."""
    supplier = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])
    lineitem = read_table(sf_dir, "lineitem", ["l_suppkey", "l_quantity"])

    def pre(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        qty = round_half_away(q)
        return agg(pa.table({"l_suppkey": batch.column("l_suppkey"),
                             "qty": pa.array(qty, pa.int64())}),
                   ["l_suppkey"], {"n_lineitems": ([], "count_all"),
                                   "sum_qty": ("qty", "sum")})

    def per_nation(sides: dict) -> pa.Table:
        return _acero_join(sides["l"], sides["s"], "l_suppkey", "s_suppkey",
                           "inner").select(["s_nationkey", "n_lineitems",
                                            "sum_qty"])

    parts = cogroup(
        {"l": (lineitem.map_batches(pre, batch_format="pyarrow"), "l_suppkey",
               {"l_suppkey": pa.int64(), "n_lineitems": pa.int64(),
                "sum_qty": pa.int64()}),
         "s": (supplier, "s_suppkey",
               _arrow_fields(supplier, None, "supplier"))}, per_nation)
    return finish_agg(parts, ["s_nationkey"],
                      {"n_lineitems": ("n_lineitems", "sum"),
                       "sum_qty": ("sum_qty", "sum")})


SUPPLIER_PART_SQL = """
SELECT s.s_nationkey AS s_nationkey,
       CAST(count(*) AS BIGINT) AS n_lineitems,
       CAST(sum(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty
FROM lineitem l
JOIN supplier s ON l.l_suppkey = s.s_suppkey
GROUP BY s.s_nationkey
"""


def customers_with_orders(sf_dir: str):
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
                     left_schema=schema)


CUSTOMERS_WITH_ORDERS_SQL = """
SELECT c_custkey, c_name, c_acctbal
FROM customer
WHERE c_custkey IN (SELECT o_custkey FROM orders)
"""


def click_purchase_matrix(sf_dir: str):
    """FULL-OUTER-join query: per-user click counts (even user ids) ⟗
    per-user purchase counts (user ids divisible by 3) — the residue
    filters guarantee genuinely unmatched rows on BOTH sides, which is
    what distinguishes the operator from a left join. Both aggregates
    and the join share the key ``user_id``, so the plan is ONE
    ``cogroup`` exchange: each block's picked events are partially
    counted per ``(user_id, event_type)``, and each partition finishes
    the counts with one ``group_by`` and full-outer-joins the clicks to
    the purchases. Output (user_id, n_clicks?, n_purchases?) with
    nullable counts."""
    events = read_table(sf_dir, "events", ["user_id", "event_type"])

    def divisible(uid, d: int):
        return pc.equal(pc.subtract(uid, pc.multiply(pc.divide(uid, d), d)),
                        0)

    def pick(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id")
        et = batch.column("event_type")
        keep = pc.or_(pc.and_(pc.equal(et, "click"), divisible(uid, 2)),
                      pc.and_(pc.equal(et, "purchase"), divisible(uid, 3)))
        g = (batch.filter(keep).group_by(["user_id", "event_type"])
             .aggregate([([], "count_all")]))
        return pa.table({"user_id": g.column("user_id"),
                         "event_type": g.column("event_type"),
                         "n": g.column("count_all")})

    def matrix(sides: dict) -> pa.Table:
        g = (sides["e"].group_by(["user_id", "event_type"])
             .aggregate([("n", "sum")]))
        et = g.column("event_type")

        def counts(event_type: str, name: str) -> pa.Table:
            t = g.filter(pc.equal(et, event_type))
            return pa.table({"user_id": t.column("user_id"),
                             name: t.column("n_sum")})

        out = _acero_join(counts("click", "n_clicks"),
                          counts("purchase", "n_purchases"),
                          "user_id", "user_id", "full outer")
        # The nullable count columns must ship in the ORACLE-STABLE
        # dtype: DuckDB's .df() renders a nullable BIGINT as float64
        # with NaN, while nullable int64 Arrow blocks can surface as
        # pandas Int64 — value-equal but hash-DIFFERENT once serialized
        # (r03 driver: rows/schema match, hash mismatch). Cast to
        # float64/null so both sides serialize alike.
        return pa.table({
            "user_id": out.column("user_id"),
            "n_clicks": pc.cast(out.column("n_clicks"), pa.float64()),
            "n_purchases": pc.cast(out.column("n_purchases"), pa.float64()),
        })

    fields = {"user_id": pa.int64(), "event_type": pa.string(),
              "n": pa.int64()}
    picked = events.map_batches(pick, batch_format="pyarrow")
    return cogroup({"e": (picked, "user_id", fields)}, matrix)


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


def region_brand_revenue(sf_dir: str):
    """Deepest join chain in the engine (TPC-H Q5-flavor): revenue per
    (region, part brand) — lineitem ⋈ part ⋈ supplier ⋈ nation ⋈ region.
    Plan: two bucketed fact⋈fact exchanges (partkey, then suppkey), with
    a map-side partial aggregate BETWEEN them collapsing rows to
    ≤ (suppliers × brands) per block before the second join ships
    anything; nation⋈region (25 × 5 rows) folds to ONE broadcast dict.
    Money travels as per-row-rounded integer cents (DuckDB round() is
    half-away-from-zero) so the final small aggregate (≤ 5 regions × 25
    brands, partials in the join's reduce, ``finish_agg``) is hash-exact.
    Output (r_name, p_brand, revenue_cents, n_items)."""
    lineitem = read_table(sf_dir, "lineitem", ["l_partkey", "l_suppkey",
                                               "l_extendedprice",
                                               "l_discount"])
    part = read_table(sf_dir, "part", ["p_partkey", "p_brand"])
    supplier = read_table(sf_dir, "supplier", ["s_suppkey", "s_nationkey"])

    def to_cents(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = round_half_away(ep * (1.0 - dc) * 100.0)
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
        "l_partkey", "p_partkey", left_schema=li_schema,
        right_schema=part_schema,
    )

    def partial(batch: pa.Table) -> pa.Table:
        return agg(batch, ["l_suppkey", "p_brand"],
                   {"cents": ("cents", "sum"), "n_items": ("cents", "count")})

    mid_schema = pa.schema([("l_suppkey", pa.int64()),
                            ("p_brand", pa.string()),
                            ("cents", pa.int64()),
                            ("n_items", pa.int64())])
    supp_schema = pa.schema([("s_suppkey", pa.int64()),
                             ("s_nationkey", pa.int64())])
    j2 = hash_join(
        j1.map_batches(partial, batch_format="pyarrow"), supplier,
        "l_suppkey", "s_suppkey", left_schema=mid_schema,
        right_schema=supp_schema,
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

    # rows on the final (region, brand) key, in the join's reduce task
    def to_region(batch: pa.Table) -> pa.Table:
        lookup = ray.get(n2r_ref)
        nk = batch.column("s_nationkey").to_pylist()
        return pa.table({
            "r_name": pa.array([lookup[k] for k in nk], pa.string()),
            "p_brand": batch.column("p_brand"),
            "cents": batch.column("cents"),
            "n_items": batch.column("n_items"),
        })

    return finish_agg(j2.map_batches(to_region, batch_format="pyarrow"),
                      ["r_name", "p_brand"],
                      {"revenue_cents": ("cents", "sum"),
                       "n_items": ("n_items", "sum")})


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


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3-flavor: the k highest-revenue orders from one market
    segment that were placed before the cutoff but (partly) shipped
    after it. The plan is the selective-filter showcase:

    - every filter is PUSHED INTO THE READ (segment on customer,
      orderdate on orders, shipdate on lineitem) — only qualifying
      row groups leave storage;
    - the filtered customer side passes through ``fits_broadcast``:
      broadcast its custkey set when its planned bytes fit one Ray
      block, else the bucketed SEMI join (both paths oracle-exact);
    - lineitem revenue is pre-aggregated per orderkey inside
      map_batches BEFORE the orders hash join ships anything;
    - the orderkey join and the per-order totals share their key, so
      both run in ONE ``cogroup`` exchange;
    - the final ``top_k`` keeps k rows per block of the per-order
      totals, so its one finishing task sorts ≤ blocks×k rows.

    Output (l_orderkey, o_orderdate, revenue_cents)."""
    import datetime as _dt

    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    cutoff = _dt.datetime.fromisoformat(Q3_CUTOFF)

    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pads.field("o_orderdate") < cutoff,
    )

    cust = read_table(
        sf_dir, "customer",
        columns=["c_custkey"],
        filter=pads.field("c_mktsegment") == Q3_SEGMENT,
    )
    if fits_broadcast(cust):
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
        orders_schema = pa.schema([("o_orderkey", pa.int64()),
                                   ("o_custkey", pa.int64()),
                                   ("o_orderdate", pa.timestamp("us"))])
        orders_seg = semi_join(orders, cust, "o_custkey", "c_custkey",
                               left_schema=orders_schema)

    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pads.field("l_shipdate") > cutoff,
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        ep = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        dc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = round_half_away(ep * (1.0 - dc) * 100.0)
        t = pa.table({"l_orderkey": batch.column("l_orderkey"),
                      "cents": pa.array(cents, pa.int64())})
        g = t.group_by("l_orderkey").aggregate([("cents", "sum")])
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "cents": g.column("cents_sum")})

    def orders_proj(batch: pa.Table) -> pa.Table:
        date_us = pc.cast(batch.column("o_orderdate"), pa.int64())
        return pa.table({"o_orderkey": batch.column("o_orderkey"),
                         "date_us": date_us})

    # the join and the per-order totals share the key: one exchange
    def order_totals(sides: dict) -> pa.Table:
        g = (_acero_join(sides["l"], sides["o"], "l_orderkey", "o_orderkey",
                         "inner")
             .group_by("l_orderkey")
             .aggregate([("cents", "sum"),
                         ("date_us", "max")]))  # constant per order
        return pa.table({"l_orderkey": g.column("l_orderkey"),
                         "revenue_cents": g.column("cents_sum"),
                         "date_us": g.column("date_us_max")})

    totals = cogroup(
        {"l": (lineitem.map_batches(li_partial, batch_format="pyarrow"),
               "l_orderkey", {"l_orderkey": pa.int64(), "cents": pa.int64()}),
         "o": (orders_seg.map_batches(orders_proj, batch_format="pyarrow"),
               "o_orderkey", {"o_orderkey": pa.int64(),
                              "date_us": pa.int64()})}, order_totals)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": batch.column("l_orderkey"),
            "o_orderdate": pc.cast(batch.column("date_us"),
                                   pa.timestamp("us")),
            "revenue_cents": batch.column("revenue_cents"),
        })

    return top_k(totals, [("revenue_cents", "descending"),
                          ("l_orderkey", "ascending")],
                 Q3_TOPK).map_batches(finish, batch_format="pyarrow")


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
    operates on the DIMENSION-scale result (≤ |nations| rows), which
    ``finish_agg`` already leaves in a single block, so the share is
    computed in its task — the corpus is never touched again.
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

    return rev.map_batches(share, batch_format="pyarrow", batch_size=None)


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


def q4_order_priority(sf_dir: str):
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
                    left_schema=orders_schema)

    # counts on the 5 priorities, finished in one task
    return finish_agg(hit, ["o_orderpriority"],
                      {"n_orders": ([], "count_all")})


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
