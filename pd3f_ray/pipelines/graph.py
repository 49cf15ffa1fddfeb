"""Graph analytics over relationship tables — integer PageRank.

A crawl pipeline's link graph (url → url edges from ``LinkExtractor``)
needs graph-centrality scoring for seed selection and crawl-frontier
prioritization; the same machinery ranks entities in any relationship
table. Here the graph is the customer↔supplier bipartite graph derived
from ``orders ⋈ lineitem`` (an edge per distinct trading pair,
symmetrized so every node has out-edges), and the operator is a
fixed-iteration PageRank in INTEGER micro-rank arithmetic:

    contrib(u)  = rank(u) // outdeg(u)              (floor division)
    rank'(v)    = 150_000 + (85 * Σ contrib(u→v)) // 100

Integer sums are order-independent, so the distributed result is
bit-identical to the unrolled SQL oracle — no float-summation-order
hazard — while keeping real PageRank structure (damping 0.85,
degree-normalized contributions, rank_0 = 1_000_000).

Plan shape (every exchange bucketed, no driver materialization):
1. ``hash_join(lineitem, orders)`` on orderkey → trading pairs;
2. one src-hash-bucketed exchange deduplicates the symmetrized edges
   AND computes each source's outdegree in the same group (every edge
   of a src lands in its bucket), emitting the static
   (src, dst, outdeg) table, materialized once;
3. per iteration: ``hash_join(edges, ranks)`` on src (explicit
   schemas — both sides are post-shuffle, the ``.schema()`` probe
   would re-run the upstream exchange), map-side partial sums per
   (block, dst), one groupby(dst-bucket) exchange, rank update map.

K defaults to 3 iterations — the oracle unrolls the same K.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import ray.data as rd

from pd3f_ray.core.cluster import read_parquet, read_table
from pd3f_ray.pipelines.joins import hash_join

PR_ITERS = 3
PR_RANK0 = 1_000_000         # micro-rank units
PR_BASE = 150_000            # (1 - d) * rank-unit with d = 0.85
PR_DAMP_NUM, PR_DAMP_DEN = 85, 100
PR_BUCKETS = 128
PR_BROADCAST_MAX = 5_000_000  # rank rows; above this, hash_join path


def _edges_with_outdeg(sf_dir: str):
    """(src, dst, outdeg) — symmetrized distinct trading-pair edges
    with the source outdegree computed in the dedup exchange."""
    pairs = hash_join(
        read_table(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"]),
        read_table(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        "l_orderkey", "o_orderkey",
        left_schema=pa.schema([("l_orderkey", pa.int64()),
                               ("l_suppkey", pa.int64())]),
        right_schema=pa.schema([("o_orderkey", pa.int64()),
                                ("o_custkey", pa.int64())]),
    )

    def symmetrize(batch: pa.Table) -> pa.Table:
        c = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        s = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        # disjoint node id spaces: customer 2k, supplier 2k+1
        src = np.concatenate([c * 2, s * 2 + 1])
        dst = np.concatenate([s * 2 + 1, c * 2])
        return pa.table({
            "src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "gbucket": pa.array((src % PR_BUCKETS).astype(np.int32),
                                pa.int32()),
        })

    def dedup_and_degree(group: pa.Table) -> pa.Table:
        src = group.column("src").to_numpy(zero_copy_only=False)
        dst = group.column("dst").to_numpy(zero_copy_only=False)
        if len(src) == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"src": e, "dst": e, "outdeg": e})
        order = np.lexsort((dst, src))
        s, d = src[order], dst[order]
        keep = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        s, d = s[keep], d[keep]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        counts = np.diff(np.r_[starts, len(s)])
        return pa.table({
            "src": pa.array(s.astype(np.int64), pa.int64()),
            "dst": pa.array(d.astype(np.int64), pa.int64()),
            "outdeg": pa.array(np.repeat(counts, counts).astype(np.int64),
                               pa.int64()),
        })

    return (
        pairs.map_batches(symmetrize, batch_format="pyarrow")
        .groupby("gbucket")
        .map_groups(dedup_and_degree, batch_format="pyarrow")
        .materialize()
    )


ITER_MANIFEST = "_ITERS.jsonl"


def _iter_dir(checkpoint_dir: str, k: int) -> str:
    return os.path.join(checkpoint_dir, f"iter={k:04d}")


def _load_iter_manifest(checkpoint_dir: str, sf_dir: str) -> dict[int, dict]:
    """iteration → record, ignoring checkpoints from a DIFFERENT input
    (lineage staleness, same rule as run_resumable)."""
    path = os.path.join(checkpoint_dir, ITER_MANIFEST)
    done: dict[int, dict] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if line:
                    rec = json.loads(line)
                    if rec.get("sf_dir") == sf_dir and os.path.isdir(
                            _iter_dir(checkpoint_dir, rec["iter"])):
                        done[rec["iter"]] = rec
    return done


def _commit_iteration(checkpoint_dir: str, sf_dir: str, k: int,
                      ranks: "rd.Dataset") -> "rd.Dataset":
    """Atomically checkpoint one iteration's rank table (sharded
    parquet under a temp dir, renamed into place) + append the counter
    record (n_nodes, sum_rank — exact integers, so a resumed run is
    bit-identical to a straight one). Returns a dataset re-read from
    the checkpoint so the continuation's lineage is the FILES, not the
    in-memory plan (a resumed process reproduces exactly this)."""
    final = _iter_dir(checkpoint_dir, k)
    tmp = final + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    ranks.write_parquet(tmp)
    import ray

    stat_blocks = ray.get(ranks.map_batches(
        lambda b: pa.table({
            "n": pa.array([b.num_rows], pa.int64()),
            "s": pa.array(
                [int(b.column("rank").to_numpy(
                    zero_copy_only=False).sum())], pa.int64()),
        }),
        batch_format="pyarrow").materialize().to_arrow_refs())
    n_nodes = sum(int(x) for b in stat_blocks
                  for x in b.column("n").to_pylist())
    sum_rank = sum(int(x) for b in stat_blocks
                   for x in b.column("s").to_pylist())
    if os.path.exists(final):
        shutil.rmtree(final)
    os.replace(tmp, final)
    rec = {"iter": k, "sf_dir": sf_dir,
           "n_nodes": n_nodes,
           "sum_rank": sum_rank,
           "completed_at": time.time()}
    with open(os.path.join(checkpoint_dir, ITER_MANIFEST), "a",
              encoding="utf-8") as f:
        f.write(json.dumps(rec) + "\n")
    return read_parquet(final).materialize()


def pagerank(sf_dir: str, iters: int = PR_ITERS,
             broadcast_max: int = PR_BROADCAST_MAX,
             checkpoint_dir: str | None = None):
    """Integer PageRank over the customer↔supplier graph. Output
    (kind 'customer'|'supplier', key, rank_micros).

    The rank table is NODE-scale (graphs have orders of magnitude
    fewer nodes than edges), so each iteration routes it behind an
    AQE-style gate: ``ray.put`` the (sorted nodes, ranks) arrays once
    and compute contributions map-only over the static edge table
    (ONE small exchange per iteration — measured 110 s → ~13 s at
    sf0.1), or, when the rank table exceeds the broadcast bound, a
    bucketed ``hash_join`` per iteration (the scale path for graphs
    whose node table itself outgrows a worker's heap).

    ``checkpoint_dir`` makes the ITERATIVE job resumable — the
    north_rule checkpoint story applied to a fixpoint loop, where
    run_resumable's file-shard model doesn't fit: each iteration's
    rank table is committed atomically (temp dir + rename) with
    exact-integer counters in an append-only manifest; a rerun loads
    the newest committed iteration ≤ ``iters`` for THIS input and only
    runs the remaining rounds. Integer arithmetic makes the resumed
    result bit-identical to an uninterrupted run."""
    import ray

    edges = _edges_with_outdeg(sf_dir)
    edges_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64()),
                              ("outdeg", pa.int64())])

    # rank_0 table: per-block distinct srcs, then one node-bucketed
    # exchange for global distinctness (a materialized edge bucket can
    # span several blocks)
    def block_nodes(batch: pa.Table) -> pa.Table:
        src = np.unique(batch.column("src").to_numpy(zero_copy_only=False))
        return pa.table({
            "node": pa.array(src, pa.int64()),
            "nbucket": pa.array((src % PR_BUCKETS).astype(np.int32),
                                pa.int32()),
        })

    def nodes_unique(group: pa.Table) -> pa.Table:
        n = np.unique(group.column("node").to_numpy(zero_copy_only=False))
        return pa.table({
            "node": pa.array(n.astype(np.int64), pa.int64()),
            "rank": pa.array(np.full(len(n), PR_RANK0, dtype=np.int64),
                             pa.int64()),
        })

    start_iter = 0
    ranks = None
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        done = _load_iter_manifest(checkpoint_dir, sf_dir)
        usable = [k for k in done if k <= iters]
        if usable:
            start_iter = max(usable)
            ranks = read_parquet(
                _iter_dir(checkpoint_dir, start_iter)).materialize()

    if ranks is None:
        ranks = (
            edges.map_batches(block_nodes, batch_format="pyarrow")
            .groupby("nbucket")
            .map_groups(nodes_unique, batch_format="pyarrow")
            .materialize()
        )
    ranks_schema = pa.schema([("node", pa.int64()), ("rank", pa.int64())])

    def _partial_table(dst: np.ndarray, contrib: np.ndarray) -> pa.Table:
        t = pa.table({
            "dst": pa.array(dst, pa.int64()),
            "contrib": pa.array(contrib, pa.int64()),
        })
        g = t.group_by("dst").aggregate([("contrib", "sum")])
        d = g.column("dst").to_numpy(zero_copy_only=False)
        return pa.table({
            "dst": g.column("dst"),
            "contrib": g.column("contrib_sum"),
            "nbucket": pa.array((d % PR_BUCKETS).astype(np.int32),
                                pa.int32()),
        })

    def rank_update(group: pa.Table) -> pa.Table:
        dst = group.column("dst").to_numpy(zero_copy_only=False)
        contrib = group.column("contrib").to_numpy(zero_copy_only=False)
        if len(dst) == 0:
            e = pa.array(np.empty(0, np.int64), pa.int64())
            return pa.table({"node": e, "rank": e})
        order = np.argsort(dst, kind="stable")
        dst, contrib = dst[order], contrib[order]
        starts = np.flatnonzero(np.r_[True, dst[1:] != dst[:-1]])
        s = np.add.reduceat(contrib, starts)
        return pa.table({
            "node": pa.array(dst[starts].astype(np.int64), pa.int64()),
            "rank": pa.array(
                (PR_BASE + (PR_DAMP_NUM * s.astype(np.int64))
                 // PR_DAMP_DEN).astype(np.int64), pa.int64()),
        })

    for it in range(start_iter, iters):
        if ranks.count() <= broadcast_max:
            # ---- broadcast plan: contributions are map-only ----
            blocks = ray.get(ranks.to_arrow_refs())  # node-scale, small
            parts = [(b.column("node").to_numpy(zero_copy_only=False),
                      b.column("rank").to_numpy(zero_copy_only=False))
                     for b in blocks if b.num_rows]
            node_arr = np.concatenate([p[0] for p in parts])
            rank_arr = np.concatenate([p[1] for p in parts])
            order = np.argsort(node_arr)
            rank_ref = ray.put((node_arr[order], rank_arr[order]))

            def contrib_bc(batch: pa.Table, _ref=rank_ref) -> pa.Table:
                nodes_s, ranks_s = ray.get(_ref)
                src = batch.column("src").to_numpy(zero_copy_only=False)
                dst = batch.column("dst").to_numpy(zero_copy_only=False)
                deg = batch.column("outdeg").to_numpy(zero_copy_only=False)
                rank = ranks_s[np.searchsorted(nodes_s, src)]
                return _partial_table(dst, rank // deg)

            stream = edges.map_batches(contrib_bc, batch_format="pyarrow")
        else:
            # ---- join plan: rank table too big for any worker ----
            joined = hash_join(
                edges, ranks, "src", "node",
                left_schema=edges_schema, right_schema=ranks_schema,
            )

            def contrib_join(batch: pa.Table) -> pa.Table:
                dst = batch.column("dst").to_numpy(zero_copy_only=False)
                rank = batch.column("rank").to_numpy(zero_copy_only=False)
                deg = batch.column("outdeg").to_numpy(zero_copy_only=False)
                return _partial_table(dst, rank // deg)

            stream = joined.map_batches(contrib_join,
                                        batch_format="pyarrow")

        ranks = (
            stream.groupby("nbucket")
            .map_groups(rank_update, batch_format="pyarrow")
            .materialize()
        )
        if checkpoint_dir:
            ranks = _commit_iteration(checkpoint_dir, sf_dir, it + 1, ranks)

    def decode(batch: pa.Table) -> pa.Table:
        node = batch.column("node").to_numpy(zero_copy_only=False)
        return pa.table({
            "kind": pa.array(np.where(node % 2 == 0, "customer",
                                      "supplier"), pa.string()),
            "key": pa.array(node // 2, pa.int64()),
            "rank_micros": batch.column("rank"),
        })

    return ranks.map_batches(decode, batch_format="pyarrow")


def pagerank_sql(iters: int = PR_ITERS) -> str:
    prev = "r0"
    iter_ctes = []
    for i in range(1, iters + 1):
        iter_ctes.append(f"""
c{i} AS (
  SELECT e.dst AS node,
         CAST(sum(r.rank // e.outdeg) AS BIGINT) AS contrib
  FROM edges e JOIN {prev} r ON r.node = e.src
  GROUP BY e.dst
),
r{i} AS (
  SELECT node,
         CAST({PR_BASE} + ({PR_DAMP_NUM} * contrib) // {PR_DAMP_DEN}
              AS BIGINT) AS rank
  FROM c{i}
)""")
        prev = f"r{i}"
    return f"""
WITH pairs AS (
  SELECT DISTINCT o.o_custkey AS c, l.l_suppkey AS s
  FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
),
raw_edges AS (
  SELECT c * 2 AS src, s * 2 + 1 AS dst FROM pairs
  UNION ALL
  SELECT s * 2 + 1 AS src, c * 2 AS dst FROM pairs
),
deg AS (SELECT src, CAST(count(*) AS BIGINT) AS outdeg
        FROM raw_edges GROUP BY src),
edges AS (SELECT e.src, e.dst, d.outdeg
          FROM raw_edges e JOIN deg d ON d.src = e.src),
r0 AS (SELECT DISTINCT src AS node, CAST({PR_RANK0} AS BIGINT) AS rank
       FROM raw_edges),{",".join(iter_ctes)}
SELECT CASE WHEN node % 2 = 0 THEN 'customer' ELSE 'supplier' END AS kind,
       CAST(node // 2 AS BIGINT) AS key,
       rank AS rank_micros
FROM {prev}
"""


PAGERANK_SQL = pagerank_sql()
