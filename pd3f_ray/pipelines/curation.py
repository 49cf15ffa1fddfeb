"""Composed training-data curation pipeline — the end-to-end shape a
100 TB corpus actually runs: quality gate → exact dedup → deterministic
sample, as ONE streaming Ray Data pipeline, oracle-checked end-to-end.

Stages (all over the ``documents`` table so DuckDB can replay them):
1. quality gate — vectorized per-batch predicate (min tokens, min
   distinct-token ratio);
2. deterministic sample — md5 first-hex-digit buckets (50%);
3. exact dedup — md5(text) digest per row; the ONE exchange is a
   hash-bucketed shuffle of (digest, doc_id, lang, n_chars, n_tokens)
   rows — 32-byte digests plus small metadata, never text — and the
   pick-first per digest is one vectorized lexsort per reducer call.

Everything else is map-side: no ``take_all``, no driver-side id set,
no second pass over the corpus. The output metadata rides through the
dedup shuffle, so the pipeline is one streaming read end-to-end and
per-group memory is bounded by the bucket count knob.
"""

from __future__ import annotations

import os
import zlib

import numpy as np
import pyarrow as pa

from pd3f_ray.core.arrowkit import sort_runs
from pd3f_ray.core.cluster import read_table
from pd3f_ray.functions.textfns import md5_hex
from pd3f_ray.stages.exchange import (
    bucket_exchange,
    fold,
    hash_agg,
    input_partitions,
    stable_bucket,
)

MIN_TOKENS = 20
MIN_DISTINCT_RATIO = 0.3
SAMPLE_HEX = ("0", "1", "2", "3", "4", "5", "6", "7")  # 50%


def curate_docs(sf_dir: str):
    """Documents surviving quality gate → exact dedup → 50% hash sample.
    Output (doc_id, lang, n_chars, n_tokens), oracle-checked.

    The kept rows' metadata rides THROUGH the dedup exchange (digest +
    doc_id + small metadata per row, never text), so there is no second
    corpus pass and nothing is materialized on the driver — the round-1
    ``take_all()`` id-set broadcast is gone. The digest exchange is
    bucketed (``crc32(digest) % P``) so the in-group
    pick-smallest-doc_id is one vectorized lexsort per reducer call
    instead of one Python dispatch per distinct digest."""
    docs = read_table(sf_dir, "documents",
                      ["doc_id", "text", "lang", "n_chars"])
    p = input_partitions(docs)

    def digest_quality(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        ids = batch.column("doc_id").to_pylist()
        langs = batch.column("lang").to_pylist()
        chars = batch.column("n_chars").to_pylist()
        out = {k: [] for k in
               ("bucket", "text_hash", "doc_id", "lang", "n_chars",
                "n_tokens")}
        for did, t, lg, nc in zip(ids, texts, langs, chars):
            toks = [w for w in t.split(" ") if w]
            if len(toks) < MIN_TOKENS:
                continue
            if len(set(toks)) / len(toks) < MIN_DISTINCT_RATIO:
                continue
            h = md5_hex(t)
            if h[0] not in SAMPLE_HEX:
                continue
            out["bucket"].append(zlib.crc32(h.encode()) % p)
            out["text_hash"].append(h)
            out["doc_id"].append(did)
            out["lang"].append(lg)
            out["n_chars"].append(nc)
            out["n_tokens"].append(len(toks))
        return pa.table(
            {
                "bucket": pa.array(out["bucket"], pa.int32()),
                "text_hash": pa.array(out["text_hash"], pa.string()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "lang": pa.array(out["lang"], pa.string()),
                "n_chars": pa.array(out["n_chars"],
                                    batch.schema.field("n_chars").type),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
            }
        )

    def pick_first(group: pa.Table) -> pa.Table:
        th = group.column("text_hash").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        order, starts, _ = sort_runs((did, th))
        keep = order[starts]
        return group.select(["doc_id", "lang", "n_chars", "n_tokens"]).take(
            pa.array(np.sort(keep)))

    return bucket_exchange(
        docs.map_batches(digest_quality, batch_format="pyarrow"),
        "bucket", pick_first)


CURATE_DOCS_SQL = f"""
WITH q AS (
  SELECT doc_id, lang, n_chars, text,
         len(list_filter(string_split(text, ' '), x -> x != ''))
             AS n_tokens,
         md5(text) AS text_hash
  FROM documents
),
g AS (
  SELECT *
  FROM q
  WHERE n_tokens >= {MIN_TOKENS}
    AND CAST(len(list_distinct(list_filter(string_split(text, ' '),
                                           x -> x != ''))) AS DOUBLE)
        / n_tokens >= {MIN_DISTINCT_RATIO}
    AND substring(text_hash, 1, 1) IN {SAMPLE_HEX!r}
),
d AS (
  SELECT *, row_number() OVER (PARTITION BY text_hash ORDER BY doc_id)
            AS rn
  FROM g
)
SELECT doc_id, lang, n_chars, CAST(n_tokens AS BIGINT) AS n_tokens
FROM d WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# near-dup curation: drop non-canonical cluster members
# ---------------------------------------------------------------------------


def curate_neardup(sf_dir: str):
    """Documents minus non-canonical near-duplicates: the
    connected-component labels from ``dedup_clusters`` mark each doc's
    cluster minimum; every doc whose cluster_id differs from its own id
    is a redundant near-dup and is removed by a bucketed ANTI join —
    text never travels, the anti-join right side is the (small) dup-id
    set as a Dataset, nothing lands on the driver. Output
    (doc_id, lang, n_chars); oracle = recursive reachability + anti
    join in SQL."""
    import pyarrow.compute as pc

    from pd3f_ray.pipelines.dedup import dedup_clusters
    from pd3f_ray.pipelines.joins import anti_join

    labels = dedup_clusters(sf_dir)

    def dupes_only(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch.column("doc_id"),
                            batch.column("cluster_id"))
        return pa.table({"dup_id": batch.filter(mask).column("doc_id")})

    dupes = labels.map_batches(dupes_only, batch_format="pyarrow")
    docs = read_table(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    return anti_join(docs, dupes, "doc_id", "dup_id")


CURATE_NEARDUP_SQL = """
WITH RECURSIVE pairs AS (
  SELECT least(a.doc_id, b.doc_id) AS id_a,
         greatest(a.doc_id, b.doc_id) AS id_b
  FROM documents a JOIN documents b
    ON a.lang = b.lang AND a.doc_id < b.doc_id
   AND abs(a.n_chars - b.n_chars) <= 2
  WHERE jaccard(a.text, b.text) > 0.99
),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
walk(n, lbl) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, w.lbl FROM edges e JOIN walk w ON e.b = w.n
),
clusters AS (SELECT n AS doc_id, min(lbl) AS cluster_id FROM walk GROUP BY n)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d
LEFT JOIN clusters c ON d.doc_id = c.doc_id
WHERE c.doc_id IS NULL OR c.cluster_id = d.doc_id
"""


# ---------------------------------------------------------------------------
# decontamination: benchmark n-gram overlap removal
# ---------------------------------------------------------------------------

DECON_W = 4          # tokens per shingle
DECON_BENCH_MAX = 5  # "benchmark" = docs with doc_id < 5


def decontaminate_docs(sf_dir: str):
    """Remove every document sharing a DECON_W-token shingle with the
    benchmark set (here: doc_id < DECON_BENCH_MAX stands in for a
    held-out eval set) — the standard train/test decontamination pass.
    The benchmark shingle set is built from a predicate-pushdown read of
    just those rows and broadcast once (``ray.put``); the corpus pass is
    a stateless map-side filter — no shuffle, no driver materialization
    of anything corpus-sized. Benchmark docs remove themselves (they
    trivially contain their own shingles), matching the SQL oracle.
    Output (doc_id, lang, n_chars) of the kept documents."""
    import pyarrow.dataset as pads
    import ray

    bench = pads.dataset(
        os.path.join(sf_dir, "documents.parquet")).to_table(
        columns=["text"],
        filter=pads.field("doc_id") < DECON_BENCH_MAX,
    )

    def shingles(text: str) -> set:
        toks = text.split(" ")
        return {" ".join(toks[i:i + DECON_W])
                for i in range(len(toks) - DECON_W + 1)}

    grams: set = set()
    for t in bench.column("text").to_pylist():
        grams |= shingles(t)
    gram_ref = ray.put(grams)

    def keep_clean(batch: pa.Table) -> pa.Table:
        gs = ray.get(gram_ref)
        texts = batch.column("text").to_pylist()
        keep = [not (shingles(t) & gs) for t in texts]
        f = batch.filter(pa.array(keep, pa.bool_()))
        return f.select(["doc_id", "lang", "n_chars"])

    return read_table(
        sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"]
    ).map_batches(keep_clean, batch_format="pyarrow")


DECONTAMINATE_SQL = f"""
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS ts FROM documents
),
sh AS (
  SELECT t.doc_id, array_to_string(t.ts[i.i : i.i + {DECON_W - 1}], ' ') AS g
  FROM toks t,
       (SELECT doc_id AS d2, unnest(generate_series(1, len(ts) - {DECON_W - 1}))
            AS i
        FROM toks) i
  WHERE t.doc_id = i.d2
),
bench_grams AS (
  SELECT DISTINCT g FROM sh WHERE doc_id < {DECON_BENCH_MAX}
),
contaminated AS (
  SELECT DISTINCT s.doc_id FROM sh s JOIN bench_grams b ON s.g = b.g
)
SELECT d.doc_id, d.lang, d.n_chars
FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM contaminated)
"""


# ---------------------------------------------------------------------------
# snapshot diff (incremental-crawl delta)
# ---------------------------------------------------------------------------

_DIFF_ADDED_MOD = 7    # docs absent from the OLD snapshot (added later)
_DIFF_REMOVED_MOD = 4  # docs absent from the NEW snapshot (dropped)
_DIFF_CHANGED_MOD = 3  # docs whose text changed between snapshots


def snapshot_diff(sf_dir: str):
    """Corpus-snapshot delta — the incremental-crawl bookkeeping step:
    given two crawl snapshots, classify every url as added / removed /
    changed (unchanged rows, the overwhelming majority at scale, are
    dropped so the output is delta-sized). The two snapshots are derived
    deterministically from ``documents`` (old = ids with id%10 != 7,
    new = ids with id%10 != 4, text of ids with id%10 == 3 mutated in
    the new snapshot) so DuckDB can replay the exact construction.

    Plan: both snapshots reduce map-side to (doc_id, md5 digest, side)
    rows — text never travels — and ONE doc_id-hash
    ``bucket_exchange`` co-locates each id's two sides; the in-call
    compare is one vectorized segment scan per doc_id. This is the
    digest-diff shape of ``dedup_incremental`` generalized to a
    three-way status. Output
    (doc_id, status ∈ {'added','removed','changed'})."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    p = input_partitions(ds)

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_dig, out_side = [], [], []
        for i, t in zip(ids, texts):
            m = i % 10
            if m != _DIFF_ADDED_MOD:           # present in OLD
                out_id.append(i)
                out_dig.append(md5_hex(t))
                out_side.append(0)
            if m != _DIFF_REMOVED_MOD:         # present in NEW
                out_id.append(i)
                out_dig.append(
                    md5_hex(t + " v2") if m == _DIFF_CHANGED_MOD
                    else md5_hex(t))
                out_side.append(1)
        import numpy as np

        arr = np.asarray(out_id, dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(arr, pa.int64()),
            "dig": pa.array(out_dig, pa.string()),
            "side": pa.array(out_side, pa.int8()),
            "bucket": pa.array(stable_bucket(arr, p), pa.int32()),
        })

    def diff(group: pa.Table) -> pa.Table:
        import numpy as np

        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        dig = group.column("dig").to_numpy(zero_copy_only=False)
        side = group.column("side").to_numpy(zero_copy_only=False)
        # a doc_id appears once (old-only / new-only) or twice (old row
        # then new row after the sort) — classify per segment, vectorized
        order, starts, ends = sort_runs((side, did))
        did, dig, side = did[order], dig[order], side[order]
        one = ends - starts == 1
        s1 = starts[one]
        st1 = np.where(side[s1] == 0, "removed", "added")
        s2 = starts[~one]
        changed = dig[s2] != dig[s2 + 1]
        out_id = np.concatenate([did[s1], did[s2[changed]]])
        out_st = np.concatenate([st1, np.full(int(changed.sum()),
                                              "changed", object)])
        return pa.table({
            "doc_id": pa.array(out_id.astype(np.int64), pa.int64()),
            "status": pa.array(out_st.astype(object), pa.string()),
        })

    return bucket_exchange(ds.map_batches(derive, batch_format="pyarrow"),
                           "bucket", diff)


SNAPSHOT_DIFF_SQL = f"""
WITH old AS (
  SELECT doc_id, md5(text) AS dig
  FROM documents WHERE doc_id % 10 != {_DIFF_ADDED_MOD}
),
new AS (
  SELECT doc_id,
         md5(CASE WHEN doc_id % 10 = {_DIFF_CHANGED_MOD}
                  THEN text || ' v2' ELSE text END) AS dig
  FROM documents WHERE doc_id % 10 != {_DIFF_REMOVED_MOD}
)
SELECT COALESCE(o.doc_id, n.doc_id) AS doc_id,
       CASE WHEN o.doc_id IS NULL THEN 'added'
            WHEN n.doc_id IS NULL THEN 'removed'
            ELSE 'changed' END AS status
FROM old o FULL OUTER JOIN new n ON o.doc_id = n.doc_id
WHERE o.doc_id IS NULL OR n.doc_id IS NULL OR o.dig != n.dig
"""


# ---------------------------------------------------------------------------
# order-independent corpus checksum (cross-run / cross-engine integrity)
# ---------------------------------------------------------------------------


def table_checksum(sf_dir: str):
    """Order-independent content checksum of the documents table — the
    anti-entropy primitive of any 100 TB migration or replication: two
    runs (or two engines) agree on the data iff (n_rows, checksum)
    agree, no row ordering or partitioning assumptions. Per-row key =
    the first 60 bits of md5(text); the fold is XOR, which is
    commutative + associative, so each block reduces to ONE (xor, n)
    row map-side and one task combines the blocks×1 rows
    (``exchange.fold``) — no exchange of data rows at all. Output one
    row (n_rows, checksum); oracle = DuckDB's ``bit_xor`` over the same
    md5-derived key."""
    from pd3f_ray.functions.textfns import md5_hex

    docs = read_table(sf_dir, "documents", columns=["text"])

    def block_fold(batch: pa.Table) -> pa.Table:
        x = 0
        texts = batch.column("text").to_pylist()
        for t in texts:
            x ^= int(md5_hex(t)[:15], 16)
        return pa.table({
            "n_rows": pa.array([len(texts)], pa.int64()),
            "checksum": pa.array([x], pa.int64()),
        })

    def combine(batch: pa.Table) -> pa.Table:
        x = 0
        for v in batch.column("checksum").to_pylist():
            x ^= v
        import pyarrow.compute as pc

        return pa.table({
            "n_rows": pa.array(
                [pc.sum(batch.column("n_rows")).as_py() or 0], pa.int64()),
            "checksum": pa.array([x], pa.int64()),
        })

    return fold(docs, block_fold, combine)


TABLE_CHECKSUM_SQL = """
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(bit_xor(CAST('0x' || substring(md5(text), 1, 15) AS BIGINT))
            AS BIGINT) AS checksum
FROM documents
"""


# ---------------------------------------------------------------------------
# partition manifest (Iceberg-style pruning statistics)
# ---------------------------------------------------------------------------


def partition_manifest(sf_dir: str):
    """Partition-level statistics manifest — the metadata table a
    100 TB reader prunes on BEFORE touching data files (the moral
    equivalent of an Iceberg/Delta manifest): one row per
    (source, lang) partition with row count, doc_id min/max (file-skip
    range predicate) and char volume (size-based planning). Plan: one
    ``hash_agg`` — a partial per block (≤ |partitions| rows each), then
    one small exchange; the corpus itself never shuffles.
    Output (source, lang, n_docs, min_doc_id, max_doc_id, sum_chars)."""
    docs = read_table(sf_dir, "documents",
                      ["doc_id", "source", "lang", "n_chars"])

    return hash_agg(docs, ["source", "lang"],
                    {"n_docs": ("doc_id", "count"),
                     "min_doc_id": ("doc_id", "min"),
                     "max_doc_id": ("doc_id", "max"),
                     "sum_chars": ("n_chars", "sum")})


PARTITION_MANIFEST_SQL = """
SELECT source, lang,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(min(doc_id) AS BIGINT) AS min_doc_id,
       CAST(max(doc_id) AS BIGINT) AS max_doc_id,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY source, lang
"""
