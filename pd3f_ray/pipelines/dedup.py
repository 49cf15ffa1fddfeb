"""Deduplication pipelines over the ``documents`` table.

Operator families, each a first-class training-data component:

- **exact**: hash-partition on the content digest, keep the smallest
  doc_id per group (oracle-checked).
- **prefix-normalized**: same, keyed on the md5 of the first-k-token
  prefix (a cheap normalization key; oracle-checked).
- **byte-set Jaccard pairs**: the oracle-checkable exact near-dup
  variant, blocked by language (DuckDB ``jaccard`` == byte-set Jaccard,
  verified empirically). O(block²) by design — the correctness anchor.
- **MinHash-LSH**: the scale path — shingle → signature → banded bucket
  groupby → candidate pairs → exact shingle-Jaccard verification. Output
  verified against brute force in tests (no SQL oracle: approximate
  candidate generation).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Count, Min

from pd3f_ray.core.cluster import read_parquet, read_table
from pd3f_ray.functions.textfns import (
    masks_for,
    md5_hex,
    word_shingles,
)


# ---------------------------------------------------------------------------
# exact / normalized dedup
# ---------------------------------------------------------------------------


def dedup_exact(sf_dir: str):
    """One row per distinct content hash: the kept (minimum) doc_id and
    the duplicate count. The shuffle moves 32-byte digests, never text."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def digest(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "text_hash": pa.array([md5_hex(t) for t in texts], pa.string()),
                "doc_id": batch.column("doc_id"),
            }
        )

    return (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby("text_hash")
        .aggregate(
            Min("doc_id", alias_name="keep_id"),
            Count(alias_name="n_copies"),
        )
    )


DEDUP_EXACT_SQL = """
SELECT md5(text) AS text_hash,
       min(doc_id) AS keep_id,
       count(*)    AS n_copies
FROM documents
GROUP BY md5(text)
"""

PREFIX_K = 8


def dedup_prefix(sf_dir: str):
    """Near-dedup on a normalization key: md5 of the first-8-token
    prefix. Groups documents sharing an opening — a cheap boilerplate
    detector that stays oracle-checkable."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def digest(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        keys = [md5_hex(" ".join(t.split(" ")[:PREFIX_K])) for t in texts]
        return pa.table(
            {
                "prefix_hash": pa.array(keys, pa.string()),
                "doc_id": batch.column("doc_id"),
            }
        )

    return (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby("prefix_hash")
        .aggregate(
            Min("doc_id", alias_name="keep_id"),
            Count(alias_name="n_copies"),
        )
    )


DEDUP_PREFIX_SQL = f"""
SELECT md5(array_to_string(string_split(text, ' ')[1:{PREFIX_K}], ' '))
           AS prefix_hash,
       min(doc_id) AS keep_id,
       count(*)    AS n_copies
FROM documents
GROUP BY prefix_hash
"""


# ---------------------------------------------------------------------------
# byte-set Jaccard near-dup pairs (exact, lang-blocked — the oracle anchor)
# ---------------------------------------------------------------------------

JACCARD_THRESHOLD = 0.99
CHAR_BAND = 2
LENGTH_BAND_W = 64  # chars per length band — bounds a shuffle group


def _band_rows(batch: pa.Table) -> pa.Table:
    """Length-band shuffle rows with ghost replication: each doc gets
    its native ``(band = n_chars // LENGTH_BAND_W)`` row; docs within
    CHAR_BAND of a band's lower edge are replicated into the previous
    band as non-native window candidates (see jaccard_pairs)."""
    chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
    band = (chars // LENGTH_BAND_W).astype(np.int64)
    native = batch.append_column(
        "band", pa.array(band, pa.int64())
    ).append_column("native", pa.array(np.ones(len(chars), bool)))
    ghost_mask = (chars % LENGTH_BAND_W < CHAR_BAND) & (band > 0)
    if not ghost_mask.any():
        return native
    ghosts = batch.filter(pa.array(ghost_mask)).append_column(
        "band", pa.array(band[ghost_mask] - 1, pa.int64())
    ).append_column(
        "native", pa.array(np.zeros(int(ghost_mask.sum()), bool))
    )
    return pa.concat_tables([native, ghosts])


def _banded_group_cols(group: pa.Table):
    """(ids, chars, texts, native) of a length-band group, sorted by
    (n_chars, doc_id) — the shared pyarrow-native entry of the banded
    pair scanners (zero-copy group slice in, no pandas block)."""
    did = group.column("doc_id").to_numpy(zero_copy_only=False)
    chars = group.column("n_chars").to_numpy(zero_copy_only=False)
    order = np.lexsort((did, chars))
    texts = group.column("text").to_numpy(zero_copy_only=False)[order]
    native = group.column("native").to_numpy(zero_copy_only=False)[order]
    return did[order], chars[order], texts, native


def _pairs_table(out_a: list, out_b: list) -> pa.Table:
    return pa.table({"id_a": pa.array(out_a, pa.int64()),
                     "id_b": pa.array(out_b, pa.int64())})


def jaccard_pairs(sf_dir: str, threshold: float = JACCARD_THRESHOLD):
    """Same-language document pairs within ±CHAR_BAND chars of each other
    whose byte-set Jaccard exceeds the threshold.

    Blocking: the shuffle key is ``(lang, n_chars // LENGTH_BAND_W)`` —
    NOT bare ``lang``, which at corpus scale puts an entire language in
    one group. Documents whose length falls within CHAR_BAND of a band's
    lower edge are replicated into the previous band as non-native
    "ghost" rows, so the ±CHAR_BAND window predicate stays complete
    across band edges; only NATIVE rows anchor a window, so every
    qualifying pair is emitted exactly once (from the band of its
    shorter document) with no dedup pass. Inside a group a sort on
    n_chars plus a sliding window avoids O(group²) comparisons, and the
    Jaccard itself is a vectorized bitmask popcount with
    DuckDB-identical semantics (byte sets of the UTF-8 encoding). This
    is the exact, oracle-checked variant; the MinHash-LSH path below is
    the probabilistic scale path.
    """
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def block_pairs(group: pa.Table) -> pa.Table:
        ids, chars, texts, native = _banded_group_cols(group)
        masks = masks_for(list(texts))
        from pd3f_ray.functions.textfns import popcount64

        sizes = popcount64(masks).sum(axis=1)
        out_a, out_b = [], []
        n = len(ids)
        for i in range(n):
            if not native[i]:
                continue  # ghosts are window candidates, never anchors
            j = i + 1
            while j < n and chars[j] - chars[i] <= CHAR_BAND:
                j += 1
            if j == i + 1:
                continue
            window = slice(i + 1, j)
            inter = popcount64(masks[i] & masks[window]).sum(axis=1)
            union = sizes[i] + sizes[window] - inter
            sims = np.where(union > 0, inter / union, 0.0)
            hits = np.nonzero(sims > threshold)[0]
            for h in hits:
                a, b = ids[i], ids[i + 1 + h]
                out_a.append(min(a, b))
                out_b.append(max(a, b))
        return _pairs_table(out_a, out_b)

    return (
        ds.map_batches(_band_rows, batch_format="pyarrow")
        .groupby(["lang", "band"])
        .map_groups(block_pairs, batch_format="pyarrow")
    )


def jaccard_pairs_sql(threshold: float = JACCARD_THRESHOLD) -> str:
    return f"""
SELECT least(a.doc_id, b.doc_id)    AS id_a,
       greatest(a.doc_id, b.doc_id) AS id_b
FROM documents a
JOIN documents b
  ON a.lang = b.lang AND a.doc_id < b.doc_id
 AND abs(a.n_chars - b.n_chars) <= {CHAR_BAND}
WHERE jaccard(a.text, b.text) > {threshold}
"""


NGRAM_N = 3
NGRAM_THRESHOLD = 0.6


def ngram_jaccard_pairs(sf_dir: str, threshold: float = NGRAM_THRESHOLD,
                        n: int = NGRAM_N):
    """Character-n-gram (n=3) set Jaccard near-dup pairs — the
    order-sensitive exact variant (byte-set Jaccard above ignores
    sequence; trigrams capture it). Same length-banded ghost-overlap
    shuffle as ``jaccard_pairs``; inside a group the trigram sets are
    built once per doc and compared over the ±CHAR_BAND window.
    Oracle-checked against a substring-explosion SQL (DISTINCT
    substr(text, i, 3) per doc, intersection counts via self-join)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def block_pairs(group: pa.Table) -> pa.Table:
        ids, chars, texts, native = _banded_group_cols(group)
        grams = [frozenset(t[i:i + n] for i in range(len(t) - n + 1))
                 for t in texts]
        out_a, out_b = [], []
        m = len(ids)
        for i in range(m):
            if not native[i]:
                continue
            j = i + 1
            while j < m and chars[j] - chars[i] <= CHAR_BAND:
                ga, gb = grams[i], grams[j]
                inter = len(ga & gb)
                union = len(ga) + len(gb) - inter
                if union and inter / union > threshold:
                    a, b = ids[i], ids[j]
                    out_a.append(min(a, b))
                    out_b.append(max(a, b))
                j += 1
        return _pairs_table(out_a, out_b)

    return (
        ds.map_batches(_band_rows, batch_format="pyarrow")
        .groupby(["lang", "band"])
        .map_groups(block_pairs, batch_format="pyarrow")
    )


def ngram_jaccard_sql(threshold: float = NGRAM_THRESHOLD,
                      n: int = NGRAM_N) -> str:
    return f"""
WITH idx AS (
  SELECT doc_id, lang, n_chars, text,
         unnest(generate_series(1, length(text) - {n - 1})) AS i
  FROM documents
),
grams AS (
  SELECT DISTINCT doc_id, substr(text, i, {n}) AS g FROM idx
),
sizes AS (SELECT doc_id, count(*) AS sz FROM grams GROUP BY doc_id),
cand AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b
  FROM documents a JOIN documents b
    ON a.lang = b.lang AND a.doc_id < b.doc_id
   AND abs(a.n_chars - b.n_chars) <= {CHAR_BAND}
),
inter AS (
  SELECT c.id_a, c.id_b, count(*) AS ni
  FROM cand c
  JOIN grams ga ON ga.doc_id = c.id_a
  JOIN grams gb ON gb.doc_id = c.id_b AND gb.g = ga.g
  GROUP BY c.id_a, c.id_b
)
SELECT i.id_a, i.id_b
FROM inter i
JOIN sizes sa ON sa.doc_id = i.id_a
JOIN sizes sb ON sb.doc_id = i.id_b
WHERE CAST(i.ni AS DOUBLE) / (sa.sz + sb.sz - i.ni) > {threshold}
"""


# ---------------------------------------------------------------------------
# MinHash-LSH near-dup (the scale path)
# ---------------------------------------------------------------------------

NUM_PERM = 64
NUM_BANDS = 16  # 16 bands × 4 rows ≈ catches Jaccard ≳ 0.5
SHINGLE_K = 3
VERIFY_THRESHOLD = 0.5


MINHASH_BUCKETS = 1024
PRE_DEDUP_PAIRS = False  # see minhash_pairs: skip the pair-dedup exchange


def minhash_pairs(sf_dir: str, threshold: float = VERIFY_THRESHOLD):
    """MinHash-LSH near-duplicate pairs verified by exact word-shingle
    Jaccard.

    Stages: (1) per-batch shingle+sign (stateless, vectorized minhash),
    exploded to (band_id, band_hash, doc_id) rows; (2) ONE shuffle
    grouped by ``band_hash % MINHASH_BUCKETS`` (grouping by the raw
    band key made one map_groups group per distinct hash — hundreds of
    thousands of sub-millisecond Python dispatches); inside a bucket the
    exact-key pairing is a vectorized pandas groupby; (3) candidate
    pairs are deduped (a pair can collide in several bands) and each
    pair's two texts are fetched by a bucketed hash-join of the pair
    ENDPOINTS back to the documents table — no driver-side text map, no
    whole-corpus broadcast; the documents text crosses one bucketed
    exchange and only candidate texts survive the inner join; (4) a
    final pair-bucketed groupby brings both endpoints of a pair
    together for exact word-shingle Jaccard verification (shingle sets
    cached per doc within a group).

    No SQL oracle (candidate generation is probabilistic); tests verify
    recall against the brute-force pair set at small n.
    """
    from pd3f_ray.pipelines.joins import _stable_bucket, hash_join

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def band_rows(batch: pa.Table) -> pa.Table:
        from pd3f_ray.functions.textfns import (
            band_hashes,
            minhash_signatures_batch,
        )

        doc_ids = np.asarray(batch.column("doc_id").to_pylist(),
                             dtype=np.int64)
        texts = batch.column("text").to_pylist()
        # shingle construction stays per-doc (string ops); everything
        # downstream — the universal-hash min-reduction and the band
        # digests — is one vectorized pass over the whole batch (the
        # splitmix64 band fold is stable across processes, unlike the
        # process-salted Python hash())
        shingle_sets = [word_shingles(t, SHINGLE_K) for t in texts]
        sigs = minhash_signatures_batch(shingle_sets, NUM_PERM)
        bh = (band_hashes(sigs, NUM_BANDS)
              & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        n = len(doc_ids)
        bands = np.tile(np.arange(NUM_BANDS, dtype=np.int64), n)
        out_hash = bh.reshape(-1)
        bucket = ((out_hash ^ (bands << 48)) % MINHASH_BUCKETS) \
            .astype(np.int32)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, NUM_BANDS), pa.int64()),
                "band_id": pa.array(bands.astype(np.int32), pa.int32()),
                "band_hash": pa.array(out_hash, pa.int64()),
                "bucket": pa.array(bucket, pa.int32()),
            }
        )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        bid = group.column("band_id").to_numpy(zero_copy_only=False)
        bh = group.column("band_hash").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        if len(did) == 0:
            return _pairs_table([], [])
        order = np.lexsort((did, bh, bid))
        bid, bh, did = bid[order], bh[order], did[order]
        starts = np.flatnonzero(np.r_[True, (bid[1:] != bid[:-1])
                                      | (bh[1:] != bh[:-1])])
        ends = np.r_[starts[1:], len(did)]
        out_a: list[int] = []
        out_b: list[int] = []
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = np.unique(did[s:e])
            if len(ids) < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            out_a.extend(ids[ii].tolist())
            out_b.extend(ids[jj].tolist())
        return _pairs_table(out_a, out_b)

    candidates = (
        ds.map_batches(band_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )

    # a pair can collide in multiple bands; the verify groups dedup
    # exactly (drop_duplicates), so candidates go STRAIGHT to the text
    # join — skipping a whole all-to-all dedup exchange. The join ships
    # at most NUM_BANDS copies of a pair's endpoints (typically 2-3);
    # at corpus scale flip PRE_DEDUP_PAIRS if band collisions dominate.
    pairs = candidates
    if PRE_DEDUP_PAIRS:
        pairs = candidates.groupby(["id_a", "id_b"]).aggregate(
            Count(alias_name="n_bands")
        )

    # explode each pair to its two endpoints, then bucketed hash-join
    # the endpoints back to documents for the text — the inner join
    # drops every non-candidate document after one bucketed exchange
    def explode(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "id_a": pa.array(np.concatenate([a, a]), pa.int64()),
                "id_b": pa.array(np.concatenate([b, b]), pa.int64()),
                "join_id": pa.array(np.concatenate([a, b]), pa.int64()),
            }
        )

    endpoints = pairs.map_batches(explode, batch_format="pyarrow")
    # explicit left schema: endpoints' lineage contains the candidate
    # exchange — letting hash_join sample .schema() would run candidate
    # generation twice (see hash_join docstring)
    with_text = hash_join(
        endpoints, read_table(sf_dir, "documents", ["doc_id", "text"]),
        "join_id", "doc_id", num_buckets=64,
        left_schema=pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()),
                               ("join_id", pa.int64())]),
    )

    # co-locate the two endpoints of each pair: bucket on id_a (pairs
    # sharing an anchor land together, which also warms the shingle
    # cache), groupby bucket, verify in-group
    def pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        # 128 verify groups — candidate pairs are a small fraction of the
        # corpus, and per-group map_groups dispatch costs ~0.5 ms
        return batch.append_column(
            "pbucket", pa.array(_stable_bucket(a, 128), pa.int32())
        )

    def verify_group(group: pa.Table) -> pa.Table:
        jid = group.column("join_id").to_numpy(zero_copy_only=False)
        gtexts = group.column("text").to_numpy(zero_copy_only=False)
        texts: dict[int, str] = dict(zip(jid.tolist(), gtexts))
        shingle_cache: dict[int, set] = {}

        def sh(did: int) -> set:
            s = shingle_cache.get(did)
            if s is None:
                s = word_shingles(texts[did], SHINGLE_K)
                shingle_cache[did] = s
            return s

        pa_ = group.column("id_a").to_numpy(zero_copy_only=False)
        pb_ = group.column("id_b").to_numpy(zero_copy_only=False)
        id_a, id_b, sims = [], [], []
        if len(pa_):
            order = np.lexsort((pb_, pa_))
            a_s, b_s = pa_[order], pb_[order]
            uniq = np.r_[True, (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])]
            for a, b in zip(a_s[uniq], b_s[uniq]):
                sa, sb = sh(int(a)), sh(int(b))
                union = len(sa | sb)
                j = len(sa & sb) / union if union else 0.0
                if j >= threshold:
                    id_a.append(int(a))
                    id_b.append(int(b))
                    sims.append(int(round(j, 6) * 1e6))
        return pa.table({
            "id_a": pa.array(id_a, pa.int64()),
            "id_b": pa.array(id_b, pa.int64()),
            "jaccard_x1e6": pa.array(sims, pa.int64()),
        })

    return (
        with_text.map_batches(pair_bucket, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(verify_group, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (over the embeddings table)
# ---------------------------------------------------------------------------

EMB_THRESHOLD = 0.45


def embdup_cosine(sf_dir: str, threshold: float = EMB_THRESHOLD):
    """Vector near-duplicate pairs: (id_a, id_b) with cosine similarity
    above the threshold, id_a < id_b.

    The normalized matrix is broadcast once (``ray.put``); each batch
    does one float64 matmul against it and keeps pairs where the batch
    id is the smaller one, so every pair surfaces exactly once with no
    shuffle. At corpus scale the broadcast side is replaced by the
    LSH-bucketed plan (see similarity.knn_lsh): bucket both sides by
    hyperplane code, compare within buckets — same emit contract.
    Oracle-checked (ids only; similarity computed in float64 on both
    engines)."""
    import ray
    import pyarrow.parquet as pq

    tbl = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"])
    all_ids = np.asarray(tbl.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.array(tbl.column("embedding").to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    ref = ray.put((all_ids, mat / norms))

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def batch_pairs(batch: pa.Table) -> pa.Table:
        ids_all, nm_all = ray.get(ref)
        vids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        m = np.array(batch.column("embedding").to_pylist(), dtype=np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        sims = (m / n) @ nm_all.T  # (batch, all)
        hit_i, hit_j = np.nonzero(
            (sims > threshold) & (vids[:, None] < ids_all[None, :])
        )
        return pa.table(
            {
                "id_a": pa.array(vids[hit_i], pa.int64()),
                "id_b": pa.array(ids_all[hit_j], pa.int64()),
            }
        )

    return ds.map_batches(batch_pairs, batch_format="pyarrow")


EMBDUP_COSINE_SQL = f"""
SELECT a.vec_id AS id_a,
       b.vec_id AS id_b
FROM embeddings a
JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[])
      > {EMB_THRESHOLD}
"""


# the LSH-bucketed scale path: fewer planes per table (wider buckets)
# but more independent tables than the kNN setup — near-dup wants recall
# on pairs just above the threshold, and recall = 1 - (1 - p^planes)^tables
EMBLSH_PLANES = 4
EMBLSH_TABLES = 8
EMBLSH_SEED = 101
EMBLSH_TARGET_BUCKET = 4096  # expected rows per (table, code) bucket
EMBLSH_TARGET_RECALL = 0.999  # at p = P(same side of one plane) = 0.9


def _derive_lsh_dims(n_rows: int) -> tuple[int, int]:
    """Planner for the LSH dimensioning, driven by metadata row count
    (like the joins BROADCAST gate): pick ``planes`` so the EXPECTED
    bucket holds ≤ EMBLSH_TARGET_BUCKET vectors — the in-bucket all-pairs
    matmul is O(bucket²), so a fixed plane count is not scale-safe by
    itself — then pick ``tables`` so recall at p=0.9 (a pair just above
    the cosine threshold) stays ≥ EMBLSH_TARGET_RECALL:
    tables = ceil(log(1-recall) / log(1-p^planes)). Floors keep the
    small-scale defaults (4 planes × 8 tables) byte-stable."""
    import math

    planes = EMBLSH_PLANES
    while n_rows / (1 << planes) > EMBLSH_TARGET_BUCKET and planes < 24:
        planes += 1
    p_hit = 0.9 ** planes
    tables = EMBLSH_TABLES
    if planes > EMBLSH_PLANES and 0 < p_hit < 1:
        tables = max(tables, math.ceil(
            math.log(1 - EMBLSH_TARGET_RECALL) / math.log(1 - p_hit)))
    return planes, tables


def _emb_lsh_codes(nm: np.ndarray, table: int,
                   n_planes: int = EMBLSH_PLANES) -> np.ndarray:
    rng = np.random.RandomState(EMBLSH_SEED + table)
    planes = rng.normal(size=(n_planes, nm.shape[1]))
    sig = (nm @ planes.T > 0).astype(np.int64)
    # little-endian bit pack (== the old packbits for n_planes ≤ 8, but
    # supports the planner's wider codes)
    return sig @ (np.int64(1) << np.arange(n_planes, dtype=np.int64))


def embdup_lsh(sf_dir: str, threshold: float = EMB_THRESHOLD):
    """Embedding near-dup pairs via hyperplane-LSH bucketing — the
    default scale path (``embdup_cosine`` above stays as the exact
    all-pairs oracle anchor for small inputs).

    Plan: each vector is replicated into EMBLSH_TABLES rows, one per
    hash table, keyed ``bucket = table * 2^planes + hyperplane_code``;
    ONE groupby(bucket) exchange co-locates candidate vectors; inside a
    bucket an all-pairs float64 matmul emits (id_a < id_b) pairs above
    the threshold — every emitted pair is exact (no false positives),
    recall ≈ 1-(1-p^planes)^tables where p = 1 - angle/π. A final tiny
    groupby dedups pairs found by several tables. Partitioning
    assumption: a (table, code) bucket must fit one group — enforced by
    the ``_derive_lsh_dims`` planner, which grows the plane count with
    the metadata row count so the EXPECTED bucket stays bounded (and
    grows the table count to hold recall). Exchange volume = tables ×
    the embeddings table; embeddings are the small derived table, not
    the corpus text. Rows-only check (probabilistic recall); tests pin
    recall against ``embdup_cosine`` and the planner's bucket bound."""
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    n_rows = pq.read_metadata(path).num_rows
    n_planes, n_tables = _derive_lsh_dims(n_rows)

    ds = read_parquet(path, columns=["vec_id", "embedding"])

    def tag_tables(batch: pa.Table) -> pa.Table:
        vids = batch.column("vec_id")
        emb = batch.column("embedding")
        m = emb.combine_chunks().flatten().to_numpy(
            zero_copy_only=False).reshape(batch.num_rows, -1).astype(
            np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        nm = m / n
        parts = []
        for t in range(n_tables):
            codes = _emb_lsh_codes(nm, t, n_planes)
            bucket = t * (1 << n_planes) + codes
            parts.append(pa.table({
                "bucket": pa.array(bucket, pa.int32()),
                "vec_id": vids,
                "embedding": emb,
            }))
        return pa.concat_tables(parts)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        ids = group.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return _pairs_table([], [])
        # flatten the fixed-width list column straight to numpy — no
        # per-row Python list materialization
        emb = group.column("embedding").combine_chunks()
        m = emb.flatten().to_numpy(zero_copy_only=False).reshape(
            len(ids), -1).astype(np.float64)
        n = np.linalg.norm(m, axis=1, keepdims=True)
        n[n == 0] = 1.0
        nm = m / n
        sims = nm @ nm.T
        hit_i, hit_j = np.nonzero(
            np.triu(sims > threshold, k=1) & (ids[:, None] != ids[None, :])
        )
        a = np.minimum(ids[hit_i], ids[hit_j])
        b = np.maximum(ids[hit_i], ids[hit_j])
        return pa.table({"id_a": pa.array(a, pa.int64()),
                         "id_b": pa.array(b, pa.int64())})

    found = (
        ds.map_batches(tag_tables, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pyarrow")
    )
    # dedup pairs discovered by several tables
    deduped = found.groupby(["id_a", "id_b"]).aggregate(
        Count(alias_name="n_tables")
    )
    return deduped.map_batches(
        lambda b: b.select(["id_a", "id_b"]), batch_format="pyarrow"
    )


# ---------------------------------------------------------------------------
# connected-component dedup clusters (canonicalization over dup pairs)
# ---------------------------------------------------------------------------

CC_MAX_ITERS = 8


CC_LOCAL_MAX_EDGES = 4_000_000  # ~64 MB of (node, peer) int64 pairs


def _cc_local(edges_mat, out_cols: tuple = ("doc_id", "cluster_id"),
              key_type: "pa.DataType | None" = None):
    """Exact connected components in ONE ray task — the AQE-style fast
    path when the (pair-scale) edge table fits a worker (metadata row
    count ≤ CC_LOCAL_MAX_EDGES, the same planner shape as
    joins.should_broadcast). The edge blocks travel as object refs into
    the task (never to the driver); inside, a vectorized
    Shiloach-Vishkin-style min-label loop (numpy minimum.at over the
    edge arrays + full pointer compression per round) reaches the exact
    fixpoint in O(log n) rounds regardless of component diameter — the
    case that forces the distributed loop through its worst-case round
    count (long chains) costs microseconds here.

    Works for int64 OR string node keys: labels are np.unique indices
    (unique sorts ascending, so the min index IS the min key — for
    strings, the lexicographically smallest member)."""
    import ray

    kt = key_type if key_type is not None else pa.int64()

    @ray.remote
    def _uf(*tables):
        tables = [t for t in tables if t.num_rows]  # skip empty-schema blocks
        tbl = (pa.concat_tables(tables) if tables
               else pa.table({"node": pa.array([], kt),
                              "peer": pa.array([], kt)}))
        node = tbl.column("node").to_numpy(zero_copy_only=False)
        peer = tbl.column("peer").to_numpy(zero_copy_only=False)
        if len(node) == 0:
            return pa.table({out_cols[0]: pa.array([], kt),
                             out_cols[1]: pa.array([], kt)})
        uniq, inv = np.unique(np.concatenate([node, peer]),
                              return_inverse=True)
        a, b = inv[: len(node)], inv[len(node):]
        lab = np.arange(len(uniq), dtype=np.int64)
        while True:
            prev = lab.copy()
            np.minimum.at(lab, b, lab[a])
            np.minimum.at(lab, a, lab[b])
            while True:  # full pointer compression
                nl = lab[lab]
                if np.array_equal(nl, lab):
                    break
                lab = nl
            if np.array_equal(lab, prev):
                break
        return pa.table({out_cols[0]: pa.array(uniq.tolist(), kt),
                         out_cols[1]: pa.array(uniq[lab].tolist(), kt)})

    return rd.from_arrow_refs(
        [_uf.remote(*edges_mat.to_arrow_refs())])


def _mat_label_sum(labels_mat) -> tuple[int, int]:
    """Convergence fingerprint of a MATERIALIZED label table WITHOUT
    launching a new Dataset execution: one tiny zero-cpu ray task per
    existing block folds its label column; the driver receives one
    (sum, xor) pair per block. The previous ``Dataset.sum("label")``
    convergence probe paid the 2–4 s fixed execution/aggregate barrier
    per round on KB of data. Integer labels fold to their exact sum
    (strictly decreasing until the fixpoint); string labels fold to a
    sum of fixed-key 64-bit siphashes (``pd.util.hash_array`` —
    deterministic across processes), which changes whenever any label
    changes. BOTH paths additionally carry an independent XOR fold of
    the same per-row words: for the fixpoint test to falsely fire, a
    label change would have to preserve the (mod-2^64) hash sum AND the
    hash XOR simultaneously — structurally stronger than the single sum
    the string path used to rely on (a ~2^-64 per-round collision
    there could have silently stopped propagation with split
    clusters)."""
    import ray

    @ray.remote(num_cpus=0)
    def _block_fold(tbl: pa.Table) -> tuple[int, int]:
        if tbl.num_rows == 0:  # trailing empty block has an empty schema
            return (0, 0)
        col = tbl.column("label")
        if pa.types.is_integer(col.type):
            words = (col.to_numpy(zero_copy_only=False)
                     .astype(np.uint64, copy=False))
        else:
            words = pd.util.hash_array(
                np.asarray(col.to_pylist(), dtype=object))
        return (int(words.sum(dtype=np.uint64)),
                int(np.bitwise_xor.reduce(words)))

    folds = ray.get([_block_fold.remote(ref)
                     for ref in labels_mat.to_arrow_refs()])
    total_sum, total_xor = 0, 0
    for s, x in folds:
        total_sum = (total_sum + s) & 0xFFFFFFFFFFFFFFFF
        total_xor ^= x
    return (total_sum, total_xor)


def dedup_clusters(sf_dir: str, threshold: float = JACCARD_THRESHOLD,
                   max_iters: int = CC_MAX_ITERS,
                   local_max_edges: int = CC_LOCAL_MAX_EDGES):
    """Canonical cluster id per near-duplicate document: connected
    components over the exact ``jaccard_pairs`` edge set.

    Two plans behind one AQE-style gate on the materialized edge count
    (the pair table is PAIR-scale — nodes with a near-dup — not corpus
    scale, so it is usually orders of magnitude smaller than the input):

    - **local** (edges ≤ ``local_max_edges``): exact union-find in one
      ray task (``_cc_local``) — immune to component diameter, which
      otherwise dictates the distributed round count (a 3000-long
      near-dup chain needs ~12 doubling rounds × the fixed exchange
      cost).
    - **distributed** (the scale path): min-label propagation — each
      round folds TWO label moves into ONE bucketed join exchange by
      unioning the probe tables first: neighbor propagation
      (node ← label(peer)) and the pointer jump (node ← label(label),
      the classic doubling step), so rounds needed ≈ log2(diameter)+1
      and each round pays the join exchange once (round 2 paid it
      twice). A groupby(node) Min collapses to the new labels;
      converged when the (sum, xor) label fingerprint stops changing
      (the integer sum decreases strictly until the fixpoint), probed
      by per-block ray tasks over the materialized label table — no
      extra Dataset execution. The
      per-iteration label table is materialized to keep lineage flat
      AND repartitioned to a fixed block count — without that, each
      union+groupby round multiplies tiny blocks and per-task dispatch
      swamps the iteration (measured 2.3 s → 134 s by iteration 4).
      Exhausting ``max_iters`` without the fixpoint warns instead of
      returning silently-split clusters.

    Output (doc_id, cluster_id = min doc_id reachable), oracle-checked
    against a recursive-SQL reachability query (both plans)."""
    pairs = jaccard_pairs(sf_dir, threshold)

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), pa.int64()),
                "peer": pa.array(np.concatenate([b, a]), pa.int64()),
            }
        )

    # the edge/label tables are PAIR-scale (nodes with a near-dup), not
    # corpus-scale — repartition both to a handful of blocks so each
    # propagation round launches a handful of tasks, not one per
    # upstream bucket; at corpus scale set blocks ≈ rows / 1e6
    label_blocks = 4
    edges = (pairs.map_batches(symmetrize, batch_format="pyarrow")
             .repartition(label_blocks).materialize())

    if edges.count() <= local_max_edges:  # metadata count: materialized
        return _cc_local(edges)

    labels = _cc_propagate(edges, key_type=pa.int64(),
                           label_blocks=label_blocks, max_iters=max_iters,
                           opname="dedup_clusters")
    return labels.map_batches(
        lambda b: b.rename_columns(["doc_id", "cluster_id"]),
        batch_format="pyarrow",
    )


def _cc_propagate(edges, *, key_type, label_blocks: int = 4,
                  max_iters: int = CC_MAX_ITERS,
                  opname: str = "dedup_clusters"):
    """The distributed min-label-propagation plan shared by
    :func:`dedup_clusters` (int64 doc ids) and
    :func:`name_entity_clusters` (string names — ``hash_join`` buckets
    strings via the siphash path, Min on Arrow strings is the
    lexicographic min). ``edges`` must be a MATERIALIZED symmetric
    (node, peer) table of ``key_type`` keys. Each round folds TWO label
    moves into ONE bucketed join exchange by unioning the probe tables
    first: neighbor propagation (node ← label(peer)) and the pointer
    jump (node ← label(label), the classic doubling step), so rounds
    needed ≈ log2(diameter)+1. Convergence is probed by per-block ray
    tasks over the materialized label table (``_mat_label_sum``) — no
    extra Dataset execution. Returns the (node, label) fixpoint."""
    import warnings

    from pd3f_ray.pipelines.joins import hash_join

    def _arrow(b: pa.Table) -> pa.Table:
        return b  # identity pass: coerces aggregate output blocks to Arrow

    # initial label = own id, one row per distinct node
    labels = (
        edges.groupby("node")
        .aggregate(Min("node", alias_name="label"))
        .map_batches(_arrow, batch_format="pyarrow")
        .repartition(label_blocks)
        .materialize()
    )
    prev_fp = _mat_label_sum(labels)

    probe_schema = pa.schema([("node", key_type), ("pkey", key_type)])
    lab_schema = pa.schema([("lnode", key_type), ("label", key_type)])

    def hop_probe(b: pa.Table) -> pa.Table:
        return pa.table({"node": b.column("node"), "pkey": b.column("peer")})

    def jump_probe(b: pa.Table) -> pa.Table:
        return pa.table({"node": b.column("node"), "pkey": b.column("label")})

    converged = False
    for _ in range(max_iters):
        lab_r = labels.map_batches(
            lambda b: b.rename_columns(["lnode", "label"]),
            batch_format="pyarrow",
        )
        # ONE probe table for both moves — the union rides the join's
        # single bucketed exchange
        probe = edges.map_batches(hop_probe, batch_format="pyarrow").union(
            labels.map_batches(jump_probe, batch_format="pyarrow")
        )
        hop = hash_join(probe, lab_r, "pkey", "lnode", num_buckets=16,
                        left_schema=probe_schema, right_schema=lab_schema)
        prop = hop.map_batches(
            lambda b: b.select(["node", "label"]), batch_format="pyarrow"
        ).union(labels)  # keep-own-label safety: Min includes current
        labels = (
            prop.groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .map_batches(_arrow, batch_format="pyarrow")
            .repartition(label_blocks)
            .materialize()
        )
        cur_fp = _mat_label_sum(labels)
        if cur_fp == prev_fp:
            converged = True
            break
        prev_fp = cur_fp

    if not converged:
        warnings.warn(
            f"{opname}: label propagation did not reach its fixpoint "
            f"within {max_iters} doubling rounds (covers diameter ≤ "
            f"2^{max_iters}); cluster_ids may be split across components — "
            f"raise max_iters",
            RuntimeWarning,
        )

    return labels


def dedup_clusters_sql(threshold: float = JACCARD_THRESHOLD) -> str:
    return f"""
WITH RECURSIVE pairs AS (
  SELECT least(a.doc_id, b.doc_id) AS id_a,
         greatest(a.doc_id, b.doc_id) AS id_b
  FROM documents a JOIN documents b
    ON a.lang = b.lang AND a.doc_id < b.doc_id
   AND abs(a.n_chars - b.n_chars) <= {CHAR_BAND}
  WHERE jaccard(a.text, b.text) > {threshold}
),
edges AS (
  SELECT id_a AS a, id_b AS b FROM pairs
  UNION SELECT id_b, id_a FROM pairs
),
walk(n, lbl) AS (
  SELECT a, a FROM edges
  UNION
  SELECT e.a, w.lbl FROM edges e JOIN walk w ON e.b = w.n
)
SELECT n AS doc_id, CAST(min(lbl) AS BIGINT) AS cluster_id
FROM walk GROUP BY n
"""


# ---------------------------------------------------------------------------
# SimHash fingerprints (bit-sketch dedup family)
# ---------------------------------------------------------------------------


def simhash_docs(sf_dir: str, bits: int = 64):
    """64-bit SimHash per document over hashed tokens; near-dups share
    fingerprints within small Hamming distance. Deterministic (blake2b
    token hashes); rows-only check (bit arithmetic is not practical to
    oracle in SQL)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    shifts = np.arange(bits, dtype=np.uint64)

    def sim(batch: pa.Table) -> pa.Table:
        from pd3f_ray.functions.textfns import token_hash

        fps = []
        for t in batch.column("text").to_pylist():
            toks = t.split(" ")
            hs = np.fromiter(
                (token_hash(tok) for tok in toks),
                dtype=np.uint64, count=len(toks),
            )
            bitmat = (hs[:, None] >> shifts) & np.uint64(1)  # (n_tok, bits)
            acc = bitmat.astype(np.int64).sum(axis=0) * 2 - len(toks)
            fp = int(((acc > 0).astype(np.uint64) << shifts).sum())
            fps.append(fp & 0x7FFFFFFFFFFFFFFF)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(fps, pa.int64()),
            }
        )

    return ds.map_batches(sim, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash near-dup pairs (Hamming-band bucketing)
# ---------------------------------------------------------------------------

SIMHASH_MAX_HAMMING = 3
SIMHASH_BANDS = 4  # 4 × 16-bit bands: pigeonhole ⇒ exact for distance ≤ 3


def simhash_pairs(sf_dir: str, max_hamming: int = SIMHASH_MAX_HAMMING):
    """Document pairs whose 64-bit SimHash fingerprints are within
    ``max_hamming`` bits — the bit-sketch near-dup finder (Manku,
    Jain & Das Sarma, WWW 2007, public method). Each fingerprint is
    split into SIMHASH_BANDS 16-bit bands; by pigeonhole, any pair
    within distance SIMHASH_BANDS-1 agrees exactly on ≥1 band, so one
    groupby on (band, band_value) finds EVERY qualifying pair (recall
    1.0, no probabilistic slack); an in-bucket vectorized XOR-popcount
    verifies the distance, and a final tiny pair groupby dedups
    multi-band collisions. Rows-only (the token-hash fingerprints are
    not SQL-expressible); exactness vs brute force pinned in tests."""
    fps = simhash_docs(sf_dir)

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        fp = batch.column("simhash").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        parts = []
        for b in range(SIMHASH_BANDS):
            key = ((fp >> np.uint64(16 * b)) & np.uint64(0xFFFF)) \
                .astype(np.int64)
            band_key = (b << 16) | key
            # coarse shuffle key: one map_groups group per ~many exact
            # band keys (per-group dispatch is ~0.5 ms); the exact-key
            # split happens vectorized inside the group
            parts.append(pa.table({
                "gkey": pa.array(band_key % 256, pa.int32()),
                "band_key": pa.array(band_key, pa.int32()),
                "doc_id": pa.array(ids, pa.int64()),
                "simhash": batch.column("simhash"),
            }))
        return pa.concat_tables(parts)

    def group_pairs(group: pa.Table) -> pa.Table:
        from pd3f_ray.functions.textfns import popcount64

        bk = group.column("band_key").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        sh_ = group.column("simhash").to_numpy(
            zero_copy_only=False).astype(np.uint64)
        out_a, out_b, out_h = [], [], []
        if len(bk):
            order = np.lexsort((did, bk))
            bk, did, sh_ = bk[order], did[order], sh_[order]
            starts = np.flatnonzero(np.r_[True, bk[1:] != bk[:-1]])
            ends = np.r_[starts[1:], len(bk)]
            for s, e in zip(starts, ends):
                ids, fp = did[s:e], sh_[s:e]
                _, first = np.unique(ids, return_index=True)
                ids, fp = ids[first], fp[first]
                if len(ids) < 2:
                    continue
                x = (fp[:, None] ^ fp[None, :]).reshape(-1, 1)
                ham = popcount64(x).sum(axis=1).reshape(len(ids), len(ids))
                ii, jj = np.nonzero(np.triu(ham <= max_hamming, k=1))
                out_a.extend(np.minimum(ids[ii], ids[jj]).tolist())
                out_b.extend(np.maximum(ids[ii], ids[jj]).tolist())
                out_h.extend(ham[ii, jj].astype(np.int64).tolist())
        return pa.table({"id_a": pa.array(out_a, pa.int64()),
                         "id_b": pa.array(out_b, pa.int64()),
                         "hamming": pa.array(out_h, pa.int64())})

    found = (
        fps.map_batches(band_rows, batch_format="pyarrow")
        .groupby("gkey")
        .map_groups(group_pairs, batch_format="pyarrow")
    )
    return found.groupby(["id_a", "id_b"]).aggregate(
        Min("hamming", alias_name="hamming")
    )


# ---------------------------------------------------------------------------
# incremental (cross-run) dedup
# ---------------------------------------------------------------------------

INCR_BUCKETS = 256


def dedup_incremental(sf_dir: str, num_buckets: int = INCR_BUCKETS):
    """Daily-increment crawl dedup: dedup TODAY's batch against
    YESTERDAY's digest state AND within itself, keeping the minimum
    doc_id per new digest. The split is deterministic so the op is
    oracle-checkable: state = digests of even-doc_id documents (the
    prior crawl), increment = odd-doc_id documents.

    Plan (digests only — text never shuffles): both sides are hashed
    map-side and meet in ONE digest-bucketed exchange; the per-bucket
    fold drops every increment digest present in the state partition
    and keeps min(doc_id) per surviving digest. In production the state
    side is a column-pruned ``read_parquet`` of the previous run's
    digest table and the surviving digests are unioned back into it —
    identical plan, different source. Output (doc_id, text_hash)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def digest_sides(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hashes = [md5_hex(t) for t in batch.column("text").to_pylist()]
        h64 = np.fromiter((int(h[:16], 16) & 0x7FFFFFFFFFFFFFFF
                           for h in hashes), dtype=np.int64,
                          count=len(hashes))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text_hash": pa.array(hashes, pa.string()),
            "is_state": pa.array(ids % 2 == 0, pa.bool_()),
            "hbucket": pa.array((h64 % num_buckets).astype(np.int32),
                                pa.int32()),
        })

    def fold(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        is_state = group.column("is_state")
        state = group.filter(is_state).column("text_hash").combine_chunks()
        new = group.filter(pc.invert(is_state))
        new = new.filter(pc.invert(
            pc.is_in(new.column("text_hash"), value_set=state)))
        th = new.column("text_hash").to_numpy(zero_copy_only=False)
        did = new.column("doc_id").to_numpy(zero_copy_only=False)
        if len(th) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "text_hash": pa.array([], pa.string())})
        order = np.lexsort((did, th))
        th, did = th[order], did[order]
        keep = np.r_[True, th[1:] != th[:-1]]
        return pa.table({
            "doc_id": pa.array(did[keep].astype(np.int64), pa.int64()),
            "text_hash": pa.array(th[keep], pa.string()),
        })

    return (
        ds.map_batches(digest_sides, batch_format="pyarrow")
        .groupby("hbucket")
        .map_groups(fold, batch_format="pyarrow")
    )


DEDUP_INCREMENTAL_SQL = """
WITH state AS (
  SELECT DISTINCT md5(text) AS h FROM documents WHERE doc_id % 2 = 0
),
new AS (
  SELECT doc_id, md5(text) AS text_hash FROM documents WHERE doc_id % 2 = 1
)
SELECT min(doc_id) AS doc_id, text_hash
FROM new
WHERE text_hash NOT IN (SELECT h FROM state)
GROUP BY text_hash
"""


# ---------------------------------------------------------------------------
# policy dedup: keep the BEST document per duplicate group (argmax, not min)
# ---------------------------------------------------------------------------

_PACK_SHIFT = 33  # doc_id < 2^33, n_chars < 2^30 → packed fits int64


def dedup_keep_best(sf_dir: str):
    """Curation-grade dedup policy: within each duplicate group keep
    the HIGHEST-QUALITY member (longest document; doc_id ascending as
    the tiebreak), not the arbitrary smallest id. Groups are the same
    first-``PREFIX_K``-token prefix key as :func:`dedup_prefix`.

    Scale shape: the per-group argmax travels as ONE packed int64
    (``n_chars << 33  -  doc_id``) so the whole policy is a plain
    ``Max`` combiner aggregate — partial-aggregated inside every map
    task before the digest-keyed exchange, no ``map_groups``, no group
    materialization. Output (prefix_hash, n_docs, best_id, best_chars);
    oracle = the identical packing arithmetic in SQL."""
    from ray.data.aggregate import Count, Max

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "n_chars"])

    def digest(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        keys = [md5_hex(" ".join(t.split(" ")[:PREFIX_K])) for t in texts]
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nch = batch.column("n_chars").to_numpy(zero_copy_only=False)
        packed = (nch.astype(np.int64) << _PACK_SHIFT) - ids.astype(np.int64)
        return pa.table({
            "prefix_hash": pa.array(keys, pa.string()),
            "packed": pa.array(packed, pa.int64()),
        })

    agg = (
        ds.map_batches(digest, batch_format="pyarrow")
        .groupby("prefix_hash")
        .aggregate(Max("packed", alias_name="packed"),
                   Count(alias_name="n_docs"))
    )

    def decode(batch: pa.Table) -> pa.Table:
        p = batch.column("packed").to_numpy(zero_copy_only=False)
        best_chars = -((-p) >> _PACK_SHIFT)  # ceil(p / 2^33)
        best_id = (best_chars << _PACK_SHIFT) - p
        return pa.table({
            "prefix_hash": batch.column("prefix_hash"),
            "n_docs": batch.column("n_docs"),
            "best_id": pa.array(best_id, pa.int64()),
            "best_chars": pa.array(best_chars, pa.int64()),
        })

    return agg.map_batches(decode, batch_format="pyarrow")


DEDUP_KEEP_BEST_SQL = f"""
WITH keyed AS (
  SELECT md5(array_to_string(string_split(text, ' ')[1:{PREFIX_K}], ' '))
             AS prefix_hash,
         n_chars * {1 << _PACK_SHIFT} - doc_id AS packed
  FROM documents
),
agg AS (
  SELECT prefix_hash,
         CAST(count(*) AS BIGINT) AS n_docs,
         max(packed) AS packed
  FROM keyed
  GROUP BY prefix_hash
)
SELECT prefix_hash, n_docs,
       CAST(CAST(ceil(packed / {(1 << _PACK_SHIFT)}.0) AS BIGINT)
                * {1 << _PACK_SHIFT} - packed AS BIGINT) AS best_id,
       CAST(ceil(packed / {(1 << _PACK_SHIFT)}.0) AS BIGINT) AS best_chars
FROM agg
"""


# ---------------------------------------------------------------------------
# fuzzy entity resolution: edit-distance pairs over a name vocabulary
# ---------------------------------------------------------------------------

EDIT_MAX = 2        # pair threshold (Levenshtein)
NAME_BAND_W = 8     # name-length chars per shuffle band


def _levenshtein(a: str, b: str) -> int:
    """Classic O(|a|·|b|) DP — unit-cost insert/delete/substitute,
    identical to DuckDB's ``levenshtein``. Names are ~10 chars; the
    banded blocking (not this kernel) is what bounds the total work."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return la or lb
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
        prev = cur
    return prev[lb]


def fuzzy_name_pairs(sf_dir: str, max_dist: int = EDIT_MAX):
    """Entity-resolution fuzzy matching: pairs of DISTINCT part names
    within Levenshtein distance ``max_dist`` (typo/variant detection —
    'red bolt' ↔ 'old bolt'). The scale design has two levels:

    1. the quadratic never touches the parts table — an exact-dedup
       rollup first reduces it to its NAME VOCABULARY (bounded by the
       domain, not the row count);
    2. the vocabulary is length-banded exactly like ``jaccard_pairs``
       (|len(a)-len(b)| ≤ max_dist is necessary for distance ≤
       max_dist): native rows anchor, edge names ghost-replicate into
       the previous band, every qualifying pair is emitted exactly once
       from its shorter member's band.

    Output (name_a, name_b, dist), names ordered lexicographically;
    oracle = DuckDB ``levenshtein`` over the distinct-name self-join."""
    # one-band-down ghost replication is complete only while the length
    # gap a qualifying pair can span stays within one band — loudly
    # refuse a max_dist the plan would silently under-report for
    if max_dist > NAME_BAND_W:
        raise ValueError(
            f"fuzzy_name_pairs: max_dist={max_dist} exceeds the shuffle "
            f"band width NAME_BAND_W={NAME_BAND_W}; pairs spanning two "
            f"bands would be missed — raise NAME_BAND_W or lower max_dist")
    parts = read_table(sf_dir, "part", columns=["p_name"])

    names = (
        parts.map_batches(
            lambda b: pa.table({"p_name": b.column("p_name").unique()}),
            batch_format="pyarrow")
        .groupby("p_name")
        .aggregate(Count(alias_name="n"))
    )

    def band_rows(batch: pa.Table) -> pa.Table:
        nm = batch.column("p_name").to_pylist()
        ln = np.asarray([len(s) for s in nm], np.int64)
        band = ln // NAME_BAND_W
        t = pa.table({"p_name": pa.array(nm, pa.string()),
                      "len": pa.array(ln, pa.int64())})
        native = t.append_column(
            "band", pa.array(band, pa.int64())).append_column(
            "native", pa.array(np.ones(len(nm), bool)))
        ghost_mask = (ln % NAME_BAND_W < max_dist) & (band > 0)
        if not ghost_mask.any():
            return native
        ghosts = t.filter(pa.array(ghost_mask)).append_column(
            "band", pa.array(band[ghost_mask] - 1, pa.int64())
        ).append_column(
            "native", pa.array(np.zeros(int(ghost_mask.sum()), bool)))
        return pa.concat_tables([native, ghosts])

    def block_pairs(group: pa.Table) -> pa.Table:
        nm = group.column("p_name").to_numpy(zero_copy_only=False)
        ln = group.column("len").to_numpy(zero_copy_only=False)
        native = group.column("native").to_numpy(zero_copy_only=False)
        order = np.lexsort((nm, ln))
        nm, ln, native = nm[order], ln[order], native[order]
        out_a, out_b, out_d = [], [], []
        n = len(nm)
        for i in range(n):
            if not native[i]:
                continue  # ghosts are candidates, never anchors
            for j in range(i + 1, n):
                if ln[j] - ln[i] > max_dist:
                    break
                d = _levenshtein(nm[i], nm[j])
                if d <= max_dist:
                    a, b = sorted((nm[i], nm[j]))
                    out_a.append(a)
                    out_b.append(b)
                    out_d.append(d)
        return pa.table({"name_a": pa.array(out_a, pa.string()),
                         "name_b": pa.array(out_b, pa.string()),
                         "dist": pa.array(out_d, pa.int64())})

    return (
        names.map_batches(band_rows, batch_format="pyarrow")
        .groupby("band")
        .map_groups(block_pairs, batch_format="pyarrow")
    )


FUZZY_NAME_PAIRS_SQL = f"""
WITH names AS (SELECT DISTINCT p_name FROM part)
SELECT least(a.p_name, b.p_name)    AS name_a,
       greatest(a.p_name, b.p_name) AS name_b,
       CAST(levenshtein(a.p_name, b.p_name) AS BIGINT) AS dist
FROM names a
JOIN names b ON a.p_name < b.p_name
WHERE levenshtein(a.p_name, b.p_name) <= {EDIT_MAX}
"""


# ---------------------------------------------------------------------------
# entity resolution end-to-end: fuzzy pairs → components → canonical name
# ---------------------------------------------------------------------------


def name_entity_clusters(sf_dir: str, max_dist: int = EDIT_MAX,
                         local_max_edges: int = CC_LOCAL_MAX_EDGES):
    """Fuzzy entity resolution END-TO-END: the :func:`fuzzy_name_pairs`
    edge list is closed into connected components and every distinct
    name is mapped to its component's canonical representative (the
    lexicographically smallest member) — the master-data table that
    turns 'red bolt'/'old bolt' variants into one entity key.

    Same two-plan AQE gate as ``dedup_clusters``, on the materialized
    edge count:

    - **local** (edges ≤ ``local_max_edges``): exact union-find in one
      ray task (``_cc_local`` — np.unique sorts names, so the min label
      index IS the lexicographic min). Edges are vocabulary-scale
      (distinct names + fuzzy pairs), so this is the usual path.
    - **distributed**: the shared min-label propagation
      (``_cc_propagate``) over STRING node keys — ``hash_join`` buckets
      strings via the fixed-key siphash path, Min on Arrow strings is
      the lexicographic min.

    Output (name, canonical); oracle = recursive-CTE reachability +
    min() over the same Levenshtein edges (both plans byte-equal)."""
    pairs = fuzzy_name_pairs(sf_dir, max_dist=max_dist)

    parts = read_table(sf_dir, "part", columns=["p_name"])
    singles = (
        parts.map_batches(
            lambda b: pa.table({"p_name": b.column("p_name").unique()}),
            batch_format="pyarrow")
        .groupby("p_name")
        .aggregate(Count(alias_name="n"))
        .map_batches(
            lambda b: pa.table({
                "name_a": b.column("p_name"),
                "name_b": b.column("p_name"),
                "dist": pa.array(
                    np.zeros(b.num_rows, np.int64), pa.int64()),
            }),
            batch_format="pyarrow")
    )

    def symmetrize(batch: pa.Table) -> pa.Table:
        a = batch.column("name_a").to_pylist()
        b = batch.column("name_b").to_pylist()
        return pa.table({
            "node": pa.array(a + b, pa.string()),
            "peer": pa.array(b + a, pa.string()),
        })

    # pairs blocks are pandas (map_groups output); singles are arrow —
    # normalize before union, repartition's block builder refuses a mix
    pairs_arrow = pairs.map_batches(lambda b: b, batch_format="pyarrow")

    label_blocks = 4
    edges = (
        pairs_arrow.union(singles)
        .map_batches(symmetrize, batch_format="pyarrow")
        .repartition(label_blocks)
        .materialize()
    )

    if edges.count() <= local_max_edges:  # metadata count: materialized
        return _cc_local(edges, out_cols=("name", "canonical"),
                         key_type=pa.string())

    labels = _cc_propagate(edges, key_type=pa.string(),
                           label_blocks=label_blocks,
                           opname="name_entity_clusters")
    return labels.map_batches(
        lambda b: b.rename_columns(["name", "canonical"]),
        batch_format="pyarrow",
    )


NAME_ENTITY_CLUSTERS_SQL = f"""
WITH RECURSIVE names AS (SELECT DISTINCT p_name FROM part),
pairs AS (
  SELECT a.p_name AS na, b.p_name AS nb
  FROM names a JOIN names b ON a.p_name < b.p_name
  WHERE levenshtein(a.p_name, b.p_name) <= {EDIT_MAX}
),
edges AS (
  SELECT na, nb FROM pairs
  UNION SELECT nb, na FROM pairs
  UNION SELECT p_name, p_name FROM names
),
reach(src, dst) AS (
  SELECT na, nb FROM edges
  UNION
  SELECT r.src, e.nb FROM reach r JOIN edges e ON r.dst = e.na
)
SELECT src AS name, min(dst) AS canonical
FROM reach
GROUP BY src
"""
