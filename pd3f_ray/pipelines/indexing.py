"""Corpus indexing operators over the ``documents`` table.

An LLM-data pipeline needs corpus-level *index* structures, not just
row transforms: an inverted index (token → posting list) for retrieval
/ decontamination tooling, and tf-idf term weighting for distinctive-
term profiling and cheap relevance scoring. Both are expressed
Ray-Data-first and oracle-checked against DuckDB:

- ``token_postings`` — per token: exact document frequency plus the
  first ``POSTINGS_K`` doc_ids (ascending). The head-of-posting-list
  cap is what makes the op 100 TB-safe: min-K is distributive, so the
  map side keeps only the K smallest doc_ids per (block, token) and
  the one bucketed exchange carries ≤ K ids + one partial count per
  (block, token) — a stopword's full posting list (corpus-sized) never
  exists anywhere.
- ``tfidf_terms`` — per document: the top ``TFIDF_K`` tokens by
  tf·ln(N/df). The document-frequency table is one aggregate exchange;
  scoring then runs behind an AQE-style gate: broadcast the df table
  (``ray.put`` once, map-only scoring — the default; a vocabulary is
  orders of magnitude smaller than its corpus) or, when the vocabulary
  exceeds the broadcast bound, a bucketed ``hash_join`` of (doc, token,
  tf) pairs against the df table followed by a doc-bucketed top-k.
  Scores travel as integer micros (``round(score * 1e6)``) — Python's
  and DuckDB's ``ln`` are both libm doubles, verified bit-identical,
  so ranking by the rounded integer is exact in both engines.

Reference parity note: the reference (pd3f-core) has no corpus-level
operators at all — these belong to the engine-level training-data op
families (SURVEY.md §2.8 / §8).
"""

from __future__ import annotations

import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa
from ray.data.aggregate import Sum

from pd3f_ray.core.cluster import read_table
from pd3f_ray.functions.textfns import hash_bytes

_MASK63 = 0x7FFFFFFFFFFFFFFF

POSTINGS_K = 50          # posting-list head kept per token
POSTINGS_BUCKETS = 256   # token-hash buckets (dial; scale with vocab)
TFIDF_K = 3              # top terms kept per document
TFIDF_BROADCAST_MAX = 5_000_000  # vocab rows; above this, join path
DOC_BUCKETS = 256        # doc-id buckets for the join-path top-k


def _tokens(text: str) -> list[str]:
    # single-space split dropping empties == the SQL oracle's
    # string_split + token != '' filter
    return [t for t in text.split(" ") if t]


def _n_docs(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    return pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows


# ---------------------------------------------------------------------------
# inverted index (posting-list heads)
# ---------------------------------------------------------------------------


def token_postings(sf_dir: str, k: int = POSTINGS_K,
                   num_buckets: int = POSTINGS_BUCKETS):
    """Per token: exact df + the first ``k`` doc_ids ascending as a
    csv string. Map-side partials keep (count, k smallest ids) per
    (block, token); the reduce sums counts and re-merges the min-k —
    both distributive, so the result is exact while no group ever
    holds more than blocks × k ids per token."""

    def partials(batch: pa.Table) -> pa.Table:
        df_part: Counter = Counter()
        ids: dict[str, list[int]] = {}
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            for tok in set(_tokens(text)):
                df_part[tok] += 1
                ids.setdefault(tok, []).append(did)
        toks = list(df_part.keys())
        h = np.fromiter((hash_bytes(t.encode()) & _MASK63 for t in toks),
                        dtype=np.int64, count=len(toks))
        return pa.table({
            "token": pa.array(toks, pa.string()),
            "df_part": pa.array([df_part[t] for t in toks], pa.int64()),
            "ids_csv": pa.array(
                [",".join(map(str, sorted(ids[t])[:k])) for t in toks],
                pa.string()),
            "ibucket": pa.array(h % num_buckets, pa.int64()),
        })

    def resolve(group: pa.Table) -> pa.Table:
        tok = group.column("token").to_numpy(zero_copy_only=False)
        dfp = group.column("df_part").to_numpy(zero_copy_only=False)
        csvs = group.column("ids_csv").to_numpy(zero_copy_only=False)
        out_t, out_df, out_p = [], [], []
        if len(tok):
            order = np.argsort(tok, kind="stable")
            tok, dfp, csvs = tok[order], dfp[order], csvs[order]
            starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
            ends = np.r_[starts[1:], len(tok)]
            for s, e in zip(starts, ends):
                merged: list[int] = []
                for csv in csvs[s:e]:
                    merged.extend(int(x) for x in csv.split(","))
                merged.sort()
                out_t.append(tok[s])
                out_df.append(int(dfp[s:e].sum()))
                out_p.append(",".join(map(str, merged[:k])))
        return pa.table({
            "token": pa.array(out_t, pa.string()),
            "df": pa.array(out_df, pa.int64()),
            "postings": pa.array(out_p, pa.string()),
        })

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby("ibucket")
        .map_groups(resolve, batch_format="pyarrow")
    )


def token_postings_sql(k: int = POSTINGS_K) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
),
pairs AS (SELECT DISTINCT doc_id, token FROM toks WHERE token != ''),
ranked AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn
  FROM pairs
)
SELECT token,
       CAST(count(*) AS BIGINT) AS df,
       string_agg(CASE WHEN rn <= {k} THEN CAST(doc_id AS VARCHAR) END,
                  ',' ORDER BY doc_id) AS postings
FROM ranked
GROUP BY token
"""


TOKEN_POSTINGS_SQL = token_postings_sql()


# ---------------------------------------------------------------------------
# tf-idf distinctive terms
# ---------------------------------------------------------------------------


def _score_micros(tf: int, df: int, n_docs: int) -> int:
    s = tf * math.log(n_docs / df) * 1000000.0
    # DuckDB round() is half-away-from-zero
    return int(math.copysign(math.floor(abs(s) + 0.5), s))


def _df_table(sf_dir: str):
    """One aggregate exchange: (token, df), partial-combined map-side."""

    def partials(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for text in batch.column("text").to_pylist():
            c.update(set(_tokens(text)))
        return pa.table({
            "token": pa.array(list(c.keys()), pa.string()),
            "df_part": pa.array(list(c.values()), pa.int64()),
        })

    return (
        read_table(sf_dir, "documents", ["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("df_part", alias_name="df"))
    )


def _topk_frame(doc_ids, toks, tfs, dfs, n_docs: int, k: int
                ) -> pa.Table:
    rows = sorted(
        zip(doc_ids, toks, tfs, dfs),
        key=lambda r: (r[0], -_score_micros(r[2], r[3], n_docs), r[1]),
    )
    out = {c: [] for c in ("doc_id", "token", "tf", "df", "score_micros")}
    kept = 0
    prev = None
    for did, tok, tf, df in rows:
        if did != prev:
            prev, kept = did, 0
        if kept < k:
            kept += 1
            out["doc_id"].append(did)
            out["token"].append(tok)
            out["tf"].append(tf)
            out["df"].append(df)
            out["score_micros"].append(_score_micros(tf, df, n_docs))
    return pa.table({
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "token": pa.array(out["token"], pa.string()),
        "tf": pa.array(out["tf"], pa.int64()),
        "df": pa.array(out["df"], pa.int64()),
        "score_micros": pa.array(out["score_micros"], pa.int64()),
    })


def tfidf_terms(sf_dir: str, k: int = TFIDF_K,
                broadcast_max: int = TFIDF_BROADCAST_MAX):
    """Per document: top-``k`` tokens by tf·ln(N/df) (ties:
    score desc, token asc). df table = one exchange; scoring is
    map-only behind the vocabulary broadcast gate, or a bucketed
    hash_join + doc-bucketed top-k on the scale path."""
    import ray

    n_docs = _n_docs(sf_dir)
    df_tbl = _df_table(sf_dir).materialize()

    if df_tbl.count() <= broadcast_max:
        # ---- broadcast plan: scoring never shuffles ----
        blocks = ray.get(df_tbl.to_arrow_refs())  # small side, block-wise
        df_map: dict[str, int] = {}
        for b in blocks:
            if b.num_rows == 0:  # trailing empty block, empty schema
                continue
            df_map.update(zip(b.column("token").to_pylist(),
                              b.column("df").to_pylist()))
        df_ref = ray.put(df_map)

        def score(batch: pa.Table) -> pa.Table:
            dfm = ray.get(df_ref)
            doc_ids, toks, tfs, dfs = [], [], [], []
            for did, text in zip(batch.column("doc_id").to_pylist(),
                                 batch.column("text").to_pylist()):
                for tok, tf in Counter(_tokens(text)).items():
                    doc_ids.append(did)
                    toks.append(tok)
                    tfs.append(tf)
                    dfs.append(dfm[tok])
            return _topk_frame(doc_ids, toks, tfs, dfs, n_docs, k)

        return read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            score, batch_format="pyarrow")

    # ---- join plan: vocabulary too big for any worker's heap ----
    from pd3f_ray.pipelines.joins import hash_join

    def pairs(batch: pa.Table) -> pa.Table:
        doc_ids, ths, tfs = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            for tok, tf in Counter(_tokens(text)).items():
                doc_ids.append(did)
                ths.append(hash_bytes(tok.encode()) & _MASK63)
                tfs.append(tf)
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "th": pa.array(np.asarray(ths, dtype=np.int64), pa.int64()),
            "tf": pa.array(tfs, pa.int64()),
        })

    def tag_df(batch: pa.Table) -> pa.Table:
        toks = batch.column("token").to_pylist()
        h = np.fromiter((hash_bytes(t.encode()) & _MASK63 for t in toks),
                        dtype=np.int64, count=len(toks))
        return batch.append_column("th", pa.array(h, pa.int64()))

    pair_ds = read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        pairs, batch_format="pyarrow")
    df_keyed = df_tbl.map_batches(tag_df, batch_format="pyarrow")
    joined = hash_join(
        pair_ds, df_keyed, "th", "th",
        left_schema=pa.schema([("doc_id", pa.int64()), ("th", pa.int64()),
                               ("tf", pa.int64())]),
        right_schema=pa.schema([("token", pa.string()), ("df", pa.int64()),
                                ("th", pa.int64())]),
    )

    def add_dbucket(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "tbucket", pa.array((did % DOC_BUCKETS).astype(np.int64)))

    def group_topk(group: pa.Table) -> pa.Table:
        return _topk_frame(
            group.column("doc_id").to_pylist(),
            group.column("token").to_pylist(),
            group.column("tf").to_pylist(),
            group.column("df").to_pylist(),
            n_docs, k)

    return (
        joined.map_batches(add_dbucket, batch_format="pyarrow")
        .groupby("tbucket")
        .map_groups(group_topk, batch_format="pyarrow")
    )


def tfidf_terms_sql(k: int = TFIDF_K) -> str:
    return f"""
WITH toks AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
),
t2 AS (SELECT doc_id, token FROM toks WHERE token != ''),
tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
       FROM t2 GROUP BY doc_id, token),
df AS (SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
       FROM t2 GROUP BY token),
n AS (SELECT CAST(count(*) AS BIGINT) AS n_docs FROM documents)
SELECT tf.doc_id, tf.token, tf.tf, df.df,
       CAST(round(tf.tf * ln(CAST((SELECT n_docs FROM n) AS DOUBLE)
                             / df.df) * 1000000) AS BIGINT) AS score_micros
FROM tf JOIN df USING (token)
QUALIFY row_number() OVER (PARTITION BY tf.doc_id
                           ORDER BY score_micros DESC, tf.token ASC) <= {k}
"""


TFIDF_TERMS_SQL = tfidf_terms_sql()


# ---------------------------------------------------------------------------
# BM25 relevance scoring (fixed query term set)
# ---------------------------------------------------------------------------

BM25_K1 = 1.2
BM25_B = 0.75
BM25_QUERY = ("table", "hash", "merge")  # fixed probe terms (in-vocab)


def bm25_scores(sf_dir: str, query: tuple[str, ...] = BM25_QUERY):
    """Okapi BM25 scoring of every document against a fixed query term
    set — the retrieval primitive behind relevance-ranked corpus search
    and quality-weighted sampling. Two passes, both scale-safe:

    1. a stats pass reduces the corpus to ONE tiny row per block
       (n_docs, total token count, per-query-term partial df) — the
       driver folds blocks×|Q| numbers, never rows;
    2. scoring is MAP-ONLY behind a ``ray.put`` broadcast of
       (N, avgdl, df) — the idf of a query term set is KB-sized however
       big the corpus is.

    Scores travel as integer micros, one row per (doc, matched term) —
    per-term rounding sidesteps float summation-order nondeterminism
    entirely (the SQL oracle rounds the same expression tree).
    Output (doc_id, token, tf, score_micros)."""
    import ray

    qset = list(query)

    def stats_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n, total = len(texts), 0
        dfs = dict.fromkeys(qset, 0)
        for t in texts:
            toks = _tokens(t)
            total += len(toks)
            seen = set(toks)
            for q in qset:
                if q in seen:
                    dfs[q] += 1
        return pa.table({
            "n_docs": pa.array([n], pa.int64()),
            "total_tokens": pa.array([total], pa.int64()),
            **{f"df_{i}": pa.array([dfs[q]], pa.int64())
               for i, q in enumerate(qset)},
        })

    stats = (
        read_table(sf_dir, "documents", ["text"])
        .map_batches(stats_partial, batch_format="pyarrow")
        .materialize()
    )
    n_docs, total_tokens = 0, 0
    dfs = [0] * len(qset)
    for b in ray.get(stats.to_arrow_refs()):  # blocks×1 tiny rows
        if b.num_rows == 0:
            continue
        n_docs += sum(b.column("n_docs").to_pylist())
        total_tokens += sum(b.column("total_tokens").to_pylist())
        for i in range(len(qset)):
            dfs[i] += sum(b.column(f"df_{i}").to_pylist())

    avgdl = total_tokens / n_docs  # one double division, both engines
    idf = {
        q: math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)
        for q, df in zip(qset, dfs)
    }
    bc = ray.put((avgdl, idf))

    def score(batch: pa.Table) -> pa.Table:
        avg, idfm = ray.get(bc)
        doc_ids, toks_out, tfs, scores = [], [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            toks = _tokens(text)
            dl = len(toks)
            c = Counter(toks)
            for q in qset:
                tf = c.get(q, 0)
                if tf == 0:
                    continue
                denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg)
                s = idfm[q] * (tf * (BM25_K1 + 1.0)) / denom
                doc_ids.append(did)
                toks_out.append(q)
                tfs.append(tf)
                # DuckDB round() is half-away-from-zero; scores are > 0
                scores.append(int(math.floor(s * 1_000_000 + 0.5)))
        return pa.table({
            "doc_id": pa.array(doc_ids, pa.int64()),
            "token": pa.array(toks_out, pa.string()),
            "tf": pa.array(np.asarray(tfs, np.int64), pa.int64()),
            "score_micros": pa.array(np.asarray(scores, np.int64),
                                     pa.int64()),
        })

    return read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow")


def bm25_scores_sql(query: tuple[str, ...] = BM25_QUERY) -> str:
    terms = ", ".join(f"'{q}'" for q in query)
    return f"""
WITH t2 AS (
  SELECT doc_id, token
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS token
        FROM documents)
  WHERE token != ''
),
dl AS (SELECT doc_id, CAST(count(*) AS DOUBLE) AS dl
       FROM t2 GROUP BY doc_id),
stats AS (SELECT CAST(count(*) AS DOUBLE) AS n,
                 CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl
          FROM dl),
df AS (SELECT token, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
       FROM t2 WHERE token IN ({terms}) GROUP BY token),
tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
       FROM t2 WHERE token IN ({terms}) GROUP BY doc_id, token)
SELECT tf.doc_id,
       tf.token,
       tf.tf,
       CAST(round(
         ln(((SELECT n FROM stats) - df.df + 0.5) / (df.df + 0.5) + 1.0)
           * (tf.tf * ({BM25_K1} + 1.0))
           / (tf.tf + {BM25_K1} * (1.0 - {BM25_B}
                + {BM25_B} * dl.dl / (SELECT avgdl FROM stats)))
         * 1000000) AS BIGINT) AS score_micros
FROM tf
JOIN df USING (token)
JOIN dl ON dl.doc_id = tf.doc_id
"""


BM25_SCORES_SQL = bm25_scores_sql()
