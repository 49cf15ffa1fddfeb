"""Training-data chunking and tokenization over the ``documents`` table.

Two of the last steps of an LLM-data pipeline before examples leave the
engine:

- ``chunk_docs`` — fixed-size character windows with overlap (the
  context-window carving step). Map-only, exchange-free: output volume
  is size/stride × corpus, streamed block by block.
- ``tokenize_docs`` — encode every document against a corpus-level
  top-V vocabulary (the classic "hash the corpus once, broadcast the
  vocab, encode map-side" plan standing in for a learned BPE merge
  table). The vocabulary is built with the same per-block top-k partial
  plan as ``textstats.top_tokens`` (one token-keyed exchange over
  per-(block, token) partial counts, never raw occurrences), fetched
  block-wise to the driver (V rows — the justified small side) and
  ``ray.put`` ONCE; encoding is a stateless map.

Both are oracle-exact: chunk boundaries replicate DuckDB
``substring``/``generate_series`` semantics (character-based, 1-indexed)
and token ids replicate a ``row_number() OVER (ORDER BY n DESC, token)``
vocabulary with positional ``string_agg`` encoding.

Reference parity note: the reference (pd3f-core) has no chunking or
tokenization — these belong to the engine-level training-data op
families (SURVEY.md §8).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from pd3f_ray.core.arrowkit import sort_runs
from pd3f_ray.core.cluster import read_table
from pd3f_ray.stages.exchange import bucket_exchange, input_partitions

CHUNK_SIZE = 512
CHUNK_STRIDE = 384  # 128-char overlap between consecutive chunks
VOCAB_SIZE = 256


def chunk_docs(sf_dir: str, size: int = CHUNK_SIZE,
               stride: int = CHUNK_STRIDE):
    """Overlapping character windows: chunk ``i`` of a document covers
    ``[i*stride, i*stride + size)``; chunks are emitted while their
    start is inside the text, so every character lands in at least one
    chunk and consecutive chunks overlap by ``size - stride``. Output
    (doc_id, chunk_idx, chunk_text, n_chunk_chars).

    Python slicing and DuckDB ``substring`` agree on code-point
    semantics, so the oracle is exact. Scale: pure ``map_batches``, no
    exchange; a block's output is at most ``size/stride`` × its input
    characters, so block-size caps hold."""

    def chunk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        n_chunks = np.array([(len(t) - 1) // stride + 1 if t else 0
                             for t in texts], np.int64)
        out_ids = np.repeat(ids, n_chunks)
        out_idx = np.concatenate(
            [np.arange(n) for n in n_chunks]) if len(texts) else \
            np.array([], np.int64)
        out_txt = [t[i * stride: i * stride + size]
                   for t, n in zip(texts, n_chunks) for i in range(n)]
        return pa.table({
            "doc_id": pa.array(out_ids, pa.int64()),
            "chunk_idx": pa.array(out_idx, pa.int64()),
            "chunk_text": pa.array(out_txt, pa.string()),
            "n_chunk_chars": pa.array([len(c) for c in out_txt], pa.int64()),
        })

    return read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        chunk, batch_format="pyarrow")


def chunk_docs_sql(size: int = CHUNK_SIZE, stride: int = CHUNK_STRIDE) -> str:
    return f"""
SELECT doc_id,
       i AS chunk_idx,
       substring(text, i * {stride} + 1, {size}) AS chunk_text,
       length(substring(text, i * {stride} + 1, {size})) AS n_chunk_chars
FROM documents,
     unnest(generate_series(
         0, CAST(floor((n_chars - 1) / {stride}) AS BIGINT))) t(i)
WHERE n_chars > 0
"""


# ---------------------------------------------------------------------------
# vocabulary encoding
# ---------------------------------------------------------------------------


def _top_vocab(sf_dir: str, v: int):
    """Top-``v`` corpus tokens as an id map {token: 0..v-1}, ordered
    (count desc, token asc) — the ``top_tokens`` per-block-partial plan,
    resolved to a v-row table and fetched block-wise."""
    from pd3f_ray.pipelines.textstats import top_tokens

    vocab_ds = top_tokens(sf_dir, k=v).materialize()  # runs once
    blocks = [b for b in ray.get(vocab_ds.to_arrow_refs())  # v rows — tiny
              if b.num_rows]
    if not blocks:  # empty corpus → empty vocabulary
        return {}
    tbl = pa.concat_tables(blocks, promote_options="default")
    # the dataset is already sorted (n desc, token asc); re-apply the
    # order across concatenated blocks for safety
    import pyarrow.compute as pc

    order = pc.sort_indices(tbl, sort_keys=[("n", "descending"),
                                            ("token", "ascending")])
    toks = tbl.take(order).column("token").to_pylist()
    return {t: i for i, t in enumerate(toks)}


def tokenize_docs(sf_dir: str, v: int = VOCAB_SIZE):
    """Encode each document as the id sequence of its in-vocabulary
    whitespace tokens (out-of-vocabulary tokens dropped), ids assigned
    by corpus frequency rank (count desc, token asc — deterministic at
    the v-boundary ties). Output (doc_id, ids = comma-joined id string,
    n_ids); ids travel as a string so both engines emit one flat,
    hash-comparable column.

    Plan: one token-keyed exchange builds the vocab (per-block partial
    counts → per-block top-k → tiny resolve), the v-row id map is
    broadcast via ``ray.put`` once, and encoding is a stateless
    ``map_batches`` — the corpus never shuffles."""
    vocab_ref = ray.put(_top_vocab(sf_dir, v))

    def encode(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        ids_out, n_out = [], []
        for t in batch.column("text").to_pylist():
            enc = [vocab[w] for w in t.split(" ") if w in vocab]
            ids_out.append(",".join(map(str, enc)))
            n_out.append(len(enc))
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "ids": pa.array(ids_out, pa.string()),
            "n_ids": pa.array(n_out, pa.int64()),
        })

    return read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        encode, batch_format="pyarrow")


def tokenize_docs_sql(v: int = VOCAB_SIZE) -> str:
    return f"""
WITH counts AS (
  SELECT token, count(*) AS n
  FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
  WHERE token != ''
  GROUP BY token
),
vocab AS (
  SELECT token,
         row_number() OVER (ORDER BY n DESC, token ASC) - 1 AS tid
  FROM counts
  ORDER BY n DESC, token ASC
  LIMIT {v}
),
toks AS (
  SELECT d.doc_id, t.i,
         list_extract(string_split(d.text, ' '), CAST(t.i AS INTEGER))
             AS token
  FROM documents d,
       unnest(generate_series(1, len(string_split(d.text, ' ')))) t(i)
)
SELECT t.doc_id,
       COALESCE(string_agg(CAST(v.tid AS VARCHAR), ',' ORDER BY t.i), '')
           AS ids,
       CAST(count(v.tid) AS BIGINT) AS n_ids
FROM toks t LEFT JOIN vocab v USING (token)
GROUP BY t.doc_id
"""


# ---------------------------------------------------------------------------
# composed flagship: training-prep pipeline
# ---------------------------------------------------------------------------

def training_prep_pipeline(sf_dir: str, size: int = CHUNK_SIZE,
                           stride: int = CHUNK_STRIDE, v: int = VOCAB_SIZE):
    """The composed TRAINING-PREP flagship: raw documents → model-ready
    id sequences, as ONE streaming Dataset pipeline with a single
    end-to-end SQL oracle — the tokenizer-side counterpart of
    ``web_corpus_pipeline``:

      Gopher quality gate (map) → exact dedup (digest-bucketed
      exchange, keep lowest doc_id) → overlapping character chunks
      (map) → top-V vocab encode (broadcast id map, map) →
      (doc_id, chunk_idx, ids, n_ids)

    Every stage is the already-oracle-checked implementation
    (``gopher_quality`` keep rule, ``curate_docs`` dedup shape,
    ``chunk_docs`` boundaries, ``tokenize_docs`` vocabulary); this
    query proves they COMPOSE in one streaming pass — the only
    exchanges are the vocab build (token-keyed partials, V-row result
    broadcast once) and the digest dedup (only gate survivors'
    (digest, doc_id, text) rows reach it)."""
    import ray

    from pd3f_ray.functions.textfns import md5_hex
    from pd3f_ray.pipelines.webcurate import (
        GOPHER_MAX_MWL_X100,
        GOPHER_MAX_WORDS,
        GOPHER_MIN_DISTINCT_X1000,
        GOPHER_MIN_MWL_X100,
        GOPHER_MIN_WORDS,
        GOPHER_STOPWORDS,
    )

    vocab_ref = ray.put(_top_vocab(sf_dir, v))
    stop = frozenset(GOPHER_STOPWORDS)
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    p = input_partitions(docs)

    def gate(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_txt, out_dig, out_b = [], [], [], []
        for d, t in zip(ids, texts):
            toks = t.split(" ")
            n_words = len(toks)
            mwl = (len(t) - (n_words - 1)) * 100 // n_words
            dr = len(set(toks)) * 1000 // n_words
            if not (GOPHER_MIN_WORDS <= n_words <= GOPHER_MAX_WORDS
                    and GOPHER_MIN_MWL_X100 <= mwl <= GOPHER_MAX_MWL_X100
                    and dr >= GOPHER_MIN_DISTINCT_X1000
                    and not stop.isdisjoint(toks)):
                continue
            dig = md5_hex(t)
            out_id.append(d)
            out_txt.append(t)
            out_dig.append(dig)
            out_b.append(int(dig[:8], 16) % p)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "text": pa.array(out_txt, pa.string()),
            "digest": pa.array(out_dig, pa.string()),
            "dbucket": pa.array(np.asarray(out_b, np.int64), pa.int64()),
        })

    def first_per_digest(group: pa.Table) -> pa.Table:
        dig = group.column("digest").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        order, starts, _ = sort_runs((did, dig))
        keep = order[starts]
        return group.select(["doc_id", "text"]).take(
            pa.array(np.sort(keep)))

    def chunk_encode(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_ci, out_ids, out_n = [], [], [], []
        for d, t in zip(ids, texts):
            n = (len(t) - 1) // stride + 1 if t else 0
            for i in range(n):
                c = t[i * stride: i * stride + size]
                enc = [vocab[w] for w in c.split(" ") if w in vocab]
                out_id.append(d)
                out_ci.append(i)
                out_ids.append(",".join(map(str, enc)))
                out_n.append(len(enc))
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "chunk_idx": pa.array(out_ci, pa.int64()),
            "ids": pa.array(out_ids, pa.string()),
            "n_ids": pa.array(out_n, pa.int64()),
        })

    gated = docs.map_batches(gate, batch_format="pyarrow")
    return (bucket_exchange(gated, "dbucket", first_per_digest)
            .map_batches(chunk_encode, batch_format="pyarrow"))


def training_prep_sql(size: int = CHUNK_SIZE, stride: int = CHUNK_STRIDE,
                      v: int = VOCAB_SIZE) -> str:
    from pd3f_ray.pipelines.webcurate import (
        GOPHER_MAX_MWL_X100,
        GOPHER_MAX_WORDS,
        GOPHER_MIN_DISTINCT_X1000,
        GOPHER_MIN_MWL_X100,
        GOPHER_MIN_WORDS,
        GOPHER_STOPWORDS,
    )

    return f"""
WITH counts AS (
  SELECT token, count(*) AS n
  FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
  WHERE token != ''
  GROUP BY token
),
vocab AS (
  SELECT token,
         row_number() OVER (ORDER BY n DESC, token ASC) - 1 AS tid
  FROM counts
  ORDER BY n DESC, token ASC
  LIMIT {v}
),
m AS (
  SELECT doc_id, text,
         CAST(array_length(string_split(text, ' ')) AS BIGINT) AS n_words,
         CAST(array_length(list_distinct(string_split(text, ' ')))
              AS BIGINT) AS n_distinct,
         CAST(length(text) AS BIGINT) AS n_chars,
         list_has_any(string_split(text, ' '),
                      {list(GOPHER_STOPWORDS)}) AS has_stopword
  FROM documents
),
gated AS (
  SELECT doc_id, text, md5(text) AS dig
  FROM m
  WHERE (n_words BETWEEN {GOPHER_MIN_WORDS} AND {GOPHER_MAX_WORDS})
    AND ((n_chars - (n_words - 1)) * 100 // n_words
         BETWEEN {GOPHER_MIN_MWL_X100} AND {GOPHER_MAX_MWL_X100})
    AND (n_distinct * 1000 // n_words >= {GOPHER_MIN_DISTINCT_X1000})
    AND has_stopword
),
kept AS (
  SELECT doc_id, text
  FROM (SELECT doc_id, text,
               row_number() OVER (PARTITION BY dig ORDER BY doc_id) AS rn
        FROM gated)
  WHERE rn = 1
),
chunks AS (
  SELECT doc_id, i AS chunk_idx,
         substring(text, CAST(i * {stride} + 1 AS BIGINT), {size}) AS ct
  FROM kept,
       unnest(generate_series(
           0, CAST(floor((length(text) - 1) / {stride}) AS BIGINT))) t(i)
  WHERE length(text) > 0
),
toks AS (
  SELECT doc_id, chunk_idx, j,
         list_extract(string_split(ct, ' '), CAST(j AS INTEGER)) AS token
  FROM chunks,
       unnest(generate_series(1, len(string_split(ct, ' ')))) u(j)
)
SELECT t.doc_id, t.chunk_idx,
       COALESCE(string_agg(CAST(v.tid AS VARCHAR), ',' ORDER BY t.j), '')
           AS ids,
       CAST(count(v.tid) AS BIGINT) AS n_ids
FROM toks t LEFT JOIN vocab v USING (token)
GROUP BY t.doc_id, t.chunk_idx
"""
