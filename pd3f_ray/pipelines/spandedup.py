"""Exact duplicated-substring detection and removal (span dedup).

The substring-level companion to document-level dedup — the operation
of Lee et al. 2022, "Deduplicating Training Data Makes Language Models
Better" (ExactSubstr): find token n-grams that occur in more than one
document and strip every token covered by such an n-gram, keeping the
unique residue. Lee et al. build a corpus-wide suffix array; at Ray
Data scale the equivalent fixed-width formulation is shingle-based and
needs no global ordered structure:

- Pass 1 (always): positional ``SPAN_W``-token shingle hashes per
  document, per-doc-distinct (hash, doc_id) pairs — hashes only, text
  never shuffles — through ONE bucketed exchange; the per-bucket fold
  keeps hashes seen in ≥ ``SPAN_MIN_DOCS`` distinct documents. The dup
  table is boilerplate-scale, orders of magnitude below corpus scale.
- Pass 2 asks ``exchange.fits_broadcast`` of the materialized dup
  table (the ``line_dedup_docs`` pattern):
  - **broadcast** (the dup table fits one Ray block): dup hashes fetched
    block-wise, ``ray.put`` once; the corpus pass is map-only —
    positional hashes, ``np.isin`` membership, interval-union coverage
    via a vectorized diff-array, all per batch. ZERO text shuffles.
  - **union-join** (the scale path): exploded token rows and dup-start
    rows (from a bucketed inner join of positions against the dup
    table) meet in ONE doc-bucketed exchange; the in-group fold
    rebuilds each document from its tokens + dup starts. Corpus text
    crosses the wire once — the price of a dup set too big for any
    worker's heap.

Ops (both oracle-checked against a string-shingle DuckDB oracle;
64-bit hashes stand in for string equality with ~2^-64 collision odds
— tokens contain no spaces, so the joined shingle string is bijective
with the token sequence):

- ``dup_span_stats`` — per document: total shingle positions, dup
  positions, and tokens covered by the union of dup windows.
- ``strip_dup_spans`` — per document: the text with every covered
  token removed (documents with no surviving token disappear).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from pd3f_ray.core.arrowkit import runs, sort_runs
from pd3f_ray.core.cluster import read_table
from pd3f_ray.functions.textfns import shingle_hash_positions
from pd3f_ray.stages.exchange import (
    bucket_exchange,
    fits_broadcast,
    input_partitions,
    stable_bucket,
)

_MASK63 = 0x7FFFFFFFFFFFFFFF

SPAN_W = 8               # shingle width in tokens
SPAN_MIN_DOCS = 2        # duplicated = seen in >= this many docs


def _pos_hashes(text: str, w: int) -> np.ndarray:
    # raw single-space split INCLUDING empties == the oracle's
    # string_split positions
    return shingle_hash_positions(text.split(" "), w)


def _dup_table(sf_dir: str, w: int):
    """Pass 1: Dataset of (sh:int64) shingle hashes duplicated across
    >= SPAN_MIN_DOCS documents, materialized."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    p = input_partitions(docs)

    def hash_pairs(batch: pa.Table) -> pa.Table:
        out_h, out_d = [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            hs = np.unique(_pos_hashes(text, w))  # per-doc distinct
            out_h.append(hs.astype(np.int64) & np.int64(_MASK63))
            out_d.append(np.full(len(hs), did, dtype=np.int64))
        h = (np.concatenate(out_h) if out_h
             else np.empty(0, np.int64))
        d = (np.concatenate(out_d) if out_d
             else np.empty(0, np.int64))
        return pa.table({
            "sh": pa.array(h, pa.int64()),
            "doc_id": pa.array(d, pa.int64()),
            "sbucket": pa.array((h % p).astype(np.int32), pa.int32()),
        })

    def dup_hashes(group: pa.Table) -> pa.Table:
        sh = group.column("sh").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        # distinct (sh, doc_id) pairs, then a segment count per sh
        order, pairs, _ = sort_runs((did, sh), by=2)
        starts, ends = runs(sh[order[pairs]])
        sh_u = sh[order[pairs[starts]]]
        return pa.table({"sh": pa.array(
            sh_u[ends - starts >= SPAN_MIN_DOCS].astype(np.int64),
            pa.int64())})

    return bucket_exchange(
        docs.map_batches(hash_pairs, batch_format="pyarrow"),
        "sbucket", dup_hashes).materialize()


def _coverage(n_toks: int, starts: np.ndarray, w: int) -> np.ndarray:
    """Boolean mask over token positions covered by any window
    [s, s+w) for s in starts (0-based), via a vectorized diff array."""
    diff = np.zeros(n_toks + 1, dtype=np.int64)
    np.add.at(diff, starts, 1)
    np.add.at(diff, np.minimum(starts + w, n_toks), -1)
    return np.cumsum(diff[:-1]) > 0


def _fetch_small(ds) -> np.ndarray:
    """Block-wise fetch of a small int64 'sh' table (the justified
    small-side driver read, same class as the joins broadcast)."""
    import ray

    blocks = ray.get(ds.to_arrow_refs())
    parts = [b.column("sh").to_numpy(zero_copy_only=False)
             for b in blocks if b.num_rows]
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, np.int64)


def _doc_frames(group: pa.Table, w: int, emit: str) -> pa.Table:
    """In-group fold for the union-join path: rows are token rows
    (kind 0: j, tok) and dup-start rows (kind 1: j) of the bucket's
    documents; rebuild stats or stripped text per document. pyarrow-
    native: one (doc, kind, j) lexsort over the group, then per-doc
    segment slices — the token strings never enter a pandas block."""
    out: dict[str, list] = (
        {"doc_id": [], "n_positions": [], "n_dup_positions": [],
         "n_dup_tokens": []} if emit == "stats"
        else {"doc_id": [], "text": []})
    did = group.column("doc_id").to_numpy(zero_copy_only=False)
    jj = group.column("j").to_numpy(zero_copy_only=False)
    kind = group.column("kind").to_numpy(zero_copy_only=False)
    toks = group.column("tok").to_numpy(zero_copy_only=False)
    order, seg_s, seg_e = sort_runs((jj, kind, did))
    did, jj, kind, toks = did[order], jj[order], kind[order], toks[order]
    for s, e in zip(seg_s, seg_e):
        m0 = kind[s:e] == 0
        starts = jj[s:e][~m0].astype(np.int64)
        n = int(m0.sum())
        cov = _coverage(n, starts, w)
        if emit == "stats":
            out["doc_id"].append(int(did[s]))
            out["n_positions"].append(max(0, n - w + 1))
            out["n_dup_positions"].append(int(len(starts)))
            out["n_dup_tokens"].append(int(cov.sum()))
        else:
            kept = toks[s:e][m0][~cov]
            if len(kept):
                out["doc_id"].append(int(did[s]))
                out["text"].append(" ".join(kept))
    cols = {"doc_id": pa.array(out["doc_id"], pa.int64())}
    for c, v in out.items():
        if c == "doc_id":
            continue
        cols[c] = pa.array(v, pa.int64() if emit == "stats"
                           else pa.string())
    return pa.table(cols)


def _union_join_plan(sf_dir: str, dup, w: int, emit: str):
    """Scale path shared by both ops: token rows ∪ dup-start rows →
    one doc-bucketed exchange → per-doc fold."""
    from pd3f_ray.pipelines.joins import hash_join

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def positions(batch: pa.Table) -> pa.Table:
        out_d, out_j, out_h = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            hs = _pos_hashes(text, w).astype(np.int64) & np.int64(_MASK63)
            out_d.append(np.full(len(hs), did, dtype=np.int64))
            out_j.append(np.arange(len(hs), dtype=np.int64))
            out_h.append(hs)
        cat = (lambda xs, dt: np.concatenate(xs) if xs
               else np.empty(0, dt))
        return pa.table({
            "doc_id": pa.array(cat(out_d, np.int64), pa.int64()),
            "j": pa.array(cat(out_j, np.int64), pa.int64()),
            "sh": pa.array(cat(out_h, np.int64), pa.int64()),
        })

    # dup START rows per doc: positions ⋈ dup on the shingle hash
    dup_pos = hash_join(
        docs.map_batches(positions, batch_format="pyarrow"),
        dup, "sh", "sh",
        left_schema=pa.schema([("doc_id", pa.int64()), ("j", pa.int64()),
                               ("sh", pa.int64())]),
        right_schema=pa.schema([("sh", pa.int64())]),
    )
    p = input_partitions(docs, dup_pos)

    def tag_starts(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(did)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "j": batch.column("j"),
            "tok": pa.array([None] * n, pa.string()),
            "kind": pa.array(np.ones(n, np.int8), pa.int8()),
            "dbucket": pa.array(stable_bucket(did, p), pa.int32()),
        })

    def token_rows(batch: pa.Table) -> pa.Table:
        out_d, out_j, out_t = [], [], []
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            toks = text.split(" ")
            out_d.extend([did] * len(toks))
            out_j.extend(range(len(toks)))
            out_t.extend(toks)
        did = np.asarray(out_d, dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(did, pa.int64()),
            "j": pa.array(np.asarray(out_j, np.int64), pa.int64()),
            "tok": pa.array(out_t, pa.string()),
            "kind": pa.array(np.zeros(len(did), np.int8), pa.int8()),
            "dbucket": pa.array(stable_bucket(did, p), pa.int32()),
        })

    unioned = (
        docs.map_batches(token_rows, batch_format="pyarrow")
        .union(dup_pos.map_batches(tag_starts, batch_format="pyarrow"))
    )
    return bucket_exchange(unioned, "dbucket",
                           lambda g: _doc_frames(g, w, emit))


def _broadcast_plan(sf_dir: str, dup, w: int, emit: str):
    import ray

    dup_ref = ray.put(_fetch_small(dup))
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fold(batch: pa.Table) -> pa.Table:
        dups = ray.get(dup_ref)
        out: dict[str, list] = (
            {"doc_id": [], "n_positions": [], "n_dup_positions": [],
             "n_dup_tokens": []} if emit == "stats"
            else {"doc_id": [], "text": []})
        for did, text in zip(batch.column("doc_id").to_pylist(),
                             batch.column("text").to_pylist()):
            toks = text.split(" ")
            hs = _pos_hashes(text, w).astype(np.int64) & np.int64(_MASK63)
            starts = np.nonzero(np.isin(hs, dups))[0].astype(np.int64)
            cov = _coverage(len(toks), starts, w)
            if emit == "stats":
                out["doc_id"].append(did)
                out["n_positions"].append(len(hs))
                out["n_dup_positions"].append(int(len(starts)))
                out["n_dup_tokens"].append(int(cov.sum()))
            else:
                kept = [t for t, c in zip(toks, cov) if not c]
                if kept:
                    out["doc_id"].append(did)
                    out["text"].append(" ".join(kept))
        cols = {"doc_id": pa.array(out["doc_id"], pa.int64())}
        for c, v in out.items():
            if c == "doc_id":
                continue
            cols[c] = pa.array(
                v, pa.int64() if emit == "stats" else pa.string())
        return pa.table(cols)

    return docs.map_batches(fold, batch_format="pyarrow")


def dup_span_stats(sf_dir: str, w: int = SPAN_W):
    """Per document: (n_positions, n_dup_positions, n_dup_tokens) for
    ``w``-token shingles duplicated across documents."""
    dup = _dup_table(sf_dir, w)
    if fits_broadcast(dup):
        return _broadcast_plan(sf_dir, dup, w, "stats")
    return _union_join_plan(sf_dir, dup, w, "stats")


def strip_dup_spans(sf_dir: str, w: int = SPAN_W):
    """Per document: text with every token covered by a duplicated
    ``w``-token shingle removed; fully-covered documents disappear."""
    dup = _dup_table(sf_dir, w)
    if fits_broadcast(dup):
        return _broadcast_plan(sf_dir, dup, w, "strip")
    return _union_join_plan(sf_dir, dup, w, "strip")


def _span_cte(w: int) -> str:
    return f"""
t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
pos AS (
  SELECT doc_id, i, array_to_string(toks[i:i+{w - 1}], ' ') AS sh
  FROM t, unnest(generate_series(1, len(toks) - {w} + 1)) AS u(i)
),
dup AS (
  SELECT sh FROM pos GROUP BY sh
  HAVING count(DISTINCT doc_id) >= {SPAN_MIN_DOCS}
),
dstart AS (SELECT doc_id, i FROM pos WHERE sh IN (SELECT sh FROM dup))"""


def dup_span_stats_sql(w: int = SPAN_W) -> str:
    return f"""
WITH {_span_cte(w)}
SELECT t.doc_id,
       CAST(greatest(len(t.toks) - {w} + 1, 0) AS BIGINT) AS n_positions,
       CAST(COALESCE((SELECT count(*) FROM dstart s
                      WHERE s.doc_id = t.doc_id), 0) AS BIGINT)
           AS n_dup_positions,
       CAST(COALESCE((SELECT count(*)
                      FROM unnest(generate_series(1, len(t.toks))) v(j)
                      WHERE EXISTS (SELECT 1 FROM dstart s
                                    WHERE s.doc_id = t.doc_id
                                      AND s.i <= v.j
                                      AND v.j < s.i + {w})), 0) AS BIGINT)
           AS n_dup_tokens
FROM t
"""


def strip_dup_spans_sql(w: int = SPAN_W) -> str:
    return f"""
WITH {_span_cte(w)},
tok AS (
  SELECT doc_id, j, toks[j] AS tok
  FROM t, unnest(generate_series(1, len(toks))) v(j)
),
keep AS (
  SELECT k.doc_id, k.j, k.tok FROM tok k
  WHERE NOT EXISTS (SELECT 1 FROM dstart s
                    WHERE s.doc_id = k.doc_id
                      AND s.i <= k.j AND k.j < s.i + {w})
)
SELECT doc_id, string_agg(tok, ' ' ORDER BY j) AS text
FROM keep GROUP BY doc_id
"""


DUP_SPAN_STATS_SQL = dup_span_stats_sql()
STRIP_DUP_SPANS_SQL = strip_dup_spans_sql()
