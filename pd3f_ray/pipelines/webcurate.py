"""Web-corpus curation operators — the CCNet/Gopher-style passes a
Common-Crawl-scale training-data pipeline runs between extraction and
tokenization, each expressed Ray-Data-first over the ``documents``
table and oracle-checked against DuckDB SQL.

Ops (all new beyond the reference, which is document-local extraction
only — SURVEY §2.8):

- ``domain_stats`` — per-source corpus profile (doc/char/token counts,
  language spread): two bounded aggregation exchanges, partial-combined
  map-side so only (source, lang) partial rows ever shuffle.
- ``gopher_quality`` — Gopher-style per-document quality rules
  (Rae et al. 2021, "Scaling Language Models: ... Gopher", §A1.1):
  word-count bounds, mean-word-length band, distinct-token ratio,
  stop-word hit. Pure map stage; integer-scaled metrics so the driver
  hash compare is exact.
- ``pii_roundtrip`` — PII scrubbing (email/phone/IPv4 → typed
  placeholders) proven by injection roundtrip: deterministic PII spans
  are injected per document, the ``PiiScrubber`` stage must find and
  replace ALL of them, and the oracle reconstructs the expected output
  from the clean table.
- ``line_dedup_docs`` — CCNet-style repeated-line removal per source
  domain (Wenzek et al. 2020, CCNet): drop every line that occurs in
  ≥2 documents of the same source, keep each document's residue in
  order. Two plans behind an AQE-style gate on the duplicate-line
  count (broadcast filter vs bucketed anti-join + reassembly).
- ``pack_sequences`` — greedy fixed-token-budget sequence packing (the
  pre-tokenization batching step): deterministic per doc-id bucket, no
  document split across sequences; rows-only (greedy reset-cumsum is
  not expressible in one SQL pass) with property tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from ray.data.aggregate import Sum

from pd3f_ray.core.cluster import read_table
from pd3f_ray.functions.textfns import hash_bytes

_MASK63 = 0x7FFFFFFFFFFFFFFF


# ---------------------------------------------------------------------------
# domain stats
# ---------------------------------------------------------------------------


def domain_stats(sf_dir: str):
    """Per-source corpus profile: (source, n_docs, sum_chars,
    sum_tokens, n_langs).

    Plan: map-side partial aggregation per (source, lang) inside each
    batch (token counts are ``count(' ')+1`` — no tokenization pass),
    then ``groupby([source, lang])`` Sum — the exchange carries only
    partial rows, ≤ sources × langs per block — and a final
    ``groupby(source)`` fold whose groups are bounded by LANGUAGE
    cardinality (≤ a few hundred), never by corpus size. n_langs is an
    exact distinct count because the (source, lang) collapse happened
    in the previous exchange."""

    def partials(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": batch.column("source").to_pylist(),
            "n_chars": batch.column("n_chars").to_numpy(
                zero_copy_only=False),
            "lang": batch.column("lang").to_pylist(),
            "toks": [t.count(" ") + 1
                     for t in batch.column("text").to_pylist()],
        })
        g = (df.groupby(["source", "lang"], sort=False)
             .agg(n_docs=("toks", "size"), sum_chars=("n_chars", "sum"),
                  sum_tokens=("toks", "sum"))
             .reset_index())
        return pa.Table.from_pandas(g, preserve_index=False)

    per_lang = (
        read_table(sf_dir, "documents", ["source", "lang", "text", "n_chars"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
            Sum("sum_tokens", alias_name="sum_tokens"),
        )
    )

    def fold(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        def s(col):
            return pa.array([pc.sum(group.column(col)).as_py()], pa.int64())

        return pa.table({
            "source": group.column("source").slice(0, 1),
            "n_docs": s("n_docs"),
            "sum_chars": s("sum_chars"),
            "sum_tokens": s("sum_tokens"),
            "n_langs": pa.array(
                [pc.count_distinct(group.column("lang")).as_py()],
                pa.int64()),
        })

    return per_lang.groupby("source").map_groups(fold,
                                                 batch_format="pyarrow")


DOMAIN_STATS_SQL = """
SELECT source,
       COUNT(*) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars,
       CAST(SUM(array_length(string_split(text, ' '))) AS BIGINT)
           AS sum_tokens,
       COUNT(DISTINCT lang) AS n_langs
FROM documents
GROUP BY source
"""
# DuckDB sum(BIGINT) yields HUGEINT, which .df() renders float64 — the
# CASTs keep the oracle's serialized dtype int64 like the engine's
# (the driver hashes serialized values, so dtype IS part of correctness)


# ---------------------------------------------------------------------------
# Gopher-style quality rules
# ---------------------------------------------------------------------------

GOPHER_MIN_WORDS = 15
GOPHER_MAX_WORDS = 5000
GOPHER_MIN_MWL_X100 = 200    # mean word length ≥ 2.00 chars
GOPHER_MAX_MWL_X100 = 1000   # ≤ 10.00 chars
GOPHER_MIN_DISTINCT_X1000 = 300  # distinct-token ratio ≥ 0.300
GOPHER_STOPWORDS = ("the", "a", "of", "to", "and")


def gopher_quality(sf_dir: str):
    """Per-document Gopher-style quality metrics + keep verdict:
    (doc_id, n_words, mean_word_len_x100, distinct_ratio_x1000,
    has_stopword, keep). Pure map stage — no exchange; metrics are
    integer-scaled (floor division, all-positive operands) so the Ray
    and SQL computations are bit-equal. Mean word length uses the
    single-space-join identity sum_len = n_chars - (n_words - 1), so no
    second pass over the characters."""
    stop = frozenset(GOPHER_STOPWORDS)

    def metrics(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        n_words = np.empty(len(texts), np.int64)
        n_distinct = np.empty(len(texts), np.int64)
        has_stop = np.empty(len(texts), np.bool_)
        for i, t in enumerate(texts):
            toks = t.split(" ")
            n_words[i] = len(toks)
            st = set(toks)
            n_distinct[i] = len(st)
            has_stop[i] = not stop.isdisjoint(st)
        mwl = (n_chars - (n_words - 1)) * 100 // n_words
        dr = n_distinct * 1000 // n_words
        keep = (
            (n_words >= GOPHER_MIN_WORDS) & (n_words <= GOPHER_MAX_WORDS)
            & (mwl >= GOPHER_MIN_MWL_X100) & (mwl <= GOPHER_MAX_MWL_X100)
            & (dr >= GOPHER_MIN_DISTINCT_X1000)
            & has_stop
        )
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_words": pa.array(n_words, pa.int64()),
            "mean_word_len_x100": pa.array(mwl, pa.int64()),
            "distinct_ratio_x1000": pa.array(dr, pa.int64()),
            "has_stopword": pa.array(has_stop, pa.bool_()),
            "keep": pa.array(keep, pa.bool_()),
        })

    return read_table(sf_dir, "documents",
                      ["doc_id", "text", "n_chars"]).map_batches(
        metrics, batch_format="pyarrow")


GOPHER_QUALITY_SQL = f"""
WITH m AS (
  SELECT doc_id,
         CAST(array_length(string_split(text, ' ')) AS BIGINT) AS n_words,
         CAST(array_length(list_distinct(string_split(text, ' ')))
              AS BIGINT) AS n_distinct,
         CAST(n_chars AS BIGINT) AS n_chars,
         list_has_any(string_split(text, ' '),
                      {list(GOPHER_STOPWORDS)}) AS has_stopword
  FROM documents
)
SELECT doc_id,
       n_words,
       (n_chars - (n_words - 1)) * 100 // n_words AS mean_word_len_x100,
       n_distinct * 1000 // n_words AS distinct_ratio_x1000,
       has_stopword,
       (n_words BETWEEN {GOPHER_MIN_WORDS} AND {GOPHER_MAX_WORDS})
       AND ((n_chars - (n_words - 1)) * 100 // n_words
            BETWEEN {GOPHER_MIN_MWL_X100} AND {GOPHER_MAX_MWL_X100})
       AND (n_distinct * 1000 // n_words >= {GOPHER_MIN_DISTINCT_X1000})
       AND has_stopword AS keep
FROM m
"""


# ---------------------------------------------------------------------------
# PII scrub roundtrip
# ---------------------------------------------------------------------------


def pii_roundtrip(sf_dir: str):
    """Inject deterministic PII spans (an email, a phone number, an
    IPv4 address — all varying with doc_id) into every document, then
    run the ``PiiScrubber`` stage; the scrubbed text must equal the
    original plus the typed placeholders, byte-per-doc (oracle
    reconstructs it from the clean table). Proves the scrubber finds
    VARYING PII, not one memorized literal. Map-only — no exchange."""
    from pd3f_ray.stages.pii import PiiScrubber

    def inject(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        dirty = [
            f"{t} contact doc{d}@example.com or call 555-0{d % 1000:03d} "
            f"at 10.{d % 256}.0.1"
            for d, t in zip(ids, texts)
        ]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text": pa.array(dirty, pa.string()),
        })

    return (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(inject, batch_format="pyarrow")
        .map_batches(PiiScrubber, batch_format="pyarrow",
                     concurrency=4, num_cpus=0.75, batch_size=1024)
    )


PII_ROUNDTRIP_SQL = """
SELECT doc_id,
       text || ' contact <EMAIL> or call <PHONE> at <IP>' AS text
FROM documents
"""


# ---------------------------------------------------------------------------
# CCNet-style per-source line dedup
# ---------------------------------------------------------------------------

LINE_TOKENS = 10          # tokens per "line" (the corpus has no \n)
LINE_MIN_DOCS = 2         # a line in ≥ this many docs of a source is dup
LINE_BUCKETS = 256        # dup-count exchange buckets
LINE_BROADCAST_MAX = 2_000_000  # dup-hash broadcast gate (rows)


def _split_lines(text: str) -> list[str]:
    toks = text.split(" ")
    return [" ".join(toks[i:i + LINE_TOKENS])
            for i in range(0, len(toks), LINE_TOKENS)]


def _line_hash(source: str, line: str) -> int:
    return hash_bytes((source + "\x00" + line).encode()) & _MASK63


def line_dedup_docs(sf_dir: str, broadcast_max: int = LINE_BROADCAST_MAX,
                    num_buckets: int = LINE_BUCKETS):
    """CCNet-style boilerplate removal: drop every LINE (fixed
    LINE_TOKENS-token chunk — the corpus is newline-free) that appears
    in ≥ LINE_MIN_DOCS distinct documents of the same source; emit each
    document's surviving lines re-joined in order (documents with no
    surviving line disappear, as in the SQL oracle).

    Pass 1 (always): per-batch-distinct (line_hash, doc_id) pairs —
    hashes only, never line text — through ONE bucketed exchange; the
    per-bucket fold counts distinct docs per hash and keeps hashes with
    ≥ LINE_MIN_DOCS. The dup table is boilerplate-scale (distinct
    repeated lines), orders of magnitude below corpus scale.

    Pass 2, AQE-style gate on the materialized dup count:

    - **broadcast** (dup rows ≤ ``broadcast_max``): dup hashes fetched
      block-wise (``ray.get`` per block ref — the justified small-side
      driver read, same class as the joins broadcast dict), ``ray.put``
      once, and the corpus pass is map-only: split, filter against the
      set, rejoin — ZERO text ever shuffles.
    - **anti-join** (the scale path): exploded lines (text + position)
      anti-joined against the dup table on line_hash (one bucketed
      exchange), then reassembled per document via a doc-id-bucketed
      ``map_groups`` (second exchange; groups bounded by the bucket
      dial). Corpus text crosses the wire twice — the price of a dup
      set too big for any worker's heap.

    64-bit line hashes stand in for (source, line) equality on both
    paths — a collision (~2^-63 per distinct-line pair) could drop one
    extra line; the oracle compare at test scale proves none occur
    there."""
    import ray

    docs = read_table(sf_dir, "documents", ["doc_id", "source", "text"])

    def hash_pairs(batch: pa.Table) -> pa.Table:
        out_h, out_d = [], []
        for did, src, text in zip(batch.column("doc_id").to_pylist(),
                                  batch.column("source").to_pylist(),
                                  batch.column("text").to_pylist()):
            for ln in set(_split_lines(text)):  # per-doc distinct
                out_h.append(_line_hash(src, ln))
                out_d.append(did)
        h = np.asarray(out_h, dtype=np.int64)
        return pa.table({
            "lh": pa.array(h, pa.int64()),
            "doc_id": pa.array(out_d, pa.int64()),
            "bucket": pa.array((h % num_buckets).astype(np.int32),
                               pa.int32()),
        })

    def dup_hashes(group: pa.Table) -> pa.Table:
        lh = group.column("lh").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        if len(lh) == 0:
            return pa.table({"lh": pa.array([], pa.int64())})
        # distinct (lh, doc_id) pairs, then a segment count per lh
        order = np.lexsort((did, lh))
        lh_s, did_s = lh[order], did[order]
        new_pair = np.r_[True, (lh_s[1:] != lh_s[:-1])
                         | (did_s[1:] != did_s[:-1])]
        lh_u = lh_s[new_pair]
        starts = np.flatnonzero(np.r_[True, lh_u[1:] != lh_u[:-1]])
        n = np.diff(np.r_[starts, len(lh_u)])
        return pa.table({"lh": pa.array(
            lh_u[starts][n >= LINE_MIN_DOCS].astype(np.int64), pa.int64())})

    dup = (
        docs.map_batches(hash_pairs, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(dup_hashes, batch_format="pyarrow")
        .materialize()
    )

    if dup.count() <= broadcast_max:
        # ---- broadcast plan: corpus pass is map-only ----
        blocks = ray.get(dup.to_arrow_refs())  # small side, block-wise
        parts = [b.column("lh").to_numpy(zero_copy_only=False)
                 for b in blocks if b.num_rows]  # skip empty-schema blocks
        dup_arr = (np.concatenate(parts) if parts
                   else np.empty(0, np.int64))
        dup_ref = ray.put(np.sort(dup_arr))

        def scrub(batch: pa.Table) -> pa.Table:
            dups = ray.get(dup_ref)
            ids, texts = [], []
            for did, src, text in zip(
                    batch.column("doc_id").to_pylist(),
                    batch.column("source").to_pylist(),
                    batch.column("text").to_pylist()):
                lines = _split_lines(text)
                lh = np.fromiter((_line_hash(src, ln) for ln in lines),
                                 dtype=np.int64, count=len(lines))
                keep = ~np.isin(lh, dups, assume_unique=False)
                if keep.any():
                    ids.append(did)
                    texts.append(" ".join(
                        ln for ln, k in zip(lines, keep) if k))
            return pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(texts, pa.string()),
            })

        return docs.map_batches(scrub, batch_format="pyarrow")

    # ---- anti-join plan: dup table too big to broadcast ----
    from pd3f_ray.pipelines.joins import anti_join

    def explode(batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "line_no": [], "line": [], "lh": []}
        for did, src, text in zip(batch.column("doc_id").to_pylist(),
                                  batch.column("source").to_pylist(),
                                  batch.column("text").to_pylist()):
            for i, ln in enumerate(_split_lines(text)):
                out["doc_id"].append(did)
                out["line_no"].append(i)
                out["line"].append(ln)
                out["lh"].append(_line_hash(src, ln))
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "line_no": pa.array(out["line_no"], pa.int32()),
            "line": pa.array(out["line"], pa.string()),
            "lh": pa.array(out["lh"], pa.int64()),
        })

    line_schema = pa.schema([
        ("doc_id", pa.int64()), ("line_no", pa.int32()),
        ("line", pa.string()), ("lh", pa.int64()),
    ])
    kept = anti_join(
        docs.map_batches(explode, batch_format="pyarrow"), dup,
        "lh", "lh", num_buckets=num_buckets, left_schema=line_schema,
    )

    def add_dbucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "dbucket", pa.array((d % num_buckets).astype(np.int32),
                                pa.int32()))

    def reassemble(group: pa.Table) -> pa.Table:
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        lno = group.column("line_no").to_numpy(zero_copy_only=False)
        lines = group.column("line").to_numpy(zero_copy_only=False)
        order = np.lexsort((lno, did))
        did, lines = did[order], lines[order]
        if len(did) == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string())})
        starts = np.flatnonzero(np.r_[True, did[1:] != did[:-1]])
        ends = np.r_[starts[1:], len(did)]
        return pa.table({
            "doc_id": pa.array(did[starts].astype(np.int64), pa.int64()),
            "text": pa.array([" ".join(lines[s:e])
                              for s, e in zip(starts, ends)], pa.string()),
        })

    return (
        kept.map_batches(add_dbucket, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(reassemble, batch_format="pyarrow")
    )


LINE_DEDUP_SQL = f"""
WITH toks AS (
  SELECT doc_id, source, string_split(text, ' ') AS ts FROM documents
),
tl AS (
  SELECT doc_id, source, unnest(ts) AS tok,
         generate_subscripts(ts, 1) AS i
  FROM toks
),
lines AS (
  SELECT doc_id, source, (i - 1) // {LINE_TOKENS} AS line_no,
         string_agg(tok, ' ' ORDER BY i) AS line
  FROM tl GROUP BY doc_id, source, (i - 1) // {LINE_TOKENS}
),
dup AS (
  SELECT source, line FROM lines
  GROUP BY source, line
  HAVING COUNT(DISTINCT doc_id) >= {LINE_MIN_DOCS}
),
kept AS (
  SELECT l.doc_id, l.line_no, l.line
  FROM lines l LEFT JOIN dup d
    ON l.source = d.source AND l.line = d.line
  WHERE d.line IS NULL
)
SELECT doc_id, string_agg(line, ' ' ORDER BY line_no) AS text
FROM kept GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# greedy sequence packing
# ---------------------------------------------------------------------------

PACK_BUDGET = 512       # tokens per packed training sequence
PACK_BUCKET_DOCS = 1024  # doc-ids per packing partition


def pack_sequences(sf_dir: str, budget: int = PACK_BUDGET,
                   bucket_docs: int = PACK_BUCKET_DOCS):
    """Greedy fixed-token-budget sequence packing — the
    pre-tokenization batching step of a training pipeline: documents
    are packed in doc_id order into sequences of ≤ ``budget`` tokens;
    a document never splits across sequences; a document longer than
    the budget gets a sequence of its own.

    Partitioning: packing runs independently per doc-id range bucket
    (``doc_id // bucket_docs``) — groups hold ≤ ``bucket_docs``
    documents BY CONSTRUCTION (id ranges, not hash), so the greedy scan
    is bounded and the result is deterministic and
    parallelism-independent. Sequence ids are globally unique:
    ``bucket * bucket_docs + local_seq`` (a bucket cannot produce more
    sequences than documents). Output one row per sequence:
    (seq_id, n_docs, n_tokens). Greedy reset-cumsum is not one SQL
    pass — rows-only check; property tests pin budget-respect, no-split,
    greedy minimality, and determinism."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = pa.array(
            [t.count(" ") + 1 for t in batch.column("text").to_pylist()],
            pa.int64())
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_tokens": toks,
            "packb": pa.array((d // bucket_docs).astype(np.int64),
                              pa.int64()),
        })

    def pack(group: pa.Table) -> pa.Table:
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        ntok = group.column("n_tokens").to_numpy(zero_copy_only=False)
        ntok = ntok[np.argsort(did, kind="stable")]
        bucket = int(group.column("packb")[0].as_py())
        docs_in, toks_in = 0, 0
        seq_no = -1
        out_docs, out_toks = [], []
        for n in ntok:
            if seq_no < 0 or toks_in + n > budget:
                if seq_no >= 0:
                    out_docs.append(docs_in)
                    out_toks.append(toks_in)
                seq_no += 1
                docs_in, toks_in = 0, 0
            docs_in += 1
            toks_in += int(n)
        if seq_no >= 0:
            out_docs.append(docs_in)
            out_toks.append(toks_in)
        base = bucket * bucket_docs
        return pa.table({
            "seq_id": pa.array(
                np.arange(base, base + len(out_docs), dtype=np.int64),
                pa.int64()),
            "n_docs": pa.array(np.asarray(out_docs, np.int64), pa.int64()),
            "n_tokens": pa.array(np.asarray(out_toks, np.int64),
                                 pa.int64()),
        })

    return (
        read_table(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(add_bucket, batch_format="pyarrow")
        .groupby("packb")
        .map_groups(pack, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# balanced mixture sampling (derived per-language rates)
# ---------------------------------------------------------------------------

MIX_BUDGET_FRACTION = 0.25  # total kept budget as a fraction of the corpus


def balanced_mixture(sf_dir: str, budget_fraction: float = MIX_BUDGET_FRACTION):
    """Mixture rebalancing: sample the corpus down to a *uniform
    per-language budget* — each language's keep-rate is DERIVED from
    its observed count so every language contributes ≈ N·F/L documents
    (languages smaller than their share are kept whole via the
    min(1, ·) cap, as in data-mixture curation à la DoReMi/CCNet
    re-balancing, but with deterministic hash sampling instead of RNG).

    Plan: per-language counts via one partial-combined aggregate
    exchange (L rows); the tiny count table is fetched block-wise (the
    justified small-side driver read, same class as the joins
    broadcast) and turned into per-language keep-rates; the corpus
    pass is then map-only — keep a document iff the first 8 hex chars
    of md5(text) are lexicographically below the rate threshold
    ``printf('%08x', floor(rate · 2^32))``. Fixed-width lowercase hex
    compares equal to the numeric compare, and both engines compute
    the threshold from the same double arithmetic, so the driver
    hash-compare is exact. Output (doc_id, lang)."""
    import ray

    docs = read_table(sf_dir, "documents", ["doc_id", "lang", "text"])

    def count_partial(batch: pa.Table) -> pa.Table:
        langs, counts = np.unique(
            np.asarray(batch.column("lang").to_pylist(), dtype=object),
            return_counts=True)
        return pa.table({
            "lang": pa.array(list(langs), pa.string()),
            "n_part": pa.array(counts.astype(np.int64), pa.int64()),
        })

    counts = (
        docs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n_part", alias_name="n"))
        .materialize()
    )
    blocks = ray.get(counts.to_arrow_refs())  # L rows — tiny
    n_by_lang: dict[str, int] = {}
    for b in blocks:
        if b.num_rows == 0:  # trailing empty block has an empty schema
            continue
        n_by_lang.update(zip(b.column("lang").to_pylist(),
                             b.column("n").to_pylist()))
    total = sum(n_by_lang.values())
    n_langs = len(n_by_lang)
    # double arithmetic mirrors the SQL expression term for term:
    # ((total * F) / L) / n
    thresholds: dict[str, str | None] = {}
    for lang, n in n_by_lang.items():
        rate = min(1.0, ((float(total) * budget_fraction) / n_langs) / n)
        thresholds[lang] = (None if rate >= 1.0
                            else format(int(np.floor(rate * 4294967296.0)),
                                        "08x"))
    thr_ref = ray.put(thresholds)

    def pick(batch: pa.Table) -> pa.Table:
        from pd3f_ray.functions.textfns import md5_hex

        thr = ray.get(thr_ref)
        keep = []
        for lg, text in zip(batch.column("lang").to_pylist(),
                            batch.column("text").to_pylist()):
            t = thr[lg]
            keep.append(t is None or md5_hex(text)[:8] < t)
        return batch.filter(pa.array(keep, pa.bool_())).select(
            ["doc_id", "lang"])

    return docs.map_batches(pick, batch_format="pyarrow")


def balanced_mixture_sql(budget_fraction: float = MIX_BUDGET_FRACTION) -> str:
    return f"""
WITH c AS (
  SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang
),
t AS (
  SELECT CAST(sum(n) AS BIGINT) AS total, CAST(count(*) AS BIGINT) AS l
  FROM c
),
r AS (
  SELECT lang, n,
         LEAST(1.0, ((CAST((SELECT total FROM t) AS DOUBLE)
                      * {budget_fraction}) / (SELECT l FROM t)) / n) AS rate
  FROM c
)
SELECT d.doc_id, d.lang
FROM documents d JOIN r ON d.lang = r.lang
WHERE r.rate >= 1.0
   OR substring(md5(d.text), 1, 8)
      < printf('%08x', CAST(floor(r.rate * 4294967296.0) AS BIGINT))
"""


BALANCED_MIXTURE_SQL = balanced_mixture_sql()


# ---------------------------------------------------------------------------
# deterministic training-shuffle assignment
# ---------------------------------------------------------------------------

SHUF_SHARDS = 16


SHUF_BAND_CHARS = 2  # digest-prefix band width: 16**2 = 256 bands

SHUF_MAX_SHARD_CHARS = 4  # shard derived from ≤4 hex chars → ≤65536 shards


def _shard_chars(num_shards: int) -> int:
    """Narrowest digest hex-prefix width whose keyspace covers
    ``num_shards`` (1 char for ≤16 shards — the historical default —
    2 for ≤256, …). Raises beyond 16**SHUF_MAX_SHARD_CHARS rather than
    silently leaving shards empty (the same loud-guard convention as
    fuzzy_name_pairs' max_dist > band check)."""
    if not 1 <= num_shards <= 16 ** SHUF_MAX_SHARD_CHARS:
        raise ValueError(
            f"shuffle_assignment: num_shards must be in "
            f"[1, {16 ** SHUF_MAX_SHARD_CHARS}], got {num_shards}")
    w = 1
    while 16 ** w < num_shards:
        w += 1
    return w


def shuffle_assignment(sf_dir: str, num_shards: int = SHUF_SHARDS,
                       band_chars: int = SHUF_BAND_CHARS):
    """Deterministic global shuffle for training ingest: each document
    is assigned a shard (md5-hash partition — decorrelated from
    doc_id/source order) and a position within the shard (rank by the
    md5 hex digest, doc_id tiebreak). Shard count is semantically FIXED
    by the training job (~10³ regardless of corpus size), so a
    one-group-per-shard plan would grow linearly with the corpus;
    instead this is the ``doc_length_rank`` two-pass range-partitioned
    ranking applied to the digest keyspace:

    1. band = the digest's first ``band_chars`` hex chars — a monotone
       PREFIX of the in-shard sort key, so band order IS sort order
       within every shard. Map-side partials count rows per
       (shard, band); ONE tiny aggregate exchange, then a bounded
       driver read (≤ num_shards × 16**band_chars rows) computes
       per-shard prefix offsets over ascending bands.
    2. rows shuffle ONCE by (shard, band); each group sorts its own
       band and adds its offset. Group size is corpus / 16**band_chars
       expected (md5 is uniform) — ``band_chars`` is the dial, shard
       count never bounds a group.

    Readers then stream shards in position order and see a reproducible
    pseudo-random document order. Output (doc_id, shard, pos)."""
    import ray

    from pd3f_ray.functions.textfns import md5_hex

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    n_bands = 16 ** band_chars
    shard_w = _shard_chars(num_shards)  # raises on num_shards > 16**4

    def key(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        digests = [md5_hex(t) for t in batch.column("text").to_pylist()]
        # shard = the first shard_w hex chars of the digest, mod
        # num_shards (each char recoverable via strpos() in the SQL
        # oracle without hex casts); width grows with num_shards so
        # shard counts > 16 — real training jobs run ~10^3 — actually
        # populate every shard instead of silently leaving 16+ empty
        shards = np.asarray(
            [int(d[:shard_w], 16) % num_shards for d in digests],
            dtype=np.int64)
        bands = np.asarray([int(d[:band_chars], 16) for d in digests],
                           dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "shard": pa.array(shards, pa.int64()),
            "sband": pa.array(shards * n_bands + bands, pa.int64()),
            "sortkey": pa.array(digests, pa.string()),
        })

    keyed = docs.map_batches(key, batch_format="pyarrow")

    # pass 1: per-(shard, band) count partials → tiny combiner exchange
    # → bounded driver read → per-shard prefix offsets over bands
    def count_partial(batch: pa.Table) -> pa.Table:
        sb = batch.column("sband").to_numpy(zero_copy_only=False)
        vals, counts = np.unique(sb, return_counts=True)
        return pa.table({
            "sband": pa.array(vals.astype(np.int64), pa.int64()),
            "n_part": pa.array(counts.astype(np.int64), pa.int64()),
        })

    counts = (
        keyed.map_batches(count_partial, batch_format="pyarrow")
        .groupby("sband")
        .aggregate(Sum("n_part", alias_name="n"))
        .materialize()
    )
    per_band: dict[int, int] = {}
    for blk in ray.get(counts.to_arrow_refs()):
        if blk.num_rows == 0:  # trailing empty block has an empty schema
            continue
        per_band.update(zip(blk.column("sband").to_pylist(),
                            blk.column("n").to_pylist()))
    offsets: dict[int, int] = {}
    acc_by_shard: dict[int, int] = {}
    for sb in sorted(per_band):  # ascending band within each shard
        shard = sb // n_bands
        offsets[sb] = acc_by_shard.get(shard, 0)
        acc_by_shard[shard] = offsets[sb] + per_band[sb]
    off_ref = ray.put(offsets)

    def number(group: pa.Table) -> pa.Table:
        offs = ray.get(off_ref)
        sk = group.column("sortkey").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        shard = group.column("shard").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, sk))
        base = offs[int(group.column("sband")[0].as_py())]
        return pa.table({
            "doc_id": pa.array(did[order], pa.int64()),
            "shard": pa.array(shard[order], pa.int64()),
            "pos": pa.array(base + np.arange(1, len(did) + 1,
                                             dtype=np.int64), pa.int64()),
        })

    return keyed.groupby("sband").map_groups(number, batch_format="pyarrow")


def shuffle_assignment_sql(num_shards: int = SHUF_SHARDS) -> str:
    w = _shard_chars(num_shards)
    terms = [
        f"(strpos('0123456789abcdef', substring(md5(text), {i}, 1)) - 1)"
        for i in range(1, w + 1)
    ]
    expr = terms[0]
    for t in terms[1:]:
        expr = f"(({expr}) * 16 + {t})"
    return f"""
SELECT doc_id,
       CAST({expr} % {num_shards} AS BIGINT) AS shard,
       CAST(row_number() OVER (
            PARTITION BY {expr} % {num_shards}
            ORDER BY md5(text), doc_id) AS BIGINT) AS pos
FROM documents
"""


SHUFFLE_ASSIGNMENT_SQL = shuffle_assignment_sql()


SOURCE_CAP = 10  # max docs kept per source


def source_cap_sample(sf_dir: str, cap: int = SOURCE_CAP):
    """Per-domain document cap (the RefinedWeb/C4 'limit pages per
    domain' curation pass): keep at most ``cap`` documents per source,
    chosen deterministically by md5(doc_id) rank so the sample is
    stable across runs and decorrelated from crawl order.

    Scale plan — the same per-block top-k partial pattern as
    ``textstats.top_tokens``: each BLOCK keeps its own ``cap`` best rows
    per source (vectorized groupby head after a sort), so the single
    ``groupby(source)`` resolve sees ≤ blocks × cap rows per source,
    never the full per-domain document list. Output (doc_id, source)."""
    from pd3f_ray.functions.textfns import md5_hex

    docs = read_table(sf_dir, "documents", ["doc_id", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        src = batch.column("source").to_numpy(zero_copy_only=False)
        rank = np.array([md5_hex(str(i)) for i in did], object)
        order = np.lexsort((did, rank, src))
        src_s = src[order]
        starts = np.flatnonzero(np.r_[True, src_s[1:] != src_s[:-1]])
        counts = np.diff(np.r_[starts, len(src_s)])
        pos = np.arange(len(src_s), dtype=np.int64) - np.repeat(starts,
                                                                counts)
        keep = np.sort(order[pos < cap])
        return pa.table({
            "doc_id": pa.array(did[keep].astype(np.int64), pa.int64()),
            "source": pa.array(src[keep], pa.string()),
            "rank": pa.array(rank[keep], pa.string()),
        })

    def resolve(group: pa.Table) -> pa.Table:
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        rank = group.column("rank").to_numpy(zero_copy_only=False)
        src = group.column("source").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, rank))[:cap]
        return pa.table({
            "doc_id": pa.array(did[order].astype(np.int64), pa.int64()),
            "source": pa.array(src[order], pa.string()),
        })

    return (
        docs.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .map_groups(resolve, batch_format="pyarrow")
    )


def source_cap_sample_sql(cap: int = SOURCE_CAP) -> str:
    return f"""
SELECT doc_id, source
FROM (
    SELECT doc_id, source,
           row_number() OVER (
               PARTITION BY source
               ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id) AS rn
    FROM documents)
WHERE rn <= {cap}
"""


SOURCE_CAP_SQL = source_cap_sample_sql()


# appended suffix: a decomposed e-acute and an Angstrom sign — characters
# whose NFC form differs from the raw codepoints, so the oracle is
# non-trivial even over the all-ASCII synthetic corpus
NFC_SUFFIX = " e\u0301\u212b"  # kept as escapes: editors may NFC-normalize literals


def nfc_normalize_docs(sf_dir: str):
    """Unicode NFC normalization pass (the standard pre-tokenization
    canonicalization step), oracle-checked against DuckDB's
    ``nfc_normalize``: a deterministic suffix with a combining acute and
    a compatibility Angstrom sign is injected into every document (the
    synthetic corpus is ASCII, where NFC is the identity) and both
    engines normalize the same bytes. Stateless vectorized map — no
    exchange. Output (doc_id, text_norm)."""
    import unicodedata

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        out = [unicodedata.normalize("NFC", t + NFC_SUFFIX) for t in texts]
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "text_norm": pa.array(out, pa.string()),
        })

    return docs.map_batches(norm, batch_format="pyarrow")


NFC_NORMALIZE_SQL = """
SELECT doc_id,
       nfc_normalize(text || ' e' || chr(769) || chr(8491)) AS text_norm
FROM documents
"""


WEBPIPE_DEDUP_BUCKETS = 256


def web_corpus_pipeline(sf_dir: str):
    """The composed WEB-CORPUS flagship: dirty HTML pages → training
    text, as ONE streaming Dataset pipeline with a single end-to-end
    SQL oracle — the webtext-axis counterpart of ``curate_docs``:

      inject PII → wrap in boilerplate HTML → ``HtmlMainExtractor``
      (main-content strip, actor pool) → ``PiiScrubber`` (actor pool)
      → Gopher quality gate (map) → exact dedup (digest-bucketed
      exchange, keep lowest doc_id) → (url, text)

    Every stage is the already-oracle-checked implementation; this query
    proves they COMPOSE without re-materialization (the only exchange is
    the final dedup, and only (digest, url, text) rows reach it after
    the quality gate has pruned). Byte-per-url oracle: the SQL chains
    the same injection literal, the Gopher keep formula on the scrubbed
    text, and a md5-partitioned first-row dedup."""
    from pd3f_ray.stages.htmlmain import HtmlMainExtractor
    from pd3f_ray.stages.pii import PiiScrubber
    from pd3f_ray.functions.textfns import md5_hex
    from pd3f_ray.pipelines.webtext import wrap_in_boilerplate

    # TWO chained fixed actor pools must CO-schedule: each claims half
    # the cluster's CPUs (at 0.75/actor) or the second pool can never
    # start and the pipeline deadlocks (observed in 4-CPU test sessions
    # with two 4-actor pools: 3 + 3 logical CPUs > 4)
    from pd3f_ray.core.cluster import cluster_cpus

    pool = max(1, cluster_cpus() // 2)

    stop = frozenset(GOPHER_STOPWORDS)

    def wrap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        urls, htmls = [], []
        for d, t in zip(ids, texts):
            dirty = (f"{t} contact doc{d}@example.com or call "
                     f"555-0{d % 1000:03d} at 10.{d % 256}.0.1")
            urls.append(f"doc://{d}")
            htmls.append(wrap_in_boilerplate(dirty).encode())
        return pa.table({
            "url": pa.array(urls, pa.string()),
            "html": pa.array(htmls, pa.binary()),
        })

    def gate(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        texts = batch.column("text").to_pylist()
        keep_urls, keep_texts, digests, buckets = [], [], [], []
        for u, t in zip(urls, texts):
            toks = t.split(" ")
            n_words = len(toks)
            n_chars = len(t)
            mwl = (n_chars - (n_words - 1)) * 100 // n_words
            dr = len(set(toks)) * 1000 // n_words
            if not (GOPHER_MIN_WORDS <= n_words <= GOPHER_MAX_WORDS
                    and GOPHER_MIN_MWL_X100 <= mwl <= GOPHER_MAX_MWL_X100
                    and dr >= GOPHER_MIN_DISTINCT_X1000
                    and not stop.isdisjoint(toks)):
                continue
            dig = md5_hex(t)
            keep_urls.append(u)
            keep_texts.append(t)
            digests.append(dig)
            buckets.append(int(dig[:8], 16) % WEBPIPE_DEDUP_BUCKETS)
        return pa.table({
            "url": pa.array(keep_urls, pa.string()),
            "text": pa.array(keep_texts, pa.string()),
            "digest": pa.array(digests, pa.string()),
            "dbucket": pa.array(np.asarray(buckets, np.int64), pa.int64()),
        })

    def first_per_digest(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # lowest doc_id == lexicographic-min url is NOT true for
        # variable-length ids ('doc://9' > 'doc://10'): rank numerically.
        # The winner rows are taken straight off the Arrow group slice —
        # the text payload never round-trips through pandas/numpy.
        if group.num_rows == 0:
            return pa.table({"url": pa.array([], pa.string()),
                             "text": pa.array([], pa.string())})
        ids = pc.cast(pc.utf8_slice_codeunits(group.column("url"), 6),
                      pa.int64()).to_numpy(zero_copy_only=False)
        digest = group.column("digest").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, digest))
        d_sorted = digest[order]
        keep = order[np.r_[True, d_sorted[1:] != d_sorted[:-1]]]
        return group.select(["url", "text"]).take(pa.array(np.sort(keep)))

    docs = read_table(sf_dir, "documents", ["doc_id", "text"])
    return (
        docs.map_batches(wrap, batch_format="pyarrow")
        .map_batches(HtmlMainExtractor,
                     fn_constructor_kwargs={"joiner": " "},
                     batch_format="pyarrow", batch_size=128,
                     concurrency=pool, num_cpus=0.75)
        .map_batches(PiiScrubber, batch_format="pyarrow",
                     concurrency=pool, num_cpus=0.75, batch_size=1024)
        .map_batches(gate, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(first_per_digest, batch_format="pyarrow")
    )


WEB_CORPUS_PIPELINE_SQL = f"""
WITH scrubbed AS (
  SELECT doc_id,
         text || ' contact <EMAIL> or call <PHONE> at <IP>' AS text
  FROM documents
), m AS (
  SELECT doc_id, text,
         CAST(array_length(string_split(text, ' ')) AS BIGINT) AS n_words,
         CAST(array_length(list_distinct(string_split(text, ' ')))
              AS BIGINT) AS n_distinct,
         CAST(length(text) AS BIGINT) AS n_chars,
         list_has_any(string_split(text, ' '),
                      {list(GOPHER_STOPWORDS)}) AS has_stopword
  FROM scrubbed
), kept AS (
  SELECT doc_id, text FROM m
  WHERE n_words BETWEEN {GOPHER_MIN_WORDS} AND {GOPHER_MAX_WORDS}
    AND (n_chars - (n_words - 1)) * 100 // n_words
        BETWEEN {GOPHER_MIN_MWL_X100} AND {GOPHER_MAX_MWL_X100}
    AND n_distinct * 1000 // n_words >= {GOPHER_MIN_DISTINCT_X1000}
    AND has_stopword
)
SELECT 'doc://' || CAST(doc_id AS VARCHAR) AS url, text
FROM kept
QUALIFY row_number() OVER (PARTITION BY md5(text) ORDER BY doc_id) = 1
"""


# ---------------------------------------------------------------------------
# within-document repetition signal (Gopher dup-ngram fraction)
# ---------------------------------------------------------------------------

REP_N = 3  # token n-gram width


def doc_repetition(sf_dir: str, n: int = REP_N):
    """The Gopher repetition quality signal this module's
    ``gopher_quality`` pass doesn't cover (Rae et al. 2021 §A1.1.3,
    "fraction of characters in duplicate n-grams", token-position
    formulation): per document, the fraction of token-``n``-gram
    positions whose n-gram occurs more than once IN THAT DOCUMENT.
    Output (doc_id, n_grams, dup_positions, dup_ppm) with dup_ppm an
    integer parts-per-million (floor division — bit-equal in both
    engines); documents with fewer than ``n`` tokens have no n-gram
    positions and drop out (as in the SQL).

    Pure map stage — the n-gram Counter lives per document inside the
    batch loop; nothing shuffles."""
    from collections import Counter

    def metrics(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id, out_g, out_d = [], [], []
        for i, t in zip(ids, texts):
            toks = t.split(" ")
            if len(toks) < n:
                continue
            c = Counter(tuple(toks[j:j + n])
                        for j in range(len(toks) - n + 1))
            total = len(toks) - n + 1
            dup = sum(v for v in c.values() if v > 1)
            out_id.append(i)
            out_g.append(total)
            out_d.append(dup)
        g = np.asarray(out_g, np.int64)
        d = np.asarray(out_d, np.int64)
        return pa.table({
            "doc_id": pa.array(out_id, pa.int64()),
            "n_grams": pa.array(g, pa.int64()),
            "dup_positions": pa.array(d, pa.int64()),
            "dup_ppm": pa.array(d * 1_000_000 // np.maximum(g, 1),
                                pa.int64()),
        })

    return read_table(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        metrics, batch_format="pyarrow")


DOC_REPETITION_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
),
g AS (
  SELECT doc_id,
         list_extract(toks, i) || ' ' || list_extract(toks, i + 1)
             || ' ' || list_extract(toks, i + 2) AS gram
  FROM t, unnest(generate_series(1, len(toks) - {REP_N - 1})) u(i)
  WHERE len(toks) >= {REP_N}
),
c AS (
  SELECT doc_id, gram, count(*) AS cnt FROM g GROUP BY doc_id, gram
)
SELECT doc_id,
       CAST(sum(cnt) AS BIGINT) AS n_grams,
       CAST(COALESCE(sum(cnt) FILTER (WHERE cnt > 1), 0) AS BIGINT)
           AS dup_positions,
       CAST(COALESCE(sum(cnt) FILTER (WHERE cnt > 1), 0) * 1000000
            // sum(cnt) AS BIGINT) AS dup_ppm
FROM c
GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# compression-ratio quality signal (zlib entropy proxy)
# ---------------------------------------------------------------------------

COMPRESSION_LEVEL = 6


def compression_quality(sf_dir: str):
    """Per-document zlib compression ratio — the entropy-proxy quality
    signal used alongside the Gopher rules (highly repetitive or
    template-generated text compresses far below prose; random noise
    barely compresses). Pure map over pruned columns; no exchange.
    Deterministic for a fixed zlib (library is pinned in the image),
    but NOT SQL-expressible — verified by property tests instead of a
    DuckDB oracle. Output (doc_id, n_bytes, z_bytes, ratio_ppm) with
    ratio_ppm = compressed/raw in integer parts-per-million."""
    import zlib

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def measure(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        nb, zb = [], []
        for t in texts:
            raw = t.encode("utf-8")
            nb.append(len(raw))
            zb.append(len(zlib.compress(raw, COMPRESSION_LEVEL)))
        nb = np.asarray(nb, np.int64)
        zb = np.asarray(zb, np.int64)
        ppm = np.where(nb > 0, (zb * 1_000_000) // np.maximum(nb, 1), 0)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_bytes": pa.array(nb, pa.int64()),
            "z_bytes": pa.array(zb, pa.int64()),
            "ratio_ppm": pa.array(ppm.astype(np.int64), pa.int64()),
        })

    return ds.map_batches(measure, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# control-character scrub (wire-junk cleanup)
# ---------------------------------------------------------------------------

# C0 controls + DEL, minus \t \n \r (kept: legitimate whitespace)
_CTRL_CHARS = [c for c in range(0x20) if c not in (0x09, 0x0A, 0x0D)]
_CTRL_CHARS.append(0x7F)
_CTRL_TABLE = {c: None for c in _CTRL_CHARS}


def strip_control_chars(sf_dir: str):
    """Wire-junk cleanup — crawl text arrives with stray C0 control
    bytes (NUL from truncated buffers, BEL/ESC from terminal dumps,
    0x0B/0x0C from bad converters); they break tokenizers and some
    parquet readers downstream. Deterministic injection fixture: every
    document gets controls spliced at known offsets; the stage must
    remove exactly the C0 set minus tab/newline/CR (kept — legitimate
    whitespace) plus DEL, via one vectorized ``str.translate``. Pure
    map, no exchange. Output (doc_id, text, n_stripped);
    oracle = the same splice + regexp_replace in SQL."""
    docs = read_table(sf_dir, "documents", ["doc_id", "text"])

    def scrub(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        out, n_stripped = [], []
        for d, t in zip(ids, batch.column("text").to_pylist()):
            # fixture: splice controls at deterministic offsets
            dirty = "\x00" + t[:5] + "\x07\x1b" + t[5:] + "\x0c\x7f"
            clean = dirty.translate(_CTRL_TABLE)
            out.append(clean)
            n_stripped.append(len(dirty) - len(clean))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": pa.array(out, pa.string()),
            "n_stripped": pa.array(np.asarray(n_stripped, np.int64),
                                   pa.int64()),
        })

    return docs.map_batches(scrub, batch_format="pyarrow")


STRIP_CONTROL_SQL = r"""
WITH dirty AS (
  SELECT doc_id,
         chr(0) || substring(text, 1, 5) || chr(7) || chr(27)
             || substring(text, 6) || chr(12) || chr(127) AS text
  FROM documents
)
SELECT doc_id,
       regexp_replace(text,
                      '[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]', '', 'g') AS text,
       CAST(length(text)
            - length(regexp_replace(text,
                     '[\x00-\x08\x0B\x0C\x0E-\x1F\x7F]', '', 'g'))
            AS BIGINT) AS n_stripped
FROM dirty
"""


# ---------------------------------------------------------------------------
# crawl-budget apportionment (largest-remainder method, exact integers)
# ---------------------------------------------------------------------------

CRAWL_BUDGET = 10_000


def crawl_budget_allocation(sf_dir: str, budget: int = CRAWL_BUDGET):
    """Proportional crawl-budget apportionment — split a global fetch
    budget across sources proportionally to their document counts such
    that the allocations are integers and sum EXACTLY to the budget
    (Hamilton's largest-remainder method: floor quotas first, the
    leftover seats go to the largest remainders, host-name tiebreak).
    The count rollup is the usual partial-agg exchange; the
    apportionment itself runs in one task over the DIMENSION-scale
    count table. Output (source, n_docs, budget)."""
    from ray.data.aggregate import Sum

    docs = read_table(sf_dir, "documents", ["source"])

    def count_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("source").aggregate([("source", "count")])
        return g.rename_columns(["source", "n_docs"])

    counts = (
        docs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )

    def apportion(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_pylist()
        n = batch.column("n_docs").to_numpy(zero_copy_only=False)
        total = int(n.sum())
        base = (budget * n) // total
        rem = (budget * n) % total
        extra = budget - int(base.sum())
        # largest remainders win the leftover units; host asc tiebreak
        order = sorted(range(len(src)), key=lambda i: (-rem[i], src[i]))
        alloc = base.astype(np.int64)
        for i in order[:extra]:
            alloc[i] += 1
        return pa.table({
            "source": pa.array(src, pa.string()),
            "n_docs": pa.array(n.astype(np.int64), pa.int64()),
            "budget": pa.array(alloc, pa.int64()),
        })

    return counts.repartition(1).map_batches(
        apportion, batch_format="pyarrow", batch_size=None)


def crawl_budget_sql(budget: int = CRAWL_BUDGET) -> str:
    return f"""
WITH counts AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_docs
  FROM documents GROUP BY source
),
q AS (
  SELECT source, n_docs,
         ({budget} * n_docs) // (SELECT sum(n_docs) FROM counts) AS base,
         ({budget} * n_docs) % (SELECT sum(n_docs) FROM counts) AS rem
  FROM counts
)
SELECT source, n_docs,
       CAST(base + CASE WHEN row_number() OVER (ORDER BY rem DESC,
                                                source ASC)
                        <= {budget} - (SELECT sum(base) FROM q)
                        THEN 1 ELSE 0 END AS BIGINT) AS budget
FROM q
"""


CRAWL_BUDGET_SQL = crawl_budget_sql()
