"""Text-analysis pipelines over the ``documents`` table.

Language-ID, quality scoring, token counting and fingerprinting as
first-class batch operators (the large-scale training-data toolkit the
north rule asks for beyond the reference's own operator set). Counting
semantics are pinned to the DuckDB oracle (single-space split keeping
empties; md5 of the raw text).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from pd3f_ray.core.cluster import read_table
from pd3f_ray.functions.textfns import (
    distinct_token_count,
    md5_hex,
    token_count,
)

# stopword markers per language for the heuristic language identifier;
# chosen to be expressible in the SQL oracle (list_filter membership)
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of", "is", "a"),
    "de": ("der", "die", "das", "und", "ist"),
    "es": ("el", "la", "los", "y", "es"),
    "fr": ("le", "la", "les", "et", "est"),
}


def token_stats(sf_dir: str):
    """Per document: token count, distinct-token count, char length."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array([token_count(t) for t in texts], pa.int64()),
                "n_distinct_tokens": pa.array(
                    [distinct_token_count(t) for t in texts], pa.int64()
                ),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


TOKEN_STATS_SQL = """
SELECT doc_id,
       len(string_split(text, ' '))                     AS n_tokens,
       len(list_distinct(string_split(text, ' ')))      AS n_distinct_tokens,
       length(text)                                     AS n_chars
FROM documents
"""


def doc_fingerprint(sf_dir: str):
    """Content fingerprint per document (md5 of the raw text — the exact
    dedup key; DuckDB md5() == hashlib md5)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "fingerprint": pa.array([md5_hex(t) for t in texts], pa.string()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow")


DOC_FINGERPRINT_SQL = """
SELECT doc_id, md5(text) AS fingerprint FROM documents
"""


def lang_quality(sf_dir: str):
    """Per labeled language: doc count, token/char totals and a
    long-document count — the quality-scoring aggregate (integer-only so
    it hash-matches SQL exactly)."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_pylist(),
                "n_tokens": [token_count(t) for t in texts],
                "n_chars": [len(t) for t in texts],
                "is_long": [1 if len(t) > 300 else 0 for t in texts],
            }
        )
        g = df.groupby("lang", as_index=False).agg(
            n_docs=("n_tokens", "size"),
            sum_tokens=("n_tokens", "sum"),
            sum_chars=("n_chars", "sum"),
            n_long=("is_long", "sum"),
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_tokens", alias_name="sum_tokens"),
            Sum("sum_chars", alias_name="sum_chars"),
            Sum("n_long", alias_name="n_long"),
        )
    )


LANG_QUALITY_SQL = """
SELECT lang,
       count(*)                                AS n_docs,
       CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS sum_tokens,
       CAST(sum(length(text)) AS BIGINT)      AS sum_chars,
       CAST(sum(CASE WHEN length(text) > 300 THEN 1 ELSE 0 END) AS BIGINT) AS n_long
FROM documents
GROUP BY lang
"""


def lang_id(sf_dir: str):
    """Heuristic language identification: count stopword-marker hits per
    language, predict the argmax (ties broken by language code order,
    'none' when no marker hits). Integer counts + string prediction so
    the SQL oracle matches exactly."""
    ds = read_table(sf_dir, "documents", ["doc_id", "text"])
    langs = sorted(LANG_MARKERS)

    def predict(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        hits = {l: [] for l in langs}
        preds = []
        for t in texts:
            toks = t.split(" ")
            counts = {}
            for l in langs:
                markers = LANG_MARKERS[l]
                counts[l] = sum(1 for w in toks if w in markers)
                hits[l].append(counts[l])
            best = max(counts.values())
            preds.append("none" if best == 0
                         else min(l for l in langs if counts[l] == best))
        cols = {"doc_id": batch.column("doc_id")}
        for l in langs:
            cols[f"hits_{l}"] = pa.array(hits[l], pa.int64())
        cols["pred_lang"] = pa.array(preds, pa.string())
        return pa.table(cols)

    return ds.map_batches(predict, batch_format="pyarrow")


def _marker_list(lang: str) -> str:
    return ", ".join(f"'{w}'" for w in LANG_MARKERS[lang])


LANG_ID_SQL = f"""
WITH h AS (
  SELECT doc_id,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('de')}))) AS hits_de,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('en')}))) AS hits_en,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('es')}))) AS hits_es,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('fr')}))) AS hits_fr
  FROM documents
)
SELECT doc_id, hits_de, hits_en, hits_es, hits_fr,
       CASE WHEN greatest(hits_de, hits_en, hits_es, hits_fr) = 0 THEN 'none'
            WHEN hits_de >= greatest(hits_en, hits_es, hits_fr) THEN 'de'
            WHEN hits_en >= greatest(hits_es, hits_fr) THEN 'en'
            WHEN hits_es >= hits_fr THEN 'es'
            ELSE 'fr' END AS pred_lang
FROM h
"""


# ---------------------------------------------------------------------------
# deterministic hash sampling (the reference has no sampling — SURVEY §2.8)
# ---------------------------------------------------------------------------

SAMPLE_HEX = ("0", "1", "2", "3")  # md5 first hex digit → 4/16 = 25% sample


def sample_docs(sf_dir: str):
    """Deterministic 25% sample: keep documents whose md5(text) starts
    with one of SAMPLE_HEX. Hash sampling is reproducible across runs
    and engines (unlike random_shuffle/limit) and embarrassingly
    parallel — the standard way to carve held-out slices from a crawl.
    Output (doc_id, lang, n_chars) of sampled docs."""
    from pd3f_ray.functions.textfns import md5_hex

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        keep = [md5_hex(t)[0] in SAMPLE_HEX for t in texts]
        import pyarrow.compute as pc

        mask = pa.array(keep, pa.bool_())
        f = batch.filter(mask)
        return f.select(["doc_id", "lang", "n_chars"])

    return ds.map_batches(pick, batch_format="pyarrow")


SAMPLE_DOCS_SQL = f"""
SELECT doc_id, lang, n_chars
FROM documents
WHERE substring(md5(text), 1, 1) IN {SAMPLE_HEX!r}
"""


# ---------------------------------------------------------------------------
# corpus heavy hitters (word count with map-side combining)
# ---------------------------------------------------------------------------

TOP_TOKENS_K = 20


def top_tokens(sf_dir: str, k: int = TOP_TOKENS_K):
    """The k most frequent whitespace tokens across the corpus.
    Frequencies are pre-aggregated per batch inside map_batches (a
    Counter over the batch's tokens), so the groupby exchange moves one
    row per (block, token) instead of one per token occurrence; ties at
    the boundary break deterministically by token ascending."""
    from collections import Counter

    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", ["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            c.update(t.split(" "))
        c.pop("", None)
        return pa.table(
            {
                "token": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    totals = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
    )

    # Per-block top-k partials, then a tiny resolve: after the hash
    # aggregate each token lives in exactly one block, so any global
    # top-k token is in its block's top-k — keeping k rows per block is
    # EXACT, and the final sort runs over ≤ blocks×k rows instead of
    # the whole distinct-token table (billions of rows at corpus
    # scale). Tie order (n desc, token asc) is applied identically in
    # both passes.
    import pyarrow.compute as pc

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        order = pc.sort_indices(
            batch,
            sort_keys=[("n", "descending"), ("token", "ascending")],
        )
        return batch.take(order[:k])

    candidates = totals.map_batches(block_topk, batch_format="pyarrow")
    return candidates.sort(["n", "token"], descending=[True, False]).limit(k)


def top_tokens_sql(k: int = TOP_TOKENS_K) -> str:
    return f"""
SELECT token, CAST(count(*) AS BIGINT) AS n
FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
WHERE token != ''
GROUP BY token
ORDER BY n DESC, token ASC
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# BPE-style regex token counting
# ---------------------------------------------------------------------------

# GPT-2-family pre-tokenizer shape, restricted to ASCII classes so the
# RE2 engine in the DuckDB oracle and Python's re agree match-for-match
BPE_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 ]+"
_BPE_RE = None


def token_count_regex(sf_dir: str):
    """Per document: BPE-pre-tokenizer-style token count (the regex
    split a GPT-2-family tokenizer applies before BPE merges) next to
    the whitespace count. Oracle via DuckDB regexp_extract_all with the
    same pattern. Output (doc_id, n_tokens_ws, n_tokens_re)."""
    import re

    ds = read_table(sf_dir, "documents", ["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        global _BPE_RE
        if _BPE_RE is None:  # compiled once per worker process
            _BPE_RE = re.compile(BPE_PATTERN)
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens_ws": pa.array(
                    [len(t.split(" ")) for t in texts], pa.int64()),
                "n_tokens_re": pa.array(
                    [len(_BPE_RE.findall(t)) for t in texts], pa.int64()),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow")


_BPE_SQL_PATTERN = BPE_PATTERN.replace("'", "''")  # SQL literal escaping

TOKEN_COUNT_REGEX_SQL = f"""
SELECT doc_id,
       len(string_split(text, ' '))                          AS n_tokens_ws,
       len(regexp_extract_all(text, '{_BPE_SQL_PATTERN}'))   AS n_tokens_re
FROM documents
"""


# ---------------------------------------------------------------------------
# stratified (per-language) sampling — corpus rebalancing
# ---------------------------------------------------------------------------

# keep-rate per language in 16ths of the md5 hash space: dominant
# languages downsampled, tail languages kept whole — the standard
# rebalancing move before training-data mixing
STRATA_HEX = {
    "en": tuple("0123"),            # 25%
    "de": tuple("01234567"),        # 50%
}
STRATA_DEFAULT_HEX = tuple("0123456789abcdef")  # 100% for tail languages


def stratified_sample(sf_dir: str):
    """Deterministic per-language hash sample: each language keeps the
    fraction of documents whose md5(text) first hex digit falls in its
    stratum — reproducible across engines and runs, no shuffle, no
    driver state. Output (doc_id, lang, n_chars)."""
    from pd3f_ray.functions.textfns import md5_hex

    ds = read_table(sf_dir, "documents", ["doc_id", "text", "lang", "n_chars"])

    def pick(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        langs = batch.column("lang").to_pylist()
        keep = [
            md5_hex(t)[0] in STRATA_HEX.get(lg, STRATA_DEFAULT_HEX)
            for t, lg in zip(texts, langs)
        ]
        f = batch.filter(pa.array(keep, pa.bool_()))
        return f.select(["doc_id", "lang", "n_chars"])

    return ds.map_batches(pick, batch_format="pyarrow")


def stratified_sample_sql() -> str:
    cases = " ".join(
        f"WHEN '{lang}' THEN substring(md5(text), 1, 1) IN {hexes!r}"
        for lang, hexes in STRATA_HEX.items()
    )
    return f"""
SELECT doc_id, lang, n_chars
FROM documents
WHERE CASE lang {cases}
      ELSE TRUE END
"""


# ---------------------------------------------------------------------------
# group-wise top-k (heavy hitters per language)
# ---------------------------------------------------------------------------

TOP_PER_LANG_K = 5


def top_tokens_per_lang(sf_dir: str, k: int = TOP_PER_LANG_K):
    """The k most frequent tokens WITHIN each language — the group-wise
    top-k pattern (vs ``top_tokens``' global sort-limit): per-batch
    Counter pre-aggregation keyed (lang, token), one hash-aggregate
    exchange on the pair, then a bucketed per-lang reduce that does a
    vectorized nlargest inside each group — no global sort. Ties break
    by token ascending, matching the SQL row_number ordering. Output
    (lang, token, n, rank)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", ["lang", "text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lg, t in zip(batch.column("lang").to_pylist(),
                         batch.column("text").to_pylist()):
            for tok in t.split(" "):
                if tok:
                    c[(lg, tok)] += 1
        langs, toks, ns = [], [], []
        for (lg, tok), n in c.items():
            langs.append(lg)
            toks.append(tok)
            ns.append(n)
        return pa.table(
            {
                "lang": pa.array(langs, pa.string()),
                "token": pa.array(toks, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    totals = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby(["lang", "token"])
        .aggregate(Sum("n", alias_name="n"))
    )

    # Per-block per-lang top-k partials BEFORE the per-lang reduce:
    # after the (lang, token) hash aggregate each pair lives in exactly
    # one block, so keeping k rows per (block, lang) is EXACT for the
    # per-lang top-k — the final groupby("lang") then holds ≤ blocks×k
    # candidate rows per language, bounded by the block count, never by
    # the language's vocabulary size.
    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        tok = batch.column("token").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -n, lang))
        ls = lang[order]
        starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
        counts = np.diff(np.r_[starts, len(ls)])
        pos = np.arange(len(ls), dtype=np.int64) - np.repeat(starts, counts)
        return batch.take(pa.array(np.sort(order[pos < k])))

    candidates = totals.map_batches(block_topk, batch_format="pyarrow")

    def per_lang_topk(group: pa.Table) -> pa.Table:
        tok = group.column("token").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((tok, -n))[:k]
        out = group.select(["lang", "token", "n"]).take(pa.array(order))
        return out.append_column(
            "rank", pa.array(np.arange(1, len(order) + 1, dtype=np.int64),
                             pa.int64()))

    return candidates.groupby("lang").map_groups(per_lang_topk,
                                                 batch_format="pyarrow")


def top_tokens_per_lang_sql(k: int = TOP_PER_LANG_K) -> str:
    return f"""
WITH counts AS (
  SELECT lang, token, CAST(count(*) AS BIGINT) AS n
  FROM (SELECT lang, unnest(string_split(text, ' ')) AS token
        FROM documents)
  WHERE token != ''
  GROUP BY lang, token
),
ranked AS (
  SELECT lang, token, n,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n DESC, token ASC) AS rank
  FROM counts
)
SELECT lang, token, n, CAST(rank AS BIGINT) AS rank
FROM ranked WHERE rank <= {k}
"""


# ---------------------------------------------------------------------------
# corpus heavy-hitter bigrams
# ---------------------------------------------------------------------------

TOP_BIGRAMS_K = 20


def top_bigrams(sf_dir: str, k: int = TOP_BIGRAMS_K):
    """The k most frequent adjacent token PAIRS across the corpus — the
    n-gram extension of ``top_tokens`` with the same scale-safe plan:
    per-batch Counter partials (one row per (block, bigram) crosses the
    exchange, never one per occurrence), hash aggregate, per-block
    top-k partials, tiny global resolve. A pair counts only when both
    tokens are non-empty, matching the SQL oracle's position join."""
    from collections import Counter

    import pyarrow.compute as pc

    ds = read_table(sf_dir, "documents", ["text"])

    def partial_counts(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = t.split(" ")
            c.update(f"{a} {b}" for a, b in zip(toks, toks[1:])
                     if a and b)
        return pa.table(
            {
                "bigram": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    totals = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        order = pc.sort_indices(
            batch,
            sort_keys=[("n", "descending"), ("bigram", "ascending")],
        )
        return batch.take(order[:k])

    candidates = totals.map_batches(block_topk, batch_format="pyarrow")
    return candidates.sort(["n", "bigram"], descending=[True, False]).limit(k)


def top_bigrams_sql(k: int = TOP_BIGRAMS_K) -> str:
    return f"""
WITH t AS (SELECT string_split(text, ' ') AS toks FROM documents),
bg AS (
  SELECT toks[i] || ' ' || toks[i + 1] AS bigram
  FROM t, unnest(generate_series(1, len(toks) - 1)) u(i)
  WHERE toks[i] != '' AND toks[i + 1] != ''
)
SELECT bigram, CAST(count(*) AS BIGINT) AS n
FROM bg GROUP BY bigram
ORDER BY n DESC, bigram ASC
LIMIT {k}
"""


# ---------------------------------------------------------------------------
# weighted sampling without replacement (Efraimidis–Spirakis A-ES)
# ---------------------------------------------------------------------------

WSAMPLE_K = 50
_U52 = float(1 << 52)


def weighted_sample(sf_dir: str, k: int = WSAMPLE_K):
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis
    & Spirakis 2006 A-ES): each row gets key = ln(u)/w with u a
    hash-derived uniform and w its weight (``n_chars`` — longer
    documents proportionally likelier); the global top-k by key IS a
    weight-proportional sample, and because u comes from md5(doc_id)
    the draw is reproducible across runs AND engines.

    Scale shape: key computation is map-only; per-block top-k partials
    feed a final sort over ≤ blocks×k rows (the ``top_tokens`` resolve
    pattern) — no global sort of the corpus. Float parity with the SQL
    oracle holds bit-exactly: u is a 52-bit-integer divide by 2^52
    (exact in double), ln is the same libm call both engines make (see
    ``indexing.tfidf_terms``), and the key division is one IEEE op.
    Output (doc_id, n_chars)."""
    import math

    import pyarrow.compute as pc

    from pd3f_ray.functions.textfns import md5_hex

    ds = read_table(sf_dir, "documents", ["doc_id", "n_chars"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        w = batch.column("n_chars").to_numpy(zero_copy_only=False)
        keys = np.asarray(
            [math.log((int(md5_hex(str(d))[:13], 16) + 1) / _U52)
             for d in ids],
            np.float64) / w
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
            "key": pa.array(keys, pa.float64()),
        })

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k:
            return batch
        order = pc.sort_indices(
            batch, sort_keys=[("key", "descending"),
                              ("doc_id", "ascending")])
        return batch.take(order[:k])

    return (
        ds.map_batches(keyed, batch_format="pyarrow")
        .map_batches(block_topk, batch_format="pyarrow")
        .sort(["key", "doc_id"], descending=[True, False])
        .limit(k)
        .map_batches(lambda b: b.select(["doc_id", "n_chars"]),
                     batch_format="pyarrow")
    )


def weighted_sample_sql(k: int = WSAMPLE_K) -> str:
    return f"""
WITH keyed AS (
  SELECT doc_id, n_chars,
         ln((('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 13))
                 ::BIGINT + 1) / {_U52!r}) / n_chars AS key
  FROM documents
)
SELECT doc_id, n_chars
FROM keyed
ORDER BY key DESC, doc_id ASC
LIMIT {k}
"""


WEIGHTED_SAMPLE_SQL = weighted_sample_sql()


# ---------------------------------------------------------------------------
# grouped weighted sampling: A-ES top-k per language
# ---------------------------------------------------------------------------

WSAMPLE_LANG_K = 10


def weighted_sample_per_lang(sf_dir: str, k: int = WSAMPLE_LANG_K):
    """Weighted sampling without replacement PER GROUP — the A-ES key of
    :func:`weighted_sample` resolved per language (k longest-biased
    docs per lang), the shape a balanced multilingual training mix
    actually draws. Scale plan = the ``top_tokens_per_lang`` pattern:
    per-block per-lang top-k partials first, so the final
    ``groupby(lang)`` resolve sees ≤ blocks×k rows per language, never
    the corpus. Output (lang, doc_id, n_chars)."""
    import math

    from pd3f_ray.functions.textfns import md5_hex

    ds = read_table(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def keyed(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        w = batch.column("n_chars").to_numpy(zero_copy_only=False)
        keys = np.asarray(
            [math.log((int(md5_hex(str(d))[:13], 16) + 1) / _U52)
             for d in ids], np.float64) / w
        return pa.table({
            "lang": batch.column("lang"),
            "doc_id": batch.column("doc_id"),
            "n_chars": batch.column("n_chars"),
            "key": pa.array(keys, pa.float64()),
        })

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        key = batch.column("key").to_numpy(zero_copy_only=False)
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -key, lang))
        ls = lang[order]
        starts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1]])
        counts = np.diff(np.r_[starts, len(ls)])
        pos = np.arange(len(ls), dtype=np.int64) - np.repeat(starts, counts)
        return batch.take(pa.array(np.sort(order[pos < k])))

    def resolve(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        did = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((did, -key))[:k]
        out = group.select(["lang", "doc_id", "n_chars"])
        return out.take(pa.array(order))

    return (
        ds.map_batches(keyed, batch_format="pyarrow")
        .map_batches(block_topk, batch_format="pyarrow")
        .groupby("lang")
        .map_groups(resolve, batch_format="pyarrow")
    )


def weighted_sample_per_lang_sql(k: int = WSAMPLE_LANG_K) -> str:
    return f"""
WITH keyed AS (
  SELECT lang, doc_id, n_chars,
         ln((('0x' || substring(md5(CAST(doc_id AS VARCHAR)), 1, 13))
                 ::BIGINT + 1) / {_U52!r}) / n_chars AS key
  FROM documents
)
SELECT lang, doc_id, n_chars
FROM keyed
QUALIFY row_number() OVER (PARTITION BY lang
                           ORDER BY key DESC, doc_id ASC) <= {k}
"""


WEIGHTED_SAMPLE_PER_LANG_SQL = weighted_sample_per_lang_sql()


# ---------------------------------------------------------------------------
# classifier evaluation: language-ID confusion matrix
# ---------------------------------------------------------------------------


def lang_confusion_matrix(sf_dir: str):
    """Classifier evaluation as a pipeline op — the confusion matrix of
    the heuristic language identifier against the labeled ``lang``
    column: one row per (true lang, predicted lang) with its count.
    The per-doc prediction is the same marker-count argmax as
    :func:`lang_id`; counts fold map-side per (label, pred) so the one
    exchange carries ≤ |langs|² partials per block. Output
    (lang, pred_lang, n)."""
    ds = read_table(sf_dir, "documents", ["text", "lang"])
    langs = sorted(LANG_MARKERS)

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        labels = batch.column("lang").to_pylist()
        preds = []
        for t in texts:
            toks = t.split(" ")
            counts = {l: sum(1 for w in toks if w in LANG_MARKERS[l])
                      for l in langs}
            best = max(counts.values())
            preds.append("none" if best == 0
                         else min(l for l in langs if counts[l] == best))
        t = pa.table({
            "lang": pa.array(labels, pa.string()),
            "pred_lang": pa.array(preds, pa.string()),
        })
        g = t.group_by(["lang", "pred_lang"]).aggregate([([], "count_all")])
        return g.rename_columns(["lang", "pred_lang", "n"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "pred_lang"])
        .aggregate(Sum("n", alias_name="n"))
    )


LANG_CONFUSION_SQL = f"""
WITH h AS (
  SELECT lang,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('de')}))) AS hits_de,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('en')}))) AS hits_en,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('es')}))) AS hits_es,
         len(list_filter(string_split(text, ' '),
                         w -> w IN ({_marker_list('fr')}))) AS hits_fr
  FROM documents
)
SELECT lang,
       CASE WHEN greatest(hits_de, hits_en, hits_es, hits_fr) = 0 THEN 'none'
            WHEN hits_de >= greatest(hits_en, hits_es, hits_fr) THEN 'de'
            WHEN hits_en >= greatest(hits_es, hits_fr) THEN 'en'
            WHEN hits_es >= hits_fr THEN 'es'
            ELSE 'fr' END AS pred_lang,
       CAST(count(*) AS BIGINT) AS n
FROM h
GROUP BY lang, pred_lang
"""


# ---------------------------------------------------------------------------
# bigram PMI (collocation / association mining over the heavy hitters)
# ---------------------------------------------------------------------------

BIGRAM_PMI_K = 20
_PMI_SENTINEL = "\x00total"  # bigram keys always contain a space, so no
# real bigram can collide with this key; the UNIGRAM pass prefixes its
# real token keys with '\x01' in the exchange so a corpus token that is
# literally '\x00total' cannot merge with (or be overwritten by) the
# sentinel row either


def bigram_pmi(sf_dir: str, k: int = BIGRAM_PMI_K):
    """Pointwise mutual information of the corpus's top-k bigrams —
    the collocation score that separates genuine multi-word units
    ("new york") from pairs that co-occur only because both words are
    common. Two bounded passes, both riding existing heavy-hitter
    plans:

    1. bigram pass = ``top_bigrams``'s per-block Counter partials + ONE
       hash aggregate; the TOTAL bigram count rides the same exchange
       as a sentinel key (it sorts first — its count ≥ any bigram's —
       so ``limit(k+1)`` keeps sentinel + top-k);
    2. unigram pass counts ONLY the ≤ 2k member tokens (set broadcast
       via ``ray.put``) plus the sentinel token total — the exchange
       carries ≤ (2k+1) rows per block regardless of vocabulary size.

    pmi_micros = floor(ln((c_ab/N_bi) / ((c_a/N_u)·(c_b/N_u))) · 1e6)
    computed with the IDENTICAL double expression tree as the DuckDB
    oracle (libm ln and plain double arithmetic are bit-identical), so
    the oracle is exact despite the floats.
    Output (bigram, n, pmi_micros)."""
    import math
    from collections import Counter

    import pyarrow.compute as pc
    import ray

    ds = read_table(sf_dir, "documents", ["text"])

    def bigram_partials(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        total = 0
        for t in batch.column("text").to_pylist():
            toks = t.split(" ")
            pairs = [f"{a} {b}" for a, b in zip(toks, toks[1:]) if a and b]
            total += len(pairs)
            c.update(pairs)
        c[_PMI_SENTINEL] = total
        return pa.table({
            "bigram": pa.array(list(c.keys()), pa.string()),
            "n": pa.array(list(c.values()), pa.int64()),
        })

    totals = (
        ds.map_batches(bigram_partials, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
    )

    def block_topk(batch: pa.Table) -> pa.Table:
        if batch.num_rows <= k + 1:
            return batch
        order = pc.sort_indices(
            batch, sort_keys=[("n", "descending"), ("bigram", "ascending")])
        return batch.take(order[: k + 1])

    head = (
        totals.map_batches(block_topk, batch_format="pyarrow")
        .sort(["n", "bigram"], descending=[True, False])
        .limit(k + 1)
        .materialize()
    )
    rows = [t for t in ray.get(head.to_arrow_refs()) if t.num_rows]
    head_tbl = pa.concat_tables(rows)
    bigrams = head_tbl.column("bigram").to_pylist()
    counts = head_tbl.column("n").to_pylist()
    if _PMI_SENTINEL not in bigrams:
        raise AssertionError("bigram total sentinel lost in the exchange")
    si = bigrams.index(_PMI_SENTINEL)
    n_bi = counts[si]
    top = [(b, c) for b, c in zip(bigrams, counts) if b != _PMI_SENTINEL]

    members = sorted({tok for b, _ in top for tok in b.split(" ")})
    mem_ref = ray.put(frozenset(members))

    def unigram_partials(batch: pa.Table) -> pa.Table:
        # unlike bigram keys (which always contain a space and so can
        # never equal the sentinel), a raw corpus token COULD literally
        # be '\x00total' — prefix every real token with '\x01' in the
        # exchange key space so the sentinel is structurally
        # collision-proof; the prefix is stripped after the collect
        mem = ray.get(mem_ref)
        c: Counter = Counter()
        total = 0
        for t in batch.column("text").to_pylist():
            toks = [x for x in t.split(" ") if x]
            total += len(toks)
            c.update("\x01" + x for x in toks if x in mem)
        c[_PMI_SENTINEL] = total
        return pa.table({
            "token": pa.array(list(c.keys()), pa.string()),
            "n": pa.array(list(c.values()), pa.int64()),
        })

    uni = (
        ds.map_batches(unigram_partials, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()
    )
    raw: dict[str, int] = {}
    for t in ray.get(uni.to_arrow_refs()):
        if t.num_rows:
            raw.update(zip(t.column("token").to_pylist(),
                           t.column("n").to_pylist()))
    n_uni = raw.pop(_PMI_SENTINEL)
    uc = {k[1:]: v for k, v in raw.items()}  # strip the '\x01' prefix

    out_b, out_n, out_pmi = [], [], []
    for b, c_ab in top:
        a, bb = b.split(" ")
        # expression tree mirrored EXACTLY in the SQL oracle
        pmi = math.log((c_ab / n_bi) / ((uc[a] / n_uni) * (uc[bb] / n_uni)))
        out_b.append(b)
        out_n.append(c_ab)
        out_pmi.append(math.floor(pmi * 1_000_000))
    return rd.from_arrow(pa.table({
        "bigram": pa.array(out_b, pa.string()),
        "n": pa.array(out_n, pa.int64()),
        "pmi_micros": pa.array(out_pmi, pa.int64()),
    }))


def bigram_pmi_sql(k: int = BIGRAM_PMI_K) -> str:
    return f"""
WITH t AS (SELECT string_split(text, ' ') AS toks FROM documents),
uni AS (SELECT unnest(toks) AS token FROM t),
uc AS (SELECT token, CAST(count(*) AS BIGINT) AS n
       FROM uni WHERE token != '' GROUP BY token),
nu AS (SELECT CAST(count(*) AS BIGINT) AS n FROM uni WHERE token != ''),
bg AS (
  SELECT toks[i] AS a, toks[i + 1] AS b
  FROM t, unnest(generate_series(1, len(toks) - 1)) u(i)
  WHERE toks[i] != '' AND toks[i + 1] != ''
),
bc AS (SELECT a, b, a || ' ' || b AS bigram, CAST(count(*) AS BIGINT) AS n
       FROM bg GROUP BY a, b),
nb AS (SELECT CAST(count(*) AS BIGINT) AS n FROM bg),
topk AS (SELECT a, b, bigram, n FROM bc
         ORDER BY n DESC, bigram ASC LIMIT {k})
SELECT topk.bigram AS bigram, topk.n AS n,
       CAST(floor(ln((topk.n / (SELECT n FROM nb)) /
                     ((ua.n / (SELECT n FROM nu))
                      * (ub.n / (SELECT n FROM nu)))) * 1000000) AS BIGINT)
           AS pmi_micros
FROM topk
JOIN uc ua ON ua.token = topk.a
JOIN uc ub ON ub.token = topk.b
"""


BIGRAM_PMI_SQL = bigram_pmi_sql()
