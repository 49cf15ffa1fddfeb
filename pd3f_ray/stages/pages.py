"""Page-table → document-table assembly.

The page-table variant stores one row per page (SURVEY.md §1.2,
FIXTURES.md table 2): ``(url, warc_ts, page_idx, page_json, lang)``,
shuffled on disk. Reassembly is the engine's one real shuffle — but NOT
``groupby("url")`` directly: with one group per document the per-group
Python dispatch of ``map_groups`` dominated wall time (~0.5 ms × 200 k
groups ≈ 100 s at sf0.1). Instead pages are bucketed by a stable url
hash (``crc32 % num_buckets``) and ``stages.exchange.bucket_exchange``
hands each reducer call a partition of ≤ 64 whole buckets, sorted
once on ``(url, page_idx)`` and split into documents by offset scan.
Same exchange volume, P reducer calls instead of 200 k.

Partitioning assumptions: 64 buckets must fit in one reduce task's memory
(``num_buckets`` scales with the corpus: ~2^20 at 10^12 docs). Page order is
the reference's array position (README.md:115-119), restored by the sort.
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pd3f_ray.stages.exchange import bucket_exchange

try:
    import orjson as _fastjson

    def _loads(b):
        return _fastjson.loads(b)

    def _dumps(obj) -> bytes:
        return _fastjson.dumps(obj)
except ImportError:  # pragma: no cover
    def _loads(b):
        return json.loads(b.decode() if isinstance(b, bytes) else b)

    def _dumps(obj) -> bytes:
        return json.dumps(obj, ensure_ascii=False).encode()

DEFAULT_NUM_BUCKETS = 512


def url_bucket(url: str, num_buckets: int = DEFAULT_NUM_BUCKETS) -> int:
    """Stable cross-process url hash bucket (crc32 — NOT Python hash(),
    which is salted per process and would break the shuffle key)."""
    return zlib.crc32(url.encode()) % num_buckets


def _doc_offsets(sorted_urls: pa.ChunkedArray | pa.Array):
    """(starts, ends) row offsets of each url run in an already-sorted
    url column — vectorized adjacent-inequality instead of a per-row
    Python comparison loop."""
    u = (sorted_urls.combine_chunks()
         if isinstance(sorted_urls, pa.ChunkedArray) else sorted_urls)
    n = len(u)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), u
    neq = pc.not_equal(u.slice(1), u.slice(0, n - 1))
    bounds = np.flatnonzero(neq.to_numpy(zero_copy_only=False)) + 1
    starts = np.concatenate([[0], bounds]).astype(np.int64)
    ends = np.concatenate([bounds, [n]]).astype(np.int64)
    return starts, ends, u


def assemble_bucket(group: pa.Table) -> pa.Table:
    """All pages of a set of urls (one exchange partition) → one
    document row per url. Sorted once per partition; url-run boundaries
    found by one vectorized adjacent-inequality; per-doc columns
    gathered with Arrow ``take`` at the run starts (the only remaining
    Python loop parses page payloads, which is inherently per-page)."""
    order = pc.sort_indices(
        group,
        sort_keys=[("url", "ascending"), ("page_idx", "ascending")],
    )
    g = group.take(order)
    starts, ends, u = _doc_offsets(g.column("url"))
    start_idx = pa.array(starts)
    out_url = u.take(start_idx)
    out_ts = g.column("warc_ts").take(start_idx)
    out_lang = g.column("lang").take(start_idx)
    blobs = g.column("page_json").to_pylist()

    out_html = []
    for d in range(len(starts)):
        pages = []
        fonts = None
        tables = None
        for j in range(starts[d], ends[d]):
            payload = _loads(blobs[j])
            pages.append(payload["page"])
            if fonts is None:
                fonts = payload.get("fonts", [])
            if tables is None and payload.get("tables"):
                tables = payload["tables"]
        doc = {"pages": pages, "fonts": fonts or []}
        if tables:
            doc["tables"] = tables
        out_html.append(_dumps(doc))
    return pa.table(
        {
            "url": out_url,
            "warc_ts": out_ts,
            "html": pa.array(out_html, pa.binary()),
            "text": pa.array([""] * len(out_html), pa.string()),
            "lang": out_lang,
        }
    )


def assemble_pages_dataset(ds, num_buckets: int = DEFAULT_NUM_BUCKETS):
    """``Dataset`` of exploded page rows → ``Dataset`` of document rows
    (the input_hint schema). One url-bucket range exchange."""

    def add_bucket(batch: pa.Table) -> pa.Table:
        buckets = pa.array(
            [url_bucket(u, num_buckets) for u in batch.column("url").to_pylist()],
            pa.int32(),
        )
        return batch.append_column("bucket", buckets)

    return bucket_exchange(ds.map_batches(add_bucket, batch_format="pyarrow"),
                           "bucket", num_buckets, assemble_bucket)


def extract_pages_fused(ds, opts=None, num_buckets: int = DEFAULT_NUM_BUCKETS):
    """Page rows → extracted document rows in ONE ``bucket_exchange``
    (no sampling pass, no merge stage), with the page payloads
    zlib-compressed across the exchange.

    The staged plan (assemble → object store → extract) re-serialized
    every assembled document and shipped the full corpus through the
    shuffle uncompressed; at sf0.1 the sort exchange alone was ~79 s.
    Here the map side compresses each page blob (~6× smaller exchange),
    and the reduce side decompresses, assembles the layout dict, and
    runs the extraction kernel directly on it — no dumps/loads round
    trip, and only the small result rows leave the reduce tasks.

    Extraction runs in shuffle-reduce tasks (stateless); scorer state is
    per-worker-process cached, as in every extraction task. ``payload_bytes`` is the sum of
    the url's UNCOMPRESSED page blob sizes.
    """
    import zlib as _z

    from pd3f_ray.core.config import ExtractOptions
    from pd3f_ray.core.kernel import extract_parsed
    from pd3f_ray.core.scorer import get_scorer
    from pd3f_ray.stages.extract import EXTRACT_SCHEMA

    base = opts or ExtractOptions.experimental()

    def add_bucket_compress(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        buckets = pa.array([url_bucket(u, num_buckets) for u in urls],
                           pa.int32())
        blobs = batch.column("page_json").to_pylist()
        comp = pa.array([_z.compress(b, 1) for b in blobs], pa.binary())
        raw_len = pa.array([len(b) for b in blobs], pa.int64())
        return pa.table(
            {
                "url": batch.column("url"),
                "warc_ts": batch.column("warc_ts"),
                "page_idx": batch.column("page_idx"),
                "lang": batch.column("lang"),
                "page_z": comp,
                "page_raw_len": raw_len,
                "bucket": buckets,
            }
        )

    def assemble_extract(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group,
            sort_keys=[("url", "ascending"), ("page_idx", "ascending")],
        )
        g = group.take(order)
        starts, ends, u = _doc_offsets(g.column("url"))
        start_idx = pa.array(starts)
        out_url = u.take(start_idx)
        out_ts = g.column("warc_ts").take(start_idx)
        langs = g.column("lang").take(start_idx).to_pylist()
        raw_lens = g.column("page_raw_len").to_numpy(zero_copy_only=False)
        # per-doc uncompressed payload size: one vectorized segment sum
        payloads = (np.add.reduceat(raw_lens, starts).astype(np.int64)
                    if len(starts) else np.empty(0, np.int64))
        blobs = g.column("page_z").to_pylist()

        out = {k: [] for k in ("text", "n_pages", "n_elements", "n_chars",
                               "tables_csv", "n_tables", "error")}
        for d in range(len(starts)):
            pages = []
            fonts = None
            tables = None
            for j in range(starts[d], ends[d]):
                payload = _loads(_z.decompress(blobs[j]))
                pages.append(payload["page"])
                if fonts is None:
                    fonts = payload.get("fonts", [])
                if tables is None and payload.get("tables"):
                    tables = payload["tables"]
            lang = langs[d]
            o = base if base.lang == lang else base.with_(lang=lang)
            doc = {"pages": pages, "fonts": fonts or []}
            if tables:
                doc["tables"] = tables
            rec = extract_parsed(doc, o, scorer=get_scorer(lang))
            out["text"].append(rec["text"])
            out["n_pages"].append(rec["n_pages"])
            out["n_elements"].append(rec["n_elements"])
            out["n_chars"].append(len(rec["text"]) if rec["text"] is not None
                                  else 0)
            tbls = rec.get("tables") or []
            out["tables_csv"].append("\x1d".join(tbls))
            out["n_tables"].append(len(tbls))
            out["error"].append(rec["error"])
        return pa.table(
            {
                "url": out_url,
                "warc_ts": out_ts.cast(pa.timestamp("us")),
                "lang": pa.array(langs, pa.string()),
                "text": pa.array(out["text"], pa.large_string()),
                "n_pages": pa.array(out["n_pages"], pa.int32()),
                "n_elements": pa.array(out["n_elements"], pa.int32()),
                "n_chars": pa.array(out["n_chars"], pa.int64()),
                "payload_bytes": pa.array(payloads, pa.int64()),
                "tables_csv": pa.array(out["tables_csv"], pa.large_string()),
                "n_tables": pa.array(out["n_tables"], pa.int32()),
                "error": pa.array(out["error"], pa.string()),
            },
            schema=EXTRACT_SCHEMA,
        )

    return bucket_exchange(
        ds.map_batches(add_bucket_compress, batch_format="pyarrow"),
        "bucket", num_buckets, assemble_extract)
