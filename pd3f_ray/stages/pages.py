"""Page-table → document-table assembly.

The page-table variant stores one row per page (SURVEY.md §1.2,
FIXTURES.md table 2): ``(url, warc_ts, page_idx, page_json, lang)``,
shuffled on disk. Reassembly is the engine's one real shuffle — but NOT
``groupby("url")`` directly: with one group per document the per-group
Python dispatch of ``map_groups`` dominated wall time (~0.5 ms × 200 k
groups ≈ 100 s at sf0.1). Instead pages are bucketed by a stable url
hash over the exchange's P partitions (``url_bucket(url, P)``, P =
``stages.exchange.input_partitions``) and ``bucket_exchange`` hands each
reducer call one partition, sorted once on ``(url, page_idx)`` and split
into documents by offset scan.
Same exchange volume, P reducer calls instead of 200 k. The fused plan
(``extract_pages_fused``) ships each page blob as an LZ4 frame: 6.2 of
29.8 MB on the seed-1 page table, for 0.08 s of codec CPU per pass
(zlib level 1: 4.2 MB for 0.42 s).

Partitioning assumptions: one partition, on average at most 128 MiB of
the page table's bytes (P grows with the input), must fit in one reduce
task's memory. Page order is the reference's array position
(README.md:115-119), restored by the sort.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np
import orjson
import pyarrow as pa
import pyarrow.compute as pc

from pd3f_ray.core.arrowkit import run_offsets
from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.stages.exchange import bucket_exchange, input_partitions
from pd3f_ray.stages.extract import extract_rows, null_input

DEFAULT_NUM_BUCKETS = 512  # url_bucket's default range
# page blobs cross the fused exchange as LZ4 frames (``extract_pages_fused``);
# a codec name, because a ``pa.Codec`` does not pickle and the package may be
# shipped to workers by value
PAGE_CODEC = "lz4"


def url_bucket(url: str | None, num_buckets: int = DEFAULT_NUM_BUCKETS) -> int:
    """Stable cross-process url hash bucket (crc32 — NOT Python hash(),
    which is salted per process and would break the shuffle key). A
    null url takes bucket 0: its pages meet in one reducer call as one
    run, which ``extract_rows`` dead-letters."""
    return 0 if url is None else zlib.crc32(url.encode()) % num_buckets


def _sorted_docs(group: pa.Table, blob_col: str):
    """A partition's pages sorted once on ``(url, page_idx)``: the sorted
    table without ``blob_col``, that column as Python bytes in the same
    order (converted once; the blobs are never copied by a ``take``),
    each url run's ``(starts, ends)`` offsets and its rows at the run
    starts."""
    order = pc.sort_indices(
        group,
        sort_keys=[("url", "ascending"), ("page_idx", "ascending")],
    )
    g = group.drop_columns([blob_col]).take(order)
    unsorted = group.column(blob_col).to_pylist()
    blobs = [unsorted[i] for i in order.to_pylist()]
    starts, ends = run_offsets(g, ["url"])
    first = g.select(["url", "warc_ts", "lang"]).take(pa.array(starts))
    return g, blobs, starts, ends, first


def _layouts(blobs: list, starts, ends, raw_lens=None):
    """Yield each url run's ``(layout, blob)``, one at a time: the layout
    dict holds its pages' ``page`` entries in ``page_idx`` order, the
    first page's ``fonts`` and the first non-empty ``tables``. With
    ``raw_lens`` the blobs are LZ4 frames of those sizes. A document one
    of whose pages is null or fails to decompress or parse is its
    exception instead (a dead letter, not a failed task), and ``blob`` is
    that page's stored blob (``None`` for a document that assembled)."""
    codec = None if raw_lens is None else pa.Codec(PAGE_CODEC)
    for d in range(len(starts)):
        blob = None
        try:
            pages = []
            fonts = None
            tables = None
            for j in range(starts[d], ends[d]):
                blob = blobs[j]
                if blob is None:
                    raise null_input("page_json")
                payload = orjson.loads(
                    blob if codec is None else codec.decompress(
                        blob, decompressed_size=raw_lens[j], asbytes=True))
                pages.append(payload["page"])
                if fonts is None:
                    fonts = payload.get("fonts", [])
                if tables is None and payload.get("tables"):
                    tables = payload["tables"]
            doc = {"pages": pages, "fonts": fonts or []}
            if tables:
                doc["tables"] = tables
            blob = None
        except Exception as exc:  # noqa: BLE001 — dead-letter semantics
            doc = exc
        yield doc, blob


def _layout_html(doc, bad) -> bytes | None:
    """One url's ``html`` in the staged plan: its layout re-serialized,
    or what ``ExtractDocs`` dead-letters. A page that did not assemble is
    carried as is (it fails to parse again, with the fused plan's error;
    a null page is a null ``html``). A layout the serializer refuses
    (nested past its depth limit) becomes its error as plain text, which
    does not parse as JSON: one ``JSONDecodeError`` dead letter, not a
    failed job."""
    if isinstance(doc, Exception):
        return bad
    try:
        return orjson.dumps(doc)
    except (TypeError, ValueError, RecursionError) as exc:
        msg = f"layout does not serialize: {type(exc).__name__}: {exc}"
        return msg.encode()


def assemble_bucket(group: pa.Table) -> pa.Table:
    """All pages of a set of urls (one exchange partition) → one
    document row per url, its layout re-serialized into ``html``
    (``_layout_html``: a url that does not assemble or serialize gets
    bytes that ``ExtractDocs`` dead-letters)."""
    _, blobs, starts, ends, first = _sorted_docs(group, "page_json")
    out_html = [_layout_html(doc, bad)
                for doc, bad in _layouts(blobs, starts, ends)]
    return pa.table(
        {
            "url": first.column("url"),
            "warc_ts": first.column("warc_ts"),
            "html": pa.array(out_html, pa.binary()),
            "text": pa.array([""] * len(out_html), pa.string()),
            "lang": first.column("lang"),
        }
    )


def assemble_pages_dataset(ds):
    """``Dataset`` of exploded page rows → ``Dataset`` of document rows
    (the input_hint schema). One url-bucket range exchange."""
    p = input_partitions(ds)

    def add_bucket(batch: pa.Table) -> pa.Table:
        buckets = pa.array(
            [url_bucket(u, p) for u in batch.column("url").to_pylist()],
            pa.int32(),
        )
        return batch.append_column("bucket", buckets)

    return bucket_exchange(ds.map_batches(add_bucket, batch_format="pyarrow"),
                           "bucket", assemble_bucket)


def add_bucket_compress(batch: pa.Table, p: int) -> pa.Table:
    """Map side of ``extract_pages_fused``: each page row's url bucket
    over ``p`` partitions, its ``page_json`` as an LZ4 frame and the raw
    size (a null page stays null, with size 0)."""
    urls = batch.column("url").to_pylist()
    buckets = pa.array([url_bucket(u, p) for u in urls], pa.int32())
    blobs = batch.column("page_json").to_pylist()
    codec = pa.Codec(PAGE_CODEC)
    return pa.table(
        {
            "url": batch.column("url"),
            "warc_ts": batch.column("warc_ts"),
            "page_idx": batch.column("page_idx"),
            "lang": batch.column("lang"),
            "page_lz4": pa.array(
                [None if b is None else codec.compress(b, asbytes=True)
                 for b in blobs],
                pa.binary()),
            "page_raw_len": pa.array([0 if b is None else len(b)
                                      for b in blobs], pa.int64()),
            "bucket": buckets,
        }
    )


def assemble_extract(group: pa.Table, opts: ExtractOptions) -> pa.Table:
    """Reduce side of ``extract_pages_fused``: one partition's pages →
    one extracted row per url, the kernel run on the assembled layout
    dict. A url with a page that is null or does not decompress or parse
    is one dead-letter row (``text`` None, the exception in ``error``)."""
    g, blobs, starts, ends, first = _sorted_docs(group, "page_lz4")
    raw_lens = g.column("page_raw_len").to_numpy(zero_copy_only=False)
    # per-doc uncompressed payload size: one vectorized segment sum
    payloads = np.add.reduceat(raw_lens, starts) if len(starts) else []
    docs = _layouts(blobs, starts, ends, raw_lens.tolist())
    return extract_rows(first, (doc for doc, _ in docs), payloads, opts)


def extract_pages_fused(ds, opts=None):
    """Page rows → extracted document rows in ONE ``bucket_exchange``
    (no sampling pass, no merge stage), with the page payloads
    LZ4-compressed across the exchange.

    The staged plan (assemble → object store → extract) re-serialized
    every assembled document and shipped the full corpus through the
    shuffle uncompressed; at sf0.1 the sort exchange alone was ~79 s.
    Here the map side compresses each page blob with pyarrow's LZ4 frame
    codec, and the reduce side decompresses, assembles the layout dict,
    and runs the extraction kernel directly on it — no dumps/loads round
    trip, and only the small result rows leave the reduce tasks. On the
    seed-1 page table (3,225 pages, 29.8 MB) LZ4 ships 6.2 MB (zlib
    level 1: 4.2 MB) for 0.08 s of compress + decompress CPU (zlib: 0.42
    s); sending the pages raw cost about as little CPU but 15% more peak
    memory.

    Extraction runs in shuffle-reduce tasks (stateless); scorer state is
    per-worker-process cached, as in every extraction task. ``payload_bytes`` is the sum of
    the url's UNCOMPRESSED page blob sizes.
    """
    return bucket_exchange(
        ds.map_batches(partial(add_bucket_compress, p=input_partitions(ds)),
                       batch_format="pyarrow"),
        "bucket",
        partial(assemble_extract, opts=opts or ExtractOptions.experimental()))
