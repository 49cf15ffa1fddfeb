"""The extraction stage: a ``map_batches`` callable run as plain tasks.

The instance holds only the options; scorer state lives in the worker
process (``core.scorer.get_scorer`` caches one scorer per language per
process), so every task a worker runs reuses it. Batches arrive as
zero-copy Arrow tables; rows are independent documents, so the stage is
embarrassingly parallel and the batch loop only amortizes Python
dispatch. Replaces the reference's single-process, one-document-at-a-
time driver (/root/reference/pd3f/export.py:30-103) with a streaming,
horizontally scalable stage.
"""

from __future__ import annotations

import orjson
import pyarrow as pa

from pd3f_ray.core.config import ExtractOptions
from pd3f_ray.core.kernel import (
    DocumentKernel,
    dead_letter,
    extract_parsed,
    extract_record,
)
from pd3f_ray.core.scorer import get_scorer

# output schema of the extraction stage — large_string for text so very
# wide documents can't overflow 32-bit string offsets in a block
EXTRACT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("text", pa.large_string()),
        ("n_pages", pa.int32()),
        ("n_elements", pa.int32()),
        ("n_chars", pa.int64()),
        ("payload_bytes", pa.int64()),
        # table side-channel: CSVs joined with \x1d (group separator) so
        # the column stays a sortable scalar; "" = no tables. Never
        # merged into `text` (reference: export.py:46,86-93,103)
        ("tables_csv", pa.large_string()),
        ("n_tables", pa.int32()),
        ("error", pa.string()),
    ]
)

TABLE_SEP = "\x1d"


def null_input(column: str) -> ValueError:
    """The dead-letter cause of a document whose ``column`` is null."""
    return ValueError(f"null {column}")


def lang_options(base: ExtractOptions, langs) -> dict:
    """Each distinct non-null language in ``langs`` → its ``(options,
    scorer)``: built once per batch instead of per document. A scorer
    backend that cannot be built raises here and fails the task: that is
    a configuration fault, not a poison row."""
    return {lang: (base if base.lang == lang else base.with_(lang=lang),
                   get_scorer(lang))
            for lang in set(langs) if lang is not None}


def extract_rows(keys: pa.Table, docs, payload_bytes,
                 opts: ExtractOptions, markdown: bool = False) -> pa.Table:
    """The kernel over one batch's documents → its ``EXTRACT_SCHEMA``
    table. ``keys`` holds each document's ``url``, ``warc_ts`` and
    ``lang``; ``docs`` (iterated once, so a caller can assemble layouts
    one at a time) its serialized layout, its assembled layout dict, or
    the exception that stopped its assembly; ``payload_bytes`` its input
    size. A null ``url``, an exception or a null ``lang`` makes the
    document a dead letter, naming the first of them."""
    urls = keys.column("url").to_pylist()
    langs = keys.column("lang").to_pylist()
    kernel_of = lang_options(opts, langs)
    recs = []
    for doc, url, lang in zip(docs, urls, langs):
        if url is None:
            doc = null_input("url")
        elif lang is None and not isinstance(doc, Exception):
            doc = null_input("lang")
        if isinstance(doc, Exception):
            rec = dead_letter(doc)
        elif isinstance(doc, dict):
            rec = extract_parsed(doc, *kernel_of[lang], markdown=markdown)
        else:
            rec = extract_record(doc, *kernel_of[lang], markdown=markdown)
        recs.append(rec)
    texts = [r["text"] for r in recs]
    tables = [r["tables"] for r in recs]
    return pa.table(
        {
            "url": keys.column("url"),
            "warc_ts": keys.column("warc_ts"),
            "lang": keys.column("lang"),
            "text": texts,
            "n_pages": [r["n_pages"] for r in recs],
            "n_elements": [r["n_elements"] for r in recs],
            "n_chars": [0 if t is None else len(t) for t in texts],
            "payload_bytes": payload_bytes,
            "tables_csv": [TABLE_SEP.join(t) for t in tables],
            "n_tables": [len(t) for t in tables],
            "error": [r["error"] for r in recs],
        },
        schema=EXTRACT_SCHEMA,
    )


class ExtractDocs:
    """Per-batch callable for ``ds.map_batches(ExtractDocs(opts),
    batch_format="pyarrow", batch_size=None)``: a task stage that fuses
    with the read or map before it. Scorers come from the per-process
    ``get_scorer`` cache, built on first use per language. A null
    ``html`` is a dead letter with ``payload_bytes`` 0."""

    def __init__(self, opts: ExtractOptions | None = None,
                 markdown: bool = False):
        self.opts = opts or ExtractOptions.experimental()
        self.markdown = markdown

    def __call__(self, batch: pa.Table) -> pa.Table:
        htmls = batch.column("html").to_pylist()
        return extract_rows(
            batch, [null_input("html") if h is None else h for h in htmls],
            [0 if h is None else len(h) for h in htmls],
            self.opts, self.markdown)


# output schema of the element-level stage: one row per output element,
# in final document order (after header/footer dedup, footnote
# reordering, and page-break merges) — the Ray-surface equivalent of the
# reference's DocumentOutput element list (doc_output.py:14-27)
ELEMENTS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("section", pa.string()),       # header | body | footer
        ("kind", pa.string()),          # body | heading | footnotes
        ("elem_idx", pa.int32()),       # position within the section
        ("idx_page", pa.int32()),
        ("text", pa.large_string()),
        ("error", pa.string()),
    ]
)


class ExtractElements:
    """Element-level extraction: explodes each document into its output
    elements (flat_map shape: one input row → N output rows). Same
    dead-letter rule as ExtractDocs: a failed document, or one with a
    null ``url``, ``html`` or ``lang``, yields one row with the error
    set."""

    def __init__(self, opts: ExtractOptions | None = None):
        self.opts = opts or ExtractOptions.experimental()

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        kernel_of = lang_options(self.opts, langs)
        rows = []
        for url, html, lang in zip(batch.column("url").to_pylist(),
                                   batch.column("html").to_pylist(), langs):
            try:
                for col, v in (("url", url), ("html", html), ("lang", lang)):
                    if v is None:
                        raise null_input(col)
                kern = DocumentKernel(orjson.loads(html), *kernel_of[lang])
                rows += [(url, section, e.kind, i,
                          -1 if e.idx_page is None else e.idx_page,
                          e.render(), None)
                         for section, elems in (("header", kern.header),
                                                ("body", kern.body),
                                                ("footer", kern.footer))
                         for i, e in enumerate(elems)]
            except Exception as exc:  # noqa: BLE001 — dead-letter semantics
                rows.append((url, "error", "error", 0, -1, None,
                             dead_letter(exc)["error"]))
        cols = zip(*rows) if rows else [[]] * len(ELEMENTS_SCHEMA)
        return pa.table(dict(zip(ELEMENTS_SCHEMA.names, cols)),
                        schema=ELEMENTS_SCHEMA)
